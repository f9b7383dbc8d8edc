import cmath
import math
from fractions import Fraction
import sys
import threading

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import spherical_jn

from statransport.designer import (
    PhysicalUnits,
    TransportSpec,
    _exact_tables,
    _term_scales,
    build_trajectory,
    exact_position,
)
from statransport.errors import AccuracyWarning, ResolutionWarning, SpecError
from statransport.evaluator import (
    _envelope_abs,
    _gauss_nodes,
    _osc_form,
    _mirrored_samples,
    _OscillatoryForm,
    _structured_samples,
    classical_simulate,
    complex_amplitude,
    excitation_curve,
    excitation_joules,
    final_excitation,
    flatness_order,
    fourier_accel,
    fourier_factorized,
    lambda_metric,
)
from statransport.optimizer import PlacementPattern
from statransport.polycalc import MAX_POINTS


def _protocol(freqs, tf=3.0, d=1.0):
    return build_trajectory(TransportSpec(d=d, t_f=tf, freqs=tuple(freqs)))


# -- oscillatory integral core ------------------------------------------------


def test_constant_integrand_closed_form():
    form = _osc_form((1.0,))
    assert form.integral(0.0) == 1.0
    for w in (1e-3, 0.1, 0.4999, 0.5001, 2.0, 10.0, 300.0):
        want = (1.0 - cmath.exp(-1j * w)) / (1j * w)
        got = form.integral(w)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_linear_integrand_closed_form():
    # the closed form itself cancels badly below w ~ 0.1, so start at 0.3;
    # the dense-quadrature test covers the small-w side
    form = _osc_form((0.0, 1.0))
    for w in (0.3, 0.7, 5.0, 120.0):
        iw = 1j * w
        want = cmath.exp(-iw) / (-iw) + (1.0 - cmath.exp(-iw)) / (iw * iw)
        got = form.integral(w)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-3)


def test_routes_agree_against_dense_quadrature():
    # an aggressive cross-check straddling the small/large W switchover
    rng = np.random.default_rng(3)
    coeffs = tuple(rng.uniform(-2.0, 2.0, size=6))
    form = _osc_form(coeffs)
    s = np.linspace(0.0, 1.0, 20001)
    p = np.polynomial.polynomial.polyval(s, np.array(coeffs))
    for w in (0.05, 0.3, 0.7, 2.5, 40.0, 200.0):
        ker = p * np.exp(-1j * w * s)
        want = complex(simpson(ker.real, x=s), simpson(ker.imag, x=s))
        got = form.integral(w)
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-6)


def test_moment_growth_is_thread_safe():
    # threads sharing one form grow its moment tables at once; each must see
    # complete tables and the single-threaded values, bit for bit
    coeffs = tuple(float(c) for c in _protocol((1.0,) * 3).aux.base.coeffs)
    ws = [0.5 + 0.75 * k for k in range(320)]  # moment order int(w) + 60 climbs to 300
    serial = _OscillatoryForm(coeffs)
    want = [serial.integral(w) for w in ws]
    shared = _OscillatoryForm(coeffs)
    results, errors = {}, []

    def walk(k):
        try:
            results[k] = [shared.integral(w) for w in ws]
        except BaseException as err:  # reported below, not lost in the thread
            errors.append(err)

    threads = [threading.Thread(target=walk, args=(k,), daemon=True) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(results[k] == want for k in range(8))
    assert shared._extend_moments(300) == serial._extend_moments(300)


# -- closed-form envelope ---------------------------------------------------------


def test_bessel_envelope_matches_quadrature():
    # 50-digit quadrature of the unexpanded g = s^2N (1-s)^2N (1-2s)
    ws = [1e-4, 0.01, 0.3, 0.999, 1.001, 2.5, 7.0, 20.0, 70.0, 200.0]
    with mpmath.workdps(50):
        for n in range(1, MAX_POINTS + 1):
            got = _envelope_abs(n, np.array(ws))
            for w, value in zip(ws, got):
                wm = mpmath.mpf(w)
                want = abs(mpmath.quad(
                    lambda s: s ** (2 * n) * (1 - s) ** (2 * n) * (1 - 2 * s) * mpmath.expj(-wm * s),
                    mpmath.linspace(0, 1, int(w / 4) + 2),
                    method="gauss-legendre",
                ))
                assert abs(value - want) <= 1e-12 * want, (n, w)


# -- transform of the trap acceleration ----------------------------------------


def test_fourier_accel_vs_quadrature():
    p = _protocol((0.98, 1.02))
    tf = p.dspec.t_f
    t = np.linspace(0.0, tf, 40001)
    a = p.a0(t / tf)
    for w in (0.5, 0.9, 1.3):
        ker = a * np.exp(-1j * w * t)
        want = complex(simpson(ker.real, x=t), simpson(ker.imag, x=t))
        got = fourier_accel(p, w)
        # the comparison floor is Simpson's own truncation at this step size
        assert abs(got - want) <= 1e-8 * max(abs(want), 1e-6)


def test_factorized_matches_collapsed_route():
    # away from the zeros the two routes must agree to full tolerance
    for freqs in ((1.0,), (0.98, 1.02)):
        p = _protocol(freqs)
        mags = []
        for w in np.linspace(0.05, 3.0, 60):
            fa = abs(fourier_accel(p, w))
            ff = fourier_factorized(p, w)
            mags.append((w, fa, ff))
        fmax = max(m[1] for m in mags)
        for w, fa, ff in mags:
            if max(fa, ff) > 1e-3 * fmax:
                assert abs(fa - ff) <= 1e-9 * max(fa, ff)


def test_final_excitation_exact_zero_at_design_freqs():
    p = _protocol((0.9, 1.0, 1.2), tf=6.0)
    for wi in (0.9, 1.0, 1.2):
        assert fourier_factorized(p, wi) == 0.0
        assert final_excitation(p, wi) == 0.0


def test_final_excitation_validation():
    p = _protocol((1.0,))
    with pytest.raises(SpecError):
        final_excitation(p, 0.0)
    with pytest.raises(SpecError):
        final_excitation(p, -1.0)


def test_excitation_scales_with_d_squared():
    p1 = _protocol((1.0,), d=1.0)
    p2 = _protocol((1.0,), d=2.0)
    for w in (0.8, 1.1, 1.4):
        assert final_excitation(p2, w) == pytest.approx(
            4.0 * final_excitation(p1, w), rel=1e-12
        )


def test_excitation_joules_needs_units():
    p = _protocol((1.0,))
    with pytest.raises(SpecError):
        excitation_joules(p, 1.1)


def test_excitation_joules_dimensional():
    from scipy import constants

    units = PhysicalUnits(mass_kg=39.9626 * constants.atomic_mass,
                          omega_ref=2.0 * np.pi * 1.41e6)
    spec = TransportSpec(
        d=1000.0 * units.length_scale,
        t_f=2.5 * np.pi / units.omega_ref,
        freqs=(units.omega_ref,),
        units=units,
    )
    p = build_trajectory(spec)
    w = 1.03  # probe in units of omega_ref
    quanta = final_excitation(p, w)
    joules = excitation_joules(p, w)
    assert joules == pytest.approx(quanta * constants.hbar * w * units.omega_ref, rel=1e-12)
    assert joules > 0.0


def test_excitation_curve_csv(tmp_path):
    p = _protocol((1.0, 1.05))
    ws = np.linspace(0.9, 1.1, 11)
    curve = excitation_curve(p, ws)
    path = tmp_path / "spectrum.csv"
    curve.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "omega,delta_e_quanta"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], np.array(curve.omegas))
    assert np.array_equal(back[:, 1], np.array(curve.quanta))


# -- classical oracle -----------------------------------------------------------


def test_classical_final_energy_matches_transform():
    p = _protocol((0.98, 1.02))
    for w in (0.9, 0.93, 1.07):
        want = final_excitation(p, w)
        got = classical_simulate(p, w, n_steps=8000).final_quanta
        assert got == pytest.approx(want, rel=1e-6)


def test_classical_rest_at_design_frequency():
    # at a design frequency the particle parks: residual motion ~ rounding
    p = _protocol((1.0, 1.1), tf=5.0)
    res = classical_simulate(p, 1.1, n_steps=6000)
    assert res.final_quanta < 1e-15


def test_classical_validation_and_warning():
    p = _protocol((1.0,), tf=50.0)
    with pytest.raises(SpecError):
        classical_simulate(p, 1.0, n_steps=50)
    with pytest.raises(SpecError):
        classical_simulate(p, -1.0)
    with pytest.warns(ResolutionWarning):
        classical_simulate(p, 3.0, n_steps=100)


def test_classical_starts_from_rest():
    res = classical_simulate(_protocol((1.0,)), 1.0, n_steps=1000)
    assert res.xi[0] == 0.0 and res.xi_dot[0] == 0.0
    assert res.quanta[0] == 0.0
    assert res.states.shape == (1001, 3)


def _rk4_loop(protocol, omega, n_steps):
    """The classical oracle as a per-step RK4 loop, kept as the reference."""
    tf = protocol.dspec.t_f
    forcing = -_mirrored_samples(protocol, 2 * n_steps + 1, 0)
    h = tf / n_steps
    w2 = omega * omega
    xi = np.zeros(n_steps + 1)
    xd = np.zeros(n_steps + 1)
    x, v = 0.0, 0.0
    for k in range(n_steps):
        f0, fh, f1 = forcing[2 * k], forcing[2 * k + 1], forcing[2 * k + 2]
        k1x = v
        k1v = -w2 * x + f0
        k2x = v + 0.5 * h * k1v
        k2v = -w2 * (x + 0.5 * h * k1x) + fh
        k3x = v + 0.5 * h * k2v
        k3v = -w2 * (x + 0.5 * h * k2x) + fh
        k4x = v + h * k3v
        k4v = -w2 * (x + h * k3x) + f1
        x += h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        v += h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        xi[k + 1] = x
        xd[k + 1] = v
    return xi, xd


@pytest.mark.parametrize("m", [201, 202])
def test_mirrored_samples_match_exact_trajectory(m):
    # a0 is odd and v0 even about the midpoint, so the first half of the
    # grid gives every sample; checked against exact rational evaluation
    s = np.linspace(0.0, 1.0, m)
    picks = np.arange(0, m, 10).tolist() + [m - 1]
    for freqs in ((1.0,), (0.98, 1.02), (0.95, 1.0, 1.05), (0.9, 0.97, 1.03, 1.1)):
        p = _protocol(freqs, tf=2.5 * math.pi, d=30.0)
        scales = [Fraction(c) for c in _term_scales(p.aux, p.pj, p.dspec.t_f)]
        for which in (0, 1):
            got = _mirrored_samples(p, m, which)
            exact = [
                float(sum(c * terms[which](Fraction(s[i]))
                          for c, terms in zip(scales, _exact_tables(len(freqs))))
                      * (Fraction(p.dspec.t_f) if which else 1))
                for i in picks
            ]
            assert np.max(np.abs(got[picks] - exact)) <= 1e-13 * np.max(np.abs(got))


@pytest.mark.parametrize("tf", [2.0 * math.pi * 1.25, 2.0 * math.pi * 2.5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_structured_positions_match_exact_position(n, tf):
    # the split-operator oracle's trap positions: exact to 1e-10 d up to
    # N = 4 (measured 1.2e-11) and 1e-7 d at N = 5 (6.9e-9), where the
    # collapsed monomial x0 is off by 9.8e-8 and 1.2e-4
    d = 20.0
    s = np.linspace(0.0, 1.0, 41)
    for freqs in ((1.0,) * n, tuple(np.linspace(0.9, 1.1, n)) if n > 1 else (1.1,)):
        p = _protocol(freqs, tf=tf, d=d)
        exact = np.array([float(exact_position(p, Fraction(float(si)))) for si in s])
        err = np.max(np.abs(_structured_samples(p, s, 2) - exact))
        assert err <= (1e-10 if n <= 4 else 1e-7) * d


@pytest.mark.parametrize("freqs", [(1.0,), (0.95, 1.0, 1.05), (0.9, 0.97, 1.03, 1.1)])
def test_rk4_recurrence_matches_step_loop(freqs):
    p = _protocol(freqs, tf=2.5 * math.pi, d=30.0)
    for w in (0.7, 1.02, 1.4):
        res = classical_simulate(p, w, n_steps=4000)
        xi, xd = _rk4_loop(p, w, 4000)
        assert np.max(np.abs(res.xi - xi)) <= 1e-12 * np.max(np.abs(xi))
        assert np.max(np.abs(res.xi_dot - xd)) <= 1e-12 * np.max(np.abs(xd))


def test_classical_csv(tmp_path):
    res = classical_simulate(_protocol((1.0,)), 1.0, n_steps=1000)
    path = tmp_path / "transient.csv"
    res.to_csv(path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.shape == (1001, 2)
    assert back[-1, 1] == res.final_quanta


def test_amplitude_partial_transform_consistent():
    p = _protocol((0.95, 1.05), tf=6.0)
    w = 1.12
    assert complex_amplitude(p, w, 0.0) == 0.0
    wf = complex_amplitude(p, w, p.dspec.t_f)
    assert 0.5 * abs(wf) ** 2 / w == pytest.approx(final_excitation(p, w), rel=1e-9)
    # halfway through, amplitude must match the integrated oscillator state
    res = classical_simulate(p, w, n_steps=16000)
    mid = len(res.times) // 2
    w_mid = complex(res.xi_dot[mid], w * res.xi[mid])
    assert abs(complex_amplitude(p, w, res.times[mid])) == pytest.approx(
        abs(w_mid), rel=1e-5, abs=1e-12
    )
    with pytest.raises(SpecError):
        complex_amplitude(p, w, -0.1)


# -- band average and flatness ---------------------------------------------------


def test_lambda_matches_direct_quadrature():
    p = _protocol((0.98, 1.02))
    omega0, eta = 1.0, 0.04
    ws = np.linspace(omega0 * (1 - eta), omega0 * (1 + eta), 4001)
    f2 = np.array([fourier_factorized(p, w) ** 2 for w in ws])
    want = simpson(f2, x=ws) / (2.0 * omega0 * eta) / (2.0 * omega0)
    assert lambda_metric(p, omega0, eta) == pytest.approx(want, rel=1e-8)


def _pointwise_lambda(protocol, omega0, eta, n_quad=16):
    """The band average probe by probe through fourier_factorized.

    Same panels, node counts and stopping rule as lambda_metric; only the
    envelope route differs (the endpoint/moment expansion here).
    """
    edges = np.linspace(omega0 * (1.0 - eta), omega0 * (1.0 + eta), 9)
    inv_norm = 1.0 / (2.0 * omega0 * eta * 2.0 * omega0)

    def composite(n):
        x, w = _gauss_nodes(n)
        acc = []
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for xi_, wi_ in zip(x, w):
                mag = fourier_factorized(protocol, mid + half * xi_)
                acc.append(half * wi_ * mag * mag)
        return math.fsum(acc) * inv_norm

    prev, n = composite(n_quad), n_quad
    for _ in range(6):
        n *= 2
        cur = composite(n)
        if abs(cur - prev) <= 1e-8 * abs(cur):
            break
        prev = cur
    return cur


@pytest.mark.parametrize("kind, n_points", [
    ("one_point", None), ("two_point", None), ("three_point", None), ("symmetric_n", 4),
])
def test_lambda_matches_pointwise_composite(kind, n_points):
    # t_f from 2 pi * 1.25 on: at shorter t_f the expansion itself is off
    # by up to 1.7e-9 for N = 4 (W ~ 3), while the closed form holds 1e-14
    for tf in (2 * math.pi * 1.25, 2 * math.pi * 1.8, 2 * math.pi * 2.5):
        for eps, eta in ((0.0, 0.02), (0.01, 0.04), (0.03, 0.03)):
            eps = 0.0 if kind == "one_point" else eps
            freqs = PlacementPattern(kind, eps, n_points).frequencies(1.0)
            p = _protocol(freqs, tf=tf, d=7.0)
            want = _pointwise_lambda(p, 1.0, eta)
            assert lambda_metric(p, 1.0, eta) == pytest.approx(want, rel=1e-10, abs=0.0)


def test_lambda_scales_with_d_squared():
    p1 = _protocol((1.0, 1.0), d=1.0)
    p2 = _protocol((1.0, 1.0), d=2.0)
    assert lambda_metric(p2, 1.0, 0.02) == pytest.approx(
        4.0 * lambda_metric(p1, 1.0, 0.02), rel=1e-12
    )


def _dense_band_average(protocol, omega0, eta):
    """Lambda on 24 Gauss nodes x (4 eta t_f + 8) panels, no refinement.

    |F|^2 = prod_i (w_i^2 - omega^2)^2 (norm t_f)^2 |I_g(omega t_f)|^2 with
    |I_g(W)| = (2N)! |j_(2N+1)(W/2)| / W^(2N) (DLMF 10.54.2); the panels
    are four per oscillation of |I_g|^2 across the band, or more.
    """
    tf, n = protocol.dspec.t_f, protocol.aux.n_points
    x, w = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(omega0 * (1.0 - eta), omega0 * (1.0 + eta), int(4 * eta * tf) + 9)
    mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
    halves = 0.5 * (edges[1:] - edges[:-1])[:, None]
    om = (mids + halves * x).ravel()
    big = om * tf
    env = math.factorial(2 * n) * np.abs(spherical_jn(2 * n + 1, 0.5 * big)) / big ** (2 * n)
    zeros = np.prod([(wi - om) * (wi + om) for wi in protocol.dspec.freqs], axis=0)
    vals = (halves * w).ravel() * (zeros * env * protocol.aux.norm * tf) ** 2
    return math.fsum(vals.tolist()) / (2.0 * omega0 * eta * 2.0 * omega0)


@pytest.mark.filterwarnings("error", category=AccuracyWarning)
@pytest.mark.parametrize("freqs", [(1.0,), (0.99, 1.0, 1.01)])
@pytest.mark.parametrize("tf", [1e5, 1e6])
def test_lambda_resolves_long_transports(tf, freqs):
    # at t_f = 1e6 the band spans ~6,400 oscillations of the envelope;
    # eight fixed panels were off by up to 3e-2 there
    p = _protocol(freqs, tf=tf)
    want = _dense_band_average(p, 1.0, 0.02)
    assert lambda_metric(p, 1.0, 0.02) == pytest.approx(want, rel=1e-10, abs=0.0)


def test_lambda_validation():
    p = _protocol((1.0,))
    with pytest.raises(SpecError):
        lambda_metric(p, 1.0, 0.0)
    with pytest.raises(SpecError):
        lambda_metric(p, 0.0, 0.02)
    # more envelope oscillations than panels allowed: refused before any node is built
    with pytest.raises(SpecError, match="envelope oscillations"):
        lambda_metric(_protocol((1.0,), tf=1e9), 1.0, 0.02)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_probes_reject_non_finite_frequencies(bad):
    p = _protocol((0.98, 1.02))
    with pytest.raises(SpecError):
        final_excitation(p, bad)
    with pytest.raises(SpecError):
        excitation_curve(p, [1.0, bad])
    with pytest.raises(SpecError):
        complex_amplitude(p, bad, 1.0)
    with pytest.raises(SpecError):
        lambda_metric(p, bad, 0.02)


def test_flatness_order_coincident_designs():
    for n, want in ((1, 2.0), (2, 4.0)):
        p = _protocol((1.0,) * n, tf=2.5 * np.pi)
        assert flatness_order(p, 1.0) == pytest.approx(want, abs=0.02)


def test_flatness_order_needs_coincident_freqs():
    p = _protocol((0.98, 1.02))
    with pytest.raises(SpecError):
        flatness_order(p, 1.0)
