"""End-to-end acceptance gate.

Every guarantee the toolkit makes is pinned here with its tolerance and,
where stated, its runtime budget.  Each test prints one PASS/FAIL line
(run pytest with -s to see them inline).  Frozen numbers were produced by
the package's own independent oracles (fixed-step RK4 integration and the
adaptive band quadrature) and act as regression values; the two xfail
tests record claims the implementation measurably contradicts, with the
measured numbers in the reason strings.
"""

import json
import math
import time

import numpy as np
import pytest

from statransport import cli
from statransport.designer import (
    PhysicalUnits,
    TransportSpec,
    build_trajectory,
    endpoint_residuals,
    make_auxiliary,
    rescaled,
    verify_boundary_conditions,
)
from statransport.evaluator import (
    classical_simulate,
    excitation_joules,
    final_excitation,
    flatness_order,
    fourier_accel,
    fourier_factorized,
)
from statransport.qsim import verification_report


def _line(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


# -- 1: design correctness ------------------------------------------------------


def test_criterion_1_design_correctness():
    rng = np.random.default_rng(20260819)
    specs = []
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        d = float(rng.uniform(0.5, 100.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        tf = float(rng.uniform(0.5, 50.0))
        freqs = tuple(float(f) for f in rng.uniform(0.3, 3.0, size=n))
        specs.append(TransportSpec(d=d, t_f=tf, freqs=freqs))

    t0 = time.perf_counter()
    protocols = [build_trajectory(s) for s in specs]
    elapsed = time.perf_counter() - t0

    worst = 0.0
    for p in protocols:
        res = endpoint_residuals(p)
        worst = max(worst, max(abs(v) for v in res.values()) / abs(p.dspec.d))

    flat_ok = True
    for n in range(1, 5):
        aux = make_auxiliary(TransportSpec(d=1.0, t_f=1.0, freqs=(1.0,) * n))
        bc = verify_boundary_conditions(aux)
        flat_ok &= all(bc[k] == (0, 0) for k in range(2 * n))

    ok = worst <= 1e-10 and flat_ok and elapsed < 1.0
    _line(ok, "criterion 1 (design correctness)",
          f"worst endpoint residual {worst:.2e} of |d| (tol 1e-10); "
          f"shape derivatives exactly zero through order 2N-1: {flat_ok}; "
          f"1000 random builds in {elapsed * 1e3:.0f} ms (limit 1000 ms)")
    assert worst <= 1e-10
    assert flat_ok
    assert elapsed < 1.0


# -- 2: spectral zeros exactly at the design frequencies -------------------------


def test_criterion_2_zero_placement():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(60):
        n = int(rng.integers(1, 5))
        d = float(rng.uniform(0.5, 50.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        tf = float(rng.uniform(1.0, 30.0))
        cases.append((d, tf, tuple(float(f) for f in rng.uniform(0.3, 3.0, size=n))))
    # dual species: one waveform, two trap frequencies, both must stay cold
    cases.append((20.0, 3.0 * math.pi, (1.0, 1.356)))

    # the time-domain oracle certifies the zeros: sqrt(2 w q) is the |F(w_i)|
    # a residual excitation of q quanta would imply
    worst_f = worst_q = worst_collapsed = 0.0
    s = np.linspace(0.0, 1.0, 2001)
    for d, tf, freqs in cases:
        p = build_trajectory(TransportSpec(d=d, t_f=tf, freqs=freqs))
        a_max = float(np.max(np.abs(p.a0(s))))
        for wi in freqs:
            q = classical_simulate(p, wi, n_steps=8000).final_quanta
            worst_f = max(worst_f, math.sqrt(2.0 * wi * q) / (a_max * tf))
            worst_q = max(worst_q, q / ((a_max * tf) ** 2 / (2.0 * wi)))
            assert final_excitation(p, wi) == 0.0  # structural zero in the product form
            # collapsed-coefficient transform is condition-limited near deep
            # zeros (four wide-spread frequencies lose ~8 digits); sanity only
            worst_collapsed = max(worst_collapsed, abs(fourier_accel(p, wi)) / (a_max * tf))

    ok = worst_f <= 1e-9 and worst_q <= 1e-18 and worst_collapsed <= 1e-6
    _line(ok, "criterion 2 (zero placement)",
          f"worst implied |F(w_i)| {worst_f:.2e} of max|a|*t_f (tol 1e-9), "
          f"worst residual excitation {worst_q:.2e} of scale (tol 1e-18), "
          f"{len(cases)} designs incl. dual-species; collapsed-route check "
          f"{worst_collapsed:.2e}")
    assert worst_f <= 1e-9
    assert worst_q <= 1e-18
    assert worst_collapsed <= 1e-6


# -- 3: three independent oracles agree ------------------------------------------


def test_criterion_3_transform_vs_classical_oracle():
    omegas = np.linspace(0.9, 1.1, 21)
    worst = 0.0
    t0 = time.perf_counter()
    for freqs in ((1.0,), (0.98, 1.02), (0.95, 1.0, 1.05)):
        p = build_trajectory(TransportSpec(d=1.0, t_f=3.0, freqs=freqs))
        pairs = [
            (final_excitation(p, w), classical_simulate(p, w, n_steps=24000).final_quanta)
            for w in omegas
        ]
        floor = 1e-16 * max(max(qf, qr) for qf, qr in pairs)
        for qf, qr in pairs:
            if max(qf, qr) <= floor:
                continue  # a probe sitting on a design zero: both routes say zero
            worst = max(worst, abs(qf - qr) / max(qf, qr))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-6
    _line(ok, "criterion 3a (transform vs classical oracle)",
          f"worst relative gap {worst:.2e} over 21 probes x 3 designs "
          f"(tol 1e-6) in {elapsed:.1f} s")
    assert worst <= 1e-6


def test_criterion_3_quantum_vs_classical_oracle():
    t0 = time.perf_counter()
    p = build_trajectory(TransportSpec(d=30.0, t_f=2.5 * math.pi, freqs=(0.98, 1.02)))
    worst = 0.0
    for w in (0.9, 0.95, 1.0, 1.05, 1.1):
        rep = verification_report(p, omega=w)
        assert rep["n_points"] <= 8192
        rel = rep["quantum_classical_rel_err"]
        if rel is None:
            # both oracles call the residual zero at this probe
            assert rep["classical_delta_e_quanta"] <= 1e-6
            assert abs(rep["delta_e_quanta"]) <= 1e-4
        else:
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-3 and elapsed < 120.0
    _line(ok, "criterion 3b (quantum vs classical oracle)",
          f"worst relative gap {worst:.2e} over 5 probes at d = 30 "
          f"(tol 1e-3), {elapsed:.1f} s (limit 120 s)")
    assert worst <= 1e-3
    assert elapsed < 120.0


# -- 4: the transform factorizes into zeros times a smooth envelope ---------------


def test_criterion_4_factorization_identity():
    grid = np.linspace(0.0, 3.0, 301)
    worst_scaled = 0.0
    worst_pointwise = 0.0
    for freqs in ((1.0,), (0.98, 1.02), (0.95, 1.0, 1.05)):
        p = build_trajectory(TransportSpec(d=1.0, t_f=3.0, freqs=freqs))
        fa = np.array([abs(fourier_accel(p, w)) for w in grid])
        ff = np.array([fourier_factorized(p, w) for w in grid])
        fmax = float(fa.max())
        worst_scaled = max(worst_scaled, float(np.max(np.abs(fa - ff))) / fmax)
        if len(freqs) <= 2:
            # away from the zeros the agreement is pointwise, not just in scale
            sig = np.maximum(fa, ff) > 1e-3 * fmax
            rel = np.abs(fa - ff)[sig] / np.maximum(fa, ff)[sig]
            worst_pointwise = max(worst_pointwise, float(rel.max()))

    ok = worst_scaled <= 1e-9 and worst_pointwise <= 1e-9
    _line(ok, "criterion 4 (factorization identity)",
          f"max route difference {worst_scaled:.2e} of the spectrum peak over "
          f"301 probes on [0, 3w0] (tol 1e-9); pointwise {worst_pointwise:.2e} "
          f"for the 1- and 2-frequency designs")
    assert worst_scaled <= 1e-9
    assert worst_pointwise <= 1e-9


# -- 5: coincident zeros flatten the spectrum to order 2N -------------------------


def test_criterion_5_flatness_order():
    slopes = {}
    for n in (1, 2, 3):
        p = build_trajectory(TransportSpec(d=1.0, t_f=2.5 * math.pi, freqs=(1.0,) * n))
        slopes[n] = flatness_order(p, 1.0)

    ok = all(abs(slopes[n] - 2.0 * n) <= 0.1 for n in slopes)
    _line(ok, "criterion 5 (flatness order)",
          "log-log slopes " + ", ".join(f"N={n}: {s:.4f}" for n, s in slopes.items())
          + " (want 2N +/- 0.1)")
    for n, s in slopes.items():
        assert abs(s - 2.0 * n) <= 0.1


# -- 6: band-average robustness table ---------------------------------------------

# Regression pins from the in-repo quadrature oracle (this code, this
# platform); the assertions below allow 1e-5 relative drift.
_FROZEN = {
    ("fast", "one"): 3.6687281805e4,
    ("fast", "two_star"): 2.9689498509e1,
    ("fast", "three_star"): 1.6641025975e-2,
    ("fast", "three_eps_0"): 1.0394083675e-1,
    ("fast", "three_eps_0.03"): 6.7891225413e-1,
    ("slow", "one"): 9.6913389536e1,
    ("slow", "two_star"): 2.3482577964e-1,
    ("slow", "three_star"): 7.0428224657e-4,
}


@pytest.fixture(scope="module")
def robustness_table(tmp_path_factory):
    """The band-average table as `sta-transport reproduce fig2` writes it.

    "fast" is the t_f = 2 pi * 1.25 block of fig2's summary, "slow" the
    t_f = 2 pi * 2.5 block, at fig2's defaults d = 30000 and eta = 0.02.
    """
    outdir = tmp_path_factory.mktemp("fig2")
    t0 = time.perf_counter()
    assert cli.main(["reproduce", "fig2", "--outdir", str(outdir)]) == 0
    elapsed = time.perf_counter() - t0
    summary = json.loads((outdir / "fig2_summary.json").read_text())
    assert (summary["d"], summary["eta"], summary["omega0"]) == (30000.0, 0.02, 1.0)
    return {"fast": summary["tf1p25"], "slow": summary["tf2p5"], "elapsed": elapsed}


def test_criterion_6_frozen_regression(robustness_table):
    fast, slow = robustness_table["fast"], robustness_table["slow"]
    got = {
        ("fast", "one"): fast["lambda_one_point"],
        ("fast", "two_star"): fast["two_point"]["lambda_star"],
        ("fast", "three_star"): fast["three_point"]["lambda_star"],
        ("fast", "three_eps_0"): fast["three_point"]["lambda_at_zero"],
        ("fast", "three_eps_0.03"): fast["lambda_three_point_at_eps_0p03"],
        ("slow", "one"): slow["lambda_one_point"],
        ("slow", "two_star"): slow["two_point"]["lambda_star"],
        ("slow", "three_star"): slow["three_point"]["lambda_star"],
    }
    drift = max(abs(got[k] / _FROZEN[k] - 1.0) for k in _FROZEN)
    elapsed = robustness_table["elapsed"]
    ok = drift <= 1e-5 and elapsed < 30.0
    _line(ok, "criterion 6 (robustness table regression)",
          f"max drift from frozen band averages {drift:.2e} (tol 1e-5), "
          f"table built in {elapsed:.1f} s (limit 30 s)")
    assert drift <= 1e-5
    assert elapsed < 30.0


def test_criterion_6a_three_point_optimum_gain(robustness_table):
    fast = robustness_table["fast"]
    lam1 = fast["lambda_one_point"]
    lam3 = fast["three_point"]["lambda_star"]
    ok = lam3 <= 1e-5 * lam1
    _line(ok, "criterion 6a (optimal 3-frequency gain)",
          f"Lambda* = {lam3:.3e} vs single-frequency {lam1:.3e}: "
          f"ratio {lam3 / lam1:.2e} (want <= 1e-5)")
    assert lam3 <= 1e-5 * lam1


@pytest.mark.xfail(
    strict=True,
    reason="the in-repo quadrature oracle gives Lambda(eps=0)/Lambda(eps=0.03) = "
    "0.153 at eta = 0.02: the eps = 0.03 placement puts its outer zeros outside "
    "the +/-2% band and averages worse than coincident zeros there.  The spread "
    "beats coincident by 6.2x at its optimum spacing eps ~ 0.0155, and the "
    "stated factor >= 5 holds for the inverted ratio at eps = 0.03, but not as "
    "written.",
)
def test_criterion_6b_spread_at_003_beats_coincident(robustness_table):
    fast = robustness_table["fast"]
    lam_coincident = fast["three_point"]["lambda_at_zero"]
    lam_spread = fast["lambda_three_point_at_eps_0p03"]
    ratio = lam_coincident / lam_spread
    _line(ratio >= 5.0, "criterion 6b (eps = 0.03 vs coincident)",
          f"Lambda(0)/Lambda(0.03) = {ratio:.3f} (want >= 5)")
    assert ratio >= 5.0


def test_criterion_6c_each_added_zero_pays(robustness_table):
    fast = robustness_table["fast"]
    lam1 = fast["lambda_one_point"]
    lam2 = fast["two_point"]["lambda_star"]
    lam3 = fast["three_point"]["lambda_star"]
    r21, r32 = lam1 / lam2, lam2 / lam3
    ok = r21 >= 1e2 and r32 >= 1e2
    _line(ok, "criterion 6c (order-by-order improvement)",
          f"1->2 frequencies: {r21:.0f}x, 2->3 frequencies: {r32:.0f}x (want >= 100x each)")
    assert r21 >= 1e2
    assert r32 >= 1e2


def test_criterion_6d_slower_transport_always_calmer(robustness_table):
    fast, slow = robustness_table["fast"], robustness_table["slow"]
    pairs = [("one", fast["lambda_one_point"], slow["lambda_one_point"])]
    for name, kind in (("two", "two_point"), ("three", "three_point")):
        pairs.append((f"{name}*", fast[kind]["lambda_star"], slow[kind]["lambda_star"]))
        pairs.append((f"{name}(0)", fast[kind]["lambda_at_zero"], slow[kind]["lambda_at_zero"]))
    ok = all(slow < fast for _, fast, slow in pairs)
    _line(ok, "criterion 6d (doubling t_f lowers every entry)",
          "; ".join(f"{name}: {slow:.3e} < {fast:.3e}" for name, fast, slow in pairs))
    assert ok


# -- 7: trajectory anatomy of the coincident 3-frequency design -------------------


def test_criterion_7_overshoot_and_its_cure():
    tf = 2.5 * math.pi
    s = np.linspace(0.0, 1.0, 4001)
    p = build_trajectory(TransportSpec(d=1.0, t_f=tf, freqs=(1.0, 1.0, 1.0)))
    x = p.x0(s)
    overshoot = float(np.max(np.abs(x)))
    dx = np.diff(x)
    non_monotone = bool(np.any(dx > 0) and np.any(dx < 0))

    slower = build_trajectory(TransportSpec(d=1.0, t_f=1.25 * tf, freqs=(1.0, 1.0, 1.0)))
    overshoot_slow = float(np.max(np.abs(slower.x0(s))))

    ok = overshoot > 1.0 and non_monotone and overshoot_slow < overshoot
    _line(ok, "criterion 7a (overshoot and cure)",
          f"max|x0/d| = {overshoot:.4f} (> 1), non-monotone: {non_monotone}; "
          f"25% more time -> {overshoot_slow:.4f}")
    assert overshoot > 1.0
    assert non_monotone
    assert overshoot_slow < overshoot


@pytest.mark.xfail(
    strict=True,
    reason="measured transient peaks at d = 1, t_f = 2.5 pi: N=1 3.88e-2, "
    "N=2 2.09e-2, N=3 2.79e-1 quanta.  The three-frequency design does carry "
    "the largest transient, but the single-frequency design peaks above the "
    "two-frequency one, so the strict N=3 > N=2 > N=1 ordering fails.",
)
def test_criterion_7b_transient_peaks_grow_with_order():
    tf = 2.5 * math.pi
    peaks = []
    for n in (1, 2, 3):
        p = build_trajectory(TransportSpec(d=1.0, t_f=tf, freqs=(1.0,) * n))
        peaks.append(float(np.max(classical_simulate(p, 1.0, n_steps=4000).quanta)))
    ok = peaks[2] > peaks[1] > peaks[0]
    _line(ok, "criterion 7b (transient peak ordering)",
          f"peaks N=1..3: {peaks[0]:.3e}, {peaks[1]:.3e}, {peaks[2]:.3e} "
          f"(want strictly increasing)")
    assert peaks[2] > peaks[1] > peaks[0]


# -- 8: exact wavefunction against the split-operator propagator ------------------


def test_criterion_8_analytic_fidelity_and_phase():
    t0 = time.perf_counter()
    worst_fid, worst_phase = 1.0, 0.0
    for n in (1, 2, 3):
        p = build_trajectory(TransportSpec(d=30.0, t_f=2.5 * math.pi, freqs=(1.0,) * n))
        for w in (1.0, 1.03):
            rep = verification_report(p, omega=w)
            worst_fid = min(worst_fid, rep["fidelity_vs_analytic"])
            worst_phase = max(worst_phase, abs(rep["overlap_phase_rad"]))
    elapsed = time.perf_counter() - t0

    ok = worst_fid >= 1.0 - 1e-5 and worst_phase <= 1e-3
    _line(ok, "criterion 8 (closed-form wavefunction)",
          f"min fidelity {worst_fid:.12f} (want >= 1 - 1e-5), "
          f"max overlap phase {worst_phase:.2e} rad (want <= 1e-3), {elapsed:.1f} s")
    assert worst_fid >= 1.0 - 1e-5
    assert worst_phase <= 1e-3


# -- SI-scale experiment: exact closed form, reduced-distance quantum check -------


def test_si_scale_ion_transport():
    from scipy import constants

    units = PhysicalUnits(mass_kg=39.9626 * constants.atomic_mass,
                          omega_ref=2.0 * math.pi * 1.41e6)
    d_m = 30000.0 * units.length_scale
    tf_s = 2.5 * math.pi / units.omega_ref
    phys = build_trajectory(
        TransportSpec(d=d_m, t_f=tf_s, freqs=(units.omega_ref,), units=units)
    )
    dimless = build_trajectory(TransportSpec(d=30000.0, t_f=2.5 * math.pi, freqs=(1.0,)))

    # the closed form runs at the full 30000 oscillator lengths in both unit systems
    gaps = [
        abs(final_excitation(phys, w) / final_excitation(dimless, w) - 1.0)
        for w in (0.97, 1.05)
    ]
    joules = excitation_joules(phys, 1.05)

    # quantum oracle at reduced distance; the exact d^2 law carries it back up
    small_d = 30.0
    rep = verification_report(rescaled(dimless, d=small_d), omega=1.05)
    lifted = rep["delta_e_quanta"] * (30000.0 / small_d) ** 2
    want = final_excitation(dimless, 1.05)
    lift_err = abs(lifted / want - 1.0)

    ok = max(gaps) <= 1e-9 and lift_err <= 2e-3 and joules > 0.0
    _line(ok, "SI-scale ion transport",
          f"physical vs dimensionless closed form gap {max(gaps):.2e} "
          f"(tol 1e-9); quantum residual lifted by (d_full/d_small)^2 lands "
          f"within {lift_err:.2e} of the closed form (tol 2e-3); "
          f"excitation at 5% detuning = {joules:.3e} J")
    assert max(gaps) <= 1e-9
    assert lift_err <= 2e-3
    assert joules > 0.0
