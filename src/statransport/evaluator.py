"""Excitation diagnostics for transport protocols.

Everything here reduces to one oscillatory integral,

    I(W) = int_0^1 p(s) exp(-i W s) ds,        W = omega * t_f.

Single probes (final_excitation, fourier_factorized, excitation_curve and
the collapsed diagnostics) evaluate it two ways: an endpoint
(integration-by-parts) expansion that is accurate for large W, and a
Maclaurin moment series for small W.  Both are assembled with compensated
sums and carry cheap error predictors, so the switch between them is driven
by the predicted rounding error rather than by a fixed crossover alone.
The final excitation energy itself is computed through the factorized form
|prod_i (w_i^2 - omega^2)| * |envelope|, which keeps the design zeros exact
in structure instead of asking a collapsed polynomial to cancel fifteen
digits.

Band averages (lambda_metric) take the envelope from its closed form
instead: for the auxiliary shape g, I_g(W) = i (2N)! exp(-i W/2)
j_(2N+1)(W/2) / W^(2N) (DLMF 10.54.2), one spherical-Bessel evaluation over
all quadrature nodes at once.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.special import spherical_jn

from .designer import TransportProtocol, _exact_tables, _term_scales
from .errors import AccuracyWarning, ResolutionWarning, SpecError, check_positive

__all__ = [
    "fourier_accel",
    "fourier_factorized",
    "final_excitation",
    "excitation_joules",
    "ExcitationCurve",
    "excitation_curve",
    "ClassicalResult",
    "classical_simulate",
    "complex_amplitude",
    "lambda_metric",
    "flatness_order",
]

_EPS = 2.0 ** -52
_SERIES_ALWAYS_BELOW = 0.5  # moment series is mandatory here; endpoint form divides by W


class _OscillatoryForm:
    """Cached tables for int_0^1 p(s) exp(-i W s) ds at many W.

    d0/d1 hold the derivative values p^(k)(0), p^(k)(1); s01 their absolute
    counterparts for the error predictor.  Moments are grown lazily; a
    longer table is built aside and published in one assignment, so threads
    sharing a form never see the two moment lists at different lengths.
    """

    def __init__(self, coeffs):
        self.coeffs = coeffs
        deg = len(coeffs) - 1
        self.deg = deg
        # falling-factorial tables in exact ints, rounded once per product
        self.d0 = [math.factorial(k) * coeffs[k] if k <= deg else 0.0 for k in range(deg + 1)]
        d1, s1 = [], []
        for k in range(deg + 1):
            parts = [coeffs[m] * (math.factorial(m) // math.factorial(m - k)) for m in range(k, deg + 1)]
            d1.append(math.fsum(parts))
            s1.append(math.fsum(abs(p) for p in parts))
        self.d1 = d1
        self.s01 = [abs(a) + b for a, b in zip(self.d0, s1)]
        self._moments = ((), ())

    def _extend_moments(self, n):
        """(moments, absolute moments), each holding at least orders 0..n."""
        mom, mom_abs = self._moments
        if len(mom) <= n:
            mom, mom_abs = list(mom), list(mom_abs)
            for k in range(len(mom), n + 1):
                mom.append(math.fsum(c / (k + m + 1) for m, c in enumerate(self.coeffs)))
                mom_abs.append(math.fsum(abs(c) / (k + m + 1) for m, c in enumerate(self.coeffs)))
            self._moments = mom, mom_abs = tuple(mom), tuple(mom_abs)
        return mom, mom_abs

    # -- error predictors ----------------------------------------------------

    def _est_endpoint(self, w: float) -> float:
        inv = 1.0 / abs(w)
        f = inv
        worst = 0.0
        for k in range(self.deg + 1):
            worst = max(worst, f * self.s01[k])
            f *= inv
        return _EPS * worst

    def _est_series(self, w: float, nmax: int) -> float:
        _, mom_abs = self._extend_moments(nmax)
        aw = abs(w)
        pw = 1.0
        worst = 0.0
        for n in range(nmax + 1):
            worst = max(worst, pw * mom_abs[n])
            if n < nmax:
                pw *= aw / (n + 1)
        return _EPS * worst

    # -- evaluation routes ----------------------------------------------------

    def _series(self, w: float) -> complex:
        nmax = min(300, int(abs(w)) + 60)
        mom, _ = self._extend_moments(nmax)
        re, im = [], []
        pw = 1.0  # |w|^n / n!
        sign_w = 1.0 if w >= 0 else -1.0
        for n in range(nmax + 1):
            mag = pw * mom[n]
            # (-i w)^n cycles through 1, -i, -1, +i for w > 0
            q = n % 4
            if q == 0:
                re.append(mag)
            elif q == 1:
                im.append(-sign_w * mag)
            elif q == 2:
                re.append(-mag)
            else:
                im.append(sign_w * mag)
            pw *= abs(w) / (n + 1)
        return complex(math.fsum(re), math.fsum(im))

    def _endpoint(self, w: float) -> complex:
        iw = 1j * w
        inv = 1.0 / iw
        re0, im0, re1, im1 = [], [], [], []
        f = inv
        for k in range(self.deg + 1):
            t0 = f * self.d0[k]
            t1 = f * self.d1[k]
            re0.append(t0.real)
            im0.append(t0.imag)
            re1.append(t1.real)
            im1.append(t1.imag)
            f *= inv
        total0 = complex(math.fsum(re0), math.fsum(im0))
        total1 = complex(math.fsum(re1), math.fsum(im1))
        return total0 - cmath.exp(-iw) * total1

    def integral(self, w: float) -> complex:
        if w == 0.0:
            return complex(self._extend_moments(0)[0][0], 0.0)
        if abs(w) < _SERIES_ALWAYS_BELOW:
            return self._series(w)
        nmax = min(300, int(abs(w)) + 60)
        if self._est_series(w, nmax) < self._est_endpoint(w):
            return self._series(w)
        return self._endpoint(w)


@lru_cache(maxsize=256)
def _osc_form(coeffs: tuple) -> _OscillatoryForm:
    return _OscillatoryForm(coeffs)


def fourier_accel(protocol: TransportProtocol, omega: float) -> complex:
    """Transform of the trap acceleration over [0, t_f] from the collapsed a0."""
    tf = protocol.dspec.t_f
    form = _osc_form(tuple(float(c) for c in protocol.a0.coeffs))
    return tf * form.integral(omega * tf)


def _envelope(protocol: TransportProtocol, omega: float) -> complex:
    """Smooth factor of the transform once the design zeros are pulled out."""
    tf = protocol.dspec.t_f
    gform = _osc_form(tuple(float(c) for c in protocol.aux.base.coeffs))
    return protocol.aux.norm * tf * gform.integral(omega * tf)


def fourier_factorized(protocol: TransportProtocol, omega: float) -> float:
    """|F(omega)| through the product of structural zeros times the envelope.

    Each zero factor is computed as (w_i - omega)(w_i + omega); the
    subtraction is exact near the design frequencies, so the magnitude stays
    well conditioned exactly where the collapsed route loses digits.
    """
    zeros = 1.0
    for wi in protocol.dspec.freqs:
        zeros *= (wi - omega) * (wi + omega)
    return abs(zeros) * abs(_envelope(protocol, omega))


def final_excitation(protocol: TransportProtocol, omega: float) -> float:
    """Residual excitation after transport, in quanta of the probed frequency.

    Delta E = |F|^2 / 2 in the internal units (unit mass), divided by omega
    to express it as a phonon number at that frequency.
    """
    check_positive("probe frequency", omega)
    mag = fourier_factorized(protocol, omega)
    return 0.5 * mag * mag / omega


def excitation_joules(protocol: TransportProtocol, omega: float) -> float:
    """Final excitation energy in Joules; physical-units protocols only."""
    from scipy import constants

    if protocol.spec.units is None:
        raise SpecError("protocol carries no physical units")
    quanta = final_excitation(protocol, omega)
    return quanta * constants.hbar * omega * protocol.spec.units.omega_ref


@dataclass(frozen=True)
class ExcitationCurve:
    omegas: tuple
    quanta: tuple

    def to_csv(self, path) -> None:
        lines = ["omega,delta_e_quanta"]
        lines += [f"{w!r},{q!r}" for w, q in zip(self.omegas, self.quanta)]
        Path(path).write_text("\n".join(lines) + "\n")


def excitation_curve(protocol: TransportProtocol, omegas) -> ExcitationCurve:
    ws = tuple(float(w) for w in np.asarray(omegas, dtype=float).ravel())
    return ExcitationCurve(omegas=ws, quanta=tuple(final_excitation(protocol, w) for w in ws))


@dataclass(frozen=True, eq=False)
class ClassicalResult:
    """Forced-oscillator integration in the trap frame.

    xi is the deviation of the particle from the trap center; the energy
    series is measured in the lab frame relative to a particle sitting in
    the instantaneous trap ground, expressed in quanta of the probe
    frequency.
    """

    omega: float
    times: np.ndarray
    xi: np.ndarray
    xi_dot: np.ndarray
    v0_samples: np.ndarray

    @property
    def states(self) -> np.ndarray:
        return np.column_stack([self.times, self.xi, self.xi_dot])

    @property
    def energy(self) -> np.ndarray:
        return 0.5 * (self.xi_dot + self.v0_samples) ** 2 + 0.5 * self.omega ** 2 * self.xi ** 2

    @property
    def quanta(self) -> np.ndarray:
        return self.energy / self.omega

    @property
    def final_quanta(self) -> float:
        return float(self.quanta[-1])

    def to_csv(self, path) -> None:
        lines = ["t,delta_e_quanta"]
        lines += [f"{float(t)!r},{float(q)!r}" for t, q in zip(self.times, self.quanta)]
        Path(path).write_text("\n".join(lines) + "\n")


@lru_cache(maxsize=32)
def _longdouble_terms(n: int):
    """Structured term coefficients pre-converted to extended precision.

    str round-trips keep large integers exact to the longdouble mantissa;
    the rational velocity- and position-term coefficients are converted by
    one division each.
    """
    def rational(poly):
        return np.array(
            [np.longdouble(str(c.numerator)) / np.longdouble(str(c.denominator))
             for c in poly.coeffs],
            dtype=np.longdouble,
        )

    out = []
    for aterm, vterm, xterm in _exact_tables(n):
        a_ld = np.array([np.longdouble(str(c)) for c in aterm.coeffs], dtype=np.longdouble)
        out.append((a_ld, rational(vterm), rational(xterm)))
    return tuple(out)


def _structured_samples(protocol: TransportProtocol, s: np.ndarray, which: int) -> np.ndarray:
    """Trap acceleration (0), velocity (1) or position (2) via the term merge.

    Collapsing the design into one float64 polynomial costs a few
    1e-10-level coefficient roundings, which is exactly the noise floor a
    deep spectral zero cannot afford.  Summing the integer-coefficient
    derivative terms in extended precision keeps the samples faithful to
    the design itself (~1e-13 relative), so the RK4 oracle and the
    factorized transform describe the same trajectory.
    """
    scales = _term_scales(protocol.aux, protocol.pj, protocol.dspec.t_f)
    sl = s.astype(np.longdouble)
    acc = np.zeros(sl.shape, dtype=np.longdouble)
    for c, coeff_sets in zip(scales, _longdouble_terms(protocol.aux.n_points)):
        vals = np.zeros_like(sl)
        for coef in coeff_sets[which][::-1]:
            vals = vals * sl + coef
        acc += np.longdouble(c) * vals
    if which:
        acc *= np.longdouble(protocol.dspec.t_f) ** which
    return acc.astype(np.float64)


def _rk4_step(x, v, f0, fh, f1, h: float, w2: float):
    """One classical RK4 step of x'' = -w2 x + f, forcing sampled at t, t + h/2, t + h."""
    k1x = v
    k1v = -w2 * x + f0
    k2x = v + 0.5 * h * k1v
    k2v = -w2 * (x + 0.5 * h * k1x) + fh
    k3x = v + 0.5 * h * k2v
    k3v = -w2 * (x + 0.5 * h * k2x) + fh
    k4x = v + h * k3v
    k4v = -w2 * (x + h * k3x) + f1
    return (x + h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0,
            v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0)


def _mirrored_samples(protocol: TransportProtocol, m: int, which: int) -> np.ndarray:
    """_structured_samples on linspace(0, 1, m), evaluated on its first half.

    g is odd about s = 1/2, and so is each of its even derivatives: the trap
    acceleration (which=0) is odd there and the velocity (which=1) even.
    The second half of the grid mirrors the first, where the Horner sums
    in s are also the better conditioned.
    """
    half = _structured_samples(protocol, np.linspace(0.0, 1.0, m)[: (m + 1) // 2], which)
    sign = -1.0 if which == 0 else 1.0
    return np.concatenate([half, sign * half[m // 2 - 1::-1]])


def classical_simulate(protocol: TransportProtocol, omega: float, n_steps=None) -> ClassicalResult:
    """Fixed-step RK4 for xi'' = -omega^2 xi - a0(t) from rest.

    This is the independent oracle for the closed-form transform: nothing
    here shares code with the Fourier path beyond the trajectory
    coefficients themselves.  The RK4 step is affine in the state and the
    forcing, y_(k+1) = M y_k + B (f_0, f_h, f_1)_k.  B is read off by
    applying the step to unit forcings; M, RK4's amplification matrix, is
    diagonal on the oscillator's eigenvectors.  Its two modes are complex
    conjugates, so one complex recurrence carries the state, evaluated as
    one cumulative sum.  Same method, same truncation error as stepping in
    a loop.
    """
    check_positive("probe frequency", omega)
    tf = protocol.dspec.t_f
    if n_steps is None:
        n_steps = max(1000, int(math.ceil(200.0 * omega * tf / (2.0 * math.pi))))
    n_steps = int(n_steps)
    if n_steps < 100:
        raise SpecError("n_steps must be at least 100")
    if omega * tf / n_steps > 0.1:
        warnings.warn(
            f"{n_steps} steps is coarse for omega*t_f = {omega * tf:.3g}",
            ResolutionWarning,
            stacklevel=2,
        )

    # forcing sampled once on the half-step grid
    forcing = -_mirrored_samples(protocol, 2 * n_steps + 1, 0)
    h = tf / n_steps
    w2 = omega * omega

    # M = 1 + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 for A = [[0, 1], [-w2, 0]]
    # has the eigenvectors (1, +-i omega) and the eigenvalues R(+-i theta),
    # theta = omega h; log R(i theta) is taken in closed form, since |R| =
    # (1 - theta^6/72 + theta^8/576)^(1/2) rounds to 1 and a rounded modulus
    # would compound over the steps.  y = 2 Re(z (1, i omega)).
    theta = omega * h
    log_lam = complex(0.5 * math.log1p(theta ** 8 / 576.0 - theta ** 6 / 72.0),
                      math.atan2(theta - theta ** 3 / 6.0, 1.0 - theta ** 2 / 2.0 + theta ** 4 / 24.0))
    bx, bv = _rk4_step(0.0, 0.0, *np.eye(3), h, w2)
    f0, fh, f1 = forcing[0:-1:2], forcing[1::2], forcing[2::2]
    drive = 0.5 * (bx[0] * f0 + bx[1] * fh + bx[2] * f1) \
        - (0.5j / omega) * (bv[0] * f0 + bv[1] * fh + bv[2] * f1)
    # z_(k+1) = lam z_k + u_k from z_0 = 0 is z_n = lam^n sum_(k<n) lam^-(k+1) u_k;
    # the running sum is kept in extended precision, where a float64 one
    # rounds worse than the step loop did
    powers = np.exp(log_lam * np.arange(1, n_steps + 1))
    z = np.zeros(n_steps + 1, dtype=complex)
    z[1:] = powers * np.cumsum((drive / powers).astype(np.clongdouble))
    xi = 2.0 * z.real
    xd = -2.0 * omega * z.imag
    times = np.linspace(0.0, tf, n_steps + 1)
    return ClassicalResult(
        omega=omega,
        times=times,
        xi=xi,
        xi_dot=xd,
        v0_samples=_mirrored_samples(protocol, n_steps + 1, 1),
    )


def complex_amplitude(protocol: TransportProtocol, omega: float, t: float) -> complex:
    """Oscillator-frame excitation amplitude w(t) = xi_dot + i omega xi.

    Computed from the partial transform: w(t) = -exp(i omega t) *
    int_0^t a0 exp(-i omega tau) dtau, so |w|^2 / 2 is the energy stored in
    the relative motion.  At t = t_f this matches the final excitation.
    """
    tf = protocol.dspec.t_f
    if not 0.0 <= t <= tf:
        raise SpecError(f"t = {t} outside [0, {tf}]")
    check_positive("omega", omega)
    s1 = t / tf
    if s1 == 0.0:
        return 0j
    # substitute s = s1 u to reuse the unit-interval machinery
    scaled = tuple(float(c) * s1 ** m for m, c in enumerate(protocol.a0.coeffs))
    partial = tf * s1 * _OscillatoryForm(scaled).integral(omega * tf * s1)
    return -cmath.exp(1j * omega * t) * partial


@lru_cache(maxsize=32)
def _gauss_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


_BESSEL_FROM = 1.0  # below this W the Maclaurin series replaces spherical_jn / W^(2N)


@lru_cache(maxsize=None)
def _envelope_series(n: int):
    """Maclaurin coefficients of |I_g(W)| / W in powers of W^2, highest first.

    From j_m(x) = x^m sum_k (-x^2/2)^k / (k! (2m+2k+1)!!) with m = 2n+1,
    x = W/2.  For W < 1 each term is below 1/56 of the one before, so 12
    terms reach far below double rounding.
    """
    lead = math.factorial(2 * n) / 2 ** (2 * n + 1)
    out = []
    dfact = math.prod(range(1, 4 * n + 4, 2))  # (4n+3)!!
    for k in range(12):
        out.append(lead * (-1.0 / 8.0) ** k / (math.factorial(k) * dfact))
        dfact *= 4 * n + 2 * k + 5
    return out[::-1]


def _envelope_abs(n: int, w: np.ndarray) -> np.ndarray:
    """|I_g(W)| = |int_0^1 g(s) exp(-i W s) ds| for W > 0, all W at once.

    g = d/ds [s(1-s)]^(2n+1) / (2n+1), so DLMF 10.54.2 gives the closed
    form I_g(W) = i (2n)! exp(-i W/2) j_(2n+1)(W/2) / W^(2n).  Below W = 1
    its Maclaurin series takes over, which never divides by W^(2n) (that
    power underflows as W -> 0).
    """
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = w < _BESSEL_FROM
    if small.any():
        ws = w[small]
        out[small] = ws * np.polyval(_envelope_series(n), ws * ws)  # first term dominates: > 0
    big = ~small
    if big.any():
        wb = w[big]
        out[big] = math.factorial(2 * n) * np.abs(spherical_jn(2 * n + 1, 0.5 * wb)) / wb ** (2 * n)
    return out


_MAX_PANELS = 2 ** 14  # bounds the node arrays; eta omega0 t_f up to about 5e4


def lambda_metric(protocol: TransportProtocol, omega0: float, eta: float, n_quad: int = 16) -> float:
    """Band-averaged excitation around omega0 with half-width eta.

    Lambda = (1 / (2 omega0 eta)) * int |F(w)|^2 / (2 omega0) dw over
    [omega0 (1 - eta), omega0 (1 + eta)], in quanta of omega0.  Composite
    Gauss-Legendre over max(8, ceil(eta omega0 t_f / pi)) panels, one or
    more per oscillation of |I_g|^2 across the band; node count doubled
    until the value is stable to 1e-8 relative.  Each node set is one
    array: |F|^2 = prod_i (w_i^2 - omega^2)^2 * (norm t_f)^2 *
    |I_g(omega t_f)|^2 with the envelope from its closed form.
    """
    check_positive("omega0", omega0)
    if not 0.0 < eta < 1.0:
        raise SpecError(f"eta must lie in (0, 1), got {eta}")
    n_quad = int(n_quad)
    if n_quad < 16:
        raise SpecError("n_quad must be at least 16")

    tf = protocol.dspec.t_f
    panels = max(8, math.ceil(eta * omega0 * tf / math.pi))
    if panels > _MAX_PANELS:
        raise SpecError(f"the band spans {panels} envelope oscillations; "
                        f"at most {_MAX_PANELS} are supported (lower eta or t_f)")
    lo = omega0 * (1.0 - eta)
    hi = omega0 * (1.0 + eta)
    edges = np.linspace(lo, hi, panels + 1)
    inv_norm = 1.0 / (2.0 * omega0 * eta * 2.0 * omega0)

    mids = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    halves = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    scale = (protocol.aux.norm * tf) ** 2
    n_points = protocol.aux.n_points

    def composite(n: int) -> float:
        x, w = _gauss_nodes(n)
        om = (mids + halves * x).ravel()
        zeros = np.ones_like(om)
        for wi in protocol.dspec.freqs:
            zeros *= (wi - om) * (wi + om)
        env = _envelope_abs(n_points, om * tf)
        vals = (halves * w).ravel() * (zeros * zeros) * (env * env) * scale
        return math.fsum(vals.tolist()) * inv_norm

    prev = composite(n_quad)
    n = n_quad
    for _ in range(6):
        n *= 2
        cur = composite(n)
        if abs(cur - prev) <= 1e-8 * abs(cur):
            return cur
        prev = cur
    warnings.warn(
        f"band average stalled at relative change {abs(cur - prev) / max(abs(cur), 1e-300):.2e}",
        AccuracyWarning,
        stacklevel=2,
    )
    return cur


def flatness_order(protocol: TransportProtocol, omega0: float) -> float:
    """Log-log slope of the excitation near a coincident design point.

    Requires all design frequencies equal; the slope of delta-E against
    |omega - omega0| then reads off twice the number of stacked zeros.
    """
    freqs = protocol.dspec.freqs
    if any(w != freqs[0] for w in freqs):
        raise SpecError("flatness order is defined for coincident design frequencies only")
    r = np.geomspace(1e-3, 1e-2, 7)
    offsets = np.concatenate([-r[::-1], r])
    logs_x, logs_y = [], []
    for off in offsets:
        om = omega0 * (1.0 + off)
        q = final_excitation(protocol, om)
        if q > 0.0:
            logs_x.append(math.log(abs(om - omega0)))
            logs_y.append(math.log(q))
    if len(logs_x) < 4:
        raise SpecError("excitation too small to measure a slope; distance may be zero")
    slope, _ = np.polyfit(logs_x, logs_y, 1)
    return float(slope)
