"""Closed-form excitation and band average, written apart from statransport.

Nothing here imports statransport.  The benchmark checks the package's
outputs against these functions, and ``check_reference.py`` checks these
functions against a 50-digit mpmath quadrature.

For an N-point design the trap acceleration is built from the shape
g(s) = s^2N (1-s)^2N (1-2s) = d/ds [s(1-s)]^(2N+1) / (2N+1), so

    I_g(W) = int_0^1 g(s) exp(-i W s) ds,
    |I_g(W)| = (2N)! |j_{2N+1}(W/2)| / W^2N              (DLMF 10.54.2)

and the transform of the acceleration at frequency w is

    |F(w)| = |prod_i (w_i^2 - w^2)| * norm * t_f * |I_g(w t_f)|,
    norm = d / (prod_i w_i^2 * t_f^2 * delta),
    delta = int_0^1 (1-s) g(s) ds = ((2N+1)!)^2 / ((4N+3)! (2N+1)).

The excitation is |F|^2 / 2 in energy and |F|^2 / (2 w) in quanta of w.
All inputs are dimensionless (hbar = m = 1); w may be a float or an array.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import spherical_jn


def delta(n: int) -> Fraction:
    """int_0^1 (1-s) g(s) ds for the n-point shape, exactly."""
    m = 2 * n + 1
    return Fraction(math.factorial(m) ** 2, math.factorial(2 * m + 1) * m)


def envelope_abs(n: int, w):
    """|I_g(W)| for the n-point shape at W = w > 0.

    scipy evaluates j_k(x) for x <= k through the Bessel function of
    fractional order, not by upward recurrence, so the small-W side keeps
    full relative accuracy.
    """
    w = np.asarray(w, dtype=float)
    return math.factorial(2 * n) * np.abs(spherical_jn(2 * n + 1, 0.5 * w)) / w ** (2 * n)


def transform_abs(freqs, d: float, t_f: float, w):
    """|F(w)|: magnitude of the acceleration transform of the design at w."""
    w = np.asarray(w, dtype=float)
    zeros = np.ones_like(w)
    prod_w2 = 1.0
    for wi in freqs:
        zeros = zeros * ((wi - w) * (wi + w))
        prod_w2 *= wi * wi
    norm = d / (prod_w2 * t_f * t_f * float(delta(len(freqs))))
    return np.abs(zeros) * abs(norm) * t_f * envelope_abs(len(freqs), w * t_f)


def excitation_quanta(freqs, d: float, t_f: float, w):
    """Final excitation in quanta of the probe frequency w."""
    f = transform_abs(freqs, d, t_f, w)
    return 0.5 * f * f / np.asarray(w, dtype=float)


def band_average(freqs, d: float, t_f: float, omega0: float, eta: float) -> float:
    """Lambda: mean of |F|^2 / (2 omega0) over [omega0 (1-eta), omega0 (1+eta)].

    Adaptive Gauss-Kronrod; the design zeros inside the band are passed as
    break points so that each panel integrates a smooth, sign-definite piece.
    """
    lo, hi = omega0 * (1.0 - eta), omega0 * (1.0 + eta)
    inside = sorted({w for w in freqs if lo < w < hi})

    def integrand(w: float) -> float:
        return float(transform_abs(freqs, d, t_f, w)) ** 2

    val, _ = quad(integrand, lo, hi, points=inside or None, epsabs=0.0, epsrel=1e-12, limit=200)
    return val / (2.0 * omega0) / (2.0 * omega0 * eta)


def pattern_frequencies(kind: str, omega0: float, eps: float, n_points: int | None = None):
    """Design frequencies of a placement pattern: n >= 2 points evenly over omega0 (1 -+ eps)."""
    n = {"two_point": 2, "three_point": 3}.get(kind, n_points)
    return tuple(omega0 * (1.0 + eps * (2.0 * k / (n - 1) - 1.0)) for k in range(n))
