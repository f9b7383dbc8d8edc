"""Check reference.py against a 50-digit mpmath quadrature of the unexpanded shape.

    python3 stabench/check_reference.py

For N = 1..8 it compares, at 50 digits:
  * delta(N) with the quadrature of (1-s) g(s) over [0, 1];
  * envelope_abs(N, W) with |int_0^1 g(s) exp(-i W s) ds| on a W grid
    covering every W = omega * t_f the benchmark workloads probe (5..25);
  * excitation_quanta for one design per N, assembled from those integrals;
and, for the three placement patterns the robust_design workload uses,
band_average against 24-node Gauss-Legendre panels whose integrand is the
50-digit quadrature.  g is evaluated as s^2N (1-s)^2N (1-2s), never through
its expanded integer coefficients.  Prints the worst relative error of each
check and exits 1 when one exceeds its tolerance.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402

mp.mp.dps = 50
MAX_POINTS = 8
W_GRID = (5.0, 6.5, 8.0, 10.0, 12.5, 15.0, 18.0, 21.5, 25.0)
TOL = 1e-12


def mp_shape(n: int, s):
    return s ** (2 * n) * (1 - s) ** (2 * n) * (1 - 2 * s)


def mp_envelope(n: int, w) -> mp.mpf:
    w = mp.mpf(w)
    pieces = mp.linspace(0, 1, int(w / 6) + 2)  # about one oscillation per panel
    return abs(mp.quad(lambda s: mp_shape(n, s) * mp.expj(-w * s), pieces))


def mp_delta(n: int) -> mp.mpf:
    return mp.quad(lambda s: (1 - s) * mp_shape(n, s), [0, 1])


def mp_transform(freqs, d, t_f, w) -> mp.mpf:
    w = mp.mpf(w)
    zeros = mp.mpf(1)
    prod_w2 = mp.mpf(1)
    for wi in freqs:
        zeros *= mp.mpf(wi) ** 2 - w ** 2
        prod_w2 *= mp.mpf(wi) ** 2
    n = len(freqs)
    norm = mp.mpf(d) / (prod_w2 * mp.mpf(t_f) ** 2 * mp_delta(n))
    return abs(zeros) * abs(norm) * t_f * mp_envelope(n, w * mp.mpf(t_f))


def mp_band_average(freqs, d, t_f, omega0, eta, nodes=24) -> mp.mpf:
    lo, hi = omega0 * (1.0 - eta), omega0 * (1.0 + eta)
    edges = [lo] + sorted({w for w in freqs if lo < w < hi}) + [hi]
    x, wts = np.polynomial.legendre.leggauss(nodes)
    total = mp.mpf(0)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = mp.mpf(a + b) / 2, mp.mpf(b - a) / 2
        for xi, wi in zip(x, wts):
            total += half * mp.mpf(wi) * mp_transform(freqs, d, t_f, mid + half * mp.mpf(xi)) ** 2
    return total / (2 * omega0) / (2 * omega0 * eta)


def rel(got, want) -> float:
    return float(abs(mp.mpf(got) - want) / abs(want))


def main() -> int:
    failures = 0

    def report(label: str, worst: float, tol: float = TOL) -> None:
        nonlocal failures
        ok = worst <= tol
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {label}: worst relative error {worst:.2e} (tol {tol:g})")

    report("delta, N = 1..8",
           max(rel(float(reference.delta(n)), mp_delta(n)) for n in range(1, MAX_POINTS + 1)))

    for n in range(1, MAX_POINTS + 1):
        worst = max(rel(reference.envelope_abs(n, w), mp_envelope(n, w)) for w in W_GRID)
        report(f"|I_g(W)|, N = {n}, W in [{W_GRID[0]}, {W_GRID[-1]}]", worst)

    rng = np.random.default_rng(1410)
    worst = 0.0
    for n in range(1, MAX_POINTS + 1):
        freqs = tuple(float(f) for f in rng.uniform(0.9, 1.1, n))
        d, t_f = float(rng.uniform(1.0, 100.0)), 2.0 * math.pi * float(rng.uniform(1.25, 2.5))
        for w in (0.55, 0.97, 1.45):
            got = reference.excitation_quanta(freqs, d, t_f, w)
            worst = max(worst, rel(float(got), mp_transform(freqs, d, t_f, w) ** 2 / (2 * w)))
    report("excitation_quanta, one design per N", worst)

    t_f = 2.0 * math.pi * 1.25
    for kind, n_points, eps in (("two_point", None, 0.0116), ("three_point", None, 0.0155),
                                ("symmetric_n", 4, 0.0173)):
        freqs = reference.pattern_frequencies(kind, 1.0, eps, n_points)
        got = reference.band_average(freqs, 30.0, t_f, 1.0, 0.02)
        report(f"band_average, {kind} at eps = {eps}, eta = 0.02",
               rel(got, mp_band_average(freqs, 30.0, t_f, 1.0, 0.02)), tol=1e-10)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
