"""The three benchmark workloads: seeded inputs, the timed operation, its checks.

Each workload draws its inputs in rounds.  A round holds every value of the
parameters that set an operation's cost (placement pattern, N, the strata
of t_f, eta and d) exactly once, in a seeded order, with seeded values
inside each stratum.  Runs therefore attempt whole rounds, do the same work
whatever the seed, and fail the same share of operations.

Checks run outside the timed region and never compare with stored output:
they use ``reference`` (imports nothing from statransport) or a property
the method must have.  ``check`` returns ("ok" | "failed" | "wrong", why).
"failed" is kept for the envelope fault of N >= 5 designs (ROADMAP item 2);
anything else that disagrees is "wrong" and makes the run incorrect.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference
import statransport as sta
from statransport.polycalc import MAX_POINTS

TWO_PI = 2.0 * math.pi
U = 2.0 ** -53
LAMBDA_RTOL = 1e-5  # criterion-6 drift allowed for any faster band-average path
CURVE_RTOL = 1e-5  # same accuracy asked of the closed-form spectrum
RK4_RTOL = 1e-6  # criterion 3a: closed form vs RK4 oracle
CURVE_OMEGAS = np.linspace(0.9, 1.1, 401)  # `sta-transport evaluate` defaults
RK4_STEPS = 4000  # RK4 error <= 3.2e-8 relative on this workload's range


def _strata(rng, n: int, lo: float, hi: float) -> list:
    """One seeded value in each of n equal strata of [lo, hi), in seeded order."""
    return [lo + (hi - lo) * (int(k) + rng.random()) / n for k in rng.permutation(n)]


# -- robust_design ------------------------------------------------------------
#
# The sweep grid is eps_k = k * h, k = 0..3, with h in [0.40, 0.45] * eta.  The
# optimum sits at eps*/eta = 0.58 (two_point), 0.77 (three_point) and 0.86
# (symmetric_n, n = 4) for every t_f and eta drawn here, so the sweep's basin
# is always an interior grid point and the bracket around it holds eps*.
# optimize_epsilon's 3-point coarse scan then lands on the sweep's grid
# points, so Lambda* <= the sweep minimum holds up to rounding, and its
# golden section always runs the same number of steps (tol = h / 4).

ROBUST_PATTERNS = (("two_point", None), ("three_point", None), ("symmetric_n", 4))
ROBUST_GRID_POINTS = 4


@dataclass(frozen=True)
class RobustInput:
    kind: str
    n_points: int | None
    t_f: float
    eta: float
    d: float
    h: float


def robust_round(rng) -> list:
    n = 2 * len(ROBUST_PATTERNS)
    t_fs = _strata(rng, n, TWO_PI * 1.25, TWO_PI * 2.5)
    etas = _strata(rng, n, 0.01, 0.04)
    out = []
    for j in range(n):
        kind, n_points = ROBUST_PATTERNS[j % len(ROBUST_PATTERNS)]
        h = etas[j] * float(rng.uniform(0.40, 0.45))
        out.append(RobustInput(kind, n_points, t_fs[j], etas[j], float(rng.uniform(1.0, 100.0)), h))
    return out


def robust_op(inp: RobustInput, _workdir: Path):
    spec = sta.TransportSpec(d=inp.d, t_f=inp.t_f, freqs=(1.0,))
    grid = tuple(k * inp.h for k in range(ROBUST_GRID_POINTS))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep = sta.sweep_epsilon(inp.kind, spec, 1.0, inp.eta, eps_grid=grid, n_points=inp.n_points)
        i = int(np.argmin(sweep.lambdas))
        bracket = (grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)])
        opt = sta.optimize_epsilon(inp.kind, spec, 1.0, inp.eta, bracket=bracket,
                                   n_points=inp.n_points, coarse_points=3, tol=inp.h / 4)
    return sweep, opt, [str(w.message) for w in caught]


def robust_check(inp: RobustInput, out) -> tuple:
    sweep, opt, caught = out
    if caught:
        return "wrong", f"warnings: {caught}"

    def ref(eps: float) -> float:
        freqs = reference.pattern_frequencies(inp.kind, 1.0, eps, inp.n_points)
        return reference.band_average(freqs, inp.d, inp.t_f, 1.0, inp.eta)

    pairs = list(zip(sweep.epsilons, sweep.lambdas))
    pairs += [(opt.eps_star, opt.lambda_star), (0.0, opt.lambda_at_zero)]
    for eps, lam in pairs:
        want = ref(eps)
        if not abs(lam - want) <= LAMBDA_RTOL * want:
            return "wrong", f"Lambda({eps:.6g}) = {lam!r}, reference {want!r}"
    if not opt.lambda_star <= opt.lambda_at_zero:
        return "wrong", f"Lambda* {opt.lambda_star!r} > Lambda(0) {opt.lambda_at_zero!r}"
    if not opt.lambda_star <= min(sweep.lambdas) * (1.0 + LAMBDA_RTOL):
        return "wrong", f"Lambda* {opt.lambda_star!r} > sweep minimum {min(sweep.lambdas)!r}"
    return "ok", ""


# -- design_scan --------------------------------------------------------------
#
# t_f stays within 2 pi [1.25, 1.75]: there the curve of every N = 6 design is
# off the reference by more than 3e-4 relative, as are all N = 7 and 8 ones,
# while N <= 5 stay within 6e-6.  Above t_f = 2 pi * 2.1 the N = 6 error
# drops under CURVE_RTOL and whether an N = 6 operation fails would depend
# on the seed.

@dataclass(frozen=True)
class ScanInput:
    freqs: tuple
    d: float
    t_f: float


def scan_round(rng) -> list:
    t_fs = _strata(rng, MAX_POINTS, TWO_PI * 1.25, TWO_PI * 1.75)
    return [
        ScanInput(tuple(float(f) for f in rng.uniform(0.9, 1.1, n)),
                  float(rng.uniform(1.0, 100.0)), t_fs[n - 1])
        for n in range(1, MAX_POINTS + 1)
    ]


def scan_op(inp: ScanInput, workdir: Path):
    built = sta.build_trajectory(sta.TransportSpec(d=inp.d, t_f=inp.t_f, freqs=inp.freqs))
    path = workdir / "protocol.json"
    sta.save_protocol(built, path)
    loaded = sta.load_protocol(path)
    return built, loaded, sta.excitation_curve(loaded, CURVE_OMEGAS)


def _horner_bound(coeffs) -> float:
    """Rounding bound of a monomial-form value at s = 1: coefficient and Horner errors."""
    return 4.0 * len(coeffs) * U * math.fsum(abs(c) for c in coeffs)


def scan_check(inp: ScanInput, out) -> tuple:
    built, loaded, curve = out
    x0, v0 = built.x0.coeffs, built.v0.coeffs
    ends = {
        "x0(0)": (built.x0(0.0), 0.0, 0.0),
        "x0(1)": (built.x0(1.0), inp.d, _horner_bound(x0) + U * abs(inp.d)),
        "v0(0)": (built.v0(0.0), 0.0, 0.0),
        "v0(1)": (built.v0(1.0), 0.0, _horner_bound(v0)),
    }
    for label, (got, want, bound) in ends.items():
        if not abs(got - want) <= bound:
            return "wrong", f"{label} = {got!r}, want {want!r} within {bound:.3g}"
    for w in inp.freqs:
        if sta.final_excitation(loaded, w) != 0.0:
            return "wrong", f"excitation at design frequency {w!r} is not zero"
    every = slice(None, None, 10)
    rebuilt = sta.excitation_curve(built, CURVE_OMEGAS[every]).quanta
    if rebuilt != curve.quanta[every]:
        return "wrong", "loaded protocol's curve differs from the built protocol's"
    got = np.asarray(curve.quanta)
    want = reference.excitation_quanta(inp.freqs, inp.d, inp.t_f, CURVE_OMEGAS)
    err = np.abs(got - want)
    if not np.all(err <= CURVE_RTOL * want):
        worst = float(np.max(err / np.where(want > 0, want, 1.0)))
        why = f"N = {len(inp.freqs)} curve off the reference by {worst:.2e} relative"
        if len(inp.freqs) >= 5:
            return "failed", why + " (envelope fault, _OscillatoryForm at N >= 5)"
        return "wrong", why
    return "ok", ""


# -- oracle_verify ------------------------------------------------------------
#
# RK4 probes are drawn from [0.5, 0.8] and [1.2, 1.5], away from the design
# zeros.  A draw within ~1e-4 of a zero of the envelope (excitation below
# 1e-4 of its value 0.01 to either side) is redrawn: there the relative gap
# measures RK4's absolute error against a vanishing excitation.
#
# The verification_report probe is drawn from the design band [0.9, 1.1].
# Draws whose excitation lies in [1e-7, 1e-3) quanta are redrawn: the
# qverify pass rule judges the relative quantum-classical gap as soon as
# the classical excitation exceeds 1e-6 quanta, while the split-operator
# result carries an absolute error near 1e-8 quanta, so between 1e-6 and
# about 1e-5 quanta the rule fails on some seeds and not on others.

ORACLE_ROUND = 8
ORACLE_PROBES = 3


@dataclass(frozen=True)
class OracleInput:
    freqs: tuple
    d: float
    t_f: float
    probes: tuple
    report_omega: float


def _rk4_probe(rng, freqs, d: float, t_f: float) -> float:
    while True:
        u = float(rng.uniform(0.0, 0.6))
        w = 0.5 + u if u < 0.3 else 0.9 + u
        q = reference.excitation_quanta(freqs, d, t_f, [w - 0.01, w, w + 0.01])
        if q[1] >= 1e-4 * min(q[0], q[2]):
            return w


def _report_probe(rng, freqs, d: float, t_f: float) -> float:
    while True:
        w = float(rng.uniform(0.9, 1.1))
        if not 1e-7 <= reference.excitation_quanta(freqs, d, t_f, w) < 1e-3:
            return w


def oracle_round(rng) -> list:
    ds = _strata(rng, ORACLE_ROUND, 5.0, 60.0)
    t_fs = _strata(rng, ORACLE_ROUND, TWO_PI * 1.75, TWO_PI * 2.5)
    out = []
    for j in range(ORACLE_ROUND):
        freqs = tuple(float(f) for f in rng.uniform(0.9, 1.1, j % 4 + 1))
        probes = tuple(_rk4_probe(rng, freqs, ds[j], t_fs[j]) for _ in range(ORACLE_PROBES))
        out.append(OracleInput(freqs, ds[j], t_fs[j], probes, _report_probe(rng, freqs, ds[j], t_fs[j])))
    return out


def oracle_op(inp: OracleInput, _workdir: Path):
    protocol = sta.build_trajectory(sta.TransportSpec(d=inp.d, t_f=inp.t_f, freqs=inp.freqs))
    finals = [sta.classical_simulate(protocol, w, n_steps=RK4_STEPS).final_quanta
              for w in inp.probes]
    return finals, sta.verification_report(protocol, inp.report_omega)


def oracle_check(inp: OracleInput, out) -> tuple:
    finals, report = out
    want = reference.excitation_quanta(inp.freqs, inp.d, inp.t_f, inp.probes)
    for w, got, q in zip(inp.probes, finals, want):
        if not abs(got - q) <= RK4_RTOL * q:
            return "wrong", f"RK4 at omega {w!r}: {got!r} quanta, reference {q!r}"
    # the pass rule of `sta-transport qverify`
    if not report["fidelity_vs_analytic"] >= 1.0 - 1e-5:
        return "wrong", f"fidelity {report['fidelity_vs_analytic']!r} < 1 - 1e-5"
    gap = report["quantum_classical_rel_err"]
    if gap is not None and not gap <= 1e-3:
        return "wrong", f"quantum-classical gap {gap!r} > 1e-3"
    return "ok", ""


# -- calibration loops ----------------------------------------------------------
#
# Fixed work, independent of statransport, that run.py times between
# operations to follow the host's speed.  Each resembles where its
# workloads spend their time: interpreted float arithmetic and fsum for the
# closed-form and synthesis paths, complex exponentials and 1024-point FFTs
# for the split-operator path.  The reference times are their medians on
# the VM the README's figures come from.

def python_loop() -> None:
    xs = [0.0] * 2000
    for r in range(6):
        for i in range(2000):
            x = (i + 1) * 0.37 + r
            xs[i] = x * x / (x + 1.0) - math.sqrt(x)
        math.fsum(xs)


def fft_loop() -> None:
    x = np.linspace(-20.0, 20.0, 1024, endpoint=False)
    kin = np.exp(-0.001j * (TWO_PI * np.fft.fftfreq(1024, d=x[1] - x[0])) ** 2)
    psi = np.exp(-0.5 * x * x).astype(np.complex128)
    for step in range(40):
        half = np.exp(-0.0005j * (x - 0.01 * step) ** 2)
        psi = half * np.fft.ifft(kin * np.fft.fft(half * psi))


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable
    op: Callable
    check: Callable
    calibration_loop: Callable
    reference_loop_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("robust_design", robust_round, robust_op, robust_check, python_loop, 3.8e-3),
        Workload("design_scan", scan_round, scan_op, scan_check, python_loop, 3.8e-3),
        Workload("oracle_verify", oracle_round, oracle_op, oracle_check, fft_loop, 4.5e-3),
    )
}


def rounds(name: str, seed: int):
    """Endless seeded rounds of one workload's operation inputs."""
    wl = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    while True:
        yield wl.make_round(rng)


def fill_moment_tables() -> None:
    """Grow the envelope's moment tables for N = 2..4 in one thread.

    evaluator._OscillatoryForm grows its moment table lazily and without a
    lock, and the sweep's worker threads share one form per N.  Two threads
    growing it at once raise IndexError from the first sweep of a fresh
    process.  The table grows with W = omega t_f; W = 17 covers every sweep
    here and in `reproduce fig2` (omega t_f <= 1.04 * 2 pi * 2.5 = 16.3).
    """
    for n in (2, 3, 4):
        protocol = sta.build_trajectory(sta.TransportSpec(d=1.0, t_f=TWO_PI, freqs=(1.0,) * n))
        sta.final_excitation(protocol, 17.0 / TWO_PI)


def warmup_input(name: str):
    """The warm-up operation's input: the same for every seed, so that its
    cost, part of setup_s, does not depend on the run's seed."""
    return next(rounds(name, 0))[0]
