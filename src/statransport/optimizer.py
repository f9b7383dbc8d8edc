"""Frequency-placement patterns and robustness optimization.

The excitation spectrum of an N-point design has N structural zeros.  Where
to put them inside an uncertainty band is a one-parameter family per
pattern: spacing epsilon.  This module sweeps and minimizes the band
average Lambda over epsilon, with mirror frequencies paired exactly about
the band center so that symmetric placements stay symmetric to the bit.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .designer import TransportSpec, build_trajectory
from .errors import BracketWarning, SpecError
from .evaluator import lambda_metric

__all__ = [
    "PlacementPattern",
    "SweepResult",
    "OptimizationResult",
    "sweep_epsilon",
    "optimize_epsilon",
    "DEFAULT_EPS_GRID",
]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

_KINDS = ("one_point", "two_point", "three_point", "symmetric_n")

DEFAULT_EPS_GRID = tuple(0.0025 * k for k in range(33))  # 0 .. 0.08


@dataclass(frozen=True)
class PlacementPattern:
    """A named rule mapping (omega0, epsilon) to design frequencies.

    one_point: {w0}; two_point: {w0 (1 -+ eps)}; three_point adds the center
    back; symmetric_n spreads n frequencies evenly over [w0(1-eps),
    w0(1+eps)].  Mirrored pairs are built as (upper, 2 w0 - upper), which is
    exact in floating point, so the pair sum is exactly 2 w0.
    """

    kind: str
    epsilon: float = 0.0
    n_points: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpecError(f"unknown pattern kind {self.kind!r}; pick one of {_KINDS}")
        if not 0.0 <= self.epsilon < 1.0:
            raise SpecError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.kind == "symmetric_n":
            if self.n_points is None or self.n_points < 1:
                raise SpecError("symmetric_n needs n_points >= 1")
        elif self.kind == "one_point" and self.epsilon != 0.0:
            raise SpecError("one_point has no spacing parameter")

    @property
    def size(self) -> int:
        return {"one_point": 1, "two_point": 2, "three_point": 3}.get(self.kind, self.n_points)

    def frequencies(self, omega0: float) -> tuple:
        if not (omega0 > 0):
            raise SpecError("omega0 must be positive")
        n = self.size
        if n == 1:
            return (omega0,)
        out = []
        for k in range(n):
            frac = 2.0 * k / (n - 1) - 1.0
            if frac > 0.0:
                upper = omega0 + omega0 * self.epsilon * frac
                out.append(upper)
                out.append(2.0 * omega0 - upper)
            elif frac == 0.0:
                out.append(omega0)
        return tuple(sorted(out))


def _pattern_for(pattern_kind, epsilon: float, n_points=None) -> PlacementPattern:
    if isinstance(pattern_kind, PlacementPattern):
        return replace(pattern_kind, epsilon=epsilon)
    return PlacementPattern(kind=pattern_kind, epsilon=epsilon, n_points=n_points)


@dataclass(frozen=True)
class SweepResult:
    pattern_kind: str
    omega0: float
    eta: float
    epsilons: tuple
    lambdas: tuple

    @property
    def best(self):
        i = int(np.argmin(self.lambdas))
        return self.epsilons[i], self.lambdas[i]

    def to_csv(self, path) -> None:
        lines = ["epsilon,lambda"]
        lines += [f"{e!r},{v!r}" for e, v in zip(self.epsilons, self.lambdas)]
        Path(path).write_text("\n".join(lines) + "\n")


def _lambda_for(pattern, spec_base: TransportSpec, omega0: float, eta: float, eps: float,
                n_points=None) -> float:
    pat = _pattern_for(pattern, eps, n_points)
    spec = replace(spec_base, freqs=pat.frequencies(omega0))
    protocol = build_trajectory(spec)
    w0 = omega0 if spec_base.units is None else omega0 / spec_base.units.omega_ref
    return lambda_metric(protocol, w0, eta)


def sweep_epsilon(pattern_kind, spec_base: TransportSpec, omega0: float, eta: float,
                  eps_grid=None, n_points=None) -> SweepResult:
    """Lambda along an ascending epsilon grid for one placement pattern.

    A designer failure at any grid point is re-raised with the offending
    epsilon attached, so batch runs do not lose the context.
    """
    if eps_grid is None:
        eps_grid = DEFAULT_EPS_GRID
    eps_grid = tuple(float(e) for e in eps_grid)
    if not eps_grid:
        raise SpecError("eps_grid is empty")
    if any(b <= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise SpecError("eps_grid must be strictly ascending")
    if eps_grid[0] < 0.0 or eps_grid[-1] > 0.2:
        raise SpecError("eps_grid must stay within [0, 0.2]")
    kind = pattern_kind.kind if isinstance(pattern_kind, PlacementPattern) else pattern_kind
    if kind == "one_point":
        raise SpecError("one_point has no spacing to sweep")

    lambdas = []
    for eps in eps_grid:
        try:
            lambdas.append(_lambda_for(pattern_kind, spec_base, omega0, eta, eps, n_points))
        except Exception as err:
            raise type(err)(f"at epsilon={eps:.6g}: {err}") from err
    return SweepResult(
        pattern_kind=kind,
        omega0=omega0,
        eta=eta,
        epsilons=eps_grid,
        lambdas=tuple(lambdas),
    )


@dataclass(frozen=True)
class OptimizationResult:
    pattern_kind: str
    omega0: float
    eta: float
    eps_star: float
    lambda_star: float
    lambda_at_zero: float

    @property
    def ratio(self):
        """Improvement of the spread placement over the coincident one."""
        if self.lambda_star == 0.0:
            return None
        return self.lambda_at_zero / self.lambda_star

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern_kind,
            "omega0": self.omega0,
            "eta": self.eta,
            "eps_star": self.eps_star,
            "lambda_star": self.lambda_star,
            "lambda_at_zero": self.lambda_at_zero,
            "ratio": self.ratio,
        }

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def optimize_epsilon(pattern_kind, spec_base: TransportSpec, omega0: float, eta: float,
                     bracket=(0.0, 0.08), n_points=None, coarse_points: int = 33,
                     tol: float = 1e-5) -> OptimizationResult:
    """Minimize Lambda over the spacing: coarse scan, then golden section.

    The coarse scan locates the basin; golden section shrinks it to tol.
    If the minimum sits at a bracket edge a BracketWarning is emitted and
    the edge value is returned.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 <= lo < hi <= 0.2):
        raise SpecError(f"bracket must satisfy 0 <= lo < hi <= 0.2, got {bracket}")
    kind = pattern_kind.kind if isinstance(pattern_kind, PlacementPattern) else pattern_kind
    if kind == "one_point":
        raise SpecError("one_point has no spacing to optimize")

    def f(eps: float) -> float:
        return _lambda_for(pattern_kind, spec_base, omega0, eta, eps, n_points)

    lambda_zero = _lambda_for(pattern_kind, spec_base, omega0, eta, 0.0, n_points)

    if spec_base.d == 0.0:
        # zero transport excites nothing; any spacing is equally optimal
        return OptimizationResult(kind, omega0, eta, lo, 0.0, lambda_zero)

    grid = np.linspace(lo, hi, int(coarse_points))
    values = [f(float(e)) for e in grid]
    i = int(np.argmin(values))
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, len(grid) - 1)])
    best_eps, best_val = float(grid[i]), values[i]

    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    for e, v in ((c, fc), (d, fd), (0.5 * (a + b), f(0.5 * (a + b)))):
        if v < best_val:
            best_eps, best_val = e, v

    if best_eps - lo < tol or hi - best_eps < tol:
        warnings.warn(
            f"minimum at bracket edge eps={best_eps:.6g}; widen the bracket",
            BracketWarning,
            stacklevel=2,
        )
    return OptimizationResult(kind, omega0, eta, best_eps, best_val, lambda_zero)
