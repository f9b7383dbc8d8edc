"""Exact-friendly polynomial arithmetic in one variable.

Coefficients are stored densely in ascending order and may be ints,
Fractions, or floats; operations never convert types on their own, so a
polynomial built from integers stays exact under differentiation,
antidifferentiation with rational scaling, and definite integration.
numpy arrays are accepted by the evaluator and propagate elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "SymmetricCoefficients",
    "symmetric_coefficients",
]


def _trim(coeffs):
    # canonical form: no trailing zeros, zero polynomial is the singleton (0,)
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if not cs:
        cs = [0]
    return tuple(cs)


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial, coefficients ascending: p(s) = sum c_k s^k."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, s):
        if isinstance(s, np.ndarray):
            acc = np.zeros_like(s, dtype=float)
            for c in reversed(self.coeffs):
                acc = acc * s + c
            return acc
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * s + c
        return acc

    def derivative(self, k: int = 1) -> "Polynomial":
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        cs = self.coeffs
        for _ in range(k):
            if len(cs) == 1:
                cs = (0 * cs[0],)
                break
            cs = tuple(c * n for n, c in enumerate(cs) if n > 0)
        return Polynomial(cs)

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term.

        Integer coefficients come back as Fractions so that repeated
        integration stays exact; floats stay floats.
        """
        out = [0 * self.coeffs[0]]
        for n, c in enumerate(self.coeffs):
            if isinstance(c, float):
                out.append(c / (n + 1))
            else:
                out.append(Fraction(c, n + 1) if not isinstance(c, Fraction) else c / (n + 1))
        return Polynomial(out)

    def definite_integral(self, a=0, b=1):
        anti = self.antiderivative()
        return anti(b) - anti(a)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(
                (self.coeffs[k] if k < len(self.coeffs) else 0)
                + (other.coeffs[k] if k < len(other.coeffs) else 0)
                for k in range(n)
            )
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def scale(self, factor) -> "Polynomial":
        return Polynomial(tuple(factor * c for c in self.coeffs))

    def as_fraction(self) -> "Polynomial":
        return Polynomial(tuple(Fraction(c) for c in self.coeffs))


MAX_POINTS = 8  # keeps the auxiliary degree at 4*8+1 = 33; beyond that the
# integer coefficients still stay exact but float collapse loses digits fast.


@dataclass(frozen=True)
class SymmetricCoefficients:
    """Elementary symmetric polynomials of the squared design frequencies.

    values[j] = e_j(w_1^2, ..., w_N^2), so values[0] = 1 and
    values[N] = prod w_i^2.  These are the weights that combine the
    even derivatives of the auxiliary shape into the acceleration.
    """

    values: tuple

    @property
    def n(self) -> int:
        return len(self.values) - 1


def symmetric_coefficients(freqs: Sequence[float]) -> SymmetricCoefficients:
    """Expand prod_i (X + w_i^2) by incremental multiplication.

    Raises SpecError for an empty list or any nonpositive frequency.
    """
    from .errors import SpecError

    freqs = tuple(freqs)
    if not freqs:
        raise SpecError("frequency list is empty")
    if any(not (w > 0) or not math.isfinite(w) for w in freqs):
        raise SpecError(f"frequencies must be positive and finite, got {freqs}")
    es = [1.0]
    for w in freqs:
        w2 = w * w
        nxt = [1.0] * (len(es) + 1)
        for j in range(len(es), 0, -1):
            lower = es[j - 1] * w2
            nxt[j] = lower if j == len(es) else es[j] + lower
        nxt[0] = 1.0
        es = nxt
    return SymmetricCoefficients(tuple(es))
