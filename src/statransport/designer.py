"""Trajectory synthesis for excitation-free transport in a moving harmonic trap.

A transport over distance d in time t_f is encoded by a polynomial trap
acceleration built from an auxiliary shape

    g(s) = s^(2N) (1 - s)^(2N) (1 - 2s),    s = t / t_f,

whose derivatives through order 2N - 1 vanish at both ends.  Combining the
even derivatives of g with the elementary symmetric polynomials P_j of the
squared design frequencies puts a zero of the excitation spectrum at every
design frequency while keeping all boundary conditions exact:

    x''(t) = norm * sum_j P_j * g^(2(N-j))(s) / t_f^(2(N-j))

The construction is exact in integer/rational arithmetic; floats only enter
when the merged coefficient arrays are collapsed for evaluation.  Endpoint
checks therefore run on the structured rational form, not on the collapsed
polynomials, so they certify the design rather than the rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import constants

from .errors import ConsistencyError, SpecError
from .polycalc import MAX_POINTS, Polynomial, SymmetricCoefficients, symmetric_coefficients

__all__ = [
    "PhysicalUnits",
    "TransportSpec",
    "AuxiliaryFunction",
    "TransportProtocol",
    "make_auxiliary",
    "build_acceleration",
    "build_trajectory",
    "verify_boundary_conditions",
    "endpoint_residuals",
    "exact_position",
    "save_protocol",
    "load_protocol",
]


@dataclass(frozen=True)
class PhysicalUnits:
    """SI scales for a trapped particle: mass in kg, reference trap frequency in rad/s."""

    mass_kg: float
    omega_ref: float

    def __post_init__(self):
        if not (self.mass_kg > 0 and self.omega_ref > 0):
            raise SpecError("mass and reference frequency must be positive")

    @property
    def length_scale(self) -> float:
        """Harmonic oscillator length sqrt(hbar / m omega_ref) in meters."""
        return math.sqrt(constants.hbar / (self.mass_kg * self.omega_ref))

    @property
    def time_scale(self) -> float:
        return 1.0 / self.omega_ref

    @property
    def energy_scale(self) -> float:
        """One quantum at the reference frequency, in Joules."""
        return constants.hbar * self.omega_ref


@dataclass(frozen=True)
class TransportSpec:
    """What to build: move the trap by d in time t_f with design frequencies freqs.

    Dimensionless mode (units is None): d in oscillator lengths, t_f in
    1/omega_ref, freqs in omega_ref.  Physical mode: d in meters, t_f in
    seconds, freqs in rad/s.
    """

    d: float
    t_f: float
    freqs: tuple
    units: Optional[PhysicalUnits] = None

    def __post_init__(self):
        object.__setattr__(self, "freqs", tuple(float(w) for w in self.freqs))
        if not self.freqs:
            raise SpecError("at least one design frequency is required")
        if any(not (w > 0) or not math.isfinite(w) for w in self.freqs):
            raise SpecError(f"design frequencies must be positive, got {self.freqs}")
        if not (self.t_f > 0) or not math.isfinite(self.t_f):
            raise SpecError(f"transport duration must be positive, got {self.t_f}")
        if not math.isfinite(self.d):
            raise SpecError("transport distance must be finite")

    @property
    def n_points(self) -> int:
        return len(self.freqs)

    @property
    def unit_mode(self) -> str:
        return "dimensionless" if self.units is None else "physical"

    def dimensionless(self) -> "TransportSpec":
        if self.units is None:
            return self
        u = self.units
        return TransportSpec(
            d=self.d / u.length_scale,
            t_f=self.t_f * u.omega_ref,
            freqs=tuple(w / u.omega_ref for w in self.freqs),
            units=None,
        )


@dataclass(frozen=True)
class AuxiliaryFunction:
    """Auxiliary shape g and the scalars that turn it into a trajectory.

    base holds the integer-coefficient expansion of g; delta is the exact
    value of the double integral of g over [0, 1] (equivalently
    int_0^1 (1-s) g(s) ds); norm is d / (P_N t_f^2 delta).
    """

    base: Polynomial
    n_points: int
    delta: Fraction
    norm: float


@lru_cache(maxsize=None)
def _auxiliary_core(n: int):
    """Integer expansion of g for an n-point design, plus its exact delta."""
    # (1-s)^(2n) by direct binomial, then two polynomial products in ints
    one_minus = Polynomial(tuple(math.comb(2 * n, k) * (-1) ** k for k in range(2 * n + 1)))
    s_pow = Polynomial((0,) * (2 * n) + (1,))
    base = s_pow * one_minus * Polynomial((1, -2))
    weight = Polynomial((Fraction(1), Fraction(-1)))
    delta = (weight * base.as_fraction()).definite_integral(Fraction(0), Fraction(1))
    return base, delta


@lru_cache(maxsize=None)
def _exact_tables(n: int):
    """Per-term rational polynomials for the structured trajectory form.

    Term j uses the 2(n-j)-th derivative of g; vterm/xterm are its exact
    first and second antiderivatives.  Returns (aterm, vterm, xterm) tuples
    indexed by j = 0..n.
    """
    base, _ = _auxiliary_core(n)
    terms = []
    for j in range(n + 1):
        a = base.derivative(2 * (n - j))
        v = a.as_fraction().antiderivative()
        x = v.antiderivative()
        terms.append((a, v, x))
    return tuple(terms)


@lru_cache(maxsize=None)
def _endpoint_values(n: int):
    """Exact xterm(0), xterm(1), vterm(0), vterm(1) of each term j = 0..n.

    They depend on n alone, so every build shares one evaluation.
    """
    zero, one = Fraction(0), Fraction(1)
    return tuple(
        (xterm(zero), xterm(one), vterm(zero), vterm(one)) for _, vterm, xterm in _exact_tables(n)
    )


def make_auxiliary(spec: TransportSpec) -> AuxiliaryFunction:
    dspec = spec.dimensionless()
    n = dspec.n_points
    if n > MAX_POINTS:
        raise SpecError(f"{n} design frequencies exceeds the supported maximum {MAX_POINTS}")
    base, delta = _auxiliary_core(n)
    if delta == 0:
        raise ConsistencyError("degenerate auxiliary shape: normalization integral vanished")
    pj = symmetric_coefficients(dspec.freqs)
    if dspec.d == 0.0:
        norm = 0.0
    else:
        norm = dspec.d / (pj.values[n] * dspec.t_f ** 2 * float(delta))
    return AuxiliaryFunction(base=base, n_points=n, delta=delta, norm=norm)


def _term_scales(aux: AuxiliaryFunction, pj: SymmetricCoefficients, t_f: float):
    # scale of term j: norm * P_j / t_f^(2(n-j))
    return tuple(
        aux.norm * pj.values[j] / t_f ** (2 * (aux.n_points - j)) for j in range(aux.n_points + 1)
    )


def build_acceleration(aux: AuxiliaryFunction, pj: SymmetricCoefficients, t_f: float) -> Polynomial:
    """Collapse the structured acceleration into one float polynomial in s.

    Values are trap acceleration at t = s t_f.  Per-coefficient fsum keeps
    the merge at a few ulp even when the g-derivative terms nearly cancel.
    """
    if pj.n != aux.n_points:
        raise SpecError(f"frequency count {pj.n} does not match auxiliary order {aux.n_points}")
    if not (t_f > 0):
        raise SpecError("t_f must be positive")
    scales = _term_scales(aux, pj, t_f)
    terms = _exact_tables(aux.n_points)
    deg = aux.base.degree
    merged = []
    for k in range(deg + 1):
        parts = []
        for j, (aterm, _, _) in enumerate(terms):
            if k <= aterm.degree and aterm.coeffs[k] != 0:
                parts.append(scales[j] * aterm.coeffs[k])
        merged.append(math.fsum(parts))
    return Polynomial(tuple(merged))


@dataclass(frozen=True)
class TransportProtocol:
    """A synthesized transport: collapsed polynomials plus their exact provenance.

    x0, v0, a0 are polynomials in s = t / t_f whose values are position,
    velocity, acceleration in the internal (dimensionless) units.  v0 and a0
    are literal coefficient-space derivatives of x0, so the three stay
    consistent to the bit.  spec keeps whatever units the caller used.
    """

    spec: TransportSpec
    dspec: TransportSpec
    aux: AuxiliaryFunction
    pj: SymmetricCoefficients
    x0: Polynomial
    v0: Polynomial
    a0: Polynomial

    # -- evaluation ---------------------------------------------------------

    def _scales(self):
        if self.spec.units is None:
            return 1.0, 1.0
        u = self.spec.units
        return u.length_scale, u.omega_ref

    def position(self, t):
        length, omega = self._scales()
        s = np.asarray(t, dtype=float) * omega / self.dspec.t_f
        out = self.x0(s) * length
        return out if isinstance(t, np.ndarray) else float(out)

    def velocity(self, t):
        length, omega = self._scales()
        s = np.asarray(t, dtype=float) * omega / self.dspec.t_f
        out = self.v0(s) * (length * omega)
        return out if isinstance(t, np.ndarray) else float(out)

    def acceleration(self, t):
        length, omega = self._scales()
        s = np.asarray(t, dtype=float) * omega / self.dspec.t_f
        out = self.a0(s) * (length * omega * omega)
        return out if isinstance(t, np.ndarray) else float(out)

    def sample(self, n: int = 2001):
        """(t, x0, v0, a0) arrays on a uniform grid in the spec's own units."""
        t = np.linspace(0.0, self.spec.t_f, n)
        return t, self.position(t), self.velocity(t), self.acceleration(t)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "format": "sta-protocol-v1",
            "unit_mode": self.spec.unit_mode,
            "spec": {"d": self.spec.d, "t_f": self.spec.t_f, "freqs": list(self.spec.freqs)},
            "N": self.aux.n_points,
            "delta": f"{self.aux.delta.numerator}/{self.aux.delta.denominator}",
            "norm": self.aux.norm,
            "coeffs_x0": [float(c) for c in self.x0.coeffs],
            "coeffs_v0": [float(c) for c in self.v0.coeffs],
            "coeffs_a0": [float(c) for c in self.a0.coeffs],
        }
        if self.spec.units is not None:
            out["units"] = {
                "mass_kg": self.spec.units.mass_kg,
                "omega_ref": self.spec.units.omega_ref,
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TransportProtocol":
        units = None
        if data.get("unit_mode") == "physical":
            u = data["units"]
            units = PhysicalUnits(mass_kg=u["mass_kg"], omega_ref=u["omega_ref"])
        spec = TransportSpec(
            d=data["spec"]["d"],
            t_f=data["spec"]["t_f"],
            freqs=tuple(data["spec"]["freqs"]),
            units=units,
        )
        dspec = spec.dimensionless()
        n = int(data["N"])
        if n != dspec.n_points:
            raise ConsistencyError(
                f"stored N={n} disagrees with {dspec.n_points} stored frequencies"
            )
        base, delta = _auxiliary_core(n)
        num, den = data["delta"].split("/")
        if Fraction(int(num), int(den)) != delta:
            raise ConsistencyError("stored normalization integral does not match the shape")
        aux = AuxiliaryFunction(base=base, n_points=n, delta=delta, norm=float(data["norm"]))
        return cls(
            spec=spec,
            dspec=dspec,
            aux=aux,
            pj=symmetric_coefficients(dspec.freqs),
            x0=Polynomial(tuple(data["coeffs_x0"])),
            v0=Polynomial(tuple(data["coeffs_v0"])),
            a0=Polynomial(tuple(data["coeffs_a0"])),
        )


def endpoint_residuals(protocol: TransportProtocol) -> dict:
    """Boundary residuals evaluated on the structured rational form.

    The per-term antiderivative values at s = 0 and s = 1 are exact
    rationals (almost all identically zero by the boundary-order and odd
    symmetry of g), so the only float entering each residual is the term
    scale itself.  Velocities are multiplied by t_f to share one length
    tolerance with the positions.
    """
    dspec = protocol.dspec
    scales = _term_scales(protocol.aux, protocol.pj, dspec.t_f)
    tf2 = Fraction(dspec.t_f) ** 2
    x_start = v_start = v_end = x_end = Fraction(0)
    for c, (x0, x1, v0, v1) in zip(scales, _endpoint_values(protocol.aux.n_points)):
        fc = Fraction(c)
        x_start += fc * x0
        x_end += fc * x1
        v_start += fc * v0
        v_end += fc * v1
    return {
        "x_start": float(tf2 * x_start),
        "x_end": float(tf2 * x_end - Fraction(dspec.d)),
        "v_start": float(tf2 * v_start),  # one t_f from integration, one from the tolerance scale
        "v_end": float(tf2 * v_end),
    }


def exact_position(protocol: TransportProtocol, s) -> Fraction:
    """Trap position at fractional time s via the structured rational form.

    Exact up to the (already rounded) term scales; useful for symmetry and
    boundary checks that must not be polluted by collapsed-coefficient noise.
    """
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise SpecError("s must lie in [0, 1]")
    scales = _term_scales(protocol.aux, protocol.pj, protocol.dspec.t_f)
    terms = _exact_tables(protocol.aux.n_points)
    acc = Fraction(0)
    for c, (_, _, xterm) in zip(scales, terms):
        acc += Fraction(c) * xterm(s)
    return Fraction(protocol.dspec.t_f) ** 2 * acc


def build_trajectory(spec: TransportSpec) -> TransportProtocol:
    """Synthesize and verify a transport protocol for the given spec.

    The boundary conditions are checked, not imposed: if the structured
    residuals exceed 1e-9 * max(|d|, 1) the build fails loudly instead of
    snapping the endpoints.
    """
    dspec = spec.dimensionless()
    aux = make_auxiliary(dspec)
    pj = symmetric_coefficients(dspec.freqs)
    accel = build_acceleration(aux, pj, dspec.t_f)

    x0 = accel.antiderivative().antiderivative().scale(dspec.t_f ** 2)
    v0 = x0.derivative().scale(1.0 / dspec.t_f)
    a0 = x0.derivative(2).scale(1.0 / dspec.t_f ** 2)

    protocol = TransportProtocol(spec=spec, dspec=dspec, aux=aux, pj=pj, x0=x0, v0=v0, a0=a0)
    res = endpoint_residuals(protocol)
    tol = 1e-9 * max(abs(dspec.d), 1.0)
    worst = max(abs(r) for r in res.values())
    if worst > tol:
        raise ConsistencyError(f"endpoint verification failed: residuals {res} exceed {tol:g}")
    return protocol


def verify_boundary_conditions(aux: AuxiliaryFunction) -> dict:
    """Integer residuals g^(k)(0), g^(k)(1) for k = 0..2N.

    Orders up to 2N - 1 must be exactly zero; order 2N is reported as the
    first nonzero to show where the flatness stops.
    """
    out = {}
    for k in range(2 * aux.n_points + 1):
        dk = aux.base.derivative(k)
        out[k] = (dk(0), dk(1))
    return out


def save_protocol(protocol: TransportProtocol, path) -> None:
    Path(path).write_text(json.dumps(protocol.to_dict(), indent=2) + "\n")


def load_protocol(path) -> TransportProtocol:
    return TransportProtocol.from_dict(json.loads(Path(path).read_text()))


def rescaled(protocol: TransportProtocol, d=None, t_f=None) -> TransportProtocol:
    """Rebuild the same frequency design at a different distance or duration."""
    spec = protocol.spec
    return build_trajectory(
        replace(spec, d=spec.d if d is None else d, t_f=spec.t_f if t_f is None else t_f)
    )
