"""Split-operator quantum oracle for transport protocols.

Propagates the 1D Schroedinger equation in a moving harmonic trap with a
fourth-order split-operator stepper: each step is Yoshida's triple jump
(Phys. Lett. A 150, 262 (1990)) of three Strang substeps, each a half kick
in the potential at the substep's midpoint trap position, a kinetic drift
in momentum space and a half kick again.  The error is O(dt^4) per unit
time and the map is exactly unitary up to FFT rounding, which the norm
check enforces rather than hides.

The analytic reference is the coherent state riding the classical
trajectory: the same RK4 integration used by the classical oracle supplies
the center, velocity, and action phase, so quantum, classical, and
closed-form predictions can disagree only through genuine physics or
stepper error, never through a second trajectory convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft
from scipy.integrate import simpson

from .designer import TransportProtocol
from .errors import BoundaryLeakError, ConsistencyError, GridError, SpecError
from .evaluator import classical_simulate

__all__ = [
    "SpatialGrid",
    "WaveFunction",
    "make_grid",
    "ground_state",
    "first_excited_state",
    "propagate",
    "energy_expectation",
    "analytic_solution",
    "fidelity",
    "verification_report",
]

MAX_AUTO_POINTS = 2 ** 14


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpatialGrid:
    """Periodic uniform grid; the right endpoint is excluded (FFT convention)."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise SpecError("x_max must exceed x_min")
        if not _is_pow2(self.n_points) or self.n_points < 512:
            raise SpecError(f"n_points must be a power of two >= 512, got {self.n_points}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @cached_property
    def k(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.dx)


@dataclass(frozen=True, eq=False)
class WaveFunction:
    grid: SpatialGrid
    psi: np.ndarray
    t: float

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.psi) ** 2)) * self.grid.dx)


def _check_positive(name: str, value) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise SpecError(f"{name} must be positive and finite, got {value}")


def _classical_path(protocol: TransportProtocol, omega: float):
    """The classical path behind a grid, a default step and a coherent state."""
    n_steps = max(4000, int(math.ceil(100.0 * omega * protocol.dspec.t_f)))
    return classical_simulate(protocol, omega, n_steps=n_steps + n_steps % 2)


def _peak_speed(path) -> float:
    """Peak lab-frame speed of the packet center along a classical path."""
    return float(np.max(np.abs(path.xi_dot + path.v0_samples)))


def make_grid(protocol: TransportProtocol, omega: float, pad=None, n_points=None) -> SpatialGrid:
    """Grid sized from the classical path at this probe frequency.

    The packet center can overshoot the trap by a large fraction of d during
    transport, so the domain follows the classical path, padded by ten
    oscillator lengths (and never less than eight around start and target).
    An automatic point count also resolves the packet's momentum: pi/dx must
    reach the peak lab-frame speed plus ten momentum widths, or the fast
    part of the transport aliases round the periodic box.
    """
    _check_positive("omega", omega)
    return _grid_from_path(protocol, omega, _classical_path(protocol, omega), pad, n_points)


def _grid_from_path(protocol: TransportProtocol, omega: float, path, pad, n_points) -> SpatialGrid:
    a_len = 1.0 / math.sqrt(omega)
    if pad is None:
        pad = 10.0 * a_len
    pad = max(pad, 8.0 * a_len)
    s = path.times / protocol.dspec.t_f
    xc = protocol.x0(s) + path.xi
    lo = min(0.0, float(xc.min())) - pad
    hi = max(protocol.dspec.d, float(xc.max())) + pad
    if n_points is None:
        need = 8.0 * (hi - lo) / a_len  # at least 8 samples per oscillator length
        n_points = max(512, 1 << max(0, math.ceil(math.log2(need))))
        k_need = _peak_speed(path) + 10.0 * math.sqrt(omega)
        while n_points <= MAX_AUTO_POINTS and math.pi * n_points / (hi - lo) < k_need:
            n_points *= 2
        if n_points > MAX_AUTO_POINTS:
            raise GridError(
                f"domain [{lo:.3g}, {hi:.3g}] needs {n_points} points to resolve "
                f"a_0 = {a_len:.3g} and momenta up to {k_need:.3g}; "
                f"beyond the {MAX_AUTO_POINTS} cap"
            )
    return SpatialGrid(x_min=lo, x_max=hi, n_points=int(n_points))


def ground_state(grid: SpatialGrid, omega: float, center: float = 0.0) -> WaveFunction:
    _check_positive("omega", omega)
    a_len = 1.0 / math.sqrt(omega)
    if a_len < 4.0 * grid.dx:
        raise GridError(f"oscillator length {a_len:.3g} under-resolved: dx = {grid.dx:.3g}")
    psi = (omega / math.pi) ** 0.25 * np.exp(-0.5 * omega * (grid.x - center) ** 2)
    psi = psi.astype(np.complex128)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.dx)
    return WaveFunction(grid=grid, psi=psi, t=0.0)


def first_excited_state(grid: SpatialGrid, omega: float, center: float = 0.0) -> WaveFunction:
    base = ground_state(grid, omega, center)
    psi = math.sqrt(2.0 * omega) * (grid.x - center) * base.psi
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.dx)
    return WaveFunction(grid=grid, psi=psi, t=0.0)


def energy_expectation(wf: WaveFunction, omega: float, x0_at_t: float) -> float:
    """<H>/(hbar omega): kinetic part in momentum space, potential on the grid."""
    _check_positive("omega", omega)
    psi_k = np.fft.fft(wf.psi)
    weight = np.abs(psi_k) ** 2
    kinetic = float(np.sum(0.5 * wf.grid.k ** 2 * weight) / np.sum(weight))
    dens = np.abs(wf.psi) ** 2
    dens /= np.sum(dens)
    potential = float(np.sum(0.5 * omega ** 2 * (wf.grid.x - x0_at_t) ** 2 * dens))
    return (kinetic + potential) / omega


# Yoshida's triple jump: three Strang substeps of w1, w0, w1 times the step
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = -(2.0 ** (1.0 / 3.0)) * _W1
_TRIPLE = np.array([_W1, _W0, _W1])
_TRIPLE_START = np.array([0.0, _W1, _W1 + _W0])


def _default_dt(omega: float, path) -> float:
    """Default step: min(0.02, 0.02/omega), shortened to 0.08/sqrt(v).

    v is the packet's peak lab-frame speed, and the cut starts once v passes
    16.  At a fixed step the splitting error of a fast transport grows about
    as v^2, and a fourth-order step takes it back down as dt^4.
    """
    return min(0.02, 0.02 / omega, 0.08 / math.sqrt(max(16.0, _peak_speed(path))))


def _step_count(protocol: TransportProtocol, dt: float) -> int:
    return max(1, int(math.ceil(protocol.dspec.t_f / dt)))


def propagate(protocol: TransportProtocol, grid: SpatialGrid, omega: float, dt=None,
              history=None, record_every: int = 0) -> WaveFunction:
    """Run the full transport from the trap ground state at the origin.

    Each step of length dt is Yoshida's triple jump: three Strang substeps
    (half kick, kinetic drift, half kick, the kicks at the substep's own
    midpoint time) of lengths w1 dt, w0 dt, w1 dt, which makes the stepper
    fourth order.  Adjacent half kicks are applied as one.  dt defaults to
    min(0.02, 0.02/omega), shorter for fast transports, and is rounded down
    to cover [0, t_f] exactly.
    history, when given a list and record_every > 0, collects
    (t, energy_quanta) tuples every record_every steps plus the endpoints.
    """
    _check_positive("omega", omega)
    if dt is None:
        dt = _default_dt(omega, _classical_path(protocol, omega))
    _check_positive("dt", dt)
    if dt > 0.02 / omega:
        raise SpecError(f"dt = {dt} too coarse; need dt <= {0.02 / omega:.4g} at omega = {omega}")
    tf = protocol.dspec.t_f
    n_steps = _step_count(protocol, dt)
    dt = tf / n_steps

    x = grid.x
    k2 = grid.k ** 2
    kin = [np.exp(-0.5j * tau * dt * k2) for tau in _TRIPLE]
    t_mid = (np.arange(n_steps)[:, None] + _TRIPLE_START + 0.5 * _TRIPLE).ravel() * dt
    x0_mid = protocol.x0(t_mid / tf)
    n_sub = 3 * n_steps

    def half_phase(i: int) -> np.ndarray:
        return (-0.25 * omega ** 2 * dt * _TRIPLE[i % 3]) * (x - x0_mid[i]) ** 2

    wf = ground_state(grid, omega, center=protocol.x0(0.0))
    psi = wf.psi * np.exp(1j * half_phase(0))
    peak = float(np.max(np.abs(psi)))

    # psi carries a pending half kick between substeps; it is a pure phase,
    # so edge and peak magnitudes read straight off psi
    def check_leak(pairs: int):
        edge = max(abs(psi[0]), abs(psi[-1]))
        if edge > 1e-8 * peak:
            raise BoundaryLeakError(
                f"edge amplitude {edge:.2e} vs peak {peak:.2e} after {pairs} FFT pairs; "
                "enlarge the grid"
            )

    def record(step: int, state: np.ndarray):
        t = step * dt
        snap = WaveFunction(grid=grid, psi=state, t=t)
        history.append((t, energy_expectation(snap, omega, float(protocol.x0(t / tf)))))

    recording = history is not None and record_every > 0
    if recording:
        record(0, wf.psi)
    for i in range(n_sub):
        psi = fft.ifft(kin[i % 3] * fft.fft(psi), overwrite_x=True)
        phase = half_phase(i)
        step, end_of_step = divmod(i + 1, 3)
        if recording and end_of_step == 0 and step % record_every == 0 and step < n_steps:
            record(step, psi * np.exp(1j * phase))
        if i + 1 < n_sub:
            phase += half_phase(i + 1)
        psi *= np.exp(1j * phase)
        if (i + 1) % 128 == 0:
            check_leak(i + 1)
            peak = float(np.max(np.abs(psi)))
    check_leak(n_sub)
    out = WaveFunction(grid=grid, psi=psi, t=tf)
    if abs(out.norm() - 1.0) > 1e-10:
        raise ConsistencyError(f"norm drifted to {out.norm():.12f}; stepper is not unitary")
    if recording:
        record(n_steps, psi)
    return out


def analytic_solution(protocol: TransportProtocol, grid: SpatialGrid, omega: float,
                      t=None) -> WaveFunction:
    """Coherent state on the classical path, with the classical action phase.

    psi(x, t) = (omega/pi)^(1/4) exp(-omega (x - x_c)^2 / 2)
                * exp(i [v_c (x - x_c) + phi_L - omega t / 2])
    where phi_L integrates the classical Lagrangian of the center motion.
    """
    tf = protocol.dspec.t_f
    if t is None:
        t = tf
    if not 0.0 <= t <= tf:
        raise SpecError(f"t = {t} outside [0, {tf}]")
    _check_positive("omega", omega)
    return _coherent_state(protocol, grid, omega, t, _classical_path(protocol, omega))


def _coherent_state(protocol: TransportProtocol, grid: SpatialGrid, omega: float, t: float,
                    path) -> WaveFunction:
    tf = protocol.dspec.t_f
    n_steps = path.times.size - 1
    idx = int(round(t / tf * n_steps))
    v_c = path.xi_dot + path.v0_samples
    x_c = protocol.x0(path.times / tf) + path.xi
    lagrangian = 0.5 * v_c ** 2 - 0.5 * omega ** 2 * path.xi ** 2
    phi = float(simpson(lagrangian[: idx + 1], x=path.times[: idx + 1])) if idx > 0 else 0.0
    xc, vc = float(x_c[idx]), float(v_c[idx])
    envelope = (omega / math.pi) ** 0.25 * np.exp(-0.5 * omega * (grid.x - xc) ** 2)
    phase = vc * (grid.x - xc) + phi - 0.5 * omega * t
    psi = envelope * np.exp(1j * phase)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.dx)
    return WaveFunction(grid=grid, psi=psi, t=float(t))


def fidelity(a: WaveFunction, b: WaveFunction) -> complex:
    """Complex overlap <a|b>; magnitude near one means matching states."""
    if a.grid != b.grid:
        raise SpecError("wavefunctions live on different grids")
    return complex(np.vdot(a.psi, b.psi) * a.grid.dx)


def verification_report(protocol: TransportProtocol, omega: float, n_points=None,
                        dt=None, pad=None) -> dict:
    """Cross-check quantum, classical, and closed-form answers in one run.

    One classical path, at the coherent state's step count, sizes the grid,
    gives the classical answer and carries the coherent-state reference.
    """
    _check_positive("omega", omega)
    path = _classical_path(protocol, omega)
    if dt is None:
        dt = _default_dt(omega, path)
    grid = _grid_from_path(protocol, omega, path, pad, n_points)
    final = propagate(protocol, grid, omega, dt=dt)
    n_steps = _step_count(protocol, dt)
    d = protocol.dspec.d
    e_final = energy_expectation(final, omega, d)
    overlap = fidelity(final, _coherent_state(protocol, grid, omega, protocol.dspec.t_f, path))
    delta_q = e_final - 0.5
    delta_c = path.final_quanta
    rel = abs(delta_q - delta_c) / delta_c if delta_c > 1e-6 else None
    return {
        "omega": omega,
        "tf": protocol.dspec.t_f,
        "d": d,
        "n_points": grid.n_points,
        "dt": protocol.dspec.t_f / n_steps,
        "fft_pairs": 3 * n_steps,
        "final_energy_quanta": e_final,
        "delta_e_quanta": delta_q,
        "classical_delta_e_quanta": delta_c,
        "quantum_classical_rel_err": rel,
        "fidelity_vs_analytic": abs(overlap),
        "overlap_phase_rad": math.atan2(overlap.imag, overlap.real),
        "norm": final.norm(),
    }
