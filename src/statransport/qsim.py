"""Split-operator quantum oracle for transport protocols.

Propagates the 1D Schroedinger equation in a moving harmonic trap with
Chin's fourth-order gradient splitting 4A, two FFT pairs a step (see
`propagate`).  The map is exactly unitary up to FFT rounding, which the
norm check enforces rather than hides.

The analytic reference is the coherent state riding the classical
trajectory: the same RK4 integration used by the classical oracle supplies
the center, velocity, and action phase, and the trap position everywhere
here is the structured term sum that drives it.  So quantum, classical, and
closed-form predictions can disagree only through genuine physics or
stepper error, never through a second trajectory convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft

from .designer import TransportProtocol
from .errors import BoundaryLeakError, ConsistencyError, GridError, SpecError, check_positive
from .evaluator import _structured_samples, classical_simulate

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


def _classical_path(protocol: TransportProtocol, omega: float):
    """The classical path behind a grid, a default step and a coherent state."""
    n_steps = max(4000, int(math.ceil(100.0 * omega * protocol.dspec.t_f)))
    return classical_simulate(protocol, omega, n_steps=n_steps + n_steps % 2)


def _simpson(f: np.ndarray, h: float) -> float:
    """Composite Simpson on uniform samples, closing an odd interval count
    as scipy.integrate.simpson does; two samples take the trapezoid."""
    n = f.size - 1
    if n == 1:
        return 0.5 * h * float(f[0] + f[1])
    m = n - n % 2
    total = h / 3.0 * float(f[0] + f[m] + 4.0 * f[1:m:2].sum() + 2.0 * f[2:m - 1:2].sum())
    if n % 2:
        total += h / 12.0 * float(5.0 * f[n] + 8.0 * f[n - 1] - f[n - 2])
    return total


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
    check_positive("omega", omega)
    return _grid_from_path(protocol, omega, _classical_path(protocol, omega), pad, n_points)


def _grid_from_path(protocol: TransportProtocol, omega: float, path, pad, n_points) -> SpatialGrid:
    a_len = 1.0 / math.sqrt(omega)
    if pad is None:
        pad = 10.0 * a_len
    pad = max(pad, 8.0 * a_len)
    xc = _structured_samples(protocol, path.times / protocol.dspec.t_f, 2) + path.xi
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
    check_positive("omega", omega)
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
    check_positive("omega", omega)
    psi_k = np.fft.fft(wf.psi)
    weight = np.abs(psi_k) ** 2
    kinetic = float(np.sum(0.5 * wf.grid.k ** 2 * weight) / np.sum(weight))
    dens = np.abs(wf.psi) ** 2
    dens /= np.sum(dens)
    potential = float(np.sum(0.5 * omega ** 2 * (wf.grid.x - x0_at_t) ** 2 * dens))
    return (kinetic + potential) / omega


def _default_dt(omega: float, path) -> float:
    """Default step: min(0.02, 0.02/omega, 0.32/v) for a peak packet speed v > 16.

    Measured at N = 4, d = 20, t_f = 2 pi 1.25, omega = 1.05 (v near 83): a
    step of 0.08/sqrt(v) left a quantum-classical gap of 5.3e-4, and 0.32/v
    leaves 4.9e-5.
    """
    return min(0.02, 0.02 / omega, 0.32 / max(16.0, _peak_speed(path)))


def _step_count(protocol: TransportProtocol, dt: float) -> int:
    return max(1, int(math.ceil(protocol.dspec.t_f / dt)))


def propagate(protocol: TransportProtocol, grid: SpatialGrid, omega: float, dt=None,
              history=None, record_every: int = 0) -> WaveFunction:
    """Run the full transport from the trap ground state at the origin.

    Each step of length dt from t is Chin's splitting 4A (Phys. Lett. A 226,
    344 (1997)), its kicks at the times the drifts reach (Chin & Chen,
    J. Chem. Phys. 114, 7338 (2001)): a kick of dt/6 in V(t), a half drift,
    a kick of 2dt/3 in V(t + dt/2) (1 - omega^2 dt^2/24), the harmonic
    V - (dt^2/48)(dV/dx)^2, a half drift and a kick of dt/6 in V(t + dt).
    The stepper is fourth order.  Adjacent edge kicks are applied as one,
    and dt (default: `_default_dt`) is rounded down to cover [0, t_f].
    history, when given a list and record_every > 0, collects
    (t, energy_quanta) tuples every record_every steps plus the endpoints.
    """
    check_positive("omega", omega)
    if dt is None:
        dt = _default_dt(omega, _classical_path(protocol, omega))
    check_positive("dt", dt)
    if dt > 0.02 / omega:
        raise SpecError(f"dt = {dt} too coarse; need dt <= {0.02 / omega:.4g} at omega = {omega}")
    tf = protocol.dspec.t_f
    n_steps = _step_count(protocol, dt)
    dt = tf / n_steps

    # even samples are the step edges, odd samples the midpoints
    x0s = _structured_samples(protocol, np.linspace(0.0, 1.0, 2 * n_steps + 1), 2)
    drift = np.exp(-0.25j * dt * grid.k ** 2)
    c_mid = -(omega ** 2 * dt / 3.0) * (1.0 - (omega * dt) ** 2 / 24.0)
    c_edge = -omega ** 2 * dt / 12.0

    def kick(c: float, i: int) -> np.ndarray:
        return np.exp((1j * c) * (grid.x - x0s[i]) ** 2)

    wf = ground_state(grid, omega, center=x0s[0])
    psi = wf.psi * kick(c_edge, 0)
    peak = float(np.max(np.abs(psi)))

    # psi carries a pending edge kick between steps; it is a pure phase,
    # so edge and peak magnitudes read straight off psi
    def check_leak(pairs: int):
        edge = max(abs(psi[0]), abs(psi[-1]))
        if edge > 1e-8 * peak:
            raise BoundaryLeakError(
                f"edge amplitude {edge:.2e} vs peak {peak:.2e} after {pairs} FFT pairs; "
                "enlarge the grid"
            )

    def record(step: int, state: np.ndarray):
        snap = WaveFunction(grid=grid, psi=state, t=step * dt)
        history.append((step * dt, energy_expectation(snap, omega, float(x0s[2 * step]))))

    recording = history is not None and record_every > 0
    if recording:
        record(0, wf.psi)
    for step in range(1, n_steps + 1):
        psi = fft.ifft(drift * fft.fft(psi), overwrite_x=True)
        psi *= kick(c_mid, 2 * step - 1)
        psi = fft.ifft(drift * fft.fft(psi), overwrite_x=True)
        if recording and step % record_every == 0 and step < n_steps:
            record(step, psi * kick(c_edge, 2 * step))
        psi *= kick(2.0 * c_edge if step < n_steps else c_edge, 2 * step)
        if step % 64 == 0:
            check_leak(2 * step)
            peak = float(np.max(np.abs(psi)))
    check_leak(2 * n_steps)
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
    check_positive("omega", omega)
    return _coherent_state(protocol, grid, omega, t, _classical_path(protocol, omega))


def _coherent_state(protocol: TransportProtocol, grid: SpatialGrid, omega: float, t: float,
                    path) -> WaveFunction:
    tf = protocol.dspec.t_f
    n_steps = path.times.size - 1
    idx = int(round(t / tf * n_steps))
    v_c = path.xi_dot + path.v0_samples
    lagrangian = 0.5 * v_c ** 2 - 0.5 * omega ** 2 * path.xi ** 2
    phi = _simpson(lagrangian[: idx + 1], tf / n_steps) if idx > 0 else 0.0
    xc = float(_structured_samples(protocol, np.array([idx / n_steps]), 2)[0] + path.xi[idx])
    vc = float(v_c[idx])
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
    The verdict "pass" asks for a fidelity of at least 1 - 1e-5 and, once
    the classical excitation passes 1e-6 quanta, a relative quantum-classical
    gap of at most 1e-3.
    """
    check_positive("omega", omega)
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
    fid = abs(overlap)
    return {
        "omega": omega,
        "tf": protocol.dspec.t_f,
        "d": d,
        "n_points": grid.n_points,
        "dt": protocol.dspec.t_f / n_steps,
        "fft_pairs": 2 * n_steps,
        "final_energy_quanta": e_final,
        "delta_e_quanta": delta_q,
        "classical_delta_e_quanta": delta_c,
        "quantum_classical_rel_err": rel,
        "fidelity_vs_analytic": fid,
        "overlap_phase_rad": math.atan2(overlap.imag, overlap.real),
        "norm": final.norm(),
        "pass": fid >= 1.0 - 1e-5 and (rel is None or rel <= 1e-3),
    }
