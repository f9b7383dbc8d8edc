import math

import numpy as np
import pytest

from statransport.designer import TransportSpec, build_trajectory
from statransport.errors import BoundaryLeakError, GridError, SpecError
from statransport.evaluator import classical_simulate, final_excitation
from statransport.qsim import (
    SpatialGrid,
    analytic_solution,
    energy_expectation,
    fidelity,
    first_excited_state,
    ground_state,
    make_grid,
    propagate,
    verification_report,
)


def _static(tf=3.0):
    # zero-distance protocol: the trap never moves
    return build_trajectory(TransportSpec(d=0.0, t_f=tf, freqs=(1.0,)))


def _transport(d=5.0, tf=3.0, freqs=(1.0,)):
    return build_trajectory(TransportSpec(d=d, t_f=tf, freqs=freqs))


GRID = SpatialGrid(x_min=-12.0, x_max=12.0, n_points=1024)


def test_grid_validation():
    with pytest.raises(SpecError):
        SpatialGrid(x_min=1.0, x_max=0.0, n_points=1024)
    with pytest.raises(SpecError):
        SpatialGrid(x_min=0.0, x_max=1.0, n_points=1000)
    with pytest.raises(SpecError):
        SpatialGrid(x_min=0.0, x_max=1.0, n_points=256)
    g = SpatialGrid(x_min=-4.0, x_max=4.0, n_points=512)
    assert g.dx == pytest.approx(8.0 / 512)
    assert len(g.x) == len(g.k) == 512
    assert g.x[0] == -4.0


def test_ground_state_energy_half_quantum():
    wf = ground_state(GRID, 1.0)
    assert wf.norm() == pytest.approx(1.0, abs=1e-12)
    assert energy_expectation(wf, 1.0, 0.0) == pytest.approx(0.5, rel=1e-8)


def test_first_excited_energy():
    wf = first_excited_state(GRID, 1.0)
    assert wf.norm() == pytest.approx(1.0, abs=1e-12)
    assert energy_expectation(wf, 1.0, 0.0) == pytest.approx(1.5, rel=1e-8)
    # orthogonal to the ground state
    overlap = fidelity(ground_state(GRID, 1.0), wf)
    assert abs(overlap) < 1e-10


def test_ground_state_needs_resolution():
    coarse = SpatialGrid(x_min=-300.0, x_max=300.0, n_points=512)
    with pytest.raises(GridError):
        ground_state(coarse, 1.0)


def test_static_trap_preserves_ground_state():
    p = _static()
    start = ground_state(GRID, 1.0)
    end = propagate(p, GRID, 1.0)
    assert abs(fidelity(start, end)) == pytest.approx(1.0, abs=1e-10)
    assert energy_expectation(end, 1.0, 0.0) == pytest.approx(0.5, rel=1e-8)
    assert end.norm() == pytest.approx(1.0, abs=1e-10)


def test_displaced_packet_energy_and_static_history():
    # a coherent state displaced by 0.4 stores 0.4^2 / 2 = 0.08 quanta
    displaced = ground_state(GRID, 1.0, center=0.4)
    assert energy_expectation(displaced, 1.0, 0.0) - 0.5 == pytest.approx(0.08, rel=1e-6)
    # while the undriven ground state's recorded energy never moves
    p = _static(tf=math.pi / 2.0)
    history = []
    out = propagate(p, GRID, 1.0, history=history, record_every=20)
    assert len(history) >= 5
    assert all(abs(e - 0.5) < 1e-8 for _, e in history)
    assert out.t == pytest.approx(math.pi / 2.0)


def test_propagate_records_history_endpoints():
    p = _transport()
    grid = make_grid(p, 1.0)
    history = []
    propagate(p, grid, 1.0, history=history, record_every=50)
    assert history[0][0] == 0.0
    assert history[-1][0] == pytest.approx(p.dspec.t_f)
    assert len(history) >= 3


def test_propagate_dt_validation():
    p = _transport()
    grid = make_grid(p, 1.0)
    with pytest.raises(SpecError):
        propagate(p, grid, 1.0, dt=0.1)
    with pytest.raises(SpecError):
        propagate(p, grid, -1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_oracle_layer_rejects_non_finite_inputs(bad):
    p = _transport()
    with pytest.raises(SpecError):
        classical_simulate(p, bad)
    with pytest.raises(SpecError):
        make_grid(p, bad)
    with pytest.raises(SpecError):
        propagate(p, GRID, bad)
    with pytest.raises(SpecError):
        propagate(p, GRID, 1.0, dt=bad)
    with pytest.raises(SpecError):
        verification_report(p, bad)
    with pytest.raises(SpecError):
        verification_report(p, 1.0, dt=bad)


def test_split_operator_is_fourth_order():
    # far from every design zero, where the stepper error sits well above
    # the ~1e-9 quanta floor of the energy measurement
    p = _transport(d=20.0, tf=2.0 * math.pi * 1.25, freqs=(1.0,))
    w = 1.1
    grid = make_grid(p, w)
    want = final_excitation(p, w)
    errs = [abs(energy_expectation(propagate(p, grid, w, dt=dt), w, p.dspec.d) - 0.5 - want)
            for dt in (0.018, 0.009)]
    assert errs[1] > 1e-11  # both still above the floor, so the ratio is the stepper's
    assert errs[0] >= 8.0 * errs[1]


def test_make_grid_covers_path_with_padding():
    p = _transport(d=10.0)
    grid = make_grid(p, 1.0)
    assert grid.x_min <= -8.0
    assert grid.x_max >= 18.0
    assert grid.n_points >= 512


def test_make_grid_cap():
    p = _transport(d=4000.0, tf=40.0)
    with pytest.raises(GridError):
        make_grid(p, 1.0)


@pytest.mark.parametrize("w", [0.95, 1.05])
def test_fast_transport_grid_resolves_momentum(w):
    # four stacked zeros in 1.25 periods: the packet peaks near speed 80,
    # beyond the k_max = pi/dx of a grid sized from the excursion alone
    p = _transport(d=20.0, tf=2.0 * math.pi * 1.25, freqs=(1.0,) * 4)
    rep = verification_report(p, omega=w)
    assert rep["n_points"] >= 2048
    assert rep["fidelity_vs_analytic"] >= 1.0 - 1e-5
    rel = rep["quantum_classical_rel_err"]
    if rel is None:
        assert rep["classical_delta_e_quanta"] <= 1e-6
        assert abs(rep["delta_e_quanta"] - rep["classical_delta_e_quanta"]) <= 1e-9
    else:
        assert rel <= 1e-3


def test_boundary_leak_detected():
    # a box that ends where the packet still has 1e-7 of its peak amplitude
    tight = SpatialGrid(x_min=-4.0, x_max=4.0, n_points=512)
    with pytest.raises(BoundaryLeakError):
        propagate(_static(), tight, 1.0)


def test_analytic_solution_unit_norm_and_domain():
    p = _transport()
    grid = make_grid(p, 1.0)
    wf = analytic_solution(p, grid, 1.0)
    assert wf.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(SpecError):
        analytic_solution(p, grid, 1.0, t=-0.5)


def test_transport_matches_analytic_solution():
    p = _transport(d=5.0, tf=3.0)
    grid = make_grid(p, 1.0)
    num = propagate(p, grid, 1.0)
    ana = analytic_solution(p, grid, 1.0)
    overlap = fidelity(num, ana)
    assert abs(overlap) >= 1.0 - 1e-6
    assert abs(math.atan2(overlap.imag, overlap.real)) <= 1e-3


def test_fidelity_grid_mismatch():
    a = ground_state(GRID, 1.0)
    b = ground_state(SpatialGrid(x_min=-12.0, x_max=12.0, n_points=2048), 1.0)
    with pytest.raises(SpecError):
        fidelity(a, b)


def test_verification_report_contents():
    p = _transport(d=8.0, tf=3.0, freqs=(0.98, 1.02))
    rep = verification_report(p, omega=1.05)
    assert rep["omega"] == 1.05
    assert rep["d"] == 8.0
    assert rep["fidelity_vs_analytic"] >= 1.0 - 1e-6
    assert rep["norm"] == pytest.approx(1.0, abs=1e-10)
    assert rep["quantum_classical_rel_err"] is not None
    assert rep["quantum_classical_rel_err"] <= 1e-3


@pytest.mark.parametrize("omega", [1.0, 1.05])
def test_verification_report_verdict(omega):
    # the verdict: fidelity >= 1 - 1e-5, and a relative gap <= 1e-3 once
    # the classical excitation passes 1e-6 quanta (never at a design zero)
    rep = verification_report(_transport(d=8.0, tf=3.0, freqs=(1.0, 1.02)), omega=omega)
    rel = rep["quantum_classical_rel_err"]
    assert (rel is None) == (omega == 1.0)
    rule = rep["fidelity_vs_analytic"] >= 1.0 - 1e-5 and (rel is None or rel <= 1e-3)
    assert rep["pass"] is rule is True


def test_quantum_excitation_scales_with_d_squared():
    # doubling the distance quadruples the residual quanta
    reps = [
        verification_report(_transport(d=d, tf=3.0), omega=1.05)["delta_e_quanta"]
        for d in (10.0, 20.0)
    ]
    assert reps[1] / reps[0] == pytest.approx(4.0, rel=1e-3)
