from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from statransport.designer import TransportSpec, build_trajectory
from statransport.errors import BracketWarning, SpecError
from statransport.evaluator import lambda_metric
from statransport.optimizer import (
    DEFAULT_EPS_GRID,
    OptimizationResult,
    PlacementPattern,
    optimize_epsilon,
    sweep_epsilon,
)

BASE = TransportSpec(d=1.0, t_f=3.0, freqs=(1.0,))


@given(
    st.floats(min_value=1e-6, max_value=0.2),
    st.floats(min_value=0.5, max_value=2.0),
)
def test_mirror_pairs_sum_exactly(eps, omega0):
    fr = PlacementPattern(kind="three_point", epsilon=eps).frequencies(omega0)
    assert len(fr) == 3
    assert fr == tuple(sorted(fr))
    assert fr[1] == omega0
    # mirrored pair: the sum reconstructs 2*omega0 with no rounding at all
    assert fr[0] + fr[2] == 2.0 * omega0
    assert fr[0] < omega0 < fr[2]


@given(st.floats(min_value=1e-6, max_value=0.2))
def test_symmetric_n_five(eps):
    fr = PlacementPattern(kind="symmetric_n", epsilon=eps, n_points=5).frequencies(1.0)
    assert len(fr) == 5
    assert fr[2] == 1.0
    assert fr[0] + fr[4] == 2.0
    assert fr[1] + fr[3] == 2.0


def test_coincident_limit_keeps_multiplicity():
    for kind, n in (("two_point", 2), ("three_point", 3)):
        fr = PlacementPattern(kind=kind, epsilon=0.0).frequencies(1.3)
        assert fr == (1.3,) * n


def test_pattern_validation():
    with pytest.raises(SpecError):
        PlacementPattern(kind="four_point")
    with pytest.raises(SpecError):
        PlacementPattern(kind="two_point", epsilon=-0.01)
    with pytest.raises(SpecError):
        PlacementPattern(kind="one_point", epsilon=0.05)
    with pytest.raises(SpecError):
        PlacementPattern(kind="symmetric_n", epsilon=0.05)
    with pytest.raises(SpecError):
        PlacementPattern(kind="two_point", epsilon=0.05).frequencies(-1.0)


def test_default_grid_shape():
    assert DEFAULT_EPS_GRID[0] == 0.0
    assert DEFAULT_EPS_GRID[-1] == pytest.approx(0.08)
    assert all(b > a for a, b in zip(DEFAULT_EPS_GRID, DEFAULT_EPS_GRID[1:]))


def test_sweep_grid_validation():
    with pytest.raises(SpecError):
        sweep_epsilon("two_point", BASE, 1.0, 0.02, eps_grid=())
    with pytest.raises(SpecError):
        sweep_epsilon("two_point", BASE, 1.0, 0.02, eps_grid=(0.02, 0.01))
    with pytest.raises(SpecError):
        sweep_epsilon("two_point", BASE, 1.0, 0.02, eps_grid=(0.0, 0.5))
    with pytest.raises(SpecError):
        sweep_epsilon("one_point", BASE, 1.0, 0.02)


def test_sweep_reports_offending_epsilon():
    with pytest.raises(SpecError, match="at epsilon=0.01"):
        sweep_epsilon("two_point", BASE, -1.0, 0.02, eps_grid=(0.01,))


def test_sweep_equals_pointwise_lambda_metric(monkeypatch):
    # the sweep is a plain loop: the retired STA_THREADS setting is ignored
    monkeypatch.setenv("STA_THREADS", "abc")
    grid = (0.0, 0.01, 0.02, 0.03)
    sweep = sweep_epsilon("two_point", BASE, 1.0, 0.05, eps_grid=grid)
    want = tuple(
        lambda_metric(
            build_trajectory(replace(BASE, freqs=PlacementPattern("two_point", e).frequencies(1.0))),
            1.0, 0.05,
        )
        for e in grid
    )
    assert sweep.lambdas == want
    assert sweep.epsilons == grid


def test_sweep_best_and_csv(tmp_path):
    sweep = sweep_epsilon("two_point", BASE, 1.0, 0.05, eps_grid=(0.0, 0.01, 0.02))
    eps, lam = sweep.best
    assert lam == min(sweep.lambdas)
    assert eps in sweep.epsilons
    path = tmp_path / "sweep.csv"
    sweep.to_csv(path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], np.array(sweep.epsilons))


def test_optimize_finds_interior_minimum():
    result = optimize_epsilon("two_point", BASE, 1.0, 0.05, coarse_points=17)
    assert 0.0 < result.eps_star < 0.08
    assert result.lambda_star < result.lambda_at_zero
    assert result.ratio > 1.0
    # the reported minimum really beats its neighborhood on a fresh sweep
    probe = sweep_epsilon(
        "two_point", BASE, 1.0, 0.05,
        eps_grid=(max(result.eps_star - 5e-3, 1e-4), result.eps_star + 5e-3),
    )
    assert result.lambda_star <= min(probe.lambdas) * (1.0 + 1e-6)


def test_optimize_zero_distance_short_circuit():
    base = TransportSpec(d=0.0, t_f=3.0, freqs=(1.0,))
    result = optimize_epsilon("two_point", base, 1.0, 0.05)
    assert result.lambda_star == 0.0
    assert result.eps_star == 0.0
    assert result.ratio is None


def test_optimize_validation():
    with pytest.raises(SpecError):
        optimize_epsilon("two_point", BASE, 1.0, 0.05, bracket=(0.05, 0.01))
    with pytest.raises(SpecError):
        optimize_epsilon("two_point", BASE, 1.0, 0.05, bracket=(0.0, 0.5))
    with pytest.raises(SpecError):
        optimize_epsilon("one_point", BASE, 1.0, 0.05)


def test_optimize_warns_at_bracket_edge():
    # the two-point optimum sits near 0.012 at this eta; a bracket that
    # stops well short of it pins the minimum to the upper edge
    with pytest.warns(BracketWarning):
        result = optimize_epsilon(
            "two_point", BASE, 1.0, 0.05, bracket=(0.0, 0.004), coarse_points=5
        )
    assert result.eps_star <= 0.004


def test_result_serialization(tmp_path):
    result = OptimizationResult(
        pattern_kind="two_point", omega0=1.0, eta=0.02,
        eps_star=0.01, lambda_star=2.0, lambda_at_zero=8.0,
    )
    assert result.ratio == 4.0
    d = result.to_dict()
    assert d["pattern"] == "two_point" and d["ratio"] == 4.0
    path = tmp_path / "result.json"
    result.to_json(path)
    import json

    assert json.loads(path.read_text())["eps_star"] == 0.01
