"""Independent references: grid search minima and random inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfpaced.errors import DimensionMismatch, EmptyFeasible
from selfpaced.oracles import GridSpec, grid_constrained_inf, random_concave


# ==== grid specs ==============================================================


def test_unit_box_shape_and_step():
    spec = GridSpec.unit_box(2, count=41)
    assert len(spec.axes) == 2
    assert spec.max_step == pytest.approx(1.0 / 40.0)


def test_more_than_three_axes_rejected():
    spec = GridSpec(axes=(((0.0, 1.0, 5),) * 4))
    with pytest.raises(DimensionMismatch):
        grid_constrained_inf(lambda v: float(np.sum(v)), spec)


# ==== exhaustive minima =======================================================


def test_linear_objective_minimized_at_origin():
    l = np.array([1.0, 2.0])
    value, argmin, bound = grid_constrained_inf(
        lambda v: float(v @ l), GridSpec.unit_box(2, count=41)
    )
    assert value == pytest.approx(0.0, abs=0.0)
    assert np.allclose(argmin, [0.0, 0.0])
    assert bound >= 0.0


def test_entropy_objective_under_order_constraint():
    # v . l + sum(v log v - v + 1) over v1 >= v2 pools the out-of-order pair
    l = np.array([2.0, 1.0])

    def objective(v):
        ent = np.where(v > 0, v * np.log(np.maximum(v, 1e-300)) - v + 1.0, 1.0)
        return float(v @ l + np.sum(ent))

    value, argmin, _ = grid_constrained_inf(
        objective,
        GridSpec.unit_box(2, count=201),
        feasible=lambda v: v[0] >= v[1],
    )
    assert value == pytest.approx(2.0 * (1.0 - math.exp(-1.5)), abs=2e-3)
    assert np.allclose(argmin, [math.exp(-1.5)] * 2, atol=5e-3)


def test_empty_feasible_set_raises():
    with pytest.raises(EmptyFeasible):
        grid_constrained_inf(
            lambda v: float(np.sum(v)),
            GridSpec.unit_box(1, count=11),
            feasible=lambda v: False,
        )


def test_nonfinite_objective_values_are_skipped():
    def objective(v):
        return float(v[0]) if v[0] > 0.5 else math.inf

    value, argmin, _ = grid_constrained_inf(objective, GridSpec.unit_box(1, count=101))
    assert value == pytest.approx(0.51)


def test_error_bound_shrinks_and_covers_the_refined_minimum():
    objective = lambda v: float((v[0] - 0.3456) ** 2)
    prev_value, _, prev_bound = grid_constrained_inf(
        objective, GridSpec(axes=((0.0, 1.0, 11),))
    )
    for count in (21, 41, 81, 161):
        value, _, bound = grid_constrained_inf(objective, GridSpec(axes=((0.0, 1.0, count),)))
        assert bound <= prev_bound + 1e-15
        # the finer minimum may drop, but never by more than the prior bound
        assert value >= prev_value - prev_bound - 1e-12
        assert value <= prev_value + 1e-15
        prev_value, prev_bound = value, bound


# ==== random concave generators ===============================================


def test_random_concave_is_deterministic():
    a = random_concave(123)
    b = random_concave(123)
    assert np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.values, b.values)


def test_random_concave_differs_across_seeds():
    a = random_concave(1)
    b = random_concave(2)
    assert not np.array_equal(a.values, b.values)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_concave_has_nonincreasing_secant_slopes(seed):
    g = random_concave(seed)
    i0, i1 = g.domain_indices
    vals = g.values[i0 : i1 + 1]
    xs = g.grid[i0 : i1 + 1]
    if vals.size < 3:
        return
    slopes = np.diff(vals) / np.diff(xs)
    assert np.all(np.diff(slopes) <= 1e-9)


def test_random_concave_respects_fixed_domain():
    g = random_concave(7, domain=(10, 20))
    assert g.domain_indices == (10, 20)
    assert not np.isfinite(g.values[9])
    assert np.all(np.isfinite(g.values[10:21]))


def test_random_concave_respects_slope_range():
    g = random_concave(11, domain=(0, 256), slope_range=(-0.5, 0.5))
    slopes = np.diff(g.values) / np.diff(g.grid)
    assert np.all(slopes <= 0.5 + 1e-9)
    assert np.all(slopes >= -0.5 - 1e-9)


def test_random_concave_accepts_custom_grid():
    grid = np.linspace(-2.0, 5.0, 65)
    g = random_concave(3, grid=grid)
    assert np.array_equal(g.grid, grid)
