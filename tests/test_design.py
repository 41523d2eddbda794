"""Building regularizers from a weight curve or from a penalty, and round trips."""

import warnings

import numpy as np
import pytest

from selfpaced.cli import PENALTY_INPUTS, WEIGHT_INPUTS
from selfpaced.conjugacy import Halfspace
from selfpaced.curriculum import CurriculumRegion, v_step
from selfpaced.errors import BadDomain, BadLimits, BadParam, NotConvex, NotMonotone, WeightTail
from selfpaced.regularizers import (
    design_from_regularizer,
    design_from_weight,
    get_regularizer,
    validate_sp_regularizer,
)


def _assert_valid(reg):
    report = validate_sp_regularizer(reg)
    assert report.verdict, [
        f"{c.name}: residual {c.residual:.3g} at {c.location}" for c in report.failures()
    ]


# ==== from a weight curve =====================================================


def test_weight_design_recovers_entropy_penalty():
    designed = design_from_weight(lambda l: np.exp(-l))
    _assert_valid(designed)
    v = np.linspace(0.01, 1.0, 397)
    truth = v * np.log(v) - v + 1.0
    assert np.max(np.abs(designed.r_sp_base(v) - truth)) <= 1e-4


def test_weight_design_recovers_saturating_latent():
    designed = design_from_weight(lambda l: np.exp(-l))
    ls = np.linspace(0.0, 8.0, 801)
    assert np.max(np.abs(designed.latent(1.0, ls) - (1.0 - np.exp(-ls)))) <= 1e-4


def test_weight_design_weight_view_interpolates_the_input():
    designed = design_from_weight(lambda l: np.exp(-l))
    ls = np.linspace(0.0, 6.0, 601)
    # the weight is the input's linear interpolant on the design grid, off
    # the curve by at most a cell's width squared times its curvature over 8
    assert np.max(np.abs(designed.weight(1.0, ls) - np.exp(-ls))) <= 1e-5


def test_weight_design_handles_step_curve():
    designed = design_from_weight(lambda l: np.where(np.asarray(l) < 1.0, 1.0, 0.0))
    assert float(designed.latent(1.0, 0.5)) == pytest.approx(0.5, abs=1e-12)
    # the weight falls linearly across the one grid cell that ends at the
    # step, so the latent tops out half a cell below 1
    assert float(designed.latent(1.0, 2.0)) == pytest.approx(1.0, abs=2e-3)
    assert float(designed.r_sp_base(1.0)) == pytest.approx(0.0, abs=1e-12)
    assert float(designed.r_sp_base(0.0)) == pytest.approx(1.0, abs=2e-3)


def test_designed_weights_hold_their_tail_at_an_infinite_loss():
    step = design_from_weight(lambda l: np.where(np.asarray(l) < 1.0, 1.0, 0.0))
    neg_log = design_from_regularizer(get_regularizer("log").r_sp_base)
    for designed in (step, neg_log):
        tail = designed.weight_base(np.array([1e300, np.inf]))
        assert np.isfinite(tail).all() and tail[0] == tail[1]


def test_weight_design_rejects_increasing_curve():
    with pytest.raises(NotMonotone):
        design_from_weight(lambda l: np.clip(np.asarray(l, dtype=float), 0.0, 1.0))


def test_weight_design_rejects_out_of_range_curve():
    with pytest.raises(BadLimits):
        design_from_weight(lambda l: 2.0 * np.exp(-np.asarray(l, dtype=float)))


# ==== from a penalty ==========================================================


def test_penalty_design_recovers_clamped_ramp_weight():
    designed = design_from_regularizer(lambda v: 0.5 * (1.0 - np.asarray(v)) ** 2)
    _assert_valid(designed)
    ls = np.linspace(0.0, 8.0, 641)
    want = np.clip(1.0 - ls, 0.0, 1.0)
    assert np.max(np.abs(designed.weight(1.0, ls) - want)) <= 1e-4


def test_penalty_design_gives_full_weight_at_zero_loss():
    designed = design_from_regularizer(lambda v: 0.5 * (1.0 - np.asarray(v)) ** 2)
    assert float(designed.weight(1.0, 0.0)) == pytest.approx(1.0, abs=1e-9)


def test_penalty_design_rejects_nonconvex_input():
    with pytest.raises(NotConvex):
        design_from_regularizer(lambda v: -((np.asarray(v, dtype=float) - 0.5) ** 2))


def test_penalty_design_rejects_partial_domain():
    def half_dome(v):
        v = np.asarray(v, dtype=float)
        return np.where(v > 0.5, np.inf, 0.5 * (1.0 - v) ** 2)

    with pytest.raises(BadDomain):
        design_from_regularizer(half_dome)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_both_designs_need_three_grid_points(n):
    with pytest.raises(BadParam, match="at least 3 points"):
        design_from_weight(lambda l: np.exp(-np.asarray(l, dtype=float)), n=n)
    with pytest.raises(BadParam, match="at least 3 points"):
        design_from_regularizer(get_regularizer("exp").r_sp_base, n=n)


@pytest.mark.parametrize("l_max", [0.0, -1.0, np.nan, np.inf])
def test_weight_design_needs_a_finite_positive_l_max(l_max):
    with pytest.raises(BadParam, match="l_max"):
        design_from_weight(lambda l: np.exp(-np.asarray(l, dtype=float)), l_max=l_max)


# ==== round trips =============================================================


def test_penalty_weight_penalty_round_trip():
    first = design_from_regularizer(lambda v: 0.5 * (1.0 - np.asarray(v)) ** 2)
    second = design_from_weight(lambda l: first.weight(1.0, l))
    v = np.linspace(0.0, 1.0, 513)
    err = np.max(np.abs(second.r_sp_base(v) - 0.5 * (1.0 - v) ** 2))
    assert err <= 1e-4


def test_weight_penalty_weight_round_trip():
    first = design_from_weight(lambda l: np.exp(-l))
    second = design_from_regularizer(lambda v: first.r_sp_base(v))
    ls = np.linspace(0.0, 6.0, 601)
    # both pipelines read their input on ~2k-point grids; the surviving error
    # is the linear interpolation of the weight between the grid points
    err = np.max(np.abs(second.weight(1.0, ls) - np.asarray(first.weight(1.0, ls))))
    assert err <= 2.5e-3
    # against the smooth generator both stay within the same quantization
    assert np.max(np.abs(second.weight(1.0, ls) - np.exp(-ls))) <= 2.5e-3


def test_designed_triple_matches_catalog_behavior_in_training_interfaces():
    designed = design_from_weight(lambda l: np.exp(-l))
    exp = get_regularizer("exp")
    ls = np.linspace(0.0, 5.0, 101)
    assert np.max(np.abs(designed.latent(2.0, ls) - exp.latent(2.0, ls))) <= 1e-3
    assert designed.r_base_min == pytest.approx(exp.r_base_min, abs=1e-6)


# ==== designed regularizers in the v-step and the validator ===================

AXIS = np.linspace(0.0, 1.0, 61)


def grid_minimum(reg, l, halfspaces):
    """Least <v, l> + sum r(v_i) over the 61^3 grid points of the region, n = 3.

    The grid is a subset of the region, so its minimum is at or above the
    exact one.
    """
    per_axis = [li * AXIS + np.asarray(reg.r_sp_base(AXIS), dtype=float) for li in l]
    mesh = np.ix_(AXIS, AXIS, AXIS)
    objective = per_axis[0][:, None, None] + per_axis[1][None, :, None] + per_axis[2]
    inside = np.isfinite(objective)
    for h in halfspaces:
        inside &= sum(k * axis for k, axis in zip(h.k, mesh)) >= h.b
    return float(np.min(objective, where=inside, initial=np.inf))


def missed_halfspace(rng, reg, l):
    """A normal N(0, 1)^3 and an offset the free weights miss, with grid points inside."""
    while True:
        k = rng.normal(size=3)
        free, cap = float(reg.weight(1.0, l) @ k), float(np.maximum(k, 0.0).sum())
        if cap - free > 1e-2:
            return Halfspace(k, free + rng.uniform(0.1, 0.8) * (cap - free))


@pytest.mark.parametrize("name", ["exp-decay", "linear-clamp", "step"])
def test_weight_designs_under_one_halfspace_never_end_above_the_grid_minimum(name):
    reg = design_from_weight(WEIGHT_INPUTS[name])
    rng = np.random.default_rng(1)
    for _ in range(12):
        l = rng.uniform(0.0, 6.0, size=3)
        h = missed_halfspace(rng, reg, l)
        v = v_step(l, 1.0, reg, CurriculumRegion("halfspace", (h,)))
        assert float(v @ h.k) >= h.b - 1e-12
        value = float(v @ l + np.sum(reg.r_sp_base(v)))
        assert value <= grid_minimum(reg, l, [h]) + 1e-9


@pytest.mark.parametrize("name", ["exp-decay", "linear-clamp"])
def test_weight_designs_under_two_overlapping_halfspaces_are_feasible(name):
    reg = design_from_weight(WEIGHT_INPUTS[name])
    rng = np.random.default_rng(4)
    for _ in range(6):
        l = rng.uniform(0.0, 3.0, size=3)
        hs = (missed_halfspace(rng, reg, l), missed_halfspace(rng, reg, l))
        if grid_minimum(reg, l, hs) == np.inf:
            continue
        v = v_step(l, 1.0, reg, CurriculumRegion("intersection", hs))
        for h in hs:
            assert float(v @ h.k) >= h.b - 1e-9


def mixed_penalty(c, q):
    """c |1 - v|^q / q + (1 - c) (v log v - v + 1): convex on [0, 1]."""
    exp = get_regularizer("exp").r_sp_base
    return lambda v: c * np.abs(1.0 - np.asarray(v, dtype=float)) ** q / q + (1.0 - c) * exp(v)


def assert_concave(latent, ls):
    slopes = np.diff(latent) / np.diff(ls)
    assert np.max(np.diff(slopes)) <= 1e-13 * max(1.0, float(np.max(np.abs(slopes))))


def test_penalty_designs_near_q_1_5_pass_the_validator_with_concave_latents():
    rng = np.random.default_rng(2)
    ls = np.linspace(0.0, 8.0, 1025)
    for _ in range(8):
        c, q = rng.uniform(0.2, 0.8), rng.uniform(1.5, 1.7)
        designed = design_from_regularizer(mixed_penalty(c, q))
        _assert_valid(designed)
        assert_concave(designed.latent(1.0, ls), ls)


def test_every_named_design_has_a_concave_latent():
    ls = np.linspace(0.0, 8.0, 1025)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeightTail)
        designs = [design_from_weight(w) for w in WEIGHT_INPUTS.values()]
    designs += [design_from_regularizer(r) for r in PENALTY_INPUTS.values()]
    rng = np.random.default_rng(6)
    designs += [design_from_regularizer(mixed_penalty(0.8, q)) for q in rng.uniform(1.5, 3.0, 4)]
    for designed in designs:
        assert_concave(designed.latent(1.0, ls), ls)
