"""Building regularizers from a weight curve or from a penalty, and round trips."""

import numpy as np
import pytest

from selfpaced.errors import BadDomain, BadLimits, BadParam, NotConvex, NotMonotone
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


def test_weight_design_weight_view_is_cell_averaged():
    designed = design_from_weight(lambda l: np.exp(-l))
    ls = np.linspace(0.0, 6.0, 601)
    # the stored weight is the exact derivative of the tabulated latent, a
    # per-cell average of the input curve; it sits within half a cell's
    # drift of the input
    assert np.max(np.abs(designed.weight(1.0, ls) - np.exp(-ls))) <= 2.5e-3


def test_weight_design_handles_step_curve():
    designed = design_from_weight(lambda l: np.where(np.asarray(l) < 1.0, 1.0, 0.0))
    assert float(designed.latent(1.0, 0.5)) == pytest.approx(0.5, abs=1e-12)
    # the step lands mid-cell on the design grid, so the tabulated latent
    # tops out at the trapezoid value of the straddling cell
    assert float(designed.latent(1.0, 2.0)) == pytest.approx(1.0, abs=2e-3)
    assert float(designed.r_sp_base(1.0)) == pytest.approx(0.0, abs=1e-12)
    assert float(designed.r_sp_base(0.0)) == pytest.approx(1.0, abs=2e-3)


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
    # both pipelines tabulate on ~2k-point grids; the surviving error is the
    # per-cell averaging of the weight view (half a cell of drift each way)
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
