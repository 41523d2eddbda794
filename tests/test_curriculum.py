"""Constrained latents: halfspace actions, group pooling, and the numeric reference."""

import math

import numpy as np
import pytest

from selfpaced.conjugacy import Halfspace
from selfpaced.curriculum import (
    CurriculumRegion,
    affine_action,
    check_partition,
    group_latent,
    weight_extended,
)
from selfpaced.errors import (
    BadParam,
    BadPartition,
    EmptyFeasible,
    NoRoot,
    SingularRegion,
    UnsupportedRegularizer,
)
from selfpaced.oracles import (
    critical_region_side,
    curriculum_action_numeric,
    homogeneous_action_ray,
    homogeneous_closed_form,
    latent_extended,
)
from selfpaced.regularizers import get_regularizer

EXP = get_regularizer("exp")
LINEAR = get_regularizer("linear")
HARD = get_regularizer("hard")

ORDER = Halfspace(np.array([1.0, -1.0]), 0.0)


def order_region():
    return CurriculumRegion("halfspace", halfspaces=(ORDER,))


# ==== regions =================================================================


def test_region_kinds_validate():
    with pytest.raises(BadParam):
        CurriculumRegion("pentagon")
    with pytest.raises(BadParam):
        CurriculumRegion("halfspace")  # needs exactly one halfspace
    with pytest.raises(BadPartition):
        CurriculumRegion("groups")


def test_region_rejects_zero_normal():
    tiny = Halfspace.__new__(Halfspace)
    object.__setattr__(tiny, "k", np.array([1e-15, 0.0]))
    object.__setattr__(tiny, "b", 0.0)
    with pytest.raises(SingularRegion):
        CurriculumRegion("halfspace", halfspaces=(tiny,))


def test_region_dict_round_trip():
    specs = [
        {"kind": "none"},
        {"kind": "halfspace", "k": [1.0, -1.0], "b": 0.5},
        {
            "kind": "intersection",
            "halfspaces": [{"k": [1.0, 0.0], "b": 0.0}, {"k": [0.0, 1.0], "b": 0.1}],
        },
        {"kind": "groups", "partition": [[0, 1], [2]]},
    ]
    for spec in specs:
        region = CurriculumRegion.from_dict(spec)
        assert CurriculumRegion.from_dict(region.to_dict()).to_dict() == region.to_dict()


def test_region_dict_rejects_unknown_keys():
    with pytest.raises(BadParam):
        CurriculumRegion.from_dict({"kind": "none", "k": [1.0]})
    with pytest.raises(BadParam):
        CurriculumRegion.from_dict({"kind": "mystery"})
    with pytest.raises(BadParam):
        CurriculumRegion.from_dict({"halfspaces": []})
    with pytest.raises(BadParam):
        CurriculumRegion.from_dict({"kind": "intersection", "halfspaces": 3})


@pytest.mark.parametrize(
    "entry", [{"k": {"a": 1}}, {"k": [1.0, 0.0], "b": [1]}, {"b": 0.0}, {"k": [0.0, 0.0]}, [1.0]]
)
def test_region_dict_parses_halfspace_entries_alike(entry):
    # one parser for each entry: malformed ones are BadParam in both kinds
    if isinstance(entry, dict):
        with pytest.raises(BadParam, match="bad halfspace spec"):
            CurriculumRegion.from_dict({"kind": "halfspace", **entry})
    with pytest.raises(BadParam, match="bad halfspace spec"):
        CurriculumRegion.from_dict({"kind": "intersection", "halfspaces": [entry]})


def test_feasible_mask():
    region = order_region()
    v = np.array([[0.6, 0.5], [0.4, 0.5]])
    assert region.feasible_mask(v).tolist() == [True, False]


@pytest.mark.parametrize("partition", [3, [3], [[0, "a"]], [[0, 1.5]], [[0, None]]])
def test_region_rejects_a_partition_that_is_not_blocks_of_integers(partition):
    with pytest.raises(BadPartition, match="blocks of integer indices"):
        CurriculumRegion.from_dict({"kind": "groups", "partition": partition})
    with pytest.raises(BadPartition, match="blocks of integer indices"):
        CurriculumRegion("groups", partition=partition)


def test_region_keeps_integer_partition_entries_as_ints():
    region = CurriculumRegion("groups", partition=[np.array([0, 2]), [np.int64(1)]])
    assert region.partition == ((0, 2), (1,))
    assert all(type(i) is int for block in region.partition for i in block)


def test_region_rejects_content_its_kind_does_not_hold():
    h = Halfspace(np.array([1.0, -1.0, 0.0]), 0.0)
    with pytest.raises(BadParam, match="groups region holds no halfspaces"):
        CurriculumRegion("groups", halfspaces=(h,), partition=((0, 1), (2,)))
    with pytest.raises(BadParam, match="none region holds no halfspaces"):
        CurriculumRegion("none", (h,))
    with pytest.raises(BadParam, match="none region holds no partition"):
        CurriculumRegion("none", partition=((0, 1), (2,)))
    for kind in ("halfspace", "intersection"):
        with pytest.raises(BadParam, match=f"{kind} region holds no partition"):
            CurriculumRegion(kind, (h,), partition=((0, 1), (2,)))


def test_region_checks_normals_when_it_is_built():
    with pytest.raises(BadParam, match="differ in dimension"):
        CurriculumRegion(
            "intersection",
            (Halfspace(np.array([1.0, 0.0]), 0.0), Halfspace(np.array([1.0, 0.0, 1.0]), 0.0)),
        )


def test_check_partition_rejects_overlap_and_out_of_range():
    with pytest.raises(BadPartition):
        check_partition(((0, 1), (1, 2)), 3)
    with pytest.raises(BadPartition):
        check_partition(((0, 5),), 3)


# ==== loss-side extensions ====================================================


def test_negative_losses_extend_linearly_with_full_weight():
    assert float(latent_extended(EXP, 1.0, -2.0)) == pytest.approx(-2.0)
    assert float(weight_extended(EXP, 1.0, -2.0)) == pytest.approx(1.0)
    # agreement with the ordinary views on the nonnegative side
    ls = np.linspace(0.0, 4.0, 41)
    assert np.allclose(latent_extended(EXP, 1.0, ls), EXP.latent(1.0, ls))
    assert np.allclose(weight_extended(EXP, 1.0, ls), EXP.weight(1.0, ls))


# ==== which side of the halfspace =============================================


def test_sides_of_the_ordering_constraint():
    assert critical_region_side(EXP, 1.0, np.array([1.0, 2.0]), ORDER) == "unaffected"
    assert critical_region_side(EXP, 1.0, np.array([2.0, 1.0]), ORDER) == "penalized"
    assert critical_region_side(EXP, 1.0, np.array([3.0, 3.0]), ORDER) == "unaffected"


def test_side_rejects_shape_mismatch():
    with pytest.raises(BadParam):
        critical_region_side(EXP, 1.0, np.array([1.0, 2.0, 3.0]), ORDER)


# ==== ray supremum ============================================================


def test_ray_matches_pooled_closed_form_when_penalized():
    got = homogeneous_action_ray(EXP, 1.0, np.array([2.0, 1.0]), ORDER)
    assert got.value == pytest.approx(2.0 * (1.0 - math.exp(-1.5)), abs=1e-6)
    assert got.side == "penalized"
    assert got.beta == pytest.approx(0.5, abs=1e-5)


def test_ray_is_exact_when_unaffected():
    got = homogeneous_action_ray(EXP, 1.0, np.array([1.0, 2.0]), ORDER)
    want = (1.0 - math.exp(-1.0)) + (1.0 - math.exp(-2.0))
    assert got.value == pytest.approx(want, abs=1e-9)
    assert got.beta == 0.0
    assert got.side == "unaffected"


def test_ray_rejects_offset_halfspace():
    with pytest.raises(BadParam):
        homogeneous_action_ray(EXP, 1.0, np.array([1.0, 2.0]), Halfspace(np.array([1.0, -1.0]), 0.5))


# ==== pooled closed form ======================================================


def test_closed_form_pools_out_of_order_pair():
    got = homogeneous_closed_form(EXP, 1.0, np.array([2.0, 1.0]), ORDER)
    assert got.value == pytest.approx(2.0 * (1.0 - math.exp(-1.5)), abs=1e-12)
    assert np.allclose(got.weights, [math.exp(-1.5)] * 2, atol=1e-12)
    assert got.beta == pytest.approx(0.5, abs=1e-12)
    assert got.side == "penalized"


def test_closed_form_on_the_boundary_keeps_elementwise_weights():
    got = homogeneous_closed_form(EXP, 1.0, np.array([1.0, 1.0]), ORDER)
    assert np.allclose(got.weights, [math.exp(-1.0)] * 2, atol=1e-12)
    assert got.side == "unaffected"


def test_closed_form_in_order_is_untouched():
    got = homogeneous_closed_form(EXP, 1.0, np.array([0.5, 3.0]), ORDER)
    assert np.allclose(got.weights, [math.exp(-0.5), math.exp(-3.0)], atol=1e-12)
    want = (1.0 - math.exp(-0.5)) + (1.0 - math.exp(-3.0))
    assert got.value == pytest.approx(want, abs=1e-12)


def test_closed_form_passes_through_untouched_coordinates():
    k = np.array([0.0, 1.0, -1.0])
    got = homogeneous_closed_form(EXP, 1.0, np.array([5.0, 2.0, 1.0]), Halfspace(k, 0.0))
    want = (1.0 - math.exp(-5.0)) + 2.0 * (1.0 - math.exp(-1.5))
    assert got.value == pytest.approx(want, abs=1e-12)
    assert got.weights[0] == pytest.approx(math.exp(-5.0), abs=1e-12)


def test_closed_form_requires_exponential_and_pair_normal():
    with pytest.raises(UnsupportedRegularizer):
        homogeneous_closed_form(LINEAR, 1.0, np.array([2.0, 1.0]), ORDER)
    with pytest.raises(UnsupportedRegularizer):
        homogeneous_closed_form(EXP, 1.0, np.array([2.0, 1.0]), Halfspace(np.array([1.0, -0.5]), 0.0))
    with pytest.raises(UnsupportedRegularizer):
        homogeneous_closed_form(
            EXP, 1.0, np.array([2.0, 1.0]), Halfspace(np.array([1.0, -1.0]), 0.25)
        )


# ==== affine action ===========================================================


def test_affine_action_reduces_to_ray_when_homogeneous():
    got = affine_action(EXP, 1.0, np.array([2.0, 1.0]), ORDER)
    assert got.value == pytest.approx(2.0 * (1.0 - math.exp(-1.5)), abs=1e-8)
    assert got.beta == pytest.approx(0.5, abs=1e-8)


def test_affine_action_offset_worked_case():
    # k=(1,0), b=1/2: the first weight is pinned to 1/2, so the optimal
    # shift is beta = 2 - log 2 and the latent gains beta * b
    got = affine_action(EXP, 1.0, np.array([2.0, 1.0]), Halfspace(np.array([1.0, 0.0]), 0.5))
    beta0 = 2.0 - math.log(2.0)
    want = (1.0 - math.exp(-(2.0 - beta0))) + (1.0 - math.exp(-1.0)) + 0.5 * beta0
    assert got.value == pytest.approx(want, abs=1e-8)
    assert got.beta == pytest.approx(beta0, abs=1e-8)
    assert got.weights[0] == pytest.approx(0.5, abs=1e-8)
    assert got.side == "penalized"


def test_affine_action_on_boundary_is_unaffected():
    got = affine_action(EXP, 1.0, np.array([1.0, 1.0]), ORDER)
    assert got.beta == 0.0
    assert got.value == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), abs=1e-10)
    assert got.side == "unaffected"


def test_affine_action_infeasible_offset_diverges():
    # the weight balance cannot exceed sum of positive normal entries
    with pytest.raises(NoRoot):
        affine_action(EXP, 1.0, np.array([2.0, 1.0]), Halfspace(np.array([1.0, -1.0]), 1.5))


def test_affine_action_rejects_negative_losses():
    # the free weights come from reg.weight, which refuses them like the v-step
    with pytest.raises(BadParam):
        affine_action(EXP, 1.0, np.array([-1.0, 2.0]), Halfspace(np.array([1.0, 0.0]), 0.5))


# ==== group pooling ===========================================================


def test_group_latent_pools_by_block_mean():
    got = group_latent(EXP, 1.0, np.array([1.0, 1.0]), ((0, 1),))
    assert got.value == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), abs=1e-12)
    assert np.allclose(got.weights, [math.exp(-1.0)] * 2, atol=1e-12)


def test_group_latent_mixed_block_sizes():
    got = group_latent(LINEAR, 1.0, np.array([0.4, 0.6, 2.0]), ((0, 1), (2,)))
    # block mean 0.5 gives per-sample latent 0.375; the singleton saturates at 0.5
    assert got.value == pytest.approx(2 * 0.375 + 0.5, abs=1e-12)
    assert np.allclose(got.weights, [0.5, 0.5, 0.0], atol=1e-12)


def test_group_latent_rejects_bad_partition():
    with pytest.raises(BadPartition):
        group_latent(EXP, 1.0, np.array([1.0, 2.0]), ((0,),))


def test_group_latent_rejects_negative_losses():
    # a block mean of 0.5 would hide the negative loss
    with pytest.raises(BadParam):
        group_latent(EXP, 1.0, np.array([-0.5, 1.5]), ((0, 1),))


# ==== numeric reference =======================================================


def test_numeric_reference_matches_order_closed_forms():
    got = curriculum_action_numeric(EXP, 1.0, np.array([1.0, 2.0]), order_region())
    want = (1.0 - math.exp(-1.0)) + (1.0 - math.exp(-2.0))
    assert got.value == pytest.approx(want, abs=1e-3)

    got = curriculum_action_numeric(EXP, 1.0, np.array([2.0, 1.0]), order_region())
    assert got.value == pytest.approx(2.0 * (1.0 - math.exp(-1.5)), abs=1e-3)


def test_numeric_reference_matches_offset_action():
    region = CurriculumRegion("halfspace", halfspaces=(Halfspace(np.array([1.0, 0.0]), 0.5),))
    got = curriculum_action_numeric(EXP, 1.0, np.array([2.0, 1.0]), region)
    beta0 = 2.0 - math.log(2.0)
    want = (1.0 - math.exp(-(2.0 - beta0))) + (1.0 - math.exp(-1.0)) + 0.5 * beta0
    assert got.value == pytest.approx(want, abs=1e-3)


def test_numeric_reference_matches_group_pooling():
    region = CurriculumRegion("groups", partition=((0, 1), (2,)))
    got = curriculum_action_numeric(LINEAR, 1.0, np.array([0.4, 0.6, 2.0]), region)
    assert got.value == pytest.approx(1.25, abs=1e-3)


def test_numeric_reference_unconstrained_equals_latent_sum():
    region = CurriculumRegion("none")
    ls = np.array([0.7, 1.3])
    got = curriculum_action_numeric(EXP, 1.0, ls, region)
    assert got.value == pytest.approx(float(np.sum(EXP.latent(1.0, ls))), abs=1e-3)


def test_numeric_reference_rejects_high_dimensions():
    region = CurriculumRegion("none")
    with pytest.raises(BadParam):
        curriculum_action_numeric(EXP, 1.0, np.linspace(0.5, 1.0, 4), region)


def test_numeric_reference_empty_feasible_raises():
    region = CurriculumRegion(
        "halfspace", halfspaces=(Halfspace(np.array([1.0, 1.0]), 5.0),)
    )
    with pytest.raises(EmptyFeasible):
        curriculum_action_numeric(EXP, 1.0, np.array([1.0, 1.0]), region)


# ==== hard regularizer under constraints ======================================


def test_hard_order_pooling_via_numeric_reference():
    # linear penalty -v at age 1.5 on l=(2,1) under v1 >= v2: the cost of
    # raising v1 (+0.5 t) exactly cancels the gain on v2 (-0.5 t), so every
    # diagonal point ties and the normalized value is 2 * 1.5
    region = order_region()
    got = curriculum_action_numeric(HARD, 1.5, np.array([2.0, 1.0]), region, points_per_axis=3)
    assert got.value == pytest.approx(3.0, abs=1e-12)
    assert got.weights[0] == pytest.approx(got.weights[1], abs=1e-12)
