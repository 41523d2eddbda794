"""Catalog closed forms, age scaling, and the triple-consistency validator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfpaced.conjugacy import Halfspace
from selfpaced.curriculum import CurriculumRegion
from selfpaced.errors import BadParam
from selfpaced.experiments import SuiteConfig
from selfpaced.regularizers import (
    SPRegularizer,
    catalog,
    get_regularizer,
    tabulate,
    validate_sp_regularizer,
)
from selfpaced.training import TrainConfig, v_step

HARD = get_regularizer("hard")
LINEAR = get_regularizer("linear")
LOG = get_regularizer("log")
EXP = get_regularizer("exp")


# ==== catalog shape ===========================================================


def test_catalog_names():
    assert [r.name for r in catalog()] == ["hard", "linear", "log", "exp"]


def test_get_regularizer_unknown_name():
    with pytest.raises(BadParam):
        get_regularizer("mystery")


@pytest.mark.parametrize("name", ["mystery", None, 3, EXP])
def test_configs_take_only_catalog_names(name):
    with pytest.raises(BadParam):
        get_regularizer(name)
    with pytest.raises(BadParam):
        TrainConfig(regularizer=name)
    with pytest.raises(BadParam):
        SuiteConfig(regularizers=("hard", name))


@pytest.mark.parametrize("field, value", [
    ("growth", 0.5), ("ridge", -1.0), ("stages", 0), ("growth", math.nan),
    ("ridge", math.inf), ("noise", math.nan), ("outlier_scale", math.inf),
])
def test_suite_config_checks_every_training_field(field, value):
    with pytest.raises(BadParam):
        SuiteConfig(**{field: value})


def test_base_penalty_minima():
    assert HARD.r_base_min == pytest.approx(-1.0)
    assert LINEAR.r_base_min == pytest.approx(0.0)
    assert LOG.r_base_min == pytest.approx(0.0, abs=1e-9)
    assert EXP.r_base_min == pytest.approx(0.0, abs=1e-12)


# ==== closed-form weights =====================================================


def test_hard_weight_is_binary_with_tie_to_zero():
    ls = np.array([0.0, 0.5, 1.0, 2.0])
    assert np.array_equal(HARD.weight(1.0, ls), [1.0, 1.0, 0.0, 0.0])
    # at age 2 the threshold moves with it, tie still resolves to zero
    assert np.array_equal(HARD.weight(2.0, ls), [1.0, 1.0, 1.0, 0.0])
    assert float(HARD.weight(2.0, 2.0)) == 0.0


def test_linear_weight_is_clamped_ramp():
    ls = np.linspace(0.0, 3.0, 31)
    assert np.allclose(LINEAR.weight(1.0, ls), np.clip(1.0 - ls, 0.0, 1.0))
    assert np.allclose(LINEAR.weight(2.0, ls), np.clip(1.0 - ls / 2.0, 0.0, 1.0))


def test_log_weight_is_clamped_inverse():
    ls = np.array([0.0, 0.5, 1.0, 2.0, 8.0])
    want = np.array([1.0, 1.0, 1.0, 0.5, 0.125])
    assert np.allclose(LOG.weight(1.0, ls), want)


@pytest.mark.parametrize("l", [1e-310, 5e-324])
def test_log_views_of_a_subnormal_loss_emit_no_warning(l):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert LOG.weight(1.0, l) == 1.0
        assert LOG.latent(1.0, l) == l


def test_exp_weight_is_exponential_decay():
    ls = np.linspace(0.0, 6.0, 25)
    assert np.allclose(EXP.weight(1.0, ls), np.exp(-ls))
    assert np.allclose(EXP.weight(3.0, ls), np.exp(-ls / 3.0))


# ==== closed-form latents =====================================================


def test_hard_latent_is_clamped_loss():
    ls = np.array([0.0, 0.3, 1.0, 5.0])
    assert np.allclose(HARD.latent(1.0, ls), np.minimum(ls, 1.0))
    assert np.allclose(HARD.latent(2.0, ls), np.minimum(ls, 2.0))


def test_linear_latent_is_truncated_parabola():
    ls = np.array([0.0, 0.5, 1.0, 3.0])
    want = np.where(ls <= 1.0, ls - 0.5 * ls**2, 0.5)
    assert np.allclose(LINEAR.latent(1.0, ls), want)


def test_log_latent_grows_logarithmically():
    assert LOG.latent(1.0, 0.5) == pytest.approx(0.5)
    assert LOG.latent(1.0, 4.0) == pytest.approx(1.0 + math.log(4.0))


def test_exp_latent_saturates():
    ls = np.array([0.0, 1.0, 2.0, 10.0])
    assert np.allclose(EXP.latent(1.0, ls), 1.0 - np.exp(-ls))
    assert np.allclose(EXP.latent(2.0, ls), 2.0 * (1.0 - np.exp(-ls / 2.0)))


# ==== penalties ===============================================================


def test_penalty_values_and_domain():
    v = np.array([0.0, 0.5, 1.0])
    assert np.allclose(HARD.r_sp(v), -v)
    assert np.allclose(LINEAR.r_sp(v), 0.5 * (1.0 - v) ** 2)
    assert np.allclose(EXP.r_sp(v[1:]), v[1:] * np.log(v[1:]) - v[1:] + 1.0)
    assert LOG.r_sp(0.5) == pytest.approx(-math.log(0.5))
    outside = np.asarray(LINEAR.r_sp(np.array([-0.1, 1.1])))
    assert np.all(np.isinf(outside))


def test_penalty_scales_with_age():
    v = np.array([0.25, 0.75])
    assert np.allclose(EXP.r_sp(v, lam=3.0), 3.0 * np.asarray(EXP.r_sp(v)))


# ==== argument validation =====================================================


# every v-step route, each of which checks its losses in a different place
V_STEP_REGIONS = {
    "default": None,
    "none": CurriculumRegion("none"),
    "groups": CurriculumRegion("groups", partition=((0, 1), (2, 3))),
    "halfspace": CurriculumRegion("halfspace", (Halfspace(np.array([1.0, 0.0, 0.0, 0.0]), 0.5),)),
}


def test_negative_loss_rejected():
    with pytest.raises(BadParam):
        EXP.weight(1.0, np.array([-0.5]))
    with pytest.raises(BadParam):
        EXP.latent(1.0, -1.0)
    # both block means are positive, so the groups route must check the losses
    l = np.array([1.0, -0.5, 2.0, 0.5])
    for region in V_STEP_REGIONS.values():
        with pytest.raises(BadParam):
            v_step(l, 1.0, EXP, region)


def test_empty_losses_give_empty_weights():
    for got in (EXP.weight(1.0, np.array([])), EXP.latent(1.0, []), v_step(np.array([]), 1.0, EXP)):
        assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_bad_age_rejected():
    for lam in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(BadParam):
            EXP.weight(lam, 0.5)
        for region in V_STEP_REGIONS.values():
            with pytest.raises(BadParam):
                v_step(np.array([1.0, 0.5, 2.0, 0.5]), lam, EXP, region)


def test_penalty_without_finite_values_rejected():
    from selfpaced.errors import BadDomain

    with pytest.raises(BadDomain):
        SPRegularizer(
            name="void",
            r_sp_base=lambda v: np.full_like(np.asarray(v, dtype=float), np.inf),
            weight_base=lambda l: np.ones_like(np.asarray(l, dtype=float)),
            latent_base=lambda l: np.asarray(l, dtype=float),
        )


# ==== validator ===============================================================


@pytest.mark.parametrize("reg", catalog(), ids=lambda r: r.name)
def test_catalog_regularizers_validate(reg):
    report = validate_sp_regularizer(reg)
    assert report.verdict, [
        f"{c.name}: residual {c.residual:.3g} at {c.location}" for c in report.failures()
    ]


def test_validator_check_names_cover_the_contract():
    report = validate_sp_regularizer(EXP)
    names = {c.name for c in report.checks}
    assert {
        "convexity",
        "domain",
        "weight_monotone_loss",
        "weight_monotone_age",
        "weight_limits",
        "derivative_identity",
        "conjugacy",
        "scaling",
    } <= names


def test_validator_flags_inconsistent_weight():
    # squaring the weight breaks d latent / d l = weight but nothing else
    broken = SPRegularizer(
        name="broken-weight",
        r_sp_base=EXP.r_sp_base,
        weight_base=lambda l: np.exp(-np.asarray(l, dtype=float)) ** 2,
        latent_base=EXP.latent_base,
    )
    report = validate_sp_regularizer(broken)
    assert not report.verdict
    assert "derivative_identity" in {c.name for c in report.failures()}


def test_validator_flags_nonconvex_penalty():
    bumpy = SPRegularizer(
        name="bumpy",
        r_sp_base=lambda v: np.cos(3.0 * np.asarray(v, dtype=float)),
        weight_base=EXP.weight_base,
        latent_base=EXP.latent_base,
    )
    report = validate_sp_regularizer(bumpy)
    assert not report.verdict
    assert "convexity" in {c.name for c in report.failures()}


def test_validator_accepts_increasing_linear_penalty():
    # r(v) = v is convex with an interior minimum at v = 0; all checks
    # are about consistency, so the triple derived from it must pass
    rising = SPRegularizer(
        name="rising",
        r_sp_base=lambda v: np.where(
            (np.asarray(v, dtype=float) < 0) | (np.asarray(v, dtype=float) > 1),
            np.inf,
            np.asarray(v, dtype=float),
        ),
        weight_base=lambda l: np.zeros_like(np.asarray(l, dtype=float)),
        latent_base=lambda l: np.zeros_like(np.asarray(l, dtype=float)),
    )
    report = validate_sp_regularizer(rising)
    assert report.verdict, [
        f"{c.name}: residual {c.residual:.3g} at {c.location}" for c in report.failures()
    ]


def _nan_beyond(base, l_cut):
    return lambda l: np.where(np.asarray(l, dtype=float) > l_cut, np.nan, base(l))


@pytest.mark.parametrize(
    "weight_base, latent_base, failing",
    [
        (
            _nan_beyond(EXP.weight_base, -1.0),
            _nan_beyond(EXP.latent_base, -1.0),
            {
                "weight_monotone_loss",
                "weight_monotone_age",
                "weight_limits",
                "derivative_identity",
                "conjugacy",
                "scaling",
            },
        ),
        (
            _nan_beyond(EXP.weight_base, 3.0),
            EXP.latent_base,
            {
                "weight_monotone_loss",
                "weight_monotone_age",
                "weight_limits",
                "derivative_identity",
                "scaling",
            },
        ),
    ],
    ids=["nan-everywhere", "weight-nan-beyond-3"],
)
def test_validator_rejects_nan_views(weight_base, latent_base, failing):
    reg = SPRegularizer("nan", EXP.r_sp_base, weight_base, latent_base)
    report = validate_sp_regularizer(reg)
    assert not report.verdict
    failed = {c.name: c.residual for c in report.failures()}
    assert set(failed) == failing
    assert all(r == math.inf for r in failed.values())


def test_validator_makes_few_weight_calls(monkeypatch):
    calls = []
    weight = SPRegularizer.weight

    def counted(self, lam, l):
        calls.append(np.size(l))
        return weight(self, lam, l)

    monkeypatch.setattr(SPRegularizer, "weight", counted)
    assert validate_sp_regularizer(EXP).verdict
    assert len(calls) <= 40


# ==== tabulation ==============================================================


def test_tabulate_returns_consistent_tables():
    tables = tabulate(EXP, lam=2.0, n=129)
    assert set(tables) >= {"penalty", "weight", "latent"}
    w_grid, w_vals = tables["weight"]
    f_grid, f_vals = tables["latent"]
    assert np.allclose(w_vals, np.exp(-w_grid / 2.0), atol=1e-12)
    assert np.allclose(f_vals, 2.0 * (1.0 - np.exp(-f_grid / 2.0)), atol=1e-12)
    v_grid, r_vals = tables["penalty"]
    assert r_vals[-1] == pytest.approx(0.0, abs=1e-12)  # lam * r(1) = 0


# ==== property-based invariants ===============================================

ages = st.floats(0.1, 10.0)
losses = st.floats(0.0, 20.0)
scales = st.floats(0.1, 10.0)


@settings(max_examples=40, deadline=None)
@given(reg=st.sampled_from(catalog()), lam=ages, l=losses, a=scales)
def test_age_scaling_laws(reg, lam, l, a):
    w1 = float(reg.weight(lam, l))
    w2 = float(reg.weight(a * lam, a * l))
    assert w2 == pytest.approx(w1, abs=1e-10)
    f1 = float(reg.latent(lam, l))
    f2 = float(reg.latent(a * lam, a * l))
    assert f2 == pytest.approx(a * f1, abs=1e-10 * (1.0 + abs(a * f1)))


@settings(max_examples=40, deadline=None)
@given(reg=st.sampled_from(catalog()), lam=ages)
def test_weight_nonincreasing_in_loss(reg, lam):
    ls = np.linspace(0.0, 20.0 * lam, 201)
    w = np.asarray(reg.weight(lam, ls))
    assert np.all(np.diff(w) <= 1e-12)
    assert np.all((0.0 <= w) & (w <= 1.0))


@settings(max_examples=40, deadline=None)
@given(reg=st.sampled_from(catalog()), l=st.floats(0.01, 20.0))
def test_weight_nondecreasing_in_age(reg, l):
    lams = np.linspace(0.1, 50.0, 120)
    w = np.array([float(reg.weight(lam, l)) for lam in lams])
    assert np.all(np.diff(w) >= -1e-12)


@settings(max_examples=40, deadline=None)
@given(reg=st.sampled_from(catalog()), lam=ages)
def test_latent_nondecreasing_and_bounded_by_loss(reg, lam):
    ls = np.linspace(0.0, 20.0 * lam, 201)
    f = np.asarray(reg.latent(lam, ls))
    assert np.all(np.diff(f) >= -1e-12)
    assert np.all(f <= ls + 1e-12)
    assert f[0] == pytest.approx(0.0, abs=1e-12)
