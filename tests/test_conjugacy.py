"""Grid conjugacy machinery: transforms, duality, and halfspaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfpaced.conjugacy import (
    NEG_INFINITY,
    Halfspace,
    SampledFunction,
    biconjugate,
    concave_conjugate,
    graded_unit_grid,
    loss_grid,
    sup_convolution,
)
from selfpaced.errors import BadGrid, EmptyOverlap, NonProper
from selfpaced import conjugacy
from selfpaced.cli import _write_table_csv
from selfpaced.oracles import conjugate_scan, random_concave
from selfpaced.regularizers import design_from_regularizer, get_regularizer


def pl(grid, values):
    return SampledFunction(np.asarray(grid, dtype=float), np.asarray(values, dtype=float))


def conjugate_at(g, l):
    """g*(l), read off a two-point out grid, the shortest concave_conjugate takes."""
    return concave_conjugate(g, np.array([l, l + 1.0])).values[0]


def random_walk(seed, n=257):
    """Non-concave input: a Gaussian random walk on a random sub-interval of [0, 1]."""
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=n))
    i0 = int(rng.integers(0, n // 3))
    i1 = int(rng.integers(2 * n // 3, n))
    values[:i0] = NEG_INFINITY
    values[i1 + 1 :] = NEG_INFINITY
    return pl(np.linspace(0.0, 1.0, n), values)


def bump_on_concave(seed, height=0.3):
    """Non-concave input: a narrow bump added to a random concave function."""
    g = random_concave(seed)
    return pl(g.grid, g.values + height * np.exp(-(((g.grid - 0.5) / 0.02) ** 2)))


def sawtooth(n=4097, period=512):
    """Non-concave input: concave teeth that drop back to 0 every `period` samples."""
    return pl(np.linspace(0.0, 1.0, n), np.sqrt(np.arange(n) % period))


def chain_hull(x, y):
    """Upper concave hull by monotone chain, keeping vertex indices."""
    idx = []
    for i in range(x.size):
        while len(idx) >= 2:
            a, b = idx[-2], idx[-1]
            if (y[b] - y[a]) * (x[i] - x[a]) - (y[i] - y[a]) * (x[b] - x[a]) > 0:
                break
            idx.pop()
        idx.append(i)
    return x[idx], y[idx]


def brute_sup_convolution(f, g, out):
    """max over splits at a vertex of either input of f(x1) + g(x - x1)."""
    best = np.full(out.size, NEG_INFINITY)
    for a, b in ((f, g), (g, f)):
        finite = np.isfinite(a.values)
        for ax, av in zip(a.grid[finite], a.values[finite]):
            best = np.maximum(best, av + b.interp(out - ax))
    return best


def assert_matches_brute_force(f, g, h):
    """h = f (+) g to 1e-12 of the brute force, on h's grid, with the same domain."""
    want = brute_sup_convolution(f, g, h.grid)
    assert np.array_equal(np.isfinite(h.values), np.isfinite(want))
    both = np.isfinite(want)
    assert np.max(np.abs(h.values[both] - want[both])) <= 1e-12


# ==== grids and sampled functions =============================================


def test_loss_grid_scales_with_age():
    g = loss_grid(lam=2.0, n=3, span=8.0)
    assert np.allclose(g, [0.0, 8.0, 16.0])


def test_graded_unit_grid_refines_near_zero():
    g = graded_unit_grid(513)
    assert g[0] == 0.0
    assert g[-1] == 1.0
    assert np.all(np.diff(g) > 0)
    # sub-uniform resolution near the origin
    assert g[1] < 1e-6


def test_sampled_function_rejects_unsorted_grid():
    with pytest.raises(BadGrid):
        pl([0.0, 0.5, 0.4], [0.0, 0.0, 0.0])


def test_sampled_function_rejects_all_infinite():
    with pytest.raises(NonProper):
        pl([0.0, 1.0], [NEG_INFINITY, NEG_INFINITY])


def test_sampled_function_rejects_plus_infinity():
    with pytest.raises((NonProper, BadGrid, ValueError)):
        pl([0.0, 1.0], [0.0, np.inf])


def test_domain_indices_and_interp():
    g = pl([0.0, 1.0, 2.0, 3.0], [NEG_INFINITY, 1.0, 3.0, NEG_INFINITY])
    assert g.domain_indices == (1, 2)
    assert g.lo == 1.0 and g.hi == 2.0
    assert g.interp(1.5) == pytest.approx(2.0)
    assert g.interp(0.5) == NEG_INFINITY


def test_csv_round_trip_preserves_infinities(tmp_path):
    g = pl([0.0, 0.5, 1.0], [NEG_INFINITY, 2.0, -3.5])
    path = tmp_path / "g.csv"
    _write_table_csv(path, g.grid, g.values)
    text = path.read_text()
    assert text.splitlines()[0] == "x,value"
    assert "-inf" in text
    back = SampledFunction.from_csv(path)
    assert np.array_equal(back.grid, g.grid)
    assert np.array_equal(back.values, g.values)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("l,w\n0.0,1.0\n")
    with pytest.raises(ValueError):
        SampledFunction.from_csv(path)


def test_csv_reports_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.0,1.0\n0.5,oops\n")
    with pytest.raises(ValueError, match=r"3"):
        SampledFunction.from_csv(path)


# ==== concave conjugate =======================================================


def test_conjugate_of_identity_is_min_zero_l_minus_one():
    grid = np.linspace(0.0, 1.0, 513)
    g = pl(grid, grid)
    out = np.linspace(-2.0, 3.0, 401)
    star = concave_conjugate(g, out)
    assert np.allclose(star.values, np.minimum(0.0, out - 1.0), atol=1e-12)
    assert conjugate_at(g, 0.5) == pytest.approx(-0.5, abs=1e-12)


def test_conjugate_of_point_mass_is_constant_zero():
    g = pl([-1.0, 0.0, 1.0], [NEG_INFINITY, 0.0, NEG_INFINITY])
    out = np.linspace(-5.0, 5.0, 101)
    star = concave_conjugate(g, out)
    assert np.allclose(star.values, 0.0, atol=0.0)


def test_conjugate_of_log_matches_analytic_value():
    grid = graded_unit_grid(2049)
    values = np.where(grid > 0, np.log(np.maximum(grid, 1e-300)), NEG_INFINITY)
    g = pl(grid, values)
    assert conjugate_at(g, 2.0) == pytest.approx(1.0 + math.log(2.0), abs=1e-4)


def test_conjugate_rejects_bad_out_grid():
    g = pl(np.linspace(0.0, 1.0, 17), np.zeros(17))
    with pytest.raises(BadGrid):
        concave_conjugate(g, np.array([1.0, 0.5, 0.0]))


def test_fast_method_matches_scan_on_concave_input():
    for seed in range(8):
        g = random_concave(seed)
        out = np.linspace(-6.0, 6.0, 257)
        a = conjugate_scan(g, out)
        b = concave_conjugate(g, out)
        assert np.allclose(a.values, b.values, atol=1e-12)


def test_conjugate_matches_scan_on_nonconcave_inputs():
    out = np.linspace(-60.0, 60.0, 513)
    for g in (sawtooth(), bump_on_concave(3), random_walk(5, n=4097)):
        a = conjugate_scan(g, out).values
        b = concave_conjugate(g, out).values
        assert np.max(np.abs(a - b)) <= 1e-12


# ==== biconjugate =============================================================


def test_biconjugate_fixes_concave_quadratic():
    grid = np.linspace(0.0, 1.0, 513)
    g = pl(grid, -0.5 * (1.0 - grid) ** 2)
    gg = biconjugate(g)
    err = np.max(np.abs(gg.interp(grid) - g.values))
    assert err <= 1e-6


def test_biconjugate_fills_nonconcave_dip():
    g = pl([0.0, 0.5, 1.0], [0.0, -1.0, 0.0])
    gg = biconjugate(g)
    assert gg.interp(0.5) == pytest.approx(0.0, abs=1e-9)


def test_biconjugate_fixes_negated_entropy():
    grid = graded_unit_grid(2049)
    vals = -(grid * np.log(np.maximum(grid, 1e-300)) - grid + 1.0)
    vals[0] = -1.0  # v log v -> 0 at v = 0
    g = pl(grid, vals)
    gg = biconjugate(g)
    interior = grid[(grid > 1e-3) & (grid < 1.0)]
    err = np.max(np.abs(gg.interp(interior) - g.interp(interior)))
    assert err <= 1e-6


@pytest.mark.parametrize(
    "g",
    [sawtooth(), bump_on_concave(1), random_walk(2), random_walk(3, n=4097)],
    ids=["sawtooth", "bump", "walk", "long-walk"],
)
def test_biconjugate_equals_monotone_chain_hull(g):
    finite = np.isfinite(g.values)
    x, y = g.grid[finite], g.values[finite]
    want = np.interp(x, *chain_hull(x, y))
    gg = biconjugate(g)
    assert np.array_equal(np.isfinite(gg.values), finite)
    assert np.max(np.abs(gg.values[finite] - want)) <= 1e-12


def test_biconjugate_keeps_outside_domain_infinite():
    grid = np.linspace(0.0, 1.0, 11)
    vals = np.full(11, NEG_INFINITY)
    vals[3:8] = 1.0 - (grid[3:8] - 0.5) ** 2
    g = pl(grid, vals)
    gg = biconjugate(g)
    assert gg.interp(0.0) == NEG_INFINITY
    assert gg.interp(1.0) == NEG_INFINITY


# ==== sup-convolution =========================================================


def test_sup_convolution_with_point_mass_is_identity():
    g = random_concave(4, domain=(0, 256))
    delta = pl([-1.0, 0.0, 1.0], [NEG_INFINITY, 0.0, NEG_INFINITY])
    h = sup_convolution(g, delta, out_grid=g.grid)
    assert np.allclose(h.values, g.values, atol=1e-12)


def test_sup_convolution_of_negative_squares():
    grid = np.linspace(-2.0, 2.0, 401)
    f = pl(grid, -(grid**2))
    h = sup_convolution(f, f, out_grid=np.linspace(-2.0, 2.0, 161))
    # sup over a+b=x of -(a^2+b^2) is -x^2/2, attained at the even split
    assert h.interp(0.0) == pytest.approx(0.0, abs=1e-12)
    assert h.interp(2.0) == pytest.approx(-2.0, abs=1e-9)


def test_sup_convolution_of_clamped_ramps():
    grid = np.linspace(0.0, 4.0, 401)
    f = pl(grid, np.minimum(grid, 1.0))
    g = pl(grid, np.minimum(grid, 2.0))
    h = sup_convolution(f, g, out_grid=np.linspace(0.0, 4.0, 161))
    assert h.interp(3.0) == pytest.approx(3.0, abs=1e-9)
    assert h.interp(4.0) == pytest.approx(3.0, abs=1e-9)


def test_sup_convolution_raises_on_empty_overlap():
    f = pl([-1.0, 0.0, 1.0], [NEG_INFINITY, 0.0, NEG_INFINITY])
    with pytest.raises(EmptyOverlap):
        sup_convolution(f, f, out_grid=np.array([5.0, 6.0]))


@pytest.mark.parametrize("seed", range(6))
def test_sup_convolution_of_concave_pair_matches_brute_force(seed):
    f = random_concave(seed)
    g = random_concave(seed + 100, grid=np.linspace(-1.0, 2.0, 129))
    assert_matches_brute_force(f, g, sup_convolution(f, g, out_grid=np.linspace(-1.5, 3.5, 301)))


@pytest.mark.parametrize("seed", range(3))
def test_sup_convolution_of_nonconcave_pair_matches_brute_force(seed):
    f = random_walk(seed, n=129)
    g = bump_on_concave(seed)
    assert_matches_brute_force(f, g, sup_convolution(f, g, out_grid=np.linspace(-0.5, 2.5, 301)))


@pytest.fixture
def scans(monkeypatch):
    """Record every call to the O(N * K) sup-convolution scan."""
    calls = []
    scan = conjugacy._sup_convolution_scan
    monkeypatch.setattr(
        conjugacy, "_sup_convolution_scan", lambda *a: calls.append(1) or scan(*a)
    )
    return calls


def test_sup_convolution_scans_only_nonconcave_inputs(scans):
    g = random_concave(8)
    # a saturating function, dented by 1e-10 on its flat part: non-concave by
    # more than the 1e-12 hull tolerance, but split into concave runs
    grid = np.linspace(0.0, 1.0, 257)
    dented = pl(grid, np.minimum(grid, 0.5) - 1e-10 * (grid == grid[200]))
    for f, h in ((dented, g), (g, dented)):
        assert_matches_brute_force(f, h, sup_convolution(f, h))
    assert scans == []
    sup_convolution(random_walk(0), bump_on_concave(0))
    assert scans == [1]
    # a concave pair takes the single merge of the two hulls
    f, g = random_concave(7), random_concave(8, grid=np.linspace(-1.0, 2.0, 129))
    out = np.linspace(-1.5, 3.5, 301)
    sx, sy = conjugacy._hypograph_sum(
        *conjugacy._upper_hull(*conjugacy._finite_part(f)),
        *conjugacy._upper_hull(*conjugacy._finite_part(g)),
    )
    want = np.where((out < sx[0]) | (out > sx[-1]), NEG_INFINITY, np.interp(out, sx, sy))
    assert np.array_equal(sup_convolution(f, g, out_grid=out).values, want)


def test_designed_latent_off_its_hull_convolves_exactly_with_exp(scans):
    # the designed penalty c|1-v|^q/q + (1-c)(v log v - v + 1) at c = 0.8 has
    # a latent that is non-concave by about 1.6e-11 on its flat tail
    def penalty(v):
        v = np.asarray(v, dtype=float)
        entropy = v * np.log(np.where(v > 0, v, 1.0)) - v + 1.0
        return 0.8 * np.abs(1.0 - v) ** 2.5 / 2.5 + 0.2 * np.where(v > 0, entropy, 1.0)

    lgrid = np.linspace(0.0, 8.0, 1025)
    latent = pl(lgrid, design_from_regularizer(penalty).latent(1.0, lgrid))
    exp = pl(lgrid, get_regularizer("exp").latent(1.0, lgrid))
    hull = conjugacy._upper_hull(lgrid, latent.values)
    assert not conjugacy._on_hull(lgrid, latent.values, *hull)
    assert_matches_brute_force(latent, exp, sup_convolution(latent, exp))
    assert scans == []


def test_sup_convolution_default_out_grid_covers_minkowski_sum():
    f = pl([0.0, 1.0], [0.0, 1.0])
    g = pl([2.0, 3.0], [0.0, -1.0])
    h = sup_convolution(f, g)
    assert h.grid[0] <= 2.0 and h.grid[-1] >= 4.0


# ==== halfspaces ==============================================================


def test_halfspace_rejects_zero_normal():
    with pytest.raises(ValueError):
        Halfspace(np.array([0.0, 0.0]))


@pytest.mark.parametrize(
    "k, b",
    [([1.0, np.nan], 0.0), ([np.inf, 0.0], 0.0), ([1.0, -1.0], np.nan), ([1.0, 0.0], -np.inf)],
)
def test_halfspace_rejects_nonfinite_normal_or_offset(k, b):
    with pytest.raises(ValueError, match="finite"):
        Halfspace(np.array(k), b)


# ==== property-based invariants ===============================================

seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_biconjugate_is_identity_on_concave_interior(seed):
    g = random_concave(seed)
    gg = biconjugate(g)
    i0, i1 = g.domain_indices
    if i1 - i0 < 2:
        return
    xs = g.grid[i0 + 1 : i1]
    err = np.max(np.abs(gg.interp(xs) - g.values[i0 + 1 : i1]))
    assert err <= 10.0 * np.diff(g.grid).max()


@settings(max_examples=25, deadline=None)
@given(seed=seeds, a=st.floats(-3.0, 3.0))
def test_adding_linear_term_shifts_conjugate_argument(seed, a):
    g = random_concave(seed)
    h = pl(g.grid, np.where(np.isfinite(g.values), g.values + a * g.grid, NEG_INFINITY))
    out = np.linspace(-6.0, 6.0, 201)
    lhs = concave_conjugate(h, out).values
    rhs = concave_conjugate(g, out - a).values
    scale = 1.0 + np.max(np.abs(rhs[np.isfinite(rhs)]), initial=0.0)
    both = np.isfinite(lhs) & np.isfinite(rhs)
    assert np.array_equal(np.isfinite(lhs), np.isfinite(rhs))
    assert np.max(np.abs(lhs[both] - rhs[both]), initial=0.0) <= 1e-9 * scale


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_conjugate_is_nondecreasing_for_nonnegative_domain(seed):
    g = random_concave(seed)  # domain inside [0, 1]
    out = np.linspace(-6.0, 6.0, 257)
    star = concave_conjugate(g, out).values
    assert np.all(np.diff(star) >= -1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, c=st.floats(0.0, 5.0))
def test_larger_function_has_smaller_conjugate(seed, c):
    g = random_concave(seed)
    h = pl(g.grid, np.where(np.isfinite(g.values), g.values + c, NEG_INFINITY))
    out = np.linspace(-6.0, 6.0, 201)
    gs = concave_conjugate(g, out).values
    hs = concave_conjugate(h, out).values
    assert np.all(gs >= hs - 1e-12)
    assert np.allclose(gs - hs, c, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_conjugate_is_concave(seed):
    g = random_concave(seed)
    out = np.linspace(-6.0, 6.0, 257)
    star = concave_conjugate(g, out).values
    mid = 2.0 * star[1:-1] - star[:-2] - star[2:]
    assert np.all(mid >= -1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_fast_conjugate_agrees_with_scan(seed):
    out = np.linspace(-6.0, 6.0, 257)
    for g in (random_concave(seed), random_walk(seed), bump_on_concave(seed)):
        a = conjugate_scan(g, out).values
        b = concave_conjugate(g, out).values
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=seeds, dents=st.integers(1, 6), dented_first=st.booleans())
def test_sup_convolution_of_a_dented_concave_function_is_exact(seed, dents, dented_first):
    # a concave polyline with long straight stretches, dented by +-1e-11 at
    # random vertices: the dents on a straight stretch leave it non-concave
    # by more than the 1e-12 hull tolerance
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 129)
    slopes = np.sort(rng.choice(rng.uniform(-1.0, 1.0, 4), grid.size - 1))[::-1]
    values = np.concatenate(([0.0], np.cumsum(slopes * np.diff(grid))))
    at = rng.integers(0, grid.size, dents)
    values[at] += 1e-11 * rng.choice([-1.0, 1.0], dents)
    dented, g = pl(grid, values), random_concave(seed, grid=np.linspace(-1.0, 1.0, 65))
    f, h = (dented, g) if dented_first else (g, dented)
    assert_matches_brute_force(f, h, sup_convolution(f, h))
