"""The batched v-step routes against the per-block and scalar algorithms.

Each reference below is the straightforward algorithm the vectorized route
replaces: a Python loop over blocks, pool adjacent violators chain by chain
with one weight lookup per pooled block, and scalar bisection on the weight
balance.
"""

import numpy as np
import pytest

from selfpaced import curriculum
from selfpaced.conjugacy import Halfspace
from selfpaced.curriculum import (
    CurriculumRegion,
    affine_action,
    group_latent,
    region_latent,
    weight_extended,
)
from selfpaced.errors import (
    BadParam,
    BadPartition,
    InfeasibleCurriculum,
    NoRoot,
    UnsupportedRegularizer,
    WeightTail,
)
from selfpaced.experiments import make_regression
from selfpaced.oracles import GridSpec, grid_constrained_inf, latent_extended
from selfpaced.regularizers import (
    SPRegularizer,
    catalog,
    design_from_regularizer,
    design_from_weight,
    get_regularizer,
)
from selfpaced.training import TrainConfig, spl_fit, v_step

EXP = get_regularizer("exp")
HARD = get_regularizer("hard")
STRICT = [r for r in catalog() if r.name != "hard"]
NEG_LINEAR = design_from_regularizer(HARD.r_sp_base)  # hard's designed twin
BINARY = [HARD, NEG_LINEAR]


# ==== references ==============================================================


def groups_reference(reg, lam, l, partition):
    v = np.empty(l.size)
    for block in partition:
        idx = list(block)
        v[idx] = reg.weight(lam, float(np.mean(l[idx])))
    return np.clip(v, 0.0, 1.0)


def group_latent_reference(reg, lam, l, partition):
    total = 0.0
    for block in partition:
        idx = list(block)
        total += len(idx) * float(reg.latent(lam, float(np.mean(l[idx]))))
    return total


def pav_chain_reference(reg, lam, losses):
    blocks = []  # [sum, count]
    for x in losses:
        blocks.append([float(x), 1])
        while len(blocks) >= 2 and blocks[-1][0] / blocks[-1][1] < blocks[-2][0] / blocks[-2][1]:
            s, c = blocks.pop()
            blocks[-1][0] += s
            blocks[-1][1] += c
    out = []
    for s, c in blocks:
        out += [reg.weight(lam, s / c)] * c
    return np.array(out)


def chains_reference(reg, lam, l, chains):
    v = np.asarray(reg.weight(lam, l), dtype=float)
    for chain in chains:
        v[chain] = pav_chain_reference(reg, lam, l[chain])
    return np.clip(v, 0.0, 1.0)


def scalar_balance(reg, lam, l, k):
    return lambda beta: float(weight_extended(reg, lam, l - beta * k) @ k)


def scalar_bisection(balance, b, lo, hi, tol):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if balance(mid) >= b:
            hi = mid
        else:
            lo = mid
    return hi


def halfspace_reference(reg, lam, l, h, tol=1e-10):
    """Single-halfspace v-step by doubling and scalar bisection on beta."""
    balance = scalar_balance(reg, lam, l, h.k)
    hi = max(1.0, float(np.linalg.norm(l)) / float(np.linalg.norm(h.k)))
    while balance(hi) < h.b:
        hi *= 2.0
    beta = scalar_bisection(balance, h.b, 0.0, hi, tol)
    return np.clip(weight_extended(reg, lam, l - beta * h.k), 0.0, 1.0)


def intersection_reference(reg, lam, l, hs, sweeps=200):
    """Dual coordinate ascent with scalar bisection per constraint."""
    K = np.stack([h.k for h in hs])
    b = np.array([h.b for h in hs])
    mu = np.zeros(len(hs))
    for _ in range(sweeps):
        for j, h in enumerate(hs):
            other = mu.copy()
            other[j] = 0.0
            l_eff = l - K.T @ other
            balance = scalar_balance(reg, lam, l_eff, h.k)
            if balance(0.0) >= h.b:
                mu[j] = 0.0
                continue
            hi = max(1.0, float(np.linalg.norm(l_eff)) / float(np.linalg.norm(h.k)))
            while balance(hi) < h.b:
                hi *= 2.0
            lo = 0.0
            while hi - lo > 1e-12 * max(1.0, hi):
                mid = 0.5 * (lo + hi)
                if balance(mid) >= h.b:
                    hi = mid
                else:
                    lo = mid
            mu[j] = hi
        v = weight_extended(reg, lam, l - K.T @ mu)
        slack = K @ v - b
        if slack.min() >= -1e-9 and np.max(mu * np.abs(slack)) <= 1e-8:
            return np.clip(v, 0.0, 1.0)
    raise AssertionError("reference dual ascent did not converge")


def counting(reg):
    """A copy of reg whose weight_base counts its calls."""
    calls = []

    def weight_base(x):
        calls.append(np.size(x))
        return reg.weight_base(x)

    copy = SPRegularizer(
        reg.name, reg.r_sp_base, weight_base, reg.latent_base, r_base_min=reg.r_base_min
    )
    return copy, calls


def order_region(n, pairs):
    """The intersection of the orderings v_i >= v_j, one per pair (i, j)."""
    hs = []
    for hi, lo in pairs:
        k = np.zeros(n)
        k[hi], k[lo] = 1.0, -1.0
        hs.append(Halfspace(k, 0.0))
    return CurriculumRegion("intersection", tuple(hs))


def chain_region(n, chains):
    return order_region(n, [pair for chain in chains for pair in zip(chain[:-1], chain[1:])])


def shuffled_blocks(rng, n, sizes):
    perm = rng.permutation(n)
    cuts = np.cumsum((0,) + tuple(sizes))
    assert cuts[-1] == n
    return tuple(tuple(int(i) for i in perm[a:b]) for a, b in zip(cuts[:-1], cuts[1:]))


# ==== groups ==================================================================


@pytest.mark.parametrize("reg", catalog(), ids=lambda r: r.name)
def test_groups_v_step_matches_per_block_loop(reg):
    rng = np.random.default_rng(11)
    n = 57
    partition = shuffled_blocks(rng, n, (1, 9, 3, 20, 2, 22))
    region = CurriculumRegion("groups", partition=partition)
    for lam in (0.3, 1.0, 4.0):
        l = rng.exponential(1.5, size=n)
        got = v_step(l, lam, reg, region)
        assert np.allclose(got, groups_reference(reg, lam, l, partition), rtol=0, atol=1e-12)
        for block in partition:
            assert np.ptp(got[list(block)]) == 0.0


@pytest.mark.parametrize("reg", catalog(), ids=lambda r: r.name)
def test_group_latent_matches_per_block_loop(reg):
    rng = np.random.default_rng(12)
    n = 40
    partition = shuffled_blocks(rng, n, (7, 1, 12, 20))
    l = rng.exponential(1.0, size=n)
    got = group_latent(reg, 0.8, l, partition)
    assert got.value == pytest.approx(group_latent_reference(reg, 0.8, l, partition), abs=1e-12)
    assert np.allclose(got.weights, groups_reference(reg, 0.8, l, partition), rtol=0, atol=1e-12)


def test_groups_v_step_makes_one_weight_lookup():
    reg, calls = counting(EXP)
    region = CurriculumRegion("groups", partition=((0, 3), (1,), (2, 4, 5)))
    v_step(np.array([1.0, 2.0, 0.5, 3.0, 0.1, 0.2]), 1.0, reg, region)
    assert calls == [3]  # the three block means, in one call


def test_groups_partition_of_the_wrong_size_raises():
    region = CurriculumRegion("groups", partition=((0, 2), (1,)))
    with pytest.raises(BadPartition):
        v_step(np.ones(4), 1.0, EXP, region)
    with pytest.raises(BadPartition):
        v_step(np.ones(2), 1.0, EXP, region)
    gappy = CurriculumRegion("groups", partition=((0, 3), (1,)))
    with pytest.raises(BadPartition):
        v_step(np.ones(3), 1.0, EXP, gappy)
    with pytest.raises(BadPartition):
        group_latent(EXP, 1.0, np.ones(3), ((0, 1), (1, 2)))


def test_region_decodes_its_partition_once(monkeypatch):
    region = CurriculumRegion("groups", partition=((0, 1), (2,)))
    v_step(np.array([1.0, 2.0, 3.0]), 1.0, EXP, region)

    def fail(*args):
        raise AssertionError("partition decoded again")

    monkeypatch.setattr(curriculum, "check_partition", fail)
    v_step(np.array([3.0, 2.0, 1.0]), 1.0, EXP, region)


# ==== chains ==================================================================


@pytest.mark.parametrize("reg", catalog(), ids=lambda r: r.name)
def test_chain_v_step_matches_per_chain_pav(reg):
    rng = np.random.default_rng(21)
    n = 45
    perm = [int(i) for i in rng.permutation(n)]
    chains = [perm[0:6], perm[6:8], perm[10:25], perm[30:33]]
    region = chain_region(n, chains)
    for lam in (0.5, 1.0, 3.0):
        l = rng.exponential(1.0, size=n)
        got = v_step(l, lam, reg, region)
        assert np.allclose(got, chains_reference(reg, lam, l, chains), rtol=0, atol=1e-12)


def test_chain_v_step_pools_reversed_chain_with_hard():
    region = chain_region(4, [[0, 1, 2, 3]])
    l = np.array([2.0, 1.5, 0.2, 0.1])  # reversed: every pair violates the order
    # all four pool to the mean loss 0.95, so they are admitted together or not at all
    for lam, expected in ((1.0, 1.0), (0.9, 0.0)):
        got = v_step(l, lam, HARD, region)
        assert np.array_equal(got, chains_reference(HARD, lam, l, [[0, 1, 2, 3]]))
        assert np.array_equal(got, [expected] * 4)


def test_chain_v_step_makes_two_weight_lookups():
    reg, calls = counting(EXP)
    region = chain_region(6, [[0, 1, 2], [3, 4]])
    v_step(np.array([3.0, 2.0, 1.0, 5.0, 4.0, 0.5]), 1.0, reg, region)
    assert calls == [6, 2]  # unconstrained weights, then the two pooled blocks


# ==== order forests ===========================================================


def recursive_tree(rng, n):
    """A random recursive tree on shuffled labels, as (parent, child) pairs.

    Node j's parent is uniform among nodes 0..j-1.
    """
    label = rng.permutation(n)
    return [(int(label[rng.integers(j)]), int(label[j])) for j in range(1, n)]


def min_slack(v, region):
    return float(np.min(region.normal_dots(v)))


def test_order_forest_lists_parents_first():
    order, parent = order_region(6, [(4, 1), (4, 0), (1, 5), (1, 2)]).forest
    assert order.tolist() == [4, 1, 0, 5, 2]
    assert parent == [-1, 0, 0, 1, 1]
    assert order_region(3, [(0, 1), (0, 1)]).forest[1] == [-1, 0]  # a repeated ordering
    assert order_region(3, [(0, 2), (1, 2)]).forest is None  # two parents
    assert order_region(3, [(0, 1), (1, 2), (2, 0)]).forest is None  # a cycle
    offset = CurriculumRegion("halfspace", (Halfspace(np.array([1.0, -1.0]), 0.1),))
    assert offset.forest is None


def test_order_forest_reads_orderings_of_any_scale_and_side():
    k = np.zeros(4)
    k[[0, 3]] = (-2.5, 2.5)  # v_3 >= v_0, its positive entry second
    below = order_region(4, [(0, 1)]).halfspaces  # v_0 >= v_1
    region = CurriculumRegion("intersection", (Halfspace(k, 0.0), *below))
    order, parent = region.forest
    assert order.tolist() == [3, 0, 1]
    assert parent == [-1, 0, 1]
    uneven = k.copy()
    uneven[0] = -2.5 * (1.0 + 1e-9)  # not of equal size: a general halfspace
    assert CurriculumRegion("halfspace", (Halfspace(uneven, 0.0),)).forest is None
    three = np.array([1.0, -1.0, 1.0, 0.0])
    assert CurriculumRegion("halfspace", (Halfspace(three, 0.0),)).forest is None


@pytest.mark.parametrize("reg", catalog(), ids=lambda r: r.name)
def test_forest_v_step_is_the_grid_minimum_at_n_3(reg):
    rng = np.random.default_rng(61)
    for pairs in ([(0, 1), (0, 2)], [(1, 0), (1, 2)]):  # one sample above two others
        region = order_region(3, pairs)
        for lam in (0.5, 1.0, 2.0):
            l = rng.uniform(0.0, 3.0, size=3)
            got = v_step(l, lam, reg, region)

            def objective(v):
                return float(v @ l + lam * np.sum(reg.r_sp_base(v)))

            value, _, bound = grid_constrained_inf(
                objective, GridSpec.unit_box(3, count=21),
                feasible=lambda v: all(v[i] >= v[j] for i, j in pairs),
            )
            assert min_slack(got, region) >= 0.0
            assert value - bound - 1e-9 <= objective(got) <= value + 1e-9


@pytest.mark.parametrize("reg", STRICT, ids=lambda r: r.name)
def test_forest_v_step_matches_the_dual_on_random_trees(reg):
    rng = np.random.default_rng(62)
    for n in (4, 8, 15):
        pairs = recursive_tree(rng, n)
        region = order_region(n, pairs)
        l = rng.uniform(0.0, 3.0, size=n)
        got = v_step(l, 1.0, reg, region)
        assert min_slack(got, region) >= 0.0
        assert np.allclose(got, intersection_reference(reg, 1.0, l, region.halfspaces),
                           rtol=0, atol=1e-8)


def test_forest_v_step_on_a_400_node_tree_meets_every_ordering():
    # dual coordinate ascent over these 399 orderings stops short of its KKT tolerance
    rng = np.random.default_rng(1)
    region = order_region(400, recursive_tree(rng, 400))
    l = rng.uniform(0.0, 3.0, size=400)
    got = v_step(l, 1.0, EXP, region)
    assert min_slack(got, region) >= 0.0
    assert np.all((got >= 0.0) & (got <= 1.0))


def test_hard_forest_v_step_returns_binary_weights():
    rng = np.random.default_rng(63)
    region = order_region(60, recursive_tree(rng, 60))
    for lam in (0.5, 1.5, 3.0):
        got = v_step(rng.uniform(0.0, 3.0, size=60), lam, HARD, region)
        assert set(np.unique(got)) <= {0.0, 1.0}
        assert min_slack(got, region) >= 0.0


def test_a_sample_with_two_parents_takes_the_dual_route():
    region = order_region(3, [(0, 2), (1, 2)])
    l = np.array([2.0, 2.5, 0.5])  # sample 2 would outweigh both parents
    got = v_step(l, 1.0, EXP, region)
    assert min_slack(got, region) >= -1e-9
    assert np.allclose(got, intersection_reference(EXP, 1.0, l, region.halfspaces),
                       rtol=0, atol=1e-9)
    with pytest.raises(UnsupportedRegularizer):
        v_step(l, 1.0, HARD, region)


# ==== the multiplier search ==================================================


def one_halfspace(k, b):
    return CurriculumRegion("halfspace", (Halfspace(np.asarray(k, dtype=float), b),))


def multiplier(reg, lam, l, region, start=None):
    return curriculum._halfspace_multiplier(
        reg, lam, np.asarray(l, dtype=float), region, 0, start=start
    )


def computed_balance(reg, lam, l, region):
    """beta -> B(beta), computed on the normal's support as the search does."""
    support, vals, _ = region.normal(0)
    return lambda beta: float(weight_extended(reg, lam, l[support] - beta * vals) @ vals)


def assert_least_feasible(balance, b, beta):
    assert balance(beta) >= b
    if beta > 0.0:
        assert balance(np.nextafter(beta, 0.0)) < b


def recorded_balance_calls(monkeypatch):
    """Every array of losses that curriculum's weight_extended is called on, in order."""
    calls = []

    def recorded(reg, lam, l):
        calls.append(np.array(l, dtype=float))
        return weight_extended(reg, lam, l)

    monkeypatch.setattr(curriculum, "weight_extended", recorded)
    return calls


def test_balance_root_returns_zero_when_already_met_and_raises_when_unreachable():
    l = np.array([0.5, 1.0])
    assert multiplier(EXP, 1.0, l, one_halfspace([1.0, 0.0], 0.1)) == 0.0
    with pytest.raises(NoRoot):
        multiplier(EXP, 1.0, l, one_halfspace([1.0, 0.0], 1.5))


def test_balance_root_with_a_start_keeps_the_zero_and_no_root_cases():
    l = np.array([0.5, 1.0])
    for start in (None, 0.0, 1e-300, 0.3, 1e12):
        assert multiplier(EXP, 1.0, l, one_halfspace([1.0, 0.0], 0.1), start) == 0.0
        with pytest.raises(NoRoot):
            multiplier(EXP, 1.0, l, one_halfspace([1.0, 0.0], 1.5), start)


@pytest.mark.parametrize("start", [None, 5.0, 1e-3, 2000.0])
def test_balance_root_raises_no_root_exactly_above_the_last_doubling(start, monkeypatch):
    # the search gives up past s * 2**200, s = max(1, ||l|| / ||k||)
    l = np.array([3.0, 5.0])
    top = float(np.linalg.norm(l)) * 2.0**200  # ||k|| = 1 below
    for share, found in ((0.99, True), (1.01, False)):
        # hard's weight of sample 0 jumps where 3 - beta * eps falls below 1
        eps = 2.0 / (share * top)
        region = one_halfspace([eps, -1.0], 0.5 * eps)
        if found:
            beta = multiplier(HARD, 1.0, l, region, start)
            assert beta == pytest.approx(share * top, rel=1e-15)
            assert_least_feasible(computed_balance(HARD, 1.0, l, region), 0.5 * eps, beta)
        else:
            with pytest.raises(NoRoot):
                multiplier(HARD, 1.0, l, region, start)
    # a weight whose tail stays at 1/2 keeps w(l_0 - beta) - w(l_1 + beta) below
    # 0.7 for every beta: the search looks up to s * 2**200, and no further
    with pytest.warns(WeightTail):
        tail = design_from_weight(lambda x: 0.5 + 0.5 * np.exp(-np.asarray(x, dtype=float)))
    calls = recorded_balance_calls(monkeypatch)
    with pytest.raises(NoRoot):
        multiplier(tail, 1.0, l, one_halfspace([1.0, -1.0], 0.7), start)
    betas = [x[1] - l[1] for x in calls]  # sample 1's loss is l_1 + beta
    assert max(betas) == pytest.approx(top / np.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("support", [1, 7, 64])
def test_balance_root_finds_the_jump_of_a_step_balance_from_any_start(support):
    # a staircase: hard's weight of sample i jumps to 1 past beta = 2.25 + i / 2
    l = 3.25 + 0.5 * np.arange(support)
    region = one_halfspace(np.ones(support), 0.5)
    for start in (None, 1e-300, 1e-3, 2.2, 2.25, 2.3, 50.0, 1e12):
        assert multiplier(HARD, 1.0, l, region, start) == np.nextafter(2.25, np.inf)


@pytest.mark.parametrize("reg", STRICT, ids=lambda r: r.name)
def test_multiplier_search_stops_at_the_least_feasible_float(reg):
    rng = np.random.default_rng(56)
    for _ in range(4):
        l = rng.exponential(2.0, size=30)
        region = CurriculumRegion("halfspace", (general_halfspace(rng, reg, l, 12),))
        balance, b = computed_balance(reg, 1.0, l, region), region.offsets[0]
        root = multiplier(reg, 1.0, l, region)
        assert root > 0.0
        assert_least_feasible(balance, b, root)
        for start in (0.0, 1e-300, 1e12, 3.0 * root, root * (1.0 - 1e-7)):
            beta = multiplier(reg, 1.0, l, region, start)
            assert_least_feasible(balance, b, beta)
            assert beta == root  # B rounds monotonically: one least feasible float


# ==== halfspace duals =========================================================


def trusted_halfspace(rng, n, share, support):
    k = np.zeros(n)
    k[rng.choice(n, size=support, replace=False)] = 1.0
    return Halfspace(k, share * support)


@pytest.mark.parametrize("reg", STRICT, ids=lambda r: r.name)
def test_halfspace_v_step_matches_scalar_bisection(reg):
    rng = np.random.default_rng(41)
    n = 80
    for trial in range(4):
        l = rng.exponential(2.0, size=n)
        h = trusted_halfspace(rng, n, 0.9, 10 + 10 * trial)
        got = v_step(l, 1.0, reg, CurriculumRegion("halfspace", (h,)))
        assert float(got @ h.k) >= h.b - 1e-9
        assert np.allclose(got, halfspace_reference(reg, 1.0, l, h), rtol=0, atol=1e-8)


@pytest.mark.parametrize("reg", STRICT, ids=lambda r: r.name)
def test_intersection_v_step_matches_scalar_bisection(reg):
    rng = np.random.default_rng(42)
    n = 70
    for trial in range(3):
        l = rng.exponential(2.0, size=n)
        hs = (trusted_halfspace(rng, n, 0.9, 8), trusted_halfspace(rng, n, 0.8, 15))
        got = v_step(l, 1.0, reg, CurriculumRegion("intersection", hs))
        for h in hs:
            assert float(got @ h.k) >= h.b - 1e-9
        assert np.allclose(got, intersection_reference(reg, 1.0, l, hs), rtol=0, atol=1e-9)


@pytest.mark.parametrize("reg", STRICT, ids=lambda r: r.name)
def test_one_halfspace_takes_the_single_route_under_either_label(reg, monkeypatch):
    def fail(*args):
        raise AssertionError("coordinate ascent ran on one halfspace")

    monkeypatch.setattr(curriculum, "_dual_intersection", fail)
    rng = np.random.default_rng(45)
    for trial in range(3):
        l = rng.exponential(2.0, size=60)
        h = trusted_halfspace(rng, 60, 0.9, 10 + 10 * trial)
        single = v_step(l, 1.0, reg, CurriculumRegion("halfspace", (h,)))
        got = v_step(l, 1.0, reg, CurriculumRegion("intersection", (h,)))
        assert got.tobytes() == single.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_log_fits_under_a_one_halfspace_intersection(seed):
    ds, _, _ = make_regression(n=40, seed=seed)
    k = np.zeros(ds.n)
    k[:10] = 1.0
    h = Halfspace(k, 9.0)
    regions = [CurriculumRegion(kind, (h,)) for kind in ("halfspace", "intersection")]
    fits = [spl_fit(ds, TrainConfig(regularizer="log", region=region)) for region in regions]
    assert fits[0].w.tobytes() == fits[1].w.tobytes()
    assert fits[0].v.tobytes() == fits[1].v.tobytes()
    assert float(fits[1].v @ k) >= 9.0 - 1e-9


def test_penalized_halfspace_v_step_looks_up_the_free_weights_once(monkeypatch):
    sizes = []  # the size of every weight lookup
    weight = SPRegularizer.weight

    def counted_weight(self, lam, l):
        sizes.append(np.size(l))
        return weight(self, lam, l)

    monkeypatch.setattr(SPRegularizer, "weight", counted_weight)
    balances = recorded_balance_calls(monkeypatch)
    n = 50
    l = np.linspace(0.1, 5.0, n)
    k = np.zeros(n)
    k[-5:] = 1.0  # the five largest losses, whose free weights sum to about 0.05
    region = CurriculumRegion("halfspace", (Halfspace(k, 2.5),))
    got = v_step(l, 1.0, EXP, region)
    assert float(got @ k) >= 2.5 - 1e-9
    assert sizes[0] == n  # the free weights, before any lookup on the support
    assert len(sizes) > 3 and sizes[1:-1] == [5] * (len(sizes) - 2)  # the search
    assert [x.size for x in balances] == sizes[1:]
    assert sizes[-1] == n  # the constrained weights


def test_halfspace_v_step_with_full_support_at_n_1e5():
    rng = np.random.default_rng(43)
    n = 100_000
    l = rng.exponential(3.0, size=n)
    k = rng.uniform(0.5, 1.5, size=n)  # every weight enters the balance: width 1
    h = Halfspace(k, 0.5 * k.sum())
    got = v_step(l, 1.0, EXP, CurriculumRegion("halfspace", (h,)))
    assert float(got @ k) >= h.b - 1e-9
    assert np.allclose(got, halfspace_reference(EXP, 1.0, l, h), rtol=0, atol=1e-9)


def test_halfspace_v_step_skips_the_latent_value(monkeypatch):
    latents = []
    latent = SPRegularizer.latent

    def counted(self, lam, l):
        latents.append(np.size(l))
        return latent(self, lam, l)

    monkeypatch.setattr(SPRegularizer, "latent", counted)
    region = CurriculumRegion("halfspace", (Halfspace(np.array([1.0, 0.0]), 0.5),))
    got = v_step(np.array([2.0, 1.0]), 1.0, EXP, region)
    assert got[0] == pytest.approx(0.5, abs=1e-9)  # the constraint binds
    assert latents == []


def test_affine_action_weights_meet_the_offset():
    rng = np.random.default_rng(44)
    for reg in STRICT:
        l = rng.exponential(2.0, size=25)
        h = trusted_halfspace(rng, 25, 0.8, 10)
        res = affine_action(reg, 1.0, l, h)
        assert float(res.weights @ h.k) >= h.b - 1e-12


def test_region_rejects_losses_of_another_size():
    region = CurriculumRegion("halfspace", (Halfspace(np.array([1.0, 0.0, 0.0]), 0.5),))
    with pytest.raises(BadParam):
        v_step(np.ones(4), 1.0, EXP, region)


def test_infeasible_offset_still_raises_through_the_precheck():
    region = CurriculumRegion(
        "intersection",
        (Halfspace(np.array([1.0, 0.0]), 0.5), Halfspace(np.array([1.0, 1.0]), 2.5)),
    )
    with pytest.raises(InfeasibleCurriculum):
        v_step(np.array([3.0, 3.0]), 1.0, EXP, region)


def test_bracket_stops_at_rounding_when_the_tolerance_is_below_it():
    # floats near beta = 3e7 lie 3.7e-9 apart: the search stops at that spacing
    l = np.array([3e7, 1.0])
    res = affine_action(EXP, 1.0, l, Halfspace(np.array([1.0, 0.0]), 0.5))
    assert res.weights[0] >= 0.5
    assert res.weights[0] == pytest.approx(0.5, abs=1e-8)
    region = CurriculumRegion("halfspace", (Halfspace(np.array([1.0, 0.0]), 0.5),))
    assert v_step(l, 1.0, EXP, region)[0] == pytest.approx(0.5, abs=1e-8)


# ==== binary weights under one halfspace ======================================


def test_binary_weights_is_read_from_the_penalty():
    step = design_from_weight(HARD.weight_base)
    assert [r.binary_weights for r in (HARD, NEG_LINEAR)] == [True, True]
    assert not any(r.binary_weights for r in (*STRICT, step))


def offset_problems(rng, reg, count):
    """Losses and one halfspace of mixed signs that the free weights miss, n = 2..7."""
    while count:
        n = int(rng.integers(2, 8))
        l = rng.uniform(0.0, 3.0, size=n)
        k = rng.normal(size=n) * (rng.uniform(size=n) < 0.8)
        free, cap = float(reg.weight(1.0, l) @ k), float(np.maximum(k, 0.0).sum())
        if cap - free > 1e-3:
            count -= 1
            yield l, Halfspace(k, free + rng.uniform(0.05, 1.0) * (cap - free))


@pytest.mark.parametrize("reg", BINARY, ids=["hard", "neg-linear"])
def test_binary_halfspace_v_step_is_the_grid_minimum_at_n_up_to_3(reg):
    # normals of +-1 and +-0.5 with offsets on quarters put every vertex of
    # the feasible box on the grid's eighths, so the LP optimum is there
    problems = (
        (np.array([2.0, 3.0]), np.array([1.0, 0.5]), 0.25, 1.0),
        (np.array([0.4, 2.0]), np.array([-1.0, 1.0]), 0.25, 1.0),
        (np.array([2.5, 0.3, 1.8]), np.array([1.0, -0.5, 1.0]), 0.25, 1.0),
        (np.array([3.0, 1.2, 0.6]), np.array([0.5, 1.0, -1.0]), 1.25, 1.5),
    )
    for l, k, b, lam in problems:
        got = v_step(l, lam, reg, CurriculumRegion("halfspace", (Halfspace(k, b),)))

        def objective(v):
            return float(v @ l + lam * np.sum(reg.r_sp_base(v)))

        value, _, _ = grid_constrained_inf(
            objective, GridSpec.unit_box(l.size, count=9),
            feasible=lambda v: float(v @ k) >= b - 1e-12,
        )
        assert float(got @ k) >= b - 1e-12
        assert objective(got) == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("reg", BINARY, ids=["hard", "neg-linear"])
def test_binary_halfspace_v_step_is_the_lp_optimum(reg):
    rng = np.random.default_rng(71)
    for l, h in offset_problems(rng, reg, 120):
        value, got, beta = region_latent(reg, 1.0, l, CurriculumRegion("halfspace", (h,)))
        assert float(got @ h.k) >= h.b - 1e-12
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert np.count_nonzero((got > 0.0) & (got < 1.0)) <= 1
        action = affine_action(reg, 1.0, l, h)
        assert action.value == pytest.approx(value, abs=1e-12)
        assert action.beta == pytest.approx(beta[0], abs=1e-12)
        # the dual value at beta equals the primal: both are optimal
        dual = float(np.sum(latent_extended(reg, 1.0, l - beta[0] * h.k))) + beta[0] * h.b
        assert dual == pytest.approx(value, abs=1e-9)


def test_designed_binary_weights_under_two_halfspaces_are_refused():
    hs = (Halfspace(np.array([1.0, 0.5]), 0.2), Halfspace(np.array([0.0, 1.0]), 0.1))
    with pytest.raises(UnsupportedRegularizer, match="intersection of 2 halfspaces"):
        v_step(np.array([2.0, 3.0]), 1.0, NEG_LINEAR, CurriculumRegion("intersection", hs))


# ==== warm starts =============================================================


def general_halfspace(rng, reg, l, support):
    """A normal of mixed signs whose offset the unconstrained weights miss."""
    k = np.zeros(l.size)
    k[rng.choice(l.size, size=support, replace=False)] = rng.normal(size=support)
    free = float(weight_extended(reg, 1.0, l) @ k)
    cap = float(np.maximum(k, 0.0).sum())
    return Halfspace(k, free + rng.uniform(0.2, 0.8) * (cap - free))


def dual_problems(rng, reg, n=60):
    """Losses with a single-halfspace and an intersection region, both active."""
    for _ in range(3):
        l = rng.exponential(2.0, size=n)
        yield l, CurriculumRegion("halfspace", (general_halfspace(rng, reg, l, 20),))
        hs = (trusted_halfspace(rng, n, 0.9, 12), trusted_halfspace(rng, n, 0.8, 15))
        yield l, CurriculumRegion("intersection", hs)


def assert_feasible(v, region):
    for h in region.halfspaces:
        assert float(v @ h.k) >= h.b - 1e-9


@pytest.mark.parametrize("reg", STRICT, ids=lambda r: r.name)
def test_warm_and_cold_v_steps_agree(reg):
    rng = np.random.default_rng(51)
    for l, region in dual_problems(rng, reg):
        cold = v_step(l, 1.0, reg, region)
        warm = region.warm_copy()
        v_step(l * rng.uniform(0.98, 1.02, size=l.size), 1.0, reg, warm)
        assert np.all(warm._multipliers > 0)  # nearby multipliers to start from
        got = v_step(l, 1.0, reg, warm)
        assert_feasible(cold, region)
        assert_feasible(got, region)
        assert np.allclose(got, cold, rtol=0, atol=1e-9)
        assert region._multipliers is None  # the region itself stays stateless


@pytest.mark.parametrize("reg", STRICT, ids=lambda r: r.name)
def test_v_step_from_any_start_agrees_with_the_cold_one(reg):
    rng = np.random.default_rng(52)
    for l, region in dual_problems(rng, reg):
        cold = v_step(l, 1.0, reg, region)
        warm = region.warm_copy()
        v_step(l, 1.0, reg, warm)
        root = warm._multipliers.copy()
        for start in (0.0, 1e-300, 1e12, 3.0 * root, root * (1.0 - 1e-7)):
            warm._multipliers[:] = start
            got = v_step(l, 1.0, reg, warm)
            assert_feasible(got, region)
            assert np.allclose(got, cold, rtol=0, atol=1e-9)


# the most balance evaluations that a start far from the root may cost beyond a
# cold search (measured: at most 19, for linear), and that a warm search in
# test_warm_halfspace_v_step_makes_few_balance_calls may cost (measured: 10 or 11)
FAR_START_EXTRA = 20
WARM_SEARCH_CAP = 14


@pytest.mark.parametrize("reg", STRICT, ids=lambda r: r.name)
def test_a_start_far_from_the_root_costs_about_a_cold_search(reg, monkeypatch):
    rng = np.random.default_rng(55)
    calls = recorded_balance_calls(monkeypatch)
    for l, region in dual_problems(rng, reg):
        region = CurriculumRegion("halfspace", region.halfspaces[:1])
        root = multiplier(reg, 1.0, l, region)
        cold = len(calls)
        for start in (1e-300, 1e12, 1e3 * root, 1e-3 * root):
            calls.clear()
            assert multiplier(reg, 1.0, l, region, start) == root
            assert len(calls) <= cold + FAR_START_EXTRA
        calls.clear()


def test_warm_halfspace_v_step_makes_few_balance_calls(monkeypatch):
    # a fit-curriculum-like step: squared residuals with 20 % gross outliers, a
    # curator asking that 90 % of a trusted tenth of the clean samples be admitted
    rng = np.random.default_rng(53)
    n = 220
    residual = 0.1 * rng.normal(size=n)
    outliers = rng.choice(n, size=n // 5, replace=False)
    residual[outliers] += 5.0 * rng.choice((-1.0, 1.0), size=outliers.size)
    l = residual**2
    clean = np.setdiff1d(np.arange(n), outliers)
    k = np.zeros(n)
    k[rng.choice(clean, size=n // 10, replace=False)] = 1.0
    region = CurriculumRegion("halfspace", (Halfspace(k, 0.9 * (n // 10)),))
    lam = float(np.median(l[clean]))
    assert float(EXP.weight(lam, l) @ k) < region.offsets[0]  # the constraint binds

    calls = recorded_balance_calls(monkeypatch)
    warm = region.warm_copy()
    v_step(l, lam, EXP, warm)
    for _ in range(5):
        l = l * (1.0 + 0.002 * rng.normal(size=n))  # the next iterate's losses
        calls.clear()
        got = v_step(l, lam, EXP, warm)
        searched = len(calls) - 1  # the last call looks up the constrained weights
        calls.clear()
        cold = v_step(l, lam, EXP, region)
        assert searched < len(calls) - 1
        assert searched <= WARM_SEARCH_CAP
        # exp's weights move by at most 1/lam per unit of beta
        assert np.allclose(got, cold, rtol=0, atol=1e-10 / lam)
        assert_feasible(got, region)


@pytest.mark.parametrize("kind", ["halfspace", "intersection"])
def test_repeated_fits_on_one_config_are_bit_identical(kind):
    rng = np.random.default_rng(54)
    ds, _, outliers = make_regression(n=40, d=3, outlier_scale=30.0, seed=0)
    clean = np.setdiff1d(np.arange(ds.n), outliers)
    hs = []
    for share in (0.9, 0.8):
        k = np.zeros(ds.n)
        k[rng.choice(clean, size=8, replace=False)] = 1.0
        hs.append(Halfspace(k, share * 8))
    region = CurriculumRegion(kind, tuple(hs[:1]) if kind == "halfspace" else tuple(hs))
    config = TrainConfig(regularizer="exp", region=region)
    first, second = spl_fit(ds, config), spl_fit(ds, config)
    assert first.w.tobytes() == second.w.tobytes()
    assert first.v.tobytes() == second.v.tobytes()
    assert config.region._multipliers is None
