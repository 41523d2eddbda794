"""Curriculum regions, the region-constrained weight step, and its latent.

A region constrains the weights v beyond the box [0, 1]^n: a halfspace
{ v : <k, v> >= b }, an intersection of several, or groups (v constant on
each block of a partition).  Every route of the v-step lives here (see
v_step); training re-exports v_step.  A self-paced step minimizes a latent
concave objective, so the constrained latent is the v-step's minimum:
region_latent values the route's own weights by the primal, and
affine_action and group_latent call it.  Ray searches on the dual, closed
forms and grid minimization over v are references and live in oracles.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from .conjugacy import Halfspace
from .errors import (
    BadParam,
    BadPartition,
    InfeasibleCurriculum,
    NoRoot,
    SingularRegion,
    UnsupportedRegularizer,
)
from .regularizers import SPRegularizer

# ==== regions =================================================================


def check_partition(partition: Sequence[Sequence[int]], n: int) -> tuple:
    """Validate that a partition of int blocks covers 0..n-1 exactly once; return it."""
    seen = [i for block in partition for i in block]
    if not partition or any(len(b) == 0 for b in partition):
        raise BadPartition("partition must consist of nonempty blocks")
    if sorted(seen) != list(range(n)):
        raise BadPartition(
            f"partition must cover indices 0..{n - 1} exactly once, got {sorted(seen)}"
        )
    return partition


def _sparse_normals(halfspaces):
    """Read every normal once, into its nonzero entries.

    Returns (rows, cols, vals, starts, norms, n): halfspace j's nonzeros sit
    at cols[starts[j]:starts[j + 1]] with values vals[starts[j]:starts[j + 1]],
    norms[j] is its Euclidean norm and n the common length of the normals.
    """
    if len({h.k.size for h in halfspaces}) > 1:
        raise BadParam("halfspace normals differ in dimension")
    cols = [np.flatnonzero(h.k != 0) for h in halfspaces]  # faster on a bool mask
    starts = np.cumsum([0] + [c.size for c in cols])
    rows = np.repeat(np.arange(len(cols)), np.diff(starts))
    vals = np.concatenate([h.k[c] for h, c in zip(halfspaces, cols)])
    norms = np.sqrt(np.bincount(rows, weights=vals * vals, minlength=len(cols)))
    if np.any(norms < 1e-12):
        raise SingularRegion("halfspace normal is numerically zero")
    return rows, np.concatenate(cols), vals, starts, norms, halfspaces[0].k.size


def _order_forest(parents, children):
    """Decode the orderings v_parents[t] >= v_children[t] as a forest.

    Returns (order, parent): order lists every sample an ordering names, each
    after its parent, and parent[p] is the position in order of order[p]'s
    parent, or -1 for a root.  None when a sample has two parents or lies on
    a cycle.
    """
    parent: dict = {}
    for hi, lo in zip(parents, children):
        if parent.setdefault(lo, hi) != hi:
            return None  # a second parent
    children_of: dict = {}
    for lo, hi in parent.items():
        children_of.setdefault(hi, []).append(lo)
    order = [i for i in children_of if i not in parent]
    for i in order:  # grows while it is read: breadth first from the roots
        order.extend(children_of.get(i, ()))
    if len(order) < len(parent.keys() | children_of.keys()):
        return None  # the samples left out lie on a cycle
    position = {i: p for p, i in enumerate(order)}
    return (
        np.array(order, dtype=np.intp),
        [position[parent[i]] if i in parent else -1 for i in order],
    )


def _halfspace_from_dict(item) -> Halfspace:
    """A halfspace from its JSON form {"k": [...], "b": ...}; BadParam if malformed."""
    try:
        return Halfspace(np.asarray(item["k"], dtype=float), float(item.get("b", 0.0)))
    except (ValueError, KeyError, TypeError) as exc:
        raise BadParam(f"bad halfspace spec: {exc}") from None


@dataclass(frozen=True)
class CurriculumRegion:
    """A constraint region for the weight vector.

    kind ('none', 'halfspace', 'intersection', 'groups') names the JSON shape;
    the v-step routes on the content.  The halfspace kinds hold normals in
    `halfspaces` (one for 'halfspace'), 'groups' holds `partition`, 'none'
    neither.  Each normal is read once, here, into its nonzero entries, from
    which the caps, the multiplier search and the order forest derive; block
    labels and the forest are decoded on first use.  A region built by its
    constructor is stateless; only the copy that warm_copy() returns records
    multipliers.
    """

    kind: str = "none"
    halfspaces: tuple = field(default_factory=tuple)
    partition: tuple = field(default_factory=tuple)
    # the nonzeros of the normals (_sparse_normals), when there are halfspaces
    _normals: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # the last dual multiplier of each halfspace, on a warm_copy() only
    _multipliers: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("none", "halfspace", "intersection", "groups"):
            raise BadParam(f"unknown region kind {self.kind!r}")
        try:  # one pass over the partition: each entry must be an integer index
            blocks = tuple(tuple(operator.index(i) for i in b) for b in self.partition)
        except TypeError:
            raise BadPartition("partition must be a list of blocks of integer indices") from None
        object.__setattr__(self, "partition", blocks)
        if self.kind == "halfspace" and len(self.halfspaces) != 1:
            raise BadParam("halfspace region needs exactly one halfspace")
        if self.kind == "intersection" and len(self.halfspaces) == 0:
            raise BadParam("intersection region needs at least one halfspace")
        if self.kind == "groups" and len(self.partition) == 0:
            raise BadPartition("groups region needs a partition")
        if self.halfspaces and self.kind in ("none", "groups"):
            raise BadParam(f"a {self.kind} region holds no halfspaces")
        if self.partition and self.kind != "groups":
            raise BadParam(f"a {self.kind} region holds no partition")
        if self.halfspaces:
            object.__setattr__(self, "_normals", _sparse_normals(self.halfspaces))

    @classmethod
    def from_dict(cls, spec: dict) -> "CurriculumRegion":
        """Build a region from its JSON form.

        {"kind": "none"}
        {"kind": "halfspace", "k": [1, -1], "b": 0.0}
        {"kind": "intersection", "halfspaces": [{"k": [...], "b": ...}, ...]}
        {"kind": "groups", "partition": [[0, 1], [2]]}
        """
        if not isinstance(spec, dict) or "kind" not in spec:
            raise BadParam("region spec must be an object with a 'kind' key")
        kind = spec["kind"]
        allowed = {
            "none": {"kind"},
            "halfspace": {"kind", "k", "b"},
            "intersection": {"kind", "halfspaces"},
            "groups": {"kind", "partition"},
        }
        if not isinstance(kind, str) or kind not in allowed:
            raise BadParam(f"unknown region kind {kind!r}")
        extra = set(spec) - allowed[kind]
        if extra:
            raise BadParam(f"unexpected keys in region spec: {sorted(extra)}")
        if kind == "none":
            return cls("none")
        if kind == "halfspace":
            return cls("halfspace", (_halfspace_from_dict(spec),))
        if kind == "intersection":
            items = spec.get("halfspaces", [])
            if not isinstance(items, list):
                raise BadParam("intersection 'halfspaces' must be a list")
            return cls("intersection", tuple(_halfspace_from_dict(item) for item in items))
        return cls("groups", partition=spec.get("partition", []))

    def to_dict(self) -> dict:
        if self.kind == "none":
            return {"kind": "none"}
        if self.kind == "halfspace":
            h = self.halfspaces[0]
            return {"kind": "halfspace", "k": h.k.tolist(), "b": h.b}
        if self.kind == "intersection":
            return {
                "kind": "intersection",
                "halfspaces": [{"k": h.k.tolist(), "b": h.b} for h in self.halfspaces],
            }
        return {"kind": "groups", "partition": [list(b) for b in self.partition]}

    def feasible_mask(self, v: np.ndarray) -> np.ndarray:
        """Feasibility of each row of v (..., n) under the halfspace constraints, to 1e-9."""
        v = np.asarray(v, dtype=float)
        mask = np.ones(v.shape[:-1], dtype=bool)
        for h in self.halfspaces:
            mask &= v @ h.k >= h.b - 1e-9
        return mask

    def warm_copy(self) -> "CurriculumRegion":
        """A copy whose dual v-steps start from the multipliers of the last one.

        The halfspace and intersection routes read each halfspace's last
        multiplier from the copy and write the new one back, so a run of
        v-steps on nearby losses starts every search next to its root.
        Regions without halfspaces are returned as they are.  The copy shares
        the decoded forms already computed.
        """
        if not self.halfspaces:
            return self
        twin = copy.copy(self)
        object.__setattr__(twin, "_multipliers", np.zeros(len(self.halfspaces)))
        return twin

    # -- decoded forms, computed once per region --------------------------------

    @cached_property
    def group_labels(self):
        """(labels, counts): block label of every sample and every block's size.

        Raises BadPartition unless the blocks cover 0..n-1 exactly once.
        """
        n = sum(len(b) for b in self.partition)
        blocks = check_partition(self.partition, n)
        counts = np.array([len(b) for b in blocks])
        labels = np.empty(n, dtype=np.intp)
        labels[np.concatenate(blocks)] = np.repeat(np.arange(len(blocks)), counts)
        return labels, counts

    @property
    def dim(self) -> int:
        """The number of weights the halfspaces constrain."""
        return self._normals[5]

    def normal_dots(self, v: np.ndarray) -> np.ndarray:
        """<k_j, v> for every halfspace j, in time linear in the nonzeros."""
        rows, cols, vals = self._normals[:3]
        return np.bincount(rows, weights=vals * v[cols], minlength=len(self.halfspaces))

    def normal_mix(self, mu: np.ndarray) -> np.ndarray:
        """sum_j mu_j k_j, in time linear in the nonzeros."""
        rows, cols, vals, _, _, n = self._normals
        return np.bincount(cols, weights=vals * mu[rows], minlength=n)

    def normal(self, j: int):
        """(support, values, norm) of halfspace j's normal: its nonzero entries."""
        _, cols, vals, starts, norms, _ = self._normals
        return cols[starts[j]:starts[j + 1]], vals[starts[j]:starts[j + 1]], float(norms[j])

    @cached_property
    def offsets(self) -> np.ndarray:
        """The halfspace offsets b, shape (m,)."""
        return np.array([h.b for h in self.halfspaces])

    @cached_property
    def caps(self) -> np.ndarray:
        """The largest <k, v> over the box [0, 1]^n, per halfspace."""
        rows, _, vals = self._normals[:3]
        return np.bincount(rows, weights=np.maximum(vals, 0.0), minlength=len(self.halfspaces))

    @cached_property
    def unreachable(self) -> np.ndarray:
        """The halfspaces whose offset b exceeds their cap: no box weights meet them."""
        return np.flatnonzero(self.offsets > self.caps + 1e-12)

    @cached_property
    def forest(self):
        """The order forest (_order_forest) when every halfspace is an ordering
        v_i >= v_j: b = 0 and a normal with two entries of equal size and
        opposite sign, the positive one at i.  None otherwise or without any."""
        if not self.halfspaces or np.any(self.offsets != 0):
            return None
        _, cols, vals, starts, _, _ = self._normals
        if np.any(np.diff(starts) != 2):
            return None
        first, second = vals[0::2], vals[1::2]
        if not np.all(np.abs(first + second) <= 1e-12 * np.maximum(abs(first), abs(second))):
            return None
        up = first > 0
        return _order_forest(
            np.where(up, cols[0::2], cols[1::2]).tolist(),
            np.where(up, cols[1::2], cols[0::2]).tolist(),
        )


# ==== results =================================================================


@dataclass(frozen=True)
class CurriculumActionResult:
    """Outcome of applying a curriculum region to a loss vector.

    value   the constrained latent objective (normalized to 0 at l = 0)
    weights minimizing weight vector, when available
    beta    multiplier of the active halfspace (0 when unaffected, inf when b forces v)
    side    'unaffected' or 'penalized' for halfspace regions, '-' otherwise
    """

    value: float
    weights: np.ndarray | None = None
    beta: float | None = None
    side: str = "-"


# ==== the multiplier search ===================================================


def weight_extended(reg: SPRegularizer, lam: float, l):
    """Weight map extended to negative losses with full weight 1."""
    la = np.asarray(l, dtype=float)
    inside = la >= 0
    vals = np.asarray(reg.weight(lam, np.where(inside, la, 0.0)), dtype=float)
    return np.where(inside, vals, 1.0)


def _halfspace_multiplier(reg, lam, l, region, j, start=None) -> float:
    """The least float beta >= 0 where halfspace j's nondecreasing balance
    B(beta) = <weight_ext(l - beta * k), k> meets its offset b:
    B(beta) >= b > B(nextafter(beta, 0)), or 0 when B(0) >= b.

    Each beta costs one weight_extended call on the normal's support.  Steps
    by factors 1 + d, d growing 8-fold, bracket the root: from `start` (> 0,
    clamped into [s * 8**-12, s * 2**200]) with d = 2**-10, else from the
    scale s = max(1, ||l|| / ||k||) with d = 7.  Illinois secant steps shrink
    the bracket; each aims past the root, by the rounding of a balance, toward
    the end the last step kept, so both ends close in.  A step that would
    leave the bracket, or follow three that left it wider than half its
    width, bisects.  Stops when no float lies between the ends, and raises
    NoRoot when B(s * 2**200) < b.
    """
    support, vals, norm = region.normal(j)
    ls, b = l[support], float(region.offsets[j])

    def residual(beta):
        return float(weight_extended(reg, lam, ls - beta * vals) @ vals) - b

    warm = start is not None and start > 0
    g_lo = math.nan if warm else residual(0.0)  # at lo = 0; a warm search reads it last
    if g_lo >= 0.0:
        return 0.0
    scale = max(1.0, float(np.linalg.norm(l)) / norm)
    floor, top = scale * 8.0**-12, scale * 2.0**200
    x, d = (min(max(float(start), floor), top), 2.0**-10) if warm else (scale, 7.0)
    lo, hi = 0.0, math.inf
    while True:  # bracket the root: g_lo < 0 <= g_hi
        g = residual(x)
        if g < 0.0:
            lo, g_lo = x, g
        else:
            hi, g_hi = x, g
        if hi == math.inf:
            if x >= top:
                raise NoRoot("weight balance never reaches the offset b along the ray")
            x = min(x * (1.0 + d), top)
        elif lo == 0.0 and hi / (1.0 + d) > floor:
            x = hi / (1.0 + d)
        else:
            break
        d *= 8.0
    if math.isnan(g_lo):  # every step of a warm search was feasible
        g_lo = residual(0.0)
        if g_lo >= 0.0:
            return 0.0
    kept = 0  # the end the last secant step kept: -1 lo, 1 hi, 0 neither
    widths = [math.inf] * 3  # the bracket's width before each of the last three steps
    rounding = 2.0**-53 * float(np.abs(vals).sum())
    while math.nextafter(lo, math.inf) < hi:
        x = lo + (hi - lo) * ((g_lo - kept * rounding) / (g_lo - g_hi))
        bisect = not lo < x < hi or hi - lo > 0.5 * widths[0]
        widths = [*widths[1:], hi - lo]
        if bisect:
            x = lo + 0.5 * (hi - lo)
        g = residual(x)
        if g < 0.0:
            lo, g_lo, g_hi = x, g, g_hi * 0.5 if kept == 1 else g_hi
        else:
            hi, g_hi, g_lo = x, g, g_lo * 0.5 if kept == -1 else g_lo
        kept = 0 if bisect else 1 if g < 0.0 else -1
    return hi


# ==== the v-step ==============================================================


def _pooled_weights(reg, lam, sums, counts, parent):
    """The weight of every node's pooled mean loss under a forest order.

    Node p holds counts[p] samples with total loss sums[p]; parent[p] < p is
    the node whose weight must be at least p's, or -1 (parent may be empty:
    no edges).  From the last node to the first, each block absorbs its
    child block of least mean while that mean lies below its own, from a
    min-heap per block, merged smaller into larger (Pardalos & Xue, 1999);
    on a chain this is pool adjacent violators.  The pooled means are the
    isotonic regression of the losses, and their weights, in one lookup,
    are the v-step's exact minimizer (Barlow-Brunk).
    """
    means = sums / counts
    if not parent:
        return np.asarray(reg.weight(lam, means), dtype=float)
    means, sums, counts = means.tolist(), sums.tolist(), counts.tolist()
    block = list(range(len(sums)))  # the node whose block absorbed each node
    heaps: list = [[] for _ in block]  # per block, (mean, node) of its child blocks
    for p in range(len(block) - 1, -1, -1):
        heap = heaps[p]
        if heap and heap[0][0] < means[p]:
            s, c, mean = sums[p], counts[p], means[p]
            while heap and heap[0][0] < mean:
                child = heappop(heap)[1]
                s, c, block[child] = s + sums[child], c + counts[child], p
                mean = s / c
                other = heaps[child]
                if len(other) > len(heap):
                    heap, other = other, heap
                for item in other:
                    heappush(heap, item)
            sums[p], counts[p], means[p], heaps[p] = s, c, mean, heap
        if parent[p] >= 0:
            heappush(heaps[parent[p]], (means[p], p))
    pooled: list = []
    for p, t in enumerate(block):  # now each node's block index: t < p is done
        block[p] = block[t] if t < p else len(pooled)
        if t == p:
            pooled.append(means[p])
    return np.asarray(reg.weight(lam, np.array(pooled)), dtype=float)[block]


def _binary_single_halfspace(reg, lam, l, v0, region):
    """The v-step of a binary-weight penalty under one halfspace that v0 misses: (v, beta).

    It is the LP min sum_i v_i (l_i - t) over the box and <k, v> >= b, t the
    loss where a free weight switches: a fractional knapsack (Dantzig, 1957).
    From v0, the samples that can close the deficit move in the order of their
    cost per unit of <k, v>, (l_i - t) / k_i, each as far as it can, so only
    the last may stay fractional; beta is its ratio.
    """
    support, vals, _ = region.normal(0)
    vs = v0[support]
    room = np.where(vals > 0, 1.0 - vs, vs) * np.abs(vals)  # the most each adds to <k, v>
    r0, r1 = reg.r_sp_base(np.array([0.0, 1.0]))
    ratio = (l[support] - lam * (r0 - r1)) / vals
    order = np.flatnonzero(room > 0)
    order = order[np.argsort(ratio[order], kind="stable")]
    filled = np.cumsum(room[order])
    deficit = region.offsets[0] - float(vals @ vs)
    last = min(int(np.searchsorted(filled, deficit)), order.size - 1)
    j = order[last]
    vs[order[:last]] = vals[order[:last]] > 0
    vs[j] = min(max(vs[j] + (deficit - (filled[last - 1] if last else 0.0)) / vals[j], 0.0), 1.0)
    v0[support] = vs
    return v0, float(ratio[j])


def _single_halfspace(reg, lam, l, v0, region):
    """The v-step under one halfspace that the free weights v0 miss: (v, beta).

    Binary weights take the sort; other penalties the dual multiplier search,
    whose beta is inf when b is the box maximum of <k, v>, forcing the weights.
    """
    if reg.binary_weights:
        return _binary_single_halfspace(reg, lam, l, v0, region)
    h = region.halfspaces[0]
    if abs(h.b - region.caps[0]) <= 1e-12:
        support, vals, _ = region.normal(0)
        v0[support] = vals > 0
        return v0, math.inf
    memory = region._multipliers
    start = None if memory is None else memory[0]
    try:
        beta = _halfspace_multiplier(reg, lam, l, region, 0, start=start)
    except NoRoot as exc:
        raise InfeasibleCurriculum(str(exc)) from None
    if memory is not None:
        memory[0] = beta
    return weight_extended(reg, lam, l - beta * h.k), beta


def _dual_intersection(reg, lam, l, region):
    b = region.offsets
    memory = region._multipliers
    mu = np.zeros(b.size) if memory is None else memory.copy()

    for _ in range(200):  # coordinate-ascent sweeps
        for j in range(b.size):
            other = mu.copy()
            other[j] = 0.0
            l_eff = l - region.normal_mix(other)
            try:
                # the feasible side for this constraint, searched from its last value
                mu[j] = _halfspace_multiplier(reg, lam, l_eff, region, j, start=mu[j])
            except NoRoot:
                raise InfeasibleCurriculum(
                    "dual ascent cannot satisfy a halfspace; region may be "
                    "infeasible or the penalty too flat"
                ) from None
        v = weight_extended(reg, lam, l - region.normal_mix(mu))
        slack = region.normal_dots(v) - b
        if float(slack.min()) >= -1e-9 and float(np.max(mu * np.abs(slack))) <= 1e-8:
            if memory is not None:
                memory[:] = mu
            return v, mu
    raise InfeasibleCurriculum(
        "dual coordinate ascent did not reach KKT tolerance; region may be "
        "degenerate for this penalty"
    )


def _solve(l, lam, reg, region):
    """The v-step's route: (weights, multipliers), multipliers None where it pools."""
    l = np.asarray(l, dtype=float)
    if region is None or not (region.halfspaces or region.partition):
        return reg.weight(lam, l), None  # which rejects negative losses
    if region.partition:
        if l.size and l.min() < 0:  # a block mean could hide a negative loss
            raise BadParam("losses must be nonnegative")
        labels, counts = region.group_labels
        if labels.size != l.size:
            raise BadPartition(
                f"partition covers {labels.size} samples, but there are {l.size} losses"
            )
        sums = np.bincount(labels, weights=l, minlength=counts.size)
        return _pooled_weights(reg, lam, sums, counts, ())[labels], None
    v0 = np.asarray(reg.weight(lam, l), dtype=float)  # rejects negative losses
    if region.dim != l.size:
        raise BadParam(
            f"halfspace normals have {region.dim} entries, but there are {l.size} losses"
        )
    if region.unreachable.size:
        j = region.unreachable[0]
        raise InfeasibleCurriculum(
            f"halfspace <k, v> >= {region.offsets[j]} cannot be met by weights in [0, 1]^n "
            f"(maximum attainable is {region.caps[j]})"
        )
    if np.all(region.normal_dots(v0) >= region.offsets - 1e-12):
        return v0, np.zeros(region.offsets.size)
    if region.forest is not None:  # samples outside the forest keep their free weights
        order, parent = region.forest
        v0[order] = _pooled_weights(reg, lam, l[order], np.ones(order.size), parent)
        return v0, None
    if region.offsets.size == 1:
        v, beta = _single_halfspace(reg, lam, l, v0, region)
        return v, np.array([beta])
    if reg.binary_weights:
        raise UnsupportedRegularizer(
            f"binary-weight penalty under an intersection of {region.offsets.size} halfspaces: "
            "it takes one halfspace, groups or a pairwise-order forest"
        )
    return _dual_intersection(reg, lam, l, region)


def v_step(
    l: np.ndarray,
    lam: float,
    reg: SPRegularizer,
    region: CurriculumRegion | None = None,
) -> np.ndarray:
    """Minimize <v, l> + lam * sum r_sp_base(v_i) over the region, exactly in [0,1]^n.

    The route follows what the region holds, not its kind: nothing ->
    elementwise weights; a partition, or orderings v_i >= v_j that form a
    forest -> the weights of the pooled losses' isotonic regression
    (_pooled_weights; Barlow, Bartholomew, Bremner & Brunk, 1972); one other
    halfspace -> for binary weights (SPRegularizer.binary_weights) the sort
    of _binary_single_halfspace, else the dual multiplier search; several ->
    dual coordinate ascent, which refuses binary weights.  Both dual routes
    search each multiplier alike (_halfspace_multiplier), to the least
    feasible float, warm from a warm_copy's last ones.  Free weights that
    meet every halfspace are returned as they are.
    """
    return _solve(l, lam, reg, region)[0]


# ==== constrained latents =====================================================


def _primal_value(reg, lam, l, v) -> float:
    """<v, l> + lam * sum r_sp_base(v_i) - n * lam * min r: the latent at minimizing v."""
    return float(v @ l) + lam * float(np.sum(reg.r_sp_base(v))) - v.size * lam * reg.r_base_min


def region_latent(reg: SPRegularizer, lam: float, l, region: CurriculumRegion | None):
    """(value, weights, multipliers) of the v-step's route (_solve): the constrained latent
    is the primal at its weights, +inf where it forces a weight outside the penalty's domain."""
    v, multipliers = _solve(l, lam, reg, region)
    return _primal_value(reg, lam, l, v), v, multipliers


def affine_action(reg: SPRegularizer, lam: float, l, h: Halfspace) -> CurriculumActionResult:
    """Latent under a general halfspace { v : <k, v> >= b }, hard included.

    The weights and beta come from the v-step's single-halfspace route (for
    an ordering too; beta is 0 when the free weights meet the constraint),
    valued like region_latent.  Raises NoRoot when no box weights meet it
    (the dual supremum diverges), and BadParam on negative losses.
    """
    l = np.asarray(l, dtype=float)
    if l.shape != h.k.shape:
        raise BadParam(f"loss shape {l.shape} does not match normal shape {h.k.shape}")

    w = np.asarray(reg.weight(lam, l), dtype=float)  # rejects negative losses
    region, beta = CurriculumRegion("halfspace", (h,)), 0.0
    side = "unaffected" if float(w @ h.k) >= h.b - 1e-12 else "penalized"
    if side == "penalized":
        if region.unreachable.size:
            raise NoRoot(f"offset b={h.b} exceeds the attainable balance {region.caps[0]}")
        w, beta = _single_halfspace(reg, lam, l, w, region)
    return CurriculumActionResult(_primal_value(reg, lam, l, w), w, beta, side)


def group_latent(
    reg: SPRegularizer, lam: float, l, partition: Sequence[Sequence[int]]
) -> CurriculumActionResult:
    """Latent when weights are constant within each block of a partition: the
    groups route's weights (block-mean weights), valued like region_latent."""
    value, weights, _ = region_latent(reg, lam, l, CurriculumRegion("groups", partition=partition))
    return CurriculumActionResult(value, weights, None, "-")
