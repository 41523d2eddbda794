"""Curriculum regions and their effect on the latent objective.

A curriculum region constrains the weight vector v beyond the box [0, 1]^n.
Three kinds are supported:

  * halfspace     { v : <k, v> >= b }
  * intersection  finitely many halfspaces at once
  * groups        v constant within each block of a partition

Constraining v changes the latent objective.  For a single halfspace the
change has a one-dimensional form: the constrained latent equals

    sup_{beta >= 0}  F(l - beta * k) + beta * b

where F is the unconstrained joint latent.  The search direction can push
individual entries of l - beta * k below zero, so F is extended there
linearly (slope one, full weight); the extension is exact whenever a zero
loss receives full weight, which holds for every regularizer built here.

Functions in this module compute the constrained latent both by that
one-dimensional reduction (ray search for b = 0, root finding on the scaled
weight balance for general b, and an explicit formula for exponential
pairwise orderings) and by direct grid minimization over v as an
independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .conjugacy import Halfspace
from .errors import (
    BadParam,
    BadPartition,
    EmptyFeasible,
    NoRoot,
    SingularRegion,
    UnsupportedRegularizer,
)
from .regularizers import SPRegularizer

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# a batched balance evaluation takes at most this many betas, and at most this
# many weight lookups in all (betas times the support of the normal)
_BATCH_POINTS = 64
_BATCH_ELEMENTS = 2**16


# ==== regions =================================================================


def check_partition(partition: Sequence[Sequence[int]], n: int) -> tuple:
    """Validate that partition covers 0..n-1 exactly once; return it as tuples."""
    blocks = tuple(tuple(int(i) for i in block) for block in partition)
    seen = [i for block in blocks for i in block]
    if not blocks or any(len(b) == 0 for b in blocks):
        raise BadPartition("partition must consist of nonempty blocks")
    if sorted(seen) != list(range(n)):
        raise BadPartition(
            f"partition must cover indices 0..{n - 1} exactly once, got {sorted(seen)}"
        )
    return blocks


def partition_labels(partition: Sequence[Sequence[int]], n: int):
    """Block label of each of n samples and the size of each block.

    Raises BadPartition unless the partition covers 0..n-1 exactly once.
    """
    blocks = check_partition(partition, n)
    counts = np.array([len(b) for b in blocks])
    labels = np.empty(n, dtype=np.intp)
    labels[np.concatenate(blocks)] = np.repeat(np.arange(len(blocks)), counts)
    return labels, counts


def _pair_normal(k: np.ndarray):
    """Decode k as a pairwise ordering v_i >= v_j; None if not that shape."""
    nz = np.flatnonzero(k)
    if nz.size != 2:
        return None
    a, b = nz
    if not math.isclose(k[a], -k[b], rel_tol=1e-12, abs_tol=0.0):
        return None
    return (a, b) if k[a] > 0 else (b, a)


def _chain_orders(halfspaces):
    """Decode an intersection of pairwise orderings as disjoint chains.

    Returns a list of index chains [i1, i2, ...] meaning
    v_{i1} >= v_{i2} >= ..., or None when the halfspaces are not all
    homogeneous pairwise orderings arranged in simple chains.
    """
    succ: dict[int, int] = {}
    pred: dict[int, int] = {}
    for h in halfspaces:
        if abs(h.b) > 0:
            return None
        pair = _pair_normal(h.k)
        if pair is None:
            return None
        hi, lo = pair
        if hi in succ or lo in pred:
            return None  # branching order, not a chain
        succ[hi] = lo
        pred[lo] = hi
    chains = []
    heads = [i for i in succ if i not in pred]
    visited = set()
    for head in heads:
        chain = [head]
        visited.add(head)
        cur = head
        while cur in succ:
            cur = succ[cur]
            if cur in visited:
                return None  # cycle
            visited.add(cur)
            chain.append(cur)
        chains.append(chain)
    if len(visited) < len(set(succ) | set(pred)):
        return None  # leftover nodes imply a cycle
    return chains


@dataclass(frozen=True)
class CurriculumRegion:
    """A constraint region for the weight vector.

    kind is one of 'none', 'halfspace', 'intersection', 'groups'.  For the
    halfspace kinds the normals live in `halfspaces`; for 'groups' the block
    structure lives in `partition`.  The array forms the v-step works with
    (block labels, chains, the nonzeros of the normals) are decoded once, on
    first use.
    """

    kind: str = "none"
    halfspaces: tuple = field(default_factory=tuple)
    partition: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("none", "halfspace", "intersection", "groups"):
            raise BadParam(f"unknown region kind {self.kind!r}")
        if self.kind == "halfspace" and len(self.halfspaces) != 1:
            raise BadParam("halfspace region needs exactly one halfspace")
        if self.kind == "intersection" and len(self.halfspaces) == 0:
            raise BadParam("intersection region needs at least one halfspace")
        if self.kind == "groups" and len(self.partition) == 0:
            raise BadPartition("groups region needs a partition")
        for h in self.halfspaces:
            norm = float(np.linalg.norm(h.k))
            if norm < 1e-12:
                raise SingularRegion("halfspace normal is numerically zero")
        object.__setattr__(
            self, "partition", tuple(tuple(int(i) for i in b) for b in self.partition)
        )

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
        known = {"none", "halfspace", "intersection", "groups"}
        if kind not in known:
            raise BadParam(f"unknown region kind {kind!r}")
        allowed = {
            "none": {"kind"},
            "halfspace": {"kind", "k", "b"},
            "intersection": {"kind", "halfspaces"},
            "groups": {"kind", "partition"},
        }[kind]
        extra = set(spec) - allowed
        if extra:
            raise BadParam(f"unexpected keys in region spec: {sorted(extra)}")
        if kind == "none":
            return cls("none")
        if kind == "halfspace":
            try:
                h = Halfspace(np.asarray(spec["k"], dtype=float), float(spec.get("b", 0.0)))
            except (ValueError, KeyError) as exc:
                raise BadParam(f"bad halfspace spec: {exc}") from None
            return cls("halfspace", (h,))
        if kind == "intersection":
            hs = []
            for item in spec.get("halfspaces", []):
                try:
                    hs.append(
                        Halfspace(np.asarray(item["k"], dtype=float), float(item.get("b", 0.0)))
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    raise BadParam(f"bad halfspace spec: {exc}") from None
            return cls("intersection", tuple(hs))
        return cls("groups", partition=tuple(tuple(b) for b in spec.get("partition", [])))

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

    def feasible_mask(self, v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Feasibility of each row of v (..., n) under the halfspace constraints."""
        v = np.asarray(v, dtype=float)
        mask = np.ones(v.shape[:-1], dtype=bool)
        for h in self.halfspaces:
            mask &= v @ h.k >= h.b - tol
        return mask

    # -- decoded forms, computed once per region --------------------------------

    @cached_property
    def group_labels(self):
        """(labels, counts): block label of every sample and every block's size."""
        return partition_labels(self.partition, sum(len(b) for b in self.partition))

    @cached_property
    def _normals(self):
        """The nonzero entries of all normals as (rows, cols, vals), and n."""
        if len({h.k.size for h in self.halfspaces}) > 1:
            raise BadParam("halfspace normals differ in dimension")
        cols = [np.flatnonzero(h.k) for h in self.halfspaces]
        rows = np.repeat(np.arange(len(cols)), [c.size for c in cols])
        vals = np.concatenate([h.k[c] for h, c in zip(self.halfspaces, cols)])
        return rows, np.concatenate(cols), vals, self.halfspaces[0].k.size

    @property
    def dim(self) -> int:
        """The number of weights the halfspaces constrain."""
        return self._normals[3]

    def normal_dots(self, v: np.ndarray) -> np.ndarray:
        """<k_j, v> for every halfspace j, in time linear in the nonzeros."""
        rows, cols, vals, _ = self._normals
        return np.bincount(rows, weights=vals * v[cols], minlength=len(self.halfspaces))

    def normal_mix(self, mu: np.ndarray) -> np.ndarray:
        """sum_j mu_j k_j, in time linear in the nonzeros."""
        rows, cols, vals, n = self._normals
        return np.bincount(cols, weights=vals * mu[rows], minlength=n)

    @cached_property
    def offsets(self) -> np.ndarray:
        """The halfspace offsets b, shape (m,)."""
        return np.array([h.b for h in self.halfspaces])

    @cached_property
    def caps(self) -> np.ndarray:
        """The largest <k, v> over the box [0, 1]^n, per halfspace."""
        rows, _, vals, _ = self._normals
        return np.bincount(rows, weights=np.maximum(vals, 0.0), minlength=len(self.halfspaces))

    @cached_property
    def chains(self):
        """(order, lengths) when the halfspaces are pairwise orderings in chains.

        order concatenates the chains' indices, each chain listed from the
        sample whose weight must be largest; lengths gives each chain's
        length.  None for any other set of halfspaces.
        """
        chains = _chain_orders(self.halfspaces)
        if chains is None:
            return None
        return np.array([i for c in chains for i in c], dtype=np.intp), [len(c) for c in chains]


# ==== loss-side extensions ====================================================


def latent_extended(reg: SPRegularizer, lam: float, l):
    """Joint latent extended to negative losses by the slope-one linear tail.

    For l >= 0 this is the ordinary latent; for l < 0 it continues as l
    itself (weight pinned at 1), which is the true constrained value
    whenever a zero loss receives full weight.
    """
    la = np.asarray(l, dtype=float)
    pos = np.where(la >= 0, la, 0.0)
    vals = np.asarray(reg.latent(lam, pos), dtype=float)
    return np.where(la >= 0, vals, la)


def weight_extended(reg: SPRegularizer, lam: float, l):
    """Weight map extended to negative losses with full weight 1."""
    la = np.asarray(l, dtype=float)
    pos = np.where(la >= 0, la, 0.0)
    vals = np.asarray(reg.weight(lam, pos), dtype=float)
    return np.where(la >= 0, vals, 1.0)


def _joint_latent_ext(reg: SPRegularizer, lam: float, l: np.ndarray) -> float:
    return float(np.sum(latent_extended(reg, lam, l)))


# ==== results =================================================================


@dataclass(frozen=True)
class CurriculumActionResult:
    """Outcome of applying a curriculum region to a loss vector.

    value   the constrained latent objective (normalized to 0 at l = 0)
    weights minimizing weight vector, when available
    beta    multiplier of the active halfspace direction (0 when unaffected)
    side    'unaffected' or 'penalized' for halfspace regions, '-' otherwise
    status  'ok' or 'diverged' (the constrained value is unbounded)
    """

    value: float
    weights: np.ndarray | None = None
    beta: float | None = None
    side: str = "-"
    status: str = "ok"

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "weights": None if self.weights is None else [float(w) for w in self.weights],
            "beta": None if self.beta is None else float(self.beta),
            "side": self.side,
            "status": self.status,
        }


# ==== classification ==========================================================


def critical_region_side(
    reg: SPRegularizer, lam: float, l, h: Halfspace, tol: float = 1e-12
) -> str:
    """Which side of the halfspace the unconstrained weights fall on.

    'unaffected' when <weight(lam, l), k> >= b (boundary counts as
    satisfied): the constraint is inactive and the latent value is the
    unconstrained one.  'penalized' otherwise.
    """
    l = np.asarray(l, dtype=float)
    if l.shape != h.k.shape:
        raise BadParam(f"loss shape {l.shape} does not match normal shape {h.k.shape}")
    w = np.asarray(reg.weight(lam, l), dtype=float)
    return "unaffected" if float(w @ h.k) >= h.b - tol else "penalized"


# ==== halfspace actions =======================================================


def homogeneous_action_ray(
    reg: SPRegularizer,
    lam: float,
    l,
    h: Halfspace,
    tol: float = 1e-12,
    max_doublings: int = 200,
) -> CurriculumActionResult:
    """Latent under a homogeneous halfspace { v : <k, v> >= 0 } by ray search.

    Maximizes the concave map t -> F_ext(l - t * k) over t >= 0 with
    bracketing and golden-section refinement.  When the map keeps growing
    (possible when the latent is unbounded along the ray) the result has
    status 'diverged' and value +inf.
    """
    if abs(h.b) > 0:
        raise BadParam("ray search applies to homogeneous halfspaces (b = 0)")
    l = np.asarray(l, dtype=float)
    if l.shape != h.k.shape:
        raise BadParam(f"loss shape {l.shape} does not match normal shape {h.k.shape}")
    value_at = lambda t: _joint_latent_ext(reg, lam, l - t * h.k)

    side = critical_region_side(reg, lam, l, h)
    if side == "unaffected":
        w = np.asarray(reg.weight(lam, l), dtype=float)
        return CurriculumActionResult(value_at(0.0), w, 0.0, side)

    # bracket a maximizer: expand until the value stops improving
    scale = max(1.0, float(np.linalg.norm(l)) / float(np.linalg.norm(h.k)))
    t_hi = scale
    f_prev, f_hi = value_at(0.0), value_at(t_hi)
    doublings = 0
    while f_hi > f_prev + tol * max(1.0, abs(f_hi)):
        t_hi *= 2.0
        f_prev, f_hi = f_hi, value_at(t_hi)
        doublings += 1
        if doublings > max_doublings:
            return CurriculumActionResult(np.inf, None, np.inf, side, status="diverged")

    lo, hi = 0.0, t_hi
    a = hi - _GOLDEN * (hi - lo)
    b = lo + _GOLDEN * (hi - lo)
    fa, fb = value_at(a), value_at(b)
    while hi - lo > tol * max(1.0, hi):
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + _GOLDEN * (hi - lo)
            fb = value_at(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - _GOLDEN * (hi - lo)
            fa = value_at(a)
    t_star = 0.5 * (lo + hi)
    w = weight_extended(reg, lam, l - t_star * h.k)
    return CurriculumActionResult(value_at(t_star), w, t_star, side)


def homogeneous_closed_form(
    reg: SPRegularizer, lam: float, l, h: Halfspace
) -> CurriculumActionResult:
    """Closed-form latent for an exponential pairwise ordering constraint.

    Supports the exponential regularizer with k carrying exactly two
    nonzero entries of equal magnitude and opposite sign and b = 0, i.e.
    the constraint v_i >= v_j.  If the losses already satisfy l_i <= l_j
    the latent is unchanged; otherwise the two samples pool, both take
    weight exp(-mean / lam), and their combined latent is
    2 * lam * (1 - exp(-(l_i + l_j) / (2 * lam))).  Remaining coordinates
    contribute their separable latents.
    """
    if reg.name != "exp":
        raise UnsupportedRegularizer(
            f"closed form is specific to the exponential regularizer, got {reg.name!r}"
        )
    if abs(h.b) > 0:
        raise UnsupportedRegularizer("closed form requires a homogeneous halfspace (b = 0)")
    l = np.asarray(l, dtype=float)
    if l.shape != h.k.shape:
        raise BadParam(f"loss shape {l.shape} does not match normal shape {h.k.shape}")
    nz = np.flatnonzero(h.k)
    if nz.size != 2 or not math.isclose(h.k[nz[0]], -h.k[nz[1]], rel_tol=1e-12):
        raise UnsupportedRegularizer(
            "closed form requires exactly two nonzero entries of equal "
            "magnitude and opposite sign in k"
        )
    i, j = (nz[0], nz[1]) if h.k[nz[0]] > 0 else (nz[1], nz[0])
    alpha = abs(float(h.k[nz[0]]))

    others = np.ones(l.size, dtype=bool)
    others[[i, j]] = False
    rest = float(np.sum(reg.latent(lam, l[others]))) if others.any() else 0.0
    weights = np.asarray(reg.weight(lam, l), dtype=float)

    if l[i] <= l[j]:  # ordering already satisfied: constraint inactive
        pair = float(reg.latent(lam, l[i]) + reg.latent(lam, l[j]))
        return CurriculumActionResult(rest + pair, weights, 0.0, "unaffected")

    mean = 0.5 * (float(l[i]) + float(l[j]))
    pooled = -2.0 * lam * math.expm1(-mean / lam)
    weights[i] = weights[j] = math.exp(-mean / lam)
    beta = (float(l[i]) - float(l[j])) / (2.0 * alpha)
    return CurriculumActionResult(rest + pooled, weights, beta, "penalized")


def _batch_width(support: int) -> int:
    """Betas per batched balance evaluation for a normal with this support."""
    return max(1, min(_BATCH_POINTS, _BATCH_ELEMENTS // max(support, 1)))


def support_balance(reg: SPRegularizer, lam: float, l: np.ndarray, k: np.ndarray):
    """The weight balance beta -> <weight_ext(l - beta * k), k>, batched.

    Returns the balance, which maps an array of betas to an array of
    balances, and the batch width for it.  The balance is nondecreasing in
    beta and only reads the support of k, so each call costs one
    weight_extended lookup of (betas x support) values.
    """
    support = np.flatnonzero(k)
    ls, ks = l[support], k[support]

    def balance(betas):
        shifted = ls - np.multiply.outer(np.asarray(betas, dtype=float), ks)
        w = weight_extended(reg, lam, shifted.ravel()).reshape(shifted.shape)
        return w @ ks

    return balance, _batch_width(support.size)


def bisect_balance(
    balance, b: float, lo: float, hi: float, width: int, atol: float, rtol: float = 0.0
) -> float:
    """Shrink a bracket balance(lo) < b <= balance(hi) and return its feasible end.

    Each round evaluates `width` evenly spaced interior points in one call
    and keeps the sub-bracket that straddles b, until hi - lo is at most
    max(atol, rtol * hi).  At width 1 this is plain bisection.
    """
    t = np.arange(1, width + 1) / (width + 1)
    while hi - lo > max(atol, rtol * hi):
        pts = (1.0 - t) * lo + t * hi
        meets = balance(pts) >= b
        j = int(np.argmax(meets)) if meets.any() else width
        new_lo = float(pts[j - 1]) if j > 0 else lo
        new_hi = float(pts[j]) if j < width else hi
        if (new_lo, new_hi) == (lo, hi):
            break  # the bracket is down to rounding
        lo, hi = new_lo, new_hi
    return hi


def balance_root(
    balance,
    b: float,
    hi: float,
    width: int,
    atol: float,
    rtol: float = 0.0,
    max_doublings: int = 200,
) -> float:
    """Least beta >= 0 with balance(beta) >= b, returned from the feasible side.

    Returns 0 when balance(0) >= b.  Otherwise tries hi, 2 hi, 4 hi, ...
    (width of them per call) for a bracket and shrinks it with
    bisect_balance.  Raises NoRoot when the balance stays below b after
    max_doublings doublings.
    """
    candidates = np.concatenate(([0.0], hi * 2.0 ** np.arange(max_doublings + 1)))
    for start in range(0, candidates.size, width):
        meets = balance(candidates[start : start + width]) >= b
        if meets.any():
            at = start + int(np.argmax(meets))
            if at == 0:
                return 0.0
            return bisect_balance(
                balance, b, float(candidates[at - 1]), float(candidates[at]), width, atol, rtol
            )
    raise NoRoot("weight balance never reaches the offset b along the ray")


def affine_action(
    reg: SPRegularizer,
    lam: float,
    l,
    h: Halfspace,
    tol: float = 1e-10,
    max_doublings: int = 200,
    latent: bool = True,
) -> CurriculumActionResult:
    """Latent under a general halfspace { v : <k, v> >= b }.

    Evaluates sup_{beta >= 0} F_ext(l - beta * k) + beta * b.  When the
    unconstrained weights already satisfy the constraint the supremum sits
    at beta = 0.  Otherwise the optimal beta balances the scaled weights
    against the offset, <weight_ext(l - beta * k), k> = b, and is bracketed
    on that nondecreasing function to absolute tolerance `tol`, from the
    side where the weights meet the constraint.  Raises NoRoot when no beta
    achieves the balance (the supremum diverges).  With latent=False only
    the weights and beta are computed and the value is nan.
    """
    l = np.asarray(l, dtype=float)
    if l.shape != h.k.shape:
        raise BadParam(f"loss shape {l.shape} does not match normal shape {h.k.shape}")

    w = weight_extended(reg, lam, l)
    beta = 0.0
    side = "unaffected" if float(w @ h.k) >= h.b - 1e-12 else "penalized"
    if side == "penalized":
        cap = float(np.sum(np.maximum(h.k, 0.0)))  # limit of the balance as beta grows
        if h.b > cap + 1e-12:
            raise NoRoot(
                f"offset b={h.b} exceeds the attainable weight balance {cap}; "
                "the constrained latent diverges"
            )
        balance, width = support_balance(reg, lam, l, h.k)
        hi = max(1.0, float(np.linalg.norm(l)) / float(np.linalg.norm(h.k)))
        beta = balance_root(balance, h.b, hi, width, tol, max_doublings=max_doublings)
        w = weight_extended(reg, lam, l - beta * h.k)
    value = _joint_latent_ext(reg, lam, l - beta * h.k) + beta * h.b if latent else math.nan
    return CurriculumActionResult(value, w, beta, side)


# ==== group action ============================================================


def block_weights(reg: SPRegularizer, lam: float, l: np.ndarray, labels, counts):
    """Block mean losses and the weight of each block's mean, per block."""
    means = np.bincount(labels, weights=l, minlength=counts.size) / counts
    return means, np.asarray(reg.weight(lam, means), dtype=float)


def group_latent(
    reg: SPRegularizer, lam: float, l, partition: Sequence[Sequence[int]]
) -> CurriculumActionResult:
    """Latent when weights are constant within each block of a partition.

    Each block of size s with mean loss m contributes s * latent(lam, m),
    and every sample in the block takes the weight of the block mean.
    """
    l = np.asarray(l, dtype=float)
    labels, counts = partition_labels(partition, l.size)
    means, block_w = block_weights(reg, lam, l, labels, counts)
    per_block = counts * np.asarray(reg.latent(lam, means), dtype=float)
    total = float(sum(per_block))  # a running sum in block order
    return CurriculumActionResult(total, block_w[labels], None, "-")


# ==== direct reference by grid minimization ===================================


def curriculum_action_numeric(
    reg: SPRegularizer,
    lam: float,
    l,
    region: CurriculumRegion,
    points_per_axis: int = 201,
) -> CurriculumActionResult:
    """Constrained latent by direct minimization of v . l + sum r_sp(v_i).

    Scans a uniform grid over the feasible weights (per block for a groups
    region) and subtracts the n * lam * min r normalization, matching the
    latent convention of the one-dimensional reductions.  Intended as an
    independent reference for small problems: at most three grid axes.
    """
    l = np.asarray(l, dtype=float)
    n = l.size
    if region.kind == "groups":
        blocks = check_partition(region.partition, n)
        axes = len(blocks)
    else:
        blocks = tuple((i,) for i in range(n))
        axes = n
    if axes > 3:
        raise BadParam(f"numeric reference supports at most 3 grid axes, got {axes}")

    grid = np.linspace(0.0, 1.0, points_per_axis)
    mesh = np.meshgrid(*([grid] * axes), indexing="ij")
    vb = np.stack([m.ravel() for m in mesh], axis=-1)  # (points, axes) block values
    v_full = np.empty((vb.shape[0], n))
    for a, block in enumerate(blocks):
        for i in block:
            v_full[:, i] = vb[:, a]

    rv = np.zeros(vb.shape[0])
    for a, block in enumerate(blocks):
        ra = np.asarray(reg.r_sp_base(vb[:, a]), dtype=float)
        rv += len(block) * lam * ra
    objective = v_full @ l + rv

    feasible = np.isfinite(objective)
    if region.kind in ("halfspace", "intersection"):
        feasible &= region.feasible_mask(v_full)
    if not feasible.any():
        raise EmptyFeasible("no grid point satisfies the region constraints")

    masked = np.where(feasible, objective, np.inf)
    at = int(np.argmin(masked))
    value = float(masked[at]) - n * lam * reg.r_base_min
    return CurriculumActionResult(value, v_full[at].copy(), None, "-")
