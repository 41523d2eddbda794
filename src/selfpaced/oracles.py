"""Reference solvers used to certify the production module paths.

Everything here favours obviousness over speed: plain loops, exhaustive
grids, closed forms, and second solvers for problems the package solves
elsewhere.  The curriculum references (ray search, pairwise closed form, grid
minimization over v) share no solver code with affine_action and
group_latent.  latent_descent_fit is not independent of the production
v-step: it descends the latent objective through v_step, so it checks the
alternation of spl_fit, not the v-step.  Output is deterministic for a given
seed.  Intended for tests, spot checks and `selfpaced fit --cross-check`, on
problems of dimension at most 3 except for latent_descent_fit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .conjugacy import NEG_INFINITY, Halfspace, SampledFunction
from .curriculum import (
    CurriculumActionResult,
    CurriculumRegion,
    check_partition,
    weight_extended,
)
from .errors import (
    BadParam,
    DimensionMismatch,
    EmptyFeasible,
    UnsupportedRegularizer,
)
from .regularizers import SPRegularizer, get_regularizer
from .training import (
    Dataset,
    TrainConfig,
    TrainState,
    _latent_gradient,
    latent_objective,
    loss_vector,
    v_step,
    w_step,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GridSpec:
    """Dense evaluation grid: one (lo, hi, count) triple per axis."""

    axes: tuple

    def __post_init__(self):
        for ax in self.axes:
            lo, hi, count = ax
            if not (hi > lo and count >= 2):
                raise ValueError(f"bad axis spec {ax}")

    @classmethod
    def unit_box(cls, n_dims: int, count: int = 201) -> "GridSpec":
        return cls(axes=tuple((0.0, 1.0, count) for _ in range(n_dims)))

    @property
    def max_step(self) -> float:
        return max((hi - lo) / (count - 1) for lo, hi, count in self.axes)


def grid_constrained_inf(objective, spec: GridSpec, feasible=None):
    """Exhaustive minimum of `objective` over the grid, honouring `feasible`.

    Returns (value, argmin, error_bound).  The error bound is the largest
    observed slope between adjacent scanned points times the grid step: a
    crude Lipschitz-style bound on how far the grid minimum can sit above
    the continuous one.  Non-finite objective values are treated as
    infeasible points.
    """
    if len(spec.axes) > 3:
        raise DimensionMismatch("oracle grid search supports at most 3 axes")
    axes = [
        [lo + (hi - lo) * i / (count - 1) for i in range(count)]
        for lo, hi, count in spec.axes
    ]
    step = spec.max_step
    best = math.inf
    best_point = None
    lipschitz = 0.0
    prev_point = None
    prev_val = None
    for raw in itertools.product(*axes):
        point = np.array(raw)
        if feasible is not None and not feasible(point):
            continue
        val = float(objective(point))
        if not math.isfinite(val):
            continue
        if prev_point is not None:
            dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(point, prev_point)))
            if 0 < dist <= 1.5 * step:
                lipschitz = max(lipschitz, abs(val - prev_val) / dist)
        prev_point, prev_val = point, val
        if val < best:
            best = val
            best_point = point
    if best_point is None:
        raise EmptyFeasible("no feasible grid point")
    return best, best_point, lipschitz * step


def conjugate_scan(g: SampledFunction, out_grid) -> SampledFunction:
    """Concave conjugate inf_v { v*l - g(v) } by an O(N * M) scan.

    Every finite sample of g is tried at every output slope; exact for the
    piecewise-linear interpolant whether or not g is concave.
    """
    out_grid = np.asarray(out_grid, dtype=float)
    finite = np.isfinite(g.values)
    vs, gs = g.grid[finite], g.values[finite]
    return SampledFunction(out_grid, np.array([np.min(vs * l - gs) for l in out_grid]))


def random_concave(
    seed: int,
    grid: np.ndarray | None = None,
    domain: tuple[int, int] | None = None,
    slope_range: tuple[float, float] | None = None,
) -> SampledFunction:
    """Deterministic random closed proper concave sampled function.

    Values are the running integral of a sorted (non-increasing) random
    slope sequence, so concavity holds by construction.  The effective
    domain is a random sub-interval of the grid unless `domain` fixes the
    index pair (i0, i1) explicitly.
    """
    rng = np.random.default_rng(seed)
    if grid is None:
        grid = np.linspace(0.0, 1.0, 257)
    grid = np.asarray(grid, dtype=float)
    n = grid.size
    if slope_range is None:
        smax = rng.uniform(0.5, 4.0)
        slopes = rng.uniform(-smax, smax, n - 1)
    else:
        slopes = rng.uniform(slope_range[0], slope_range[1], n - 1)
    slopes = np.sort(slopes)[::-1]
    values = np.empty(n)
    values[0] = rng.uniform(-1.0, 1.0)
    values[1:] = values[0] + np.cumsum(slopes * np.diff(grid))
    if domain is None:
        i0 = int(rng.integers(0, max(1, n // 3)))
        i1 = int(rng.integers(min(n - 1, 2 * n // 3), n))
    else:
        i0, i1 = domain
    out = np.full(n, NEG_INFINITY)
    out[i0 : i1 + 1] = values[i0 : i1 + 1]
    return SampledFunction(grid, out)


# ==== curriculum references ===================================================


def latent_extended(reg: SPRegularizer, lam: float, l):
    """Joint latent extended to negative losses l by l itself (weight pinned at 1),
    exact whenever a zero loss receives full weight; the ray search reads it."""
    la = np.asarray(l, dtype=float)
    pos = np.where(la >= 0, la, 0.0)
    vals = np.asarray(reg.latent(lam, pos), dtype=float)
    return np.where(la >= 0, vals, la)


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
    value +inf, beta +inf and no weights.
    """
    if abs(h.b) > 0:
        raise BadParam("ray search applies to homogeneous halfspaces (b = 0)")
    l = np.asarray(l, dtype=float)
    if l.shape != h.k.shape:
        raise BadParam(f"loss shape {l.shape} does not match normal shape {h.k.shape}")
    value_at = lambda t: float(np.sum(latent_extended(reg, lam, l - t * h.k)))

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
            return CurriculumActionResult(np.inf, None, np.inf, side)

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


# ==== training reference ======================================================


def latent_descent_fit(
    dataset: Dataset,
    config: TrainConfig,
    lam: float | None = None,
    w0: np.ndarray | None = None,
) -> TrainState:
    """Gradient descent on G(w) = sum_i latent(lam, l_i(w)) + ridge * ||w||^2.

    The gradient weights each sample's loss gradient by its minimizing
    weight (with the curriculum-constrained weights when a region is
    active); at kinks of the binary-weight penalty the tie-break weight of
    the weight map is used as the descent direction.  Armijo backtracking
    guarantees monotone objective decrease; stops when the gradient norm
    reaches grad_tol, within 50 * max_inner iterations.
    """
    reg = get_regularizer(config.regularizer)
    alpha = config.ridge
    if lam is None:
        if config.lam is None:
            raise BadParam("latent_descent_fit needs an age: set lam or config.lam")
        lam = float(config.lam)

    w = (
        np.asarray(w0, dtype=float).copy()
        if w0 is not None
        else w_step(np.ones(dataset.n), dataset, config)
    )

    def G(w_):
        l = loss_vector(w_, dataset, config.loss)
        v = v_step(l, lam, reg, config.region)
        return latent_objective(v, l, lam, reg, alpha, w_), l, v

    val, l, v = G(w)
    state = TrainState(w=w, v=v, lam=float(lam), losses=l)
    converged = False
    for _ in range(50 * config.max_inner):
        g = _latent_gradient(w, v, dataset, config)
        gnorm = float(np.linalg.norm(g))
        state.record(lam, val + dataset.n * lam * reg.r_base_min, val, v)
        if gnorm <= config.grad_tol:
            converged = True
            break
        t = 1.0 / max(1.0, gnorm)
        accepted = False
        while t > 1e-20:
            cand = w - t * g
            cand_val, cand_l, cand_v = G(cand)
            if cand_val <= val - 1e-4 * t * gnorm**2:
                w, val, l, v = cand, cand_val, cand_l, cand_v
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = gnorm <= 10 * config.grad_tol
            break

    state.w = w
    state.v = v
    state.losses = l
    state.converged = converged
    state.grad_norm = float(np.linalg.norm(_latent_gradient(w, v, dataset, config)))
    return state
