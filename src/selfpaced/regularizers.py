"""Self-paced regularizers: catalog, design pipelines, and validation.

A self-paced regularizer assigns per-sample weights v in [0, 1] through a
convex penalty r_sp.  Three views of the same object are kept together:

  * r_sp_base(v)   the convex penalty at age 1 (+inf outside its domain)
  * weight_base(l) the minimizer argmin_v { v*l + r_sp_base(v) }
  * latent_base(l) the normalized value min_v { v*l + r_sp_base(v) },
                   shifted so latent_base(0) = 0

The age parameter lam > 0 enters only through the scaling contract

    r_sp(v, lam) = lam * r_sp_base(v)
    weight(lam, l) = weight_base(l / lam)
    latent(lam, l) = lam * latent_base(l / lam)

so every regularizer here automatically satisfies the age scaling laws.
Two design pipelines construct new entries: design_from_weight integrates a
monotone weight curve into its latent function and recovers the penalty,
while design_from_regularizer differentiates a convex penalty into weight
and latent functions.  validate_sp_regularizer re-derives each view from
the others and reports the residuals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .conjugacy import NEG_INFINITY, SampledFunction, concave_conjugate, graded_unit_grid, loss_grid
from .errors import (
    BadDomain,
    BadLimits,
    BadParam,
    NotConvex,
    NotMonotone,
    WeightTail,
)

LOG_V_MIN = 1e-12  # clip for penalties singular at v = 0
WEIGHT_EPS = 1e-6  # a weight above this counts as "positive" for schedules

_DEFAULT_GRID_N = 2049
_AGE_LATTICE = (0.25, 0.5, 1.0, 2.0, 4.0)


# ==== helpers =================================================================


def _as_vectorized(fn: Callable) -> Callable:
    """Wrap a scalar-or-vector callable so it maps arrays to arrays."""

    def wrapped(x):
        xa = np.asarray(x, dtype=float)
        try:
            out = np.asarray(fn(xa), dtype=float)
            if out.shape == xa.shape:
                return out
        except Exception:
            pass
        flat = np.array(
            [float(fn(float(z))) for z in np.atleast_1d(xa).ravel()], dtype=float
        )
        return flat.reshape(np.atleast_1d(xa).shape)

    return wrapped


def _sample_or_inf(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate fn on xs; points where it raises or returns NaN become +inf."""
    vec = _as_vectorized(fn)
    try:
        out = np.array(vec(xs), dtype=float)
    except Exception:
        out = np.empty(xs.shape)
        for i, x in enumerate(xs):
            try:
                out[i] = float(fn(float(x)))
            except Exception:
                out[i] = np.inf
    return np.where(np.isnan(out), np.inf, out)


def _invert_nonincreasing(xs: np.ndarray, ys: np.ndarray, t, side: str) -> np.ndarray:
    """Inverse of the piecewise-linear non-increasing map x -> y at levels t.

    side='left' resolves flat segments to their minimal x, side='right' to
    their maximal x.  Levels above the range clamp to xs[0], below it to
    xs[-1].
    """
    t = np.asarray(t, dtype=float)
    idx = np.searchsorted(-ys, -t, side=side)
    out = np.empty(t.shape)
    low = idx == 0
    high = idx == ys.size
    mid = ~low & ~high
    out[low] = xs[0]
    out[high] = xs[-1]
    i = idx[mid]
    denom = ys[i - 1] - ys[i]
    frac = np.where(denom > 0, (ys[i - 1] - t[mid]) / np.where(denom > 0, denom, 1.0), 0.0)
    out[mid] = xs[i - 1] + frac * (xs[i] - xs[i - 1])
    return out


def _maybe_scalar(out: np.ndarray, scalar_in: bool):
    return float(out) if scalar_in else out


def _loss_array(l) -> tuple:
    """(l as a float array, whether l is a scalar); BadParam on a negative entry.

    A NaN entry passes, as it fails every comparison.
    """
    scalar = not isinstance(l, np.ndarray) and np.isscalar(l)
    la = np.asarray(l, dtype=float)
    if la.size and la.min() < 0:
        raise BadParam("loss values must be nonnegative")
    return la, scalar


def _secant_drop_excess(xs: np.ndarray, ys: np.ndarray):
    """How much consecutive secant slopes decrease beyond float noise.

    Returns (worst_excess, x_at_worst).  The tolerance combines a relative
    term (1e-7) with the cancellation noise of differencing nearly equal values
    over tiny cells, so legitimately convex penalties sampled on graded
    grids (cells down to ~1e-10) are not flagged.
    """
    dx = np.diff(xs)
    slopes = np.diff(ys) / dx
    if slopes.size < 2:
        return 0.0, float(xs[0])
    drop = slopes[:-1] - slopes[1:]
    y_scale = float(np.max(np.abs(ys), initial=1.0))
    noise = 4.0 * np.finfo(float).eps * max(1.0, y_scale) * (1.0 / dx[:-1] + 1.0 / dx[1:])
    tol = 1e-7 * np.maximum(1.0, np.maximum(np.abs(slopes[:-1]), np.abs(slopes[1:]))) + noise
    excess = drop - tol
    at = int(np.argmax(excess))
    return float(max(excess[at], 0.0)), float(xs[1 + at])


# ==== the regularizer type ====================================================


@dataclass(frozen=True)
class SPRegularizer:
    """A self-paced regularizer given by its base penalty/weight/latent triple.

    The three callables take numpy arrays (of v for the penalty, of base-scale
    loss for the other two) and return arrays.  r_base_min is the minimum of
    the base penalty over [0, 1]; the latent normalization and joint
    objectives depend on it.
    """

    name: str
    r_sp_base: Callable = field(repr=False)
    weight_base: Callable = field(repr=False)
    latent_base: Callable = field(repr=False)
    r_base_min: float | None = None

    def __post_init__(self):
        if self.r_base_min is None:
            vv = graded_unit_grid(_DEFAULT_GRID_N)
            rv = _sample_or_inf(self.r_sp_base, vv)
            finite = rv[np.isfinite(rv)]
            if finite.size == 0:
                raise BadDomain(f"{self.name}: penalty has no finite value on [0, 1]")
            object.__setattr__(self, "r_base_min", float(finite.min()))

    @cached_property
    def support_radius(self) -> float:
        """Base-scale loss where the weight falls to WEIGHT_EPS (at most 1e12), bisected once."""
        if float(self.weight_base(np.array(0.0))) <= WEIGHT_EPS:
            return 0.0
        hi = 1.0
        while float(self.weight_base(np.array(hi))) > WEIGHT_EPS:
            hi *= 2.0
            if hi > 1e12:
                return 1e12
        lo = hi / 2.0 if hi > 1.0 else 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(self.weight_base(np.array(mid))) > WEIGHT_EPS:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @cached_property
    def binary_weights(self) -> bool:
        """Whether the penalty is finite at 0 and 1 and affine on the graded unit
        grid: then every free weight is 0 or 1, and a v-step is a linear program."""
        vv = graded_unit_grid(_DEFAULT_GRID_N)
        rv = _sample_or_inf(self.r_sp_base, vv)
        tol = 1e-12 * (1.0 + abs(rv[0]) + abs(rv[-1]))
        if not math.isfinite(tol):
            return False
        return bool(np.all(np.abs(rv - rv[0] - (rv[-1] - rv[0]) * vv) <= tol))

    # -- scaled views -----------------------------------------------------------

    def _check_age(self, lam: float) -> float:
        lam = float(lam)
        if not (math.isfinite(lam) and lam > 0):
            raise BadParam(f"age parameter must be finite and > 0, got {lam}")
        return lam

    def r_sp(self, v, lam: float = 1.0):
        """Penalty lam * r_sp_base(v); +inf outside the domain."""
        lam = self._check_age(lam)
        scalar = np.isscalar(v)
        out = lam * np.asarray(self.r_sp_base(np.asarray(v, dtype=float)), dtype=float)
        return _maybe_scalar(out, scalar)

    def weight(self, lam: float, l):
        """Minimizing weight for loss l at age lam, clipped to [0, 1]."""
        lam = self._check_age(lam)
        la, scalar = _loss_array(l)
        out = np.asarray(self.weight_base(la / lam), dtype=float).clip(0.0, 1.0)
        return _maybe_scalar(out, scalar)

    def latent(self, lam: float, l):
        """Normalized latent objective lam * latent_base(l / lam)."""
        lam = self._check_age(lam)
        la, scalar = _loss_array(l)
        out = lam * np.asarray(self.latent_base(la / lam), dtype=float)
        return _maybe_scalar(out, scalar)


# ==== catalog =================================================================


def _hard_r(v):
    v = np.asarray(v, dtype=float)
    return np.where((v < 0) | (v > 1), np.inf, -v)


def _hard_w(l):
    return np.where(np.asarray(l, dtype=float) < 1.0, 1.0, 0.0)


def _hard_f(l):
    return np.minimum(np.asarray(l, dtype=float), 1.0)


def _linear_r(v):
    v = np.asarray(v, dtype=float)
    return np.where((v < 0) | (v > 1), np.inf, 0.5 * (1.0 - v) ** 2)


def _linear_w(l):
    return np.clip(1.0 - np.asarray(l, dtype=float), 0.0, 1.0)


def _linear_f(l):
    l = np.asarray(l, dtype=float)
    return np.where(l < 1.0, l - 0.5 * l * l, 0.5)


def _log_r(v):
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = -np.log(np.clip(v, LOG_V_MIN, None))
    return np.where((v <= 0) | (v > 1), np.inf, inner)


def _log_w(l):
    l = np.asarray(l, dtype=float)
    # 1/l overflows to inf on a subnormal loss, and the minimum clips it to 1
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(l <= 0, 1.0, np.minimum(1.0, 1.0 / np.where(l > 0, l, 1.0)))


def _log_f(l):
    l = np.asarray(l, dtype=float)
    return np.where(l <= 1.0, l, 1.0 + np.log(np.maximum(l, LOG_V_MIN)))


def _exp_r(v):
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = v * np.log(np.where(v > 0, v, 1.0)) - v + 1.0
    return np.where((v < 0) | (v > 1), np.inf, np.where(v > 0, inner, 1.0))


def _exp_w(l):
    return np.minimum(1.0, np.exp(-np.asarray(l, dtype=float)))


def _exp_f(l):
    return -np.expm1(-np.asarray(l, dtype=float))


_CATALOG = (
    SPRegularizer("hard", _hard_r, _hard_w, _hard_f, r_base_min=-1.0),
    SPRegularizer("linear", _linear_r, _linear_w, _linear_f, r_base_min=0.0),
    SPRegularizer("log", _log_r, _log_w, _log_f, r_base_min=0.0),
    SPRegularizer("exp", _exp_r, _exp_w, _exp_f, r_base_min=0.0),
)


def catalog() -> list[SPRegularizer]:
    """The four built-in regularizers, built once and shared by every caller.

    hard    penalty -v: binary weights, 1 below age, 0 at and above it
    linear  penalty (1-v)^2/2: weights decay linearly to 0 at the age
    log     penalty -log(v) on (0, 1]: weights min(1, lam/l)
    exp     penalty v log(v) - v + 1 on (0, 1]: weights exp(-l/lam)
    """
    return list(_CATALOG)


def get_regularizer(name: str) -> SPRegularizer:
    """The catalog regularizer of this name; BadParam for any other value."""
    if not isinstance(name, str):
        raise BadParam(
            "regularizer must be a catalog name (hard/linear/log/exp), "
            f"got a {type(name).__name__}"
        )
    for reg in _CATALOG:
        if reg.name == name.lower():
            return reg
    raise BadParam(f"unknown regularizer {name!r}; choose from hard/linear/log/exp")


# ==== design pipeline: weight -> latent -> penalty ============================


def design_from_weight(w: Callable, l_max: float = 8.0, n: int = _DEFAULT_GRID_N) -> SPRegularizer:
    """Build a regularizer from a monotone weight curve w(l) on [0, l_max].

    The latent function is the running trapezoid integral of w, a
    piecewise-linear function with one knot per grid cell.  The other two
    views are derived exactly from it, so the returned triple is mutually
    consistent to machine precision: the weight view is the latent's exact
    derivative (the per-cell average of w, a right-continuous step
    function), and the penalty is the exact transform
    r(v) = sup_l { latent(l) - v * l }, again piecewise linear with one
    knot per cell at v = (cell slope), value latent_k - v * l_k, convex by
    construction.

    Raises BadParam for fewer than 3 grid points or an l_max that is not
    finite and positive, NotMonotone if w increases anywhere on the grid and
    BadLimits if w(0) is not within 1e-3 of 1.  A tail value w(l_max) above
    1e-3 only emits a WeightTail warning.
    """
    if n < 3:
        raise BadParam(f"design grid needs at least 3 points, got {n}")
    if not 0 < l_max < math.inf:
        raise BadParam(f"l_max must be finite and positive, got {l_max}")
    wv_fn = _as_vectorized(w)
    grid = np.linspace(0.0, l_max, n)
    wv = np.asarray(wv_fn(grid), dtype=float)
    if not np.all(np.isfinite(wv)):
        raise BadParam("weight function must be finite on [0, l_max]")
    rises = np.diff(wv) > 1e-9
    if np.any(rises):
        where = grid[1:][rises][0]
        raise NotMonotone(f"weight increases near l={where:.6g}")
    if abs(wv[0] - 1.0) > 1e-3:
        raise BadLimits(f"weight at 0 is {wv[0]:.6g}, expected 1 within 1e-3")
    if wv[-1] > 1e-3:
        warnings.warn(
            f"weight at l_max={l_max} is {wv[-1]:.3g} > 1e-3; latent tail stays linear",
            WeightTail,
        )

    wc = np.clip(wv, 0.0, 1.0)
    latent_grid = np.concatenate(
        ([0.0], np.cumsum(0.5 * (wc[1:] + wc[:-1]) * np.diff(grid)))
    )
    w_end, latent_end = float(wc[-1]), float(latent_grid[-1])
    slopes = np.diff(latent_grid) / np.diff(grid)

    def latent_base(l):
        la = np.asarray(l, dtype=float)
        inside = np.interp(la, grid, latent_grid)
        return np.where(la <= l_max, inside, latent_end + w_end * (la - l_max))

    def weight_base(l):
        la = np.asarray(l, dtype=float)
        idx = np.clip(np.searchsorted(grid, la, side="right") - 1, 0, n - 2)
        inside = slopes[idx]
        return np.where(la >= l_max, w_end, np.where(la < 0.0, 1.0, inside))

    # exact transform of the piecewise-linear latent: knots at the cell
    # slopes (non-increasing in l, hence increasing when traversed from
    # the tail), values latent_k - slope_k * l_k
    knot_v = slopes[::-1]
    knot_r = (latent_grid[:-1] - slopes * grid[:-1])[::-1]
    # cover v = 0 (sup sits at l_max) and v = 1 (sup sits at l = 0, value 0)
    knot_v = np.concatenate(([0.0], knot_v, [1.0]))
    knot_r = np.concatenate(([latent_end], knot_r, [0.0]))
    keep = np.concatenate(([True], np.diff(knot_v) > 0))
    knot_v, knot_r = knot_v[keep], knot_r[keep]

    def r_base(v):
        va = np.asarray(v, dtype=float)
        inside = np.interp(va, knot_v, knot_r)
        return np.where((va < 0) | (va > 1), np.inf, inside)

    return SPRegularizer(
        "designed-from-weight",
        r_base,
        weight_base,
        latent_base,
        r_base_min=float(r_base(np.array(1.0))),
    )


# ==== design pipeline: penalty -> weight -> latent ============================


def design_from_regularizer(r: Callable, n: int = _DEFAULT_GRID_N) -> SPRegularizer:
    """Build a regularizer from a convex penalty r(v) with domain in [0, 1].

    The loss map l(v) is the (set-valued, non-increasing) derivative of -r,
    estimated from secant slopes at cell midpoints and extrapolated to the
    domain endpoints.  The weight function inverts that map: flat segments
    resolve to their minimal weight for l > 0 and to their maximal weight at
    l = 0, so that a zero-loss sample always receives full weight.  The
    latent function follows from the identity
    latent(l) = weight(l) * l + r(weight(l)), shifted to 0 at l = 0.

    Raises BadParam for fewer than 3 grid points, NotConvex when the secant
    slopes of r decrease, and BadDomain when the finite domain does not
    reach both 0 and 1 (within 1e-3).
    """
    if n < 3:
        raise BadParam(f"design grid needs at least 3 points, got {n}")
    vgrid = graded_unit_grid(n)
    rv = _sample_or_inf(r, vgrid)
    finite = np.isfinite(rv)
    if not finite.any():
        raise BadDomain("penalty has no finite value on [0, 1]")
    idx = np.flatnonzero(finite)
    if idx[-1] - idx[0] + 1 != idx.size:
        raise BadDomain("penalty domain must be an interval")
    xs = vgrid[idx[0] : idx[-1] + 1]
    ys = rv[idx[0] : idx[-1] + 1]
    if xs.size < 3:
        raise BadDomain("penalty domain covers too few grid points")
    if xs[0] > 1e-3 or xs[-1] < 1.0 - 1e-3:
        raise BadDomain(
            f"penalty domain [{xs[0]:.4g}, {xs[-1]:.4g}] must reach 0 and 1"
        )
    excess, where = _secant_drop_excess(xs, ys)
    if excess > 0:
        raise NotConvex(f"penalty secant slopes decrease near v={where:.6g}")

    slopes = np.diff(ys) / np.diff(xs)
    mids = 0.5 * (xs[:-1] + xs[1:])
    neg_slopes = -slopes  # derivative of -r, non-increasing in v
    if mids.size >= 2:
        y_lo = neg_slopes[0] + (neg_slopes[0] - neg_slopes[1]) * (
            (mids[0] - xs[0]) / (mids[1] - mids[0])
        )
        y_hi = neg_slopes[-1] - (neg_slopes[-2] - neg_slopes[-1]) * (
            (xs[-1] - mids[-1]) / (mids[-1] - mids[-2])
        )
        y_lo = max(y_lo, neg_slopes[0])
        y_hi = min(y_hi, neg_slopes[-1])
    else:
        y_lo = y_hi = neg_slopes[0]
    knot_x = np.concatenate(([xs[0]], mids, [xs[-1]]))
    knot_y = np.concatenate(([y_lo], neg_slopes, [y_hi]))

    r_fn = _as_vectorized(r)
    v_lo, v_hi = float(xs[0]), float(xs[-1])

    def weight_base(l):
        la = np.asarray(l, dtype=float)
        res = _invert_nonincreasing(knot_x, knot_y, la, side="left")
        if np.any(la == 0.0):
            res_max = _invert_nonincreasing(knot_x, knot_y, la, side="right")
            res = np.where(la == 0.0, res_max, res)
        return np.clip(res, 0.0, 1.0)

    def r_eval(v):
        return np.asarray(r_fn(np.clip(v, v_lo, v_hi)), dtype=float)

    shift = float(r_eval(weight_base(np.array(0.0))))

    def latent_base(l):
        la = np.asarray(l, dtype=float)
        vv = weight_base(la)
        return vv * la + r_eval(vv) - shift

    def r_base(v):
        va = np.asarray(v, dtype=float)
        return np.where((va < v_lo - 1e-12) | (va > v_hi + 1e-12), np.inf, r_eval(va))

    return SPRegularizer(
        "designed-from-penalty",
        r_base,
        weight_base,
        latent_base,
        r_base_min=float(ys.min()),
    )


# ==== validation ==============================================================


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    location: str
    note: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "location": self.location,
            "note": self.note,
        }


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {"verdict": self.verdict, "checks": [c.to_dict() for c in self.checks]}

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _worst(resid, where):
    """Largest entry of resid, floored at 0, and where(*index) of its first one.

    The location is "-" when no entry is positive.  A non-finite entry counts
    as inf, so a NaN fails its check instead of losing every comparison.
    """
    resid = np.where(np.isfinite(resid), resid, np.inf)
    i = int(np.argmax(resid))
    if not resid.flat[i] > 0.0:
        return 0.0, "-"
    return float(resid.flat[i]), where(*np.unravel_index(i, resid.shape))


def validate_sp_regularizer(reg: SPRegularizer) -> ValidationReport:
    """Re-derive each view of the regularizer from the others and compare.

    Checks performed (each reported, none raised) on the age lattice
    0.25, 0.5, 1, 2, 4; a non-finite residual fails its check:
      convexity            penalty secant slopes are non-decreasing
      domain               finite on part of [0, 1], closure reaches 0 and 1
      weight_monotone_loss weight non-increasing in the loss
      weight_monotone_age  weight non-decreasing in the age parameter
      weight_limits        weight in [0, 1], decays for large loss, small age
      derivative_identity  d latent / d l equals the weight away from kinks
      conjugacy            latent matches the grid conjugate of -r_sp
      scaling              age scaling laws hold exactly
    """
    checks = []
    ages = _AGE_LATTICE
    vgrid = graded_unit_grid(_DEFAULT_GRID_N)
    rv = _sample_or_inf(reg.r_sp_base, vgrid)
    finite = np.isfinite(rv)

    def check(name, limit, resid, where):
        worst, loc = _worst(resid, where)
        checks.append(CheckResult(name, worst <= limit, worst, loc))

    def at_loss(losses):  # the location of entry (a, j) of per-age rows
        return lambda a, j: f"lam={ages[a]}, l={losses[a][j]:.4g}"

    # convexity of the base penalty
    if finite.sum() >= 3:
        xs = vgrid[finite]
        ys = rv[finite]
        worst, where = _secant_drop_excess(xs, ys)
        checks.append(CheckResult("convexity", worst <= 0.0, worst, f"v={where:.6g}"))
    else:
        checks.append(CheckResult("convexity", False, np.inf, "-", "too few finite points"))

    # domain containment and closure
    if finite.any():
        idx = np.flatnonzero(finite)
        v_first, v_last = float(vgrid[idx[0]]), float(vgrid[idx[-1]])
        resid = max(v_first - 0.0, 1.0 - v_last)
        outside = _sample_or_inf(reg.r_sp_base, np.array([-0.5, 1.5]))
        ok = resid <= 1e-3 and not np.isfinite(outside).any()
        checks.append(
            CheckResult("domain", ok, resid, f"domain [{v_first:.4g}, {v_last:.4g}]")
        )
    else:
        checks.append(CheckResult("domain", False, np.inf, "-", "no finite value"))

    loss_lattice = np.unique(
        np.concatenate([np.linspace(0.0, 8.0, 81), np.geomspace(1e-3, 100.0, 41)])
    )

    # weight monotone in the loss (per age, on the scaled lattice)
    scaled = np.array([reg.weight(lam, loss_lattice * lam) for lam in ages])
    rises_at = np.outer(ages, loss_lattice[1:])
    check("weight_monotone_loss", 1e-9, np.diff(scaled, axis=1), at_loss(rises_at))
    abs_losses = np.linspace(0.0, 8.0, 33)
    by_age = np.array([reg.weight(lam, abs_losses) for lam in ages])
    drops = -np.diff(by_age, axis=0).T  # loss-major, as the location names the loss
    check("weight_monotone_age", 1e-9, drops, lambda j, _: f"l={abs_losses[j]:.4g}")

    # weight limits: range, decay in the loss, decay as the age shrinks
    small_losses = (0.5, 1.0, 4.0)
    tails = np.array([reg.weight(lam, 1000.0 * lam) for lam in ages])
    per_age = np.column_stack((np.maximum(scaled - 1.0, -scaled).max(axis=1), tails - 2e-3))
    small_age = reg.weight(1e-6, np.array(small_losses)) - 2e-3
    labels = [s for lam in ages for s in (f"lam={lam} (range)", f"lam={lam}, l=1000*lam")]
    labels += [f"lam=1e-6, l={l_abs}" for l_abs in small_losses]
    check("weight_limits", 0.0, np.concatenate((per_age.ravel(), small_age)), labels.__getitem__)

    # derivative identity: central difference of latent vs weight.  Near a
    # slope break at distance d < h the central difference is off by
    # (jump) * (h - d) / (2h) while the second difference reads
    # (jump) * (h - d) / h^2, so subtracting h/2 times the measured
    # curvature absorbs breaks exactly and costs nothing where the latent
    # is smooth.
    h = 1e-4
    d_losses = np.array([np.linspace(20 * h, 8.0 * lam, 101) for lam in ages])
    d_resid = []
    for lam, ls in zip(ages, d_losses):
        f_plus = reg.latent(lam, ls + h)
        f_minus = reg.latent(lam, ls - h)
        f_mid = reg.latent(lam, ls)
        cd = (f_plus - f_minus) / (2 * h)
        curvature = np.abs(f_plus - 2 * f_mid + f_minus) / h**2
        d_resid.append(np.maximum(0.0, np.abs(cd - reg.weight(lam, ls)) - 0.5 * h * curvature))
    check("derivative_identity", 1e-4, d_resid, at_loss(d_losses))

    # conjugacy: latent equals the grid conjugate of -r_sp, shifted to 0 at l=0
    g_vals_base = np.where(finite, -rv, NEG_INFINITY)
    c_losses = np.array([loss_grid(lam, 513) for lam in ages])
    c_resid = []
    for lam, lg in zip(ages, c_losses):
        conj = concave_conjugate(SampledFunction(vgrid, lam * g_vals_base), lg)
        c_resid.append(np.abs(conj.values - conj.values[0] - reg.latent(lam, lg)))
    check("conjugacy", 1e-4, c_resid, at_loss(c_losses))

    # age scaling laws (structural under the scaling contract)
    s_resid = []
    for lam in ages:
        ls = np.linspace(0.0, 8.0 * lam, 33)
        ds = np.abs(reg.latent(lam, ls) - lam * reg.latent(1.0, ls / lam))
        dw = np.abs(reg.weight(lam, ls) - reg.weight(1.0, ls / lam))
        s_resid.append(np.concatenate((ds, dw)))
    check("scaling", 1e-10, s_resid, lambda a, _: f"lam={ages[a]}")

    return ValidationReport(tuple(checks))


# ==== tabulation for export ===================================================


def tabulate(reg: SPRegularizer, lam: float = 1.0, n: int = 513, span: float = 8.0):
    """Sample the penalty / weight / latent triple for CSV export.

    Returns a dict with keys 'penalty', 'weight', 'latent', each a pair of
    (abscissa, values) arrays.  The penalty is sampled over v in [0, 1]; the
    other two over l in [0, span * lam].
    """
    vgrid = np.linspace(0.0, 1.0, n)
    lgrid = loss_grid(lam, n, span)
    rv = _sample_or_inf(reg.r_sp_base, vgrid) * lam
    return {
        "penalty": (vgrid, rv),
        "weight": (lgrid, reg.weight(lam, lgrid)),
        "latent": (lgrid, reg.latent(lam, lgrid)),
    }
