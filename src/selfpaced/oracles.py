"""Slow reference oracles used to certify the fast module paths.

Everything here favours obviousness over speed: plain Python loops, no
shared code with the vectorized implementations, deterministic output for a
given seed.  Intended for tests and spot checks on problems of dimension
at most 3.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .conjugacy import NEG_INFINITY, SampledFunction
from .errors import DimensionMismatch, DomainEdge, EmptyFeasible


@dataclass(frozen=True)
class GridSpec:
    """Dense evaluation grid: one (lo, hi, count) triple per axis."""

    axes: tuple
    tolerance: float = 0.0

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


def finite_diff(fn, x: float, h: float = 1e-4) -> float:
    """Central difference derivative estimate, one-sided at domain edges.

    Falls back to a one-sided stencil (and emits a DomainEdge warning) when
    fn is non-finite or raises on one side of x.
    """

    def try_eval(z):
        try:
            v = float(fn(z))
        except Exception:
            return None
        return v if math.isfinite(v) else None

    fp, fm = try_eval(x + h), try_eval(x - h)
    if fp is not None and fm is not None:
        return (fp - fm) / (2 * h)
    f0 = try_eval(x)
    if f0 is None:
        raise EmptyFeasible(f"fn not finite at x={x}")
    if fp is not None:
        warnings.warn(f"one-sided forward difference at x={x}", DomainEdge)
        return (fp - f0) / h
    if fm is not None:
        warnings.warn(f"one-sided backward difference at x={x}", DomainEdge)
        return (f0 - fm) / h
    raise EmptyFeasible(f"fn not finite on either side of x={x}")


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
