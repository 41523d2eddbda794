"""Grid-based concave conjugacy engine.

Functions here operate on SampledFunction objects: real-valued functions
tabulated on a strictly increasing grid, with the concave convention that a
value of -inf marks points outside the effective domain.  The effective
domain must be a contiguous run of grid points, so every object represents a
proper function whose domain is an interval.

The calculus implemented on top of that representation:

  * concave_conjugate  g*(l) = inf_v { v*l - g(v) }
  * sup_convolution    (f (+) g)(x) = sup { f(x1) + g(x2) : x1 + x2 = x }
  * biconjugate        g** (the upper-semicontinuous concave hull of g)

All evaluations are exact for the piecewise-linear interpolant of the
samples: infima of affine-in-v objectives over a polyhedral function are
attained at grid vertices, so there is no discretization error beyond the
interpolant itself.  Conjugation and biconjugation go through the upper
concave hull of the samples (g* = (hull g)*) and cost O(N + M log N), after
Lucet's linear-time Legendre transform.  Sup-convolution merges slope
sequences whenever either input is concave: the other input is split into
its maximal concave runs, and each run's merge with the concave input's
hull is one piece of the result.  Only a pair of non-concave inputs falls
back to a scan over vertex splits.  Results are deterministic; no state is
shared between calls.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import BadGrid, EmptyOverlap, NonProper

NEG_INFINITY = -np.inf

# Row block size for the sup-convolution scan, keeps peak memory near 16 MB.
_BLOCK = 1024


# ==== grids ===================================================================


def loss_grid(lam: float = 1.0, n: int = 2049, span: float = 8.0) -> np.ndarray:
    """Uniform loss grid on [0, span * lam] with n points."""
    return np.linspace(0.0, span * lam, n)


def graded_unit_grid(n: int = 2049) -> np.ndarray:
    """Grid on [0, 1] refined geometrically near 0.

    One point at 0, about n/4 points in geometric progression on [1e-9, 0.05),
    and the rest uniform on [0.05, 1].  Penalties whose conjugate argmin decays
    exponentially toward v = 0 (entropy-like penalties at large losses) need
    the sub-uniform resolution near the origin; a uniform grid of the same
    size cannot place a point within ~1e-4 of such an argmin.
    """
    n_log = n // 4
    n_uni = n - n_log - 1
    log_part = np.geomspace(1e-9, 0.05, n_log, endpoint=False)
    uni_part = np.linspace(0.05, 1.0, n_uni)
    return np.concatenate(([0.0], log_part, uni_part))


# ==== sampled functions =======================================================


@dataclass(frozen=True)
class SampledFunction:
    """A function tabulated on a strictly increasing grid.

    values[i] is the function value at grid[i]; NEG_INFINITY marks points
    outside the effective domain.  At least one value must be finite and the
    finite values must form a contiguous run, so the domain is an interval.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise BadGrid("grid must be 1-D with at least 2 points")
        if not np.all(np.diff(grid) > 0):
            raise BadGrid("grid must be strictly increasing")
        if values.shape != grid.shape:
            raise BadGrid(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        if np.any(np.isnan(values)) or np.any(values == np.inf):
            raise NonProper("values must be finite or -inf")
        finite = np.isfinite(values)
        if not finite.any():
            raise NonProper("no finite value: function is identically -inf")
        idx = np.flatnonzero(finite)
        if idx[-1] - idx[0] + 1 != idx.size:
            raise NonProper("effective domain must be a contiguous grid interval")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        grid.flags.writeable = False
        values.flags.writeable = False

    # -- domain helpers --------------------------------------------------------

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    @property
    def domain_indices(self) -> tuple[int, int]:
        idx = np.flatnonzero(self.finite_mask)
        return int(idx[0]), int(idx[-1])

    @property
    def lo(self) -> float:
        return float(self.grid[self.domain_indices[0]])

    @property
    def hi(self) -> float:
        return float(self.grid[self.domain_indices[1]])

    def interp(self, x):
        """Piecewise-linear evaluation, -inf outside the effective domain."""
        xq = np.asarray(x, dtype=float)
        i0, i1 = self.domain_indices
        fg = self.grid[i0 : i1 + 1]
        fv = self.values[i0 : i1 + 1]
        if fg.size == 1:
            out = np.where(xq == fg[0], fv[0], NEG_INFINITY)
        else:
            out = np.interp(xq, fg, fv)
            out = np.where((xq < fg[0]) | (xq > fg[-1]), NEG_INFINITY, out)
        return float(out) if np.isscalar(x) else out

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_csv(cls, path) -> "SampledFunction":
        """Read a ``x,value`` CSV; the literal token ``-inf`` marks points off the domain.

        Raises ValueError with a line-numbered diagnostic on a malformed row,
        and BadGrid or NonProper when the samples do not form a SampledFunction.
        """
        grid, values = [], []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != ["x", "value"]:
                raise ValueError(f"{path}:1: expected header 'x,value', got {header}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
                try:
                    grid.append(float(row[0]))
                    values.append(float(row[1]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cls(np.array(grid), np.array(values))


def _finite_part(g: SampledFunction) -> tuple[np.ndarray, np.ndarray]:
    i0, i1 = g.domain_indices
    return g.grid[i0 : i1 + 1], g.values[i0 : i1 + 1]


# ==== conjugates ==============================================================


def _upper_hull(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the upper concave hull of samples on a strictly increasing xs.

    Samples that already form a concave sequence (no interior sample strictly
    under its neighbours' chord) are returned as they are, collinear points
    included; otherwise those samples are dropped in one vectorized pass,
    since none of them can be a hull vertex, and an O(N) monotone chain
    builds the hull of the rest.
    """
    if xs.size < 3:
        return xs, ys
    dx, dy = np.diff(xs), np.diff(ys)
    under = dy[:-1] * dx[1:] < dy[1:] * dx[:-1]
    if not under.any():
        return xs, ys
    keep = np.concatenate(([True], ~under, [True]))
    hx: list[float] = []
    hy: list[float] = []
    for x, y in zip(xs[keep].tolist(), ys[keep].tolist()):
        while len(hx) >= 2 and (hy[-1] - hy[-2]) * (x - hx[-2]) <= (y - hy[-2]) * (
            hx[-1] - hx[-2]
        ):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return np.array(hx), np.array(hy)


def concave_conjugate(g: SampledFunction, out_grid: np.ndarray) -> SampledFunction:
    """Concave conjugate g*(l) = inf_v { v*l - g(v) } on an explicit out grid.

    The infimum runs over the grid points of g's effective domain, which is
    exact for the piecewise-linear interpolant (the objective is affine in v,
    so the infimum over the interpolant is attained at a vertex).  The result
    is concave, and non-decreasing whenever g's domain lies in [0, inf).

    Runs in O(N + M log N) for N samples and M output points, after Lucet's
    linear-time Legendre transform: since g* = (hull g)*, the infimum is
    taken over the vertices of g's upper concave hull, and for slope l the
    minimizing vertex is the count of hull slopes greater than l.  This holds
    for any input, concave or not.
    """
    out_grid = np.asarray(out_grid, dtype=float)
    if out_grid.ndim != 1 or out_grid.size < 2 or not np.all(np.diff(out_grid) > 0):
        raise BadGrid("out_grid must be 1-D, strictly increasing, len >= 2")
    hx, hy = _upper_hull(*_finite_part(g))
    slopes = np.diff(hy) / np.diff(hx)  # non-increasing
    j = np.searchsorted(-slopes, -out_grid)
    return SampledFunction(out_grid, hx[j] * out_grid - hy[j])


def biconjugate(g: SampledFunction) -> SampledFunction:
    """g** on g's own grid: the closed concave hull of the samples.

    Evaluates the upper concave hull of g's finite samples, in O(N): exact,
    the identity on concave input and the concave hull otherwise.  Points
    outside g's domain stay at -inf.
    """
    xs, ys = _finite_part(g)
    i0, i1 = g.domain_indices
    out = np.full(g.grid.size, NEG_INFINITY)
    out[i0 : i1 + 1] = np.interp(xs, *_upper_hull(xs, ys))
    return SampledFunction(g.grid, out)


def _on_hull(xs: np.ndarray, ys: np.ndarray, hx: np.ndarray, hy: np.ndarray) -> bool:
    """True when every sample lies on its upper hull to 1e-12 relative."""
    gap = np.interp(xs, hx, hy) - ys
    return float(gap.max()) <= 1e-12 * (1.0 + float(np.max(np.abs(ys))))


def _concave_runs(xs: np.ndarray, ys: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split samples into maximal concave runs, each ending where the secant slope rises.

    Neighbouring runs share the vertex between them, so the interpolant of
    the samples is the pointwise max of the runs' interpolants.
    """
    rises = np.flatnonzero(np.diff(np.diff(ys) / np.diff(xs)) > 0) + 1
    ends = np.concatenate(([0], rises, [xs.size - 1]))
    return [(xs[a : b + 1], ys[a : b + 1]) for a, b in zip(ends[:-1], ends[1:])]


def _hypograph_sum(fx, fy, gx, gy) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the Minkowski sum of two concave hypographs.

    Both hulls' segments are merged by slope, largest first and f's first
    among equal slopes, starting from the sum of the left endpoints; vertex
    k sums the two hull vertices that the first k merged segments reach, so
    no rounding accumulates along the chain.  Each of f's segments lands
    after the g segments of larger slope, found by a binary search, so the
    merge costs O(N log M) past the O(N + M) vertex sums.  Both slope
    sequences are sorted first, which makes the merge that of one stable
    sort of all the slopes even where rounding leaves a hull's slopes a few
    ulps out of order.
    """
    f_down = np.sort((fy[:-1] - fy[1:]) / (fx[1:] - fx[:-1]))  # negated slopes
    g_down = np.sort((gy[:-1] - gy[1:]) / (gx[1:] - gx[:-1]))
    merged = np.arange(fx.size + gx.size - 1)
    f_at = merged[: f_down.size] + g_down.searchsorted(f_down)
    i = f_at.searchsorted(merged)  # f segments among the first k merged
    k = merged - i
    return fx[i] + gx[k], fy[i] + gy[k]


def _sup_convolution_scan(
    f: SampledFunction, g: SampledFunction, out_grid: np.ndarray
) -> np.ndarray:
    """O(N * M) sup-convolution over the vertices of both inputs."""

    def one_pass(a: SampledFunction, b: SampledFunction) -> np.ndarray:
        ax, av = _finite_part(a)
        bx, bv = _finite_part(b)
        best = np.full(out_grid.size, NEG_INFINITY)
        for start in range(0, ax.size, _BLOCK):
            axb = ax[start : start + _BLOCK]
            avb = av[start : start + _BLOCK]
            q = out_grid[None, :] - axb[:, None]
            if bx.size == 1:
                bvals = np.where(q == bx[0], bv[0], NEG_INFINITY)
            else:
                bvals = np.interp(q, bx, bv)
                bvals = np.where((q < bx[0]) | (q > bx[-1]), NEG_INFINITY, bvals)
            cand = np.max(avb[:, None] + bvals, axis=0)
            best = np.maximum(best, cand)
        return best

    return np.maximum(one_pass(f, g), one_pass(g, f))


def sup_convolution(
    f: SampledFunction, g: SampledFunction, out_grid: np.ndarray | None = None
) -> SampledFunction:
    """Supremal convolution sup { f(x1) + g(x2) : x1 + x2 = x } on out_grid.

    The result is the exact sup-convolution of the two piecewise-linear
    interpolants at each output point inside the Minkowski sum of the
    domains, and -inf outside it.  When one input lies on its upper concave
    hull to within 1e-12 * (1 + max |value|), the other is split into its
    maximal concave runs (a single run, its hull, when it is concave too).
    Sup-convolution distributes over the pointwise max of the runs, and the
    hypograph of each run's term is the Minkowski sum of the run's and the
    hull's: one merge of slope sequences, evaluated piecewise-linearly on
    the output points inside its range.  For N samples in R runs against a
    hull of M vertices that is O(N log M + R * M) vertex work, plus one
    interpolation per output point in each run's range.  Only when neither
    input is concave is every split at a vertex of either input scanned,
    O((N + M) * K) for K output points.  Raises EmptyOverlap when no output
    point admits any feasible split.
    """
    if out_grid is None:
        lo, hi = f.lo + g.lo, f.hi + g.hi
        if hi > lo:
            out_grid = np.linspace(lo, hi, max(f.grid.size, g.grid.size))
        else:
            out_grid = np.array([lo - 1.0, lo, lo + 1.0])
    out_grid = np.asarray(out_grid, dtype=float)
    if out_grid.ndim != 1 or out_grid.size < 2 or not np.all(np.diff(out_grid) > 0):
        raise BadGrid("out_grid must be 1-D, strictly increasing, len >= 2")

    fx, fy = _finite_part(f)
    gx, gy = _finite_part(g)
    fh, gh = _upper_hull(fx, fy), _upper_hull(gx, gy)
    f_on, g_on = _on_hull(fx, fy, *fh), _on_hull(gx, gy, *gh)
    if f_on or g_on:
        # (max_r f_r) (+) g = max_r (f_r (+) g), each term a hypograph sum
        if g_on:
            hull, runs = gh, [fh] if f_on else _concave_runs(fx, fy)
        else:
            hull, runs = fh, _concave_runs(gx, gy)
        vals = np.full(out_grid.size, NEG_INFINITY)
        for rx, ry in runs:
            sx, sy = _hypograph_sum(rx, ry, *hull)
            inside = slice(out_grid.searchsorted(sx[0]), out_grid.searchsorted(sx[-1], "right"))
            vals[inside] = np.maximum(vals[inside], np.interp(out_grid[inside], sx, sy))
    else:
        vals = _sup_convolution_scan(f, g, out_grid)
    if not np.isfinite(vals).any():
        raise EmptyOverlap("no feasible split at any output grid point")
    return SampledFunction(out_grid, vals)


# ==== halfspaces ==============================================================


@dataclass(frozen=True)
class Halfspace:
    """The set { v : <v, k> >= b }."""

    k: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        if k.ndim != 1 or not np.any(k != 0):
            raise ValueError("halfspace normal k must be a nonzero 1-D vector")
        b = float(self.b)
        if not (np.all(np.isfinite(k)) and np.isfinite(b)):
            raise ValueError("halfspace normal k and offset b must be finite")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "b", b)
        k.flags.writeable = False
