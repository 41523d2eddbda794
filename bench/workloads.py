"""The benchmark's three workloads: seeded inputs, the timed op, and its checks.

Each workload turns a seed into a fixed list of ops with plain NumPy (nothing
from `selfpaced.experiments`, so a change there cannot change the inputs).
`run` is the timed call into the program; `check` and `quality` run outside
the timed section and compare the output against references written here.

Every call into the program goes through a module attribute looked up at call
time (`training.spl_fit`, not a name bound at import), so the traced run's
wrappers on those attributes see every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from selfpaced import conjugacy, curriculum, regularizers, training

NOISE = 0.1
OUTLIER_SHIFT = 50.0 * NOISE  # planted outliers sit at 50x the noise level
RIDGE = 1e-3  # TrainConfig's default ridge coefficient
REGION_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One unit of timed work: its kind and the inputs the program receives."""

    kind: str
    inputs: dict


# ==== shared input generators and references ==================================


def planted_regression(rng, n, d, outlier_fraction=0.2):
    """X, y, w_true with a fraction of targets shifted by +-OUTLIER_SHIFT."""
    w_true = rng.normal(size=d)
    X = rng.normal(size=(n, d))
    y = X @ w_true + NOISE * rng.normal(size=n)
    k = int(round(outlier_fraction * n))
    idx = rng.choice(n, size=k, replace=False)
    y[idx] += OUTLIER_SHIFT * rng.choice((-1.0, 1.0), size=k)
    return X, y, w_true


def grouped_regression(rng, n, d, block, bad_fraction=0.2):
    """Like planted_regression, but whole blocks of `block` samples are shifted.

    Returns X, y, w_true and the block label of every sample; blocks are runs
    of consecutive indices.
    """
    w_true = rng.normal(size=d)
    X = rng.normal(size=(n, d))
    y = X @ w_true + NOISE * rng.normal(size=n)
    labels = np.arange(n) // block
    n_blocks = n // block
    bad = rng.choice(n_blocks, size=int(round(bad_fraction * n_blocks)), replace=False)
    hit = np.isin(labels, bad)
    y[hit] += OUTLIER_SHIFT * rng.choice((-1.0, 1.0), size=int(hit.sum()))
    return X, y, w_true, labels, hit


def ridge_reference(X, y, alpha=RIDGE, v=None):
    """argmin_w sum_i v_i (x_i.w - y_i)^2 + alpha ||w||^2 by the normal equations."""
    v = np.ones(y.size) if v is None else v
    A = X.T @ (v[:, None] * X) + alpha * np.eye(X.shape[1])
    return np.linalg.solve(A, X.T @ (v * y))


def err_ratio(w, w_ridge, w_true):
    """||w - w*|| / ||w_ridge - w*||: below 1 when the fit beats ridge."""
    return float(np.linalg.norm(w - w_true) / np.linalg.norm(w_ridge - w_true))


def digest(*arrays) -> str:
    """A hash of the exact bytes of some arrays, to compare repeated outputs."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a))
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def fit_record(state, n):
    """What an op keeps of a TrainState; the state itself is dropped at once."""
    return {
        "w": state.w.copy(),
        "v": state.v.copy(),
        "iters": len(state.iters),
        "stages": len(state.stage_starts),
        "converged": bool(state.converged),
        "history_mb": len(state.weight_history) * n * 8 / 2**20,
    }


# ==== fit-plain ===============================================================


class FitPlain:
    """One op is the work of one `selfpaced compare` seed on a planted-outlier
    set: unweighted ridge, then spl_fit (median schedule, no region) with each
    of the four catalog regularizers."""

    name = "fit-plain"
    n, d = 1000, 20
    ops_per_list = 80
    regs = ("hard", "linear", "log", "exp")

    def make_ops(self, seed):
        rng = np.random.default_rng([seed, 1])
        ops = []
        for _ in range(self.ops_per_list):
            X, y, w_true = planted_regression(rng, self.n, self.d)
            ops.append(Op("plain", {"X": X, "y": y, "w_true": w_true}))
        return ops

    def prepare(self, op):
        """Untimed per-op state: the dataset object and the ridge reference."""
        X, y = op.inputs["X"], op.inputs["y"]
        return {"dataset": training.Dataset(X, y), "w_ref": ridge_reference(X, y)}

    def run(self, op, prep):
        ds = prep["dataset"]
        w_ridge = training.w_step(np.ones(ds.n), ds, training.TrainConfig(ridge=RIDGE))
        fits = []
        for name in self.regs:
            config = training.TrainConfig(regularizer=name, schedule="median", ridge=RIDGE)
            fits.append(fit_record(training.spl_fit(ds, config), ds.n))
        return {"w_ridge": w_ridge, "fits": fits}

    def check(self, op, prep, out):
        bad = []
        w_ref = prep["w_ref"]
        if np.max(np.abs(out["w_ridge"] - w_ref)) > 1e-9 * (1.0 + np.max(np.abs(w_ref))):
            bad.append("ridge differs from the normal-equation reference")
        for name, fit in zip(self.regs, out["fits"]):
            bad += check_fit(name, fit)
        return bad

    def quality(self, op, prep, out):
        w_true = op.inputs["w_true"]
        return [err_ratio(f["w"], prep["w_ref"], w_true) for f in out["fits"]]

    def fingerprint(self, out):
        return digest(out["w_ridge"], *(a for f in out["fits"] for a in (f["w"], f["v"])))


def check_fit(label, fit):
    bad = []
    if not (np.isfinite(fit["w"]).all() and np.isfinite(fit["v"]).all()):
        bad.append(f"{label}: non-finite w or v")
    elif fit["v"].min() < 0.0 or fit["v"].max() > 1.0:
        bad.append(f"{label}: weights leave [0, 1]")
    return bad


# ==== fit-curriculum ==========================================================


class FitCurriculum:
    """One op is one exp spl_fit under a curriculum region; the region kind
    rotates groups -> chain -> halfspace -> intersection from op to op. Sizes
    per kind are chosen so the four kinds cost about the same."""

    name = "fit-curriculum"
    d = 20
    kinds = ("groups", "chain", "halfspace", "intersection")
    sizes = {"groups": 500, "chain": 130, "halfspace": 220, "intersection": 210}
    block = 10  # samples per contaminated group (groups kind)
    chain_len = 5
    ops_per_list = 128

    def make_ops(self, seed):
        rng = np.random.default_rng([seed, 2])
        ops = []
        for i in range(self.ops_per_list):
            kind = self.kinds[i % len(self.kinds)]
            n = self.sizes[kind]
            block = self.chain_len if kind == "chain" else self.block
            X, y, w_true, labels, hit = grouped_regression(rng, n, self.d, block)
            inputs = {"X": X, "y": y, "w_true": w_true, "labels": labels}
            if kind in ("halfspace", "intersection"):
                # a curator trusts a few clean samples and asks that most be admitted
                clean = rng.permutation(np.flatnonzero(~hit))
                m = n // 10
                inputs["trusted"] = [np.sort(clean[:m])]
                inputs["share"] = [0.9]
                if kind == "intersection":
                    inputs["trusted"].append(np.sort(clean[m : 2 * m]))
                    inputs["share"].append(0.8)
            ops.append(Op(kind, inputs))
        return ops

    def region(self, op):
        """The CurriculumRegion the op trains under, built from its inputs."""
        inp = op.inputs
        n = inp["y"].size
        if op.kind == "groups":
            blocks = [np.flatnonzero(inp["labels"] == g) for g in np.unique(inp["labels"])]
            return curriculum.CurriculumRegion("groups", partition=tuple(map(tuple, blocks)))
        if op.kind == "chain":
            # within every other block, earlier samples must weigh at least as much
            hs = []
            for g in range(0, n // self.chain_len, 2):
                idx = np.flatnonzero(inp["labels"] == g)
                for hi, lo in zip(idx[:-1], idx[1:]):
                    k = np.zeros(n)
                    k[hi], k[lo] = 1.0, -1.0
                    hs.append(conjugacy.Halfspace(k, 0.0))
            return curriculum.CurriculumRegion("intersection", tuple(hs))
        hs = []
        for trusted, share in zip(inp["trusted"], inp["share"]):
            k = np.zeros(n)
            k[trusted] = 1.0
            hs.append(conjugacy.Halfspace(k, share * trusted.size))
        return curriculum.CurriculumRegion(op.kind, tuple(hs))

    def prepare(self, op):
        X, y = op.inputs["X"], op.inputs["y"]
        region = self.region(op)
        return {
            "dataset": training.Dataset(X, y),
            "config": training.TrainConfig(regularizer="exp", ridge=RIDGE, region=region),
            "w_ref": ridge_reference(X, y),
        }

    def run(self, op, prep):
        ds = prep["dataset"]
        return {"fits": [fit_record(training.spl_fit(ds, prep["config"]), ds.n)]}

    def check(self, op, prep, out):
        fit = out["fits"][0]
        bad = check_fit(op.kind, fit)
        if bad:
            return bad
        v, region = fit["v"], prep["config"].region
        if op.kind == "groups":
            for block in region.partition:
                vb = v[list(block)]
                if vb.max() - vb.min() > 1e-12:
                    return [f"groups: block weights differ by {vb.max() - vb.min():.3g}"]
            return []
        for h in region.halfspaces:
            slack = float(v @ h.k) - h.b
            if slack < -REGION_TOL:
                bad.append(f"{op.kind}: halfspace violated by {-slack:.3g}")
        return bad

    def quality(self, op, prep, out):
        return [err_ratio(out["fits"][0]["w"], prep["w_ref"], op.inputs["w_true"])]

    def fingerprint(self, out):
        return digest(out["fits"][0]["w"], out["fits"][0]["v"])


# ==== design-validate =========================================================


def _exp_penalty(v):
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = v * np.log(np.where(v > 0, v, 1.0)) - v + 1.0
    return np.where((v < 0) | (v > 1), np.inf, np.where(v > 0, inner, 1.0))


def _bump(x, height, center, width):
    return height * np.exp(-(((x - center) / width) ** 2))


class DesignValidate:
    """One op is one regularizer proposal: build it (design pipelines for two
    of the four kinds), validate it, then run the conjugacy engine on it:
    biconjugate of its negated sampled penalty plus a bump, and the
    sup-convolution of its latent with the exp latent.

    Proposal kinds cycle weight -> penalty -> catalog -> nonconvex; the
    nonconvex one must be rejected by the convexity check."""

    name = "design-validate"
    kinds = ("weight", "penalty", "catalog", "nonconvex")
    points = 1025  # samples of every function handed to the conjugacy engine
    ops_per_list = 128
    # planted-outlier sets for the reweighting check that gives err_vs_ridge
    quality_sets, quality_n, quality_d = 4, 400, 5

    def make_ops(self, seed):
        rng = np.random.default_rng([seed, 3])
        names = [r.name for r in regularizers.catalog()]
        ops = []
        for i in range(self.ops_per_list):
            kind = self.kinds[i % len(self.kinds)]
            if kind == "weight":  # w(l) = (1 + l/a)^-p: tail below 1e-3 at l = 8
                inputs = {"a": rng.uniform(0.5, 1.5), "p": rng.uniform(4.0, 8.0)}
            elif kind == "penalty":  # c |1-v|^q / q + (1-c) (v log v - v + 1)
                inputs = {"c": rng.uniform(0.2, 0.8), "q": rng.uniform(2.0, 3.0)}
            elif kind == "catalog":
                inputs = {"entry": names[int(rng.integers(len(names)))]}
            else:  # the exp penalty with a dent: not convex
                inputs = {"dent": (rng.uniform(0.1, 0.3), rng.uniform(0.3, 0.7), 0.05)}
            inputs["bump"] = (rng.uniform(0.05, 0.2), rng.uniform(0.2, 0.8), 0.05)
            sets = [
                planted_regression(rng, self.quality_n, self.quality_d)
                for _ in range(self.quality_sets)
            ]
            inputs.update(X=[s[0] for s in sets], y=[s[1] for s in sets], w_true=[s[2] for s in sets])
            ops.append(Op(kind, inputs))
        return ops

    def prepare(self, op):
        exp = regularizers.get_regularizer("exp")
        lgrid = np.linspace(0.0, 8.0, self.points)
        return {
            "exp_latent": conjugacy.SampledFunction(lgrid, exp.latent(1.0, lgrid)),
            "w_ref": [ridge_reference(X, y) for X, y in zip(op.inputs["X"], op.inputs["y"])],
        }

    def propose(self, op):
        inp = op.inputs
        if op.kind == "weight":
            a, p = inp["a"], inp["p"]
            return regularizers.design_from_weight(lambda l: (1.0 + l / a) ** -p)
        if op.kind == "penalty":
            c, q = inp["c"], inp["q"]
            return regularizers.design_from_regularizer(
                lambda v: c * np.abs(1.0 - v) ** q / q + (1.0 - c) * _exp_penalty(v)
            )
        if op.kind == "catalog":
            return regularizers.get_regularizer(inp["entry"])
        exp = regularizers.get_regularizer("exp")
        dent = inp["dent"]
        return regularizers.SPRegularizer(
            "nonconvex",
            lambda v: _exp_penalty(np.asarray(v, dtype=float)) - _bump(np.asarray(v), *dent),
            exp.weight_base,
            exp.latent_base,
        )

    def run(self, op, prep):
        reg = self.propose(op)
        report = regularizers.validate_sp_regularizer(reg)
        vgrid = np.linspace(0.0, 1.0, self.points)
        with np.errstate(invalid="ignore"):
            neg_r = -np.asarray(reg.r_sp_base(vgrid), dtype=float)
        g = conjugacy.SampledFunction(
            vgrid, np.where(np.isfinite(neg_r), neg_r + _bump(vgrid, *op.inputs["bump"]), -np.inf)
        )
        hull = conjugacy.biconjugate(g)
        lgrid = prep["exp_latent"].grid
        latent = conjugacy.SampledFunction(lgrid, reg.latent(1.0, lgrid))
        conv = conjugacy.sup_convolution(latent, prep["exp_latent"])
        return {"reg": reg, "report": report, "g": g, "hull": hull, "latent": latent, "conv": conv}

    def check(self, op, prep, out):
        bad = []
        report = out["report"]
        failed = [c.name for c in report.failures()]
        if op.kind == "nonconvex":
            if report.verdict or "convexity" not in failed:
                bad.append(f"nonconvex proposal not rejected for convexity (failed: {failed})")
        elif not report.verdict:
            bad.append(f"{op.kind} proposal rejected: {failed}")
        bad += check_biconjugate(out["g"], out["hull"])
        bad += check_sup_convolution(out["latent"], prep["exp_latent"], out["conv"])
        return bad

    def quality(self, op, prep, out):
        """err_vs_ridge of one self-paced reweighting step with the proposal.

        Weights are the proposal's weight function at the ridge residuals,
        with the age at their median; only accepted proposals count.
        """
        if not out["report"].verdict:
            return []
        ratios = []
        for X, y, w_ref, w_true in zip(op.inputs["X"], op.inputs["y"], prep["w_ref"], op.inputs["w_true"]):
            losses = (X @ w_ref - y) ** 2
            v = np.asarray(out["reg"].weight(float(np.median(losses)), losses), dtype=float)
            ratios.append(err_ratio(ridge_reference(X, y, v=v), w_ref, w_true))
        return ratios

    def fingerprint(self, out):
        report = out["report"]
        verdict = np.array([c.passed for c in report.checks] + [c.residual for c in report.checks])
        return digest(verdict, out["hull"].values, out["conv"].values)


# ==== independent references for the conjugacy engine ========================


def upper_hull(x, y):
    """Vertices of the upper concave hull of points sorted by x (monotone chain)."""
    hx, hy = [], []
    for xi, yi in zip(x.tolist(), y.tolist()):
        while len(hx) >= 2 and (hy[-1] - hy[-2]) * (xi - hx[-2]) <= (yi - hy[-2]) * (
            hx[-1] - hx[-2]
        ):
            hx.pop()
            hy.pop()
        hx.append(xi)
        hy.append(yi)
    return np.array(hx), np.array(hy)


def check_biconjugate(g, hull):
    """The biconjugate is concave, lies on or above g, and equals g's upper hull.

    The program conjugates through a finite slope grid: every secant slope of
    g plus len(grid) evenly spaced ones. The value at x can then exceed the
    hull by at most (slope gap) * (x - v), where v is the hull vertex the
    nearest grid slope picks out, so (slope gap) * (domain width) bounds it.
    """
    finite = np.isfinite(g.values)
    x, y = g.grid[finite], g.values[finite]
    h = hull.values[finite]
    if not np.isfinite(hull.values[finite]).all() or np.isfinite(hull.values[~finite]).any():
        return ["biconjugate: domain differs from the input's"]
    scale = 1.0 + float(np.max(np.abs(y)))
    bad = []
    slopes = np.diff(h) / np.diff(x)
    if np.any(np.diff(slopes) > 1e-7 * (1.0 + np.abs(slopes[1:]))):
        bad.append("biconjugate: not concave")
    if np.any(h < y - 1e-9 * scale):
        bad.append("biconjugate: below the input")
    hx, hy = upper_hull(x, y)
    ref = np.interp(x, hx, hy)
    secants = np.diff(y) / np.diff(x)
    gap = (secants.max() - secants.min()) / (g.grid.size - 1)
    tol = gap * (x[-1] - x[0]) + 1e-9 * scale
    err = float(np.max(np.abs(h - ref)))
    if err > tol:
        bad.append(f"biconjugate: differs from the upper hull by {err:.3g} > {tol:.3g}")
    return bad


def check_sup_convolution(f, g, conv, samples=16):
    """At evenly spaced output points, compare with a brute-force max over splits.

    The max of f(x1) + g(x - x1) over a piecewise-linear split is attained at a
    vertex of f or of g, so both vertex sets are tried.
    """
    fx, fv = f.grid[np.isfinite(f.values)], f.values[np.isfinite(f.values)]
    gx, gv = g.grid[np.isfinite(g.values)], g.values[np.isfinite(g.values)]
    picks = np.linspace(0, conv.grid.size - 1, samples).round().astype(int)
    worst = 0.0
    for i in picks:
        x = conv.grid[i]
        best = -np.inf
        for ax, av, bx, bv in ((fx, fv, gx, gv), (gx, gv, fx, fv)):
            rest = x - ax
            inside = (rest >= bx[0]) & (rest <= bx[-1])
            if inside.any():
                best = max(best, float(np.max(av[inside] + np.interp(rest[inside], bx, bv))))
        worst = max(worst, abs(best - conv.values[i]) / (1.0 + abs(best)))
    return [f"sup_convolution: differs from brute force by {worst:.3g}"] if worst > 1e-9 else []


WORKLOADS = {w.name: w for w in (FitPlain(), FitCurriculum(), DesignValidate())}
