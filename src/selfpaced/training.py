"""Self-paced training: alternating minimization with age schedules.

The training objective couples model parameters w with per-sample weights v:

    E(w, v; lam) = <v, l(w)> + lam * sum_i r_sp_base(v_i) + alpha * ||w||^2

and is solved by alternation: the v-step minimizes over weights (optionally
inside a curriculum region), the w-step solves the weighted model fit.  The
v-step and its routes live in curriculum, next to the regions; this module
re-exports v_step.  The age parameter lam grows across stages following a
schedule, admitting harder samples over time.  The same problem has an
equivalent unweighted form

    G(w) = sum_i latent(lam, l_i(w)) + alpha * ||w||^2

whose gradient weights samples by weight(lam, l_i); the reference
oracles.latent_descent_fit minimizes G directly and cross-checks fixed points
of the alternating scheme.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

# affine_action and weight_extended are unused here: bench/tracer.py wraps them
# as training attributes, and v_step as the one spl_fit and gradient_norm call
from .curriculum import CurriculumRegion, affine_action, v_step, weight_extended  # noqa: F401
from .errors import BadFractions, BadLabels, BadParam, SingularSystem
from .regularizers import SPRegularizer, get_regularizer


# ==== dataset =================================================================


@dataclass(frozen=True)
class Dataset:
    """A fixed design matrix (n, d) and targets (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
            raise BadParam(f"need X (n, d) and y (n,), got {X.shape} and {y.shape}")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise BadParam("dataset needs at least one sample and one feature")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise BadParam("dataset entries must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def load_dataset_csv(path) -> Dataset:
    """Read a dataset from CSV: feature columns, then the target column.

    The header row is mandatory.  The last column is the target, all others
    are features in file order.  Raises ValueError with a file:line
    diagnostic on malformed input.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}:1: empty file, expected a header row") from None
        ncol = len(header)
        if ncol < 2:
            raise ValueError(f"{path}:1: need at least one feature and a target column")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncol:
                raise ValueError(
                    f"{path}:{lineno}: expected {ncol} fields, got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    return Dataset(data[:, :-1], data[:, -1])


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the format load_dataset_csv reads back.

    Columns x0..x{d-1}, then y.  Floats use repr so a write/read round trip
    is exact; LF line endings.
    """
    header = [f"x{j}" for j in range(dataset.d)] + ["y"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(dataset.n):
            cells = [repr(float(x)) for x in dataset.X[i]] + [repr(float(dataset.y[i]))]
            fh.write(",".join(cells) + "\n")


# ==== configuration ===========================================================


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the data.

    schedule is one of:
      'median'   start with an age admitting about half the samples, then
                 multiply by `growth` each stage, for at most `stages`
                 stages, stopping early once every weight reaches
                 `full_weight_threshold`
      'portion'  at stage t, set the age to the loss quantile at
                 fractions[t] so about that portion of samples is admitted
      'fixed'    a single stage at age `lam`
    """

    regularizer: str = "hard"
    schedule: str = "median"
    lam: float | None = None
    fractions: tuple = ()
    growth: float = 1.3
    stages: int = 16
    ridge: float = 1e-3
    loss: str = "squared"
    region: CurriculumRegion = field(default_factory=lambda: CurriculumRegion("none"))
    max_inner: int = 200
    inner_tol: float = 1e-9
    grad_tol: float = 1e-7
    full_weight_threshold: float = 0.99

    def __post_init__(self):
        get_regularizer(self.regularizer)  # BadParam unless a catalog name
        if self.schedule not in ("median", "portion", "fixed"):
            raise BadParam(f"unknown schedule {self.schedule!r}")
        if self.loss not in ("squared", "logistic"):
            raise BadParam(f"unknown loss {self.loss!r}")
        if not (0 < self.inner_tol < math.inf and 0 < self.grad_tol < math.inf):
            raise BadParam("tolerances must be finite and positive")
        if not 1.0 < self.growth < math.inf:
            raise BadParam("growth factor must be finite and exceed 1")
        if self.stages < 1 or self.max_inner < 1:
            raise BadParam("stages and max_inner must be at least 1")
        if not 0 <= self.ridge < math.inf:
            raise BadParam("ridge coefficient must be finite and nonnegative")
        if not 0 < self.full_weight_threshold <= 1:
            raise BadParam("full_weight_threshold must lie in (0, 1]")
        lam_ok = isinstance(self.lam, numbers.Real) and 0 < self.lam < math.inf
        if self.lam is not None and not lam_ok:
            raise BadParam("age parameter lam must be finite and positive")
        if self.schedule == "fixed" and self.lam is None:
            raise BadParam("fixed schedule requires lam")
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        if self.schedule == "portion":
            validate_fractions(self.fractions)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise BadParam(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        if "region" in kwargs and not isinstance(kwargs["region"], CurriculumRegion):
            kwargs["region"] = CurriculumRegion.from_dict(kwargs["region"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["fractions"] = list(self.fractions)
        d["region"] = self.region.to_dict()
        return d


def validate_fractions(fractions: Sequence[float]):
    fr = tuple(float(f) for f in fractions)
    if len(fr) == 0:
        raise BadFractions("portion schedule needs at least one fraction")
    if any(not (0.0 < f <= 1.0) for f in fr):
        raise BadFractions(f"fractions must lie in (0, 1], got {fr}")
    if any(b <= a for a, b in zip(fr, fr[1:])):
        raise BadFractions(f"fractions must be strictly increasing, got {fr}")
    return fr


# ==== losses ==================================================================


def loss_vector(w: np.ndarray, dataset: Dataset, kind: str = "squared") -> np.ndarray:
    """Per-sample losses: squared residuals, or the logistic loss for +-1 labels."""
    scores = dataset.X @ np.asarray(w, dtype=float)
    if kind == "squared":
        return (scores - dataset.y) ** 2
    if kind == "logistic":
        y = dataset.y
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise BadLabels("logistic loss requires labels in {-1, +1}")
        return np.logaddexp(0.0, -y * scores)
    raise BadParam(f"unknown loss kind {kind!r}")


def _loss_slopes(w: np.ndarray, dataset: Dataset, kind: str) -> np.ndarray:
    """Derivative of each per-sample loss in its score x_i . w, shape (n,)."""
    scores = dataset.X @ np.asarray(w, dtype=float)
    if kind == "squared":
        return 2.0 * (scores - dataset.y)
    if kind == "logistic":
        y = dataset.y
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise BadLabels("logistic loss requires labels in {-1, +1}")
        return -y / (1.0 + np.exp(y * scores))  # -y * sigmoid(-y * score)
    raise BadParam(f"unknown loss kind {kind!r}")


# ==== the w-step ==============================================================


def w_step(v: np.ndarray, dataset: Dataset, config: TrainConfig) -> np.ndarray:
    """Minimize <v, l(w)> + ridge * ||w||^2 over w for fixed weights v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (dataset.n,):
        raise BadParam(f"weights shape {v.shape} does not match {dataset.n} samples")
    if config.loss == "squared":
        return _weighted_ridge(v, dataset, config.ridge)
    return _weighted_logistic(v, dataset, config.ridge)


def _weighted_ridge(v: np.ndarray, dataset: Dataset, alpha: float) -> np.ndarray:
    X, y = dataset.X, dataset.y
    A = X.T @ (v[:, None] * X) + alpha * np.eye(dataset.d)
    b = X.T @ (v * y)
    try:
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise SingularSystem(
            "weighted normal equations are singular (zero ridge with rank-deficient "
            "weighted design)"
        ) from None
    if not np.isfinite(w).all():
        raise SingularSystem("weighted normal equations produced non-finite solution")
    return w


def _weighted_logistic(v: np.ndarray, dataset: Dataset, alpha: float) -> np.ndarray:
    X, y = dataset.X, dataset.y
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise BadLabels("logistic loss requires labels in {-1, +1}")

    def objective(w):
        return float(v @ np.logaddexp(0.0, -y * (X @ w)) + alpha * (w @ w))

    w = np.zeros(dataset.d)
    obj = objective(w)
    for _ in range(100):
        scores = X @ w
        sig = 1.0 / (1.0 + np.exp(y * scores))
        grad = X.T @ (v * (-y) * sig) + 2.0 * alpha * w
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-8:
            break
        curv = v * sig * (1.0 - sig)
        H = X.T @ (curv[:, None] * X) + 2.0 * alpha * np.eye(dataset.d)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            raise SingularSystem("logistic Newton system is singular") from None
        t = 1.0
        while t > 1e-12:
            cand = w - t * step
            cand_obj = objective(cand)
            if cand_obj <= obj - 1e-4 * t * float(grad @ step):
                w, obj = cand, cand_obj
                break
            t *= 0.5
        else:
            break  # no productive step left; gradient is numerically flat
    return w


# ==== age schedules ===========================================================


def _midpoint_above(sorted_losses: np.ndarray, count: int) -> float:
    """A level with `count` sorted losses strictly below it, tie-tolerant.

    Returns the midpoint between order statistics count and count+1; when
    they tie, moves to the next distinct value (admitting more samples,
    documented), and when no distinct value remains, a level just above the
    maximum.
    """
    n = sorted_losses.size
    if count <= 0:
        lo = float(sorted_losses[0])
        return lo / 2.0 if lo > 0 else 1e-12
    anchor = float(sorted_losses[count - 1])
    above = sorted_losses[count:]
    distinct = above[above > anchor * (1.0 + 1e-12) + 1e-300]
    if distinct.size:
        return 0.5 * (anchor + float(distinct[0]))
    return anchor * (1.0 + 1e-6) + 1e-12 if anchor > 0 else 1e-12


def median_schedule(
    losses: np.ndarray,
    reg: SPRegularizer,
    prev_lam: float | None = None,
    growth: float = 1.3,
) -> float:
    """Median-start geometric age schedule.

    The first call picks the age so that the ceil(n/2) smallest losses get
    weight above 1e-6: the midpoint between the straddling order statistics,
    divided by the regularizer's weight support radius `reg.support_radius`.
    Later calls multiply the previous age by the growth factor.
    """
    if prev_lam is not None:
        return float(prev_lam) * float(growth)
    losses = np.sort(np.asarray(losses, dtype=float))
    m = math.ceil(losses.size / 2)
    level = _midpoint_above(losses, m)
    if reg.support_radius <= 0:
        raise BadParam("regularizer weight vanishes everywhere; cannot set an age")
    return level / reg.support_radius


def portion_schedule(
    losses: np.ndarray, fraction: float, prev_lam: float | None = None
) -> float:
    """Quantile age schedule: the age sits at the loss quantile of `fraction`.

    Exactly floor(fraction * n) samples fall strictly below the returned
    age (more on ties, documented).  The sequence is forced non-decreasing
    against prev_lam since losses move between stages.
    """
    validate_fractions((fraction,))
    losses = np.sort(np.asarray(losses, dtype=float))
    count = math.floor(fraction * losses.size)
    level = _midpoint_above(losses, count)
    if prev_lam is not None:
        return max(float(prev_lam), level)
    return level


# ==== objectives ==============================================================


def sp_penalty_sum(reg: SPRegularizer, lam: float, v: np.ndarray) -> float:
    """lam * sum_i r_sp_base(v_i) with weights clipped into the unit box."""
    vals = np.asarray(reg.r_sp_base(np.asarray(v, dtype=float).clip(0.0, 1.0)))
    return lam * float(vals.sum())


def full_objective(
    v: np.ndarray,
    l: np.ndarray,
    lam: float,
    reg: SPRegularizer,
    alpha: float,
    w: np.ndarray,
    penalty: float | None = None,
) -> float:
    """The joint objective <v, l> + lam * sum r(v_i) + alpha * ||w||^2.

    `penalty`, when given, is sp_penalty_sum(reg, lam, v), already computed.
    """
    if penalty is None:
        penalty = sp_penalty_sum(reg, lam, v)
    return float(v @ l) + penalty + alpha * float(w @ w)


def latent_objective(
    v: np.ndarray,
    l: np.ndarray,
    lam: float,
    reg: SPRegularizer,
    alpha: float,
    w: np.ndarray,
    penalty: float | None = None,
) -> float:
    """The unweighted-form objective G(w) evaluated through minimizing weights.

    For v attaining the v-step minimum this equals
    sum_i latent(lam, l_i) + alpha * ||w||^2 (with the curriculum-constrained
    latent when a region is active), by the normalization
    latent = min_v {<v, l> + lam sum r} - n * lam * min r.
    """
    return (
        full_objective(v, l, lam, reg, alpha, w, penalty)
        - l.size * lam * reg.r_base_min
    )


def gradient_norm(
    w: np.ndarray, dataset: Dataset, config: TrainConfig, lam: float, reg: SPRegularizer
) -> float:
    """||grad G(w)||_2 where G weights each loss gradient by the minimizing v."""
    l = loss_vector(w, dataset, config.loss)
    v = v_step(l, lam, reg, config.region)
    return float(np.linalg.norm(_latent_gradient(w, v, dataset, config)))


def _latent_gradient(
    w: np.ndarray, v: np.ndarray, dataset: Dataset, config: TrainConfig
) -> np.ndarray:
    """grad G(w) = X^T (dl/dscore * v) + 2 ridge w, for the minimizing weights v at w."""
    slopes = _loss_slopes(w, dataset, config.loss)
    return dataset.X.T @ (slopes * v) + 2.0 * config.ridge * w


# ==== train state =============================================================


@dataclass
class TrainState:
    """Mutable record of a training run and its per-iteration traces."""

    w: np.ndarray
    v: np.ndarray
    lam: float
    losses: np.ndarray
    iters: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)
    spl_objectives: list = field(default_factory=list)
    latent_objectives: list = field(default_factory=list)
    weight_history: list = field(default_factory=list)
    stage_starts: list = field(default_factory=list)
    converged: bool = True
    grad_norm: float | None = None

    def record(self, lam: float, spl_obj: float, latent_obj: float, v: np.ndarray):
        self.iters.append(len(self.iters))
        self.lambdas.append(float(lam))
        self.spl_objectives.append(float(spl_obj))
        self.latent_objectives.append(float(latent_obj))
        self.weight_history.append(np.asarray(v, dtype=float).copy())

    def to_dict(self) -> dict:
        return {
            "w": [float(x) for x in self.w],
            "v": [float(x) for x in self.v],
            "lambda": float(self.lam),
            "losses": [float(x) for x in self.losses],
            "converged": bool(self.converged),
            "iterations": len(self.iters),
            "stage_starts": [
                {"iter": int(i), "lambda": float(l)} for i, l in self.stage_starts
            ],
            "grad_norm": None if self.grad_norm is None else float(self.grad_norm),
            "trace": {
                "iter": [int(i) for i in self.iters],
                "lambda": [float(x) for x in self.lambdas],
                "spl_objective": [float(x) for x in self.spl_objectives],
                "latent_objective": [float(x) for x in self.latent_objectives],
            },
        }

    def write_trace_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("iter,lambda,spl_objective,latent_objective\n")
            for i, lam, e, g in zip(
                self.iters, self.lambdas, self.spl_objectives, self.latent_objectives
            ):
                fh.write(f"{i},{float(lam)!r},{float(e)!r},{float(g)!r}\n")


# ==== the alternating solver ==================================================


def spl_fit(dataset: Dataset, config: TrainConfig) -> TrainState:
    """Alternating minimization over weights and parameters with an age schedule.

    Starts from the unweighted fit, then per stage alternates the v-step and
    w-step until the joint objective decreases by less than inner_tol or
    max_inner iterations pass.  The alternation majorizes and minimizes the
    latent objective G, so every two steps w0 -> w1 -> w2 are followed by
    the squared extrapolation of Varadhan & Roland (SQUAREM, 2008): with
    r = w1 - w0, s = w2 - 2 w1 + w0 and a = max(1, ||r|| / ||s||), the stage
    moves on from x = w0 + 2a r + a^2 s instead of w2 only when
    G(x) < G(w2).  Only the alternating steps are recorded, so the
    latent-objective trace is non-increasing within any fixed stage.  After
    the last stage it keeps alternating at the final age until the
    unweighted-form gradient reaches grad_tol, so the returned parameters
    are a genuine stationary point (cap: 10 * max_inner extra iterations).
    `converged` is False when any stage or the polish hits its cap.
    """
    reg = get_regularizer(config.regularizer)
    alpha = config.ridge
    region = config.region.warm_copy()  # multipliers live for this fit only

    w = w_step(np.ones(dataset.n), dataset, config)
    losses = loss_vector(w, dataset, config.loss)
    state = TrainState(w=w, v=np.ones(dataset.n), lam=1.0, losses=losses)

    def weigh(lam: float, l: np.ndarray) -> tuple:
        """The v-step at losses l and its penalty sum."""
        v = v_step(l, lam, reg, region)
        return v, sp_penalty_sum(reg, lam, v)

    def alternate(lam: float, weighed: tuple | None = None) -> float:
        """One v-step and w-step at fixed age, recorded; returns the joint objective.

        `weighed` is weigh(lam, losses) when the caller already has it.
        """
        nonlocal w, losses
        v, penalty = weighed or weigh(lam, losses)  # the same v enters both objectives
        latent_val = latent_objective(v, losses, lam, reg, alpha, w, penalty)
        w = w_step(v, dataset, config)
        losses = loss_vector(w, dataset, config.loss)
        obj = full_objective(v, losses, lam, reg, alpha, w, penalty)
        state.record(lam, obj, latent_val, v)
        state.v = v
        return obj

    def extrapolate(lam: float, w0: np.ndarray, w1: np.ndarray) -> tuple:
        """Move from w2 = w to the SQUAREM point if G is lower there.

        Returns weigh() at the point kept, for the next alternate.
        """
        nonlocal w, losses
        kept = weigh(lam, losses)
        r = w1 - w0
        s = w - 2.0 * w1 + w0
        norm_r, norm_s = float(np.linalg.norm(r)), float(np.linalg.norm(s))
        if norm_r <= norm_s:  # a = 1 puts x at w2
            return kept
        a = norm_r / norm_s
        x = w0 + 2.0 * a * r + a * a * s
        lx = loss_vector(x, dataset, config.loss)
        trial = weigh(lam, lx)
        gx = latent_objective(trial[0], lx, lam, reg, alpha, x, trial[1])
        if gx < latent_objective(kept[0], losses, lam, reg, alpha, w, kept[1]):
            w, losses = x, lx
            return trial
        return kept

    def run_stage(lam: float) -> bool:
        """Alternate at fixed age with extrapolation; True if the inner loop converged."""
        prev_obj = None
        weighed = None
        pair = []  # the parameters the current two alternating steps start from
        for _ in range(config.max_inner):
            if len(pair) == 2:
                weighed = extrapolate(lam, *pair)
                pair = []
            pair.append(w)
            obj = alternate(lam, weighed)
            weighed = None
            if prev_obj is not None and prev_obj - obj < config.inner_tol:
                return True
            prev_obj = obj
        return False

    inner_ok = True
    lam = None
    if config.schedule == "fixed":
        lam = float(config.lam)
        state.stage_starts.append((len(state.iters), lam))
        inner_ok = run_stage(lam)
    elif config.schedule == "median":
        lam = median_schedule(losses, reg)
        for stage in range(config.stages):
            state.stage_starts.append((len(state.iters), lam))
            inner_ok &= run_stage(lam)
            if float(np.min(state.v)) >= config.full_weight_threshold:
                break
            if stage + 1 < config.stages:
                lam = median_schedule(losses, reg, prev_lam=lam, growth=config.growth)
    else:  # portion
        prev = None
        for f in config.fractions:
            lam = portion_schedule(losses, f, prev_lam=prev)
            state.stage_starts.append((len(state.iters), lam))
            inner_ok &= run_stage(lam)
            prev = lam

    # polish: alternate at the final age until the unweighted-form gradient
    # is small, so fixed points are stationary points of G; the v-step taken
    # for each gradient feeds the next alternate
    polish_ok = True
    weighed = weigh(lam, losses)
    gnorm = float(np.linalg.norm(_latent_gradient(w, weighed[0], dataset, config)))
    extra = 0
    while gnorm > config.grad_tol:
        if extra >= 10 * config.max_inner:
            polish_ok = False
            break
        alternate(lam, weighed)
        extra += 1
        weighed = weigh(lam, losses)
        gnorm = float(np.linalg.norm(_latent_gradient(w, weighed[0], dataset, config)))

    state.w = w
    state.losses = losses
    state.lam = float(lam)
    state.v = weighed[0]
    state.converged = bool(inner_ok and polish_ok)
    state.grad_norm = gnorm
    return state
