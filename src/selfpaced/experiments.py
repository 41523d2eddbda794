"""Seeded synthetic experiments: robustness of self-paced fits to outliers.

make_regression plants gross target outliers in an otherwise easy linear
problem; run_compare fits unweighted ridge and self-paced variants on a
range of seeds and reports parameter errors ||w_hat - w_true||_2 per seed.
All randomness flows from explicit seeds through numpy Generators, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParam
from .training import Dataset, TrainConfig, spl_fit, w_step


@dataclass(frozen=True)
class SuiteConfig:
    """Parameters of the synthetic comparison suite."""

    n: int = 100
    d: int = 5
    noise: float = 0.1
    outlier_fraction: float = 0.2
    outlier_scale: float = 50.0  # outlier magnitude in units of the noise level
    seeds: tuple = tuple(range(10))
    ridge: float = 1e-3
    stages: int = 16
    growth: float = 1.3
    regularizers: tuple = ("hard", "exp")

    def __post_init__(self):
        if self.n < 2 or self.d < 1:
            raise BadParam("suite needs n >= 2 samples and d >= 1 features")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise BadParam("outlier fraction must lie in [0, 1)")
        if not (0 <= self.noise < math.inf and 0 <= self.outlier_scale < math.inf):
            raise BadParam("noise and outlier scale must be finite and nonnegative")
        if len(self.seeds) == 0:
            raise BadParam("need at least one seed")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "regularizers", tuple(self.regularizers))
        for name in self.regularizers:
            _train_config(self, name, clean=False)  # BadParam on a bad name, growth, ridge, stages


def make_regression(
    n: int = 100,
    d: int = 5,
    noise: float = 0.1,
    outlier_fraction: float = 0.2,
    outlier_scale: float = 50.0,
    seed: int = 0,
):
    """A linear regression task with planted gross outliers.

    Targets are X @ w_true + noise * eps; a fixed fraction of samples gets
    an extra shift of outlier_scale * noise with random sign.  Returns
    (dataset, w_true, outlier_indices); outlier indices are sorted.
    """
    rng = np.random.default_rng(seed)
    w_true = rng.normal(size=d)
    X = rng.normal(size=(n, d))
    y = X @ w_true + noise * rng.normal(size=n)
    k = int(round(outlier_fraction * n))
    idx = np.sort(rng.choice(n, size=k, replace=False)) if k else np.array([], dtype=int)
    if k:
        signs = rng.choice((-1.0, 1.0), size=k)
        y[idx] += outlier_scale * noise * signs
    return Dataset(X, y), w_true, idx


def _train_config(suite: SuiteConfig, reg_name: str, clean: bool) -> TrainConfig:
    """Per-regularizer config; the clean case grows the age until weights
    are essentially full so the fit coincides with ridge."""
    return TrainConfig(
        regularizer=reg_name,
        schedule="median",
        growth=suite.growth,
        stages=200 if clean else suite.stages,
        ridge=suite.ridge,
        full_weight_threshold=1.0 - 1e-9 if clean else TrainConfig.full_weight_threshold,
    )


def compare_once(suite: SuiteConfig, seed: int) -> dict:
    """Fit ridge and each self-paced variant on one seed; report errors."""
    dataset, w_true, outliers = make_regression(
        suite.n, suite.d, suite.noise, suite.outlier_fraction, suite.outlier_scale, seed
    )
    base = TrainConfig(ridge=suite.ridge)
    w_ridge = w_step(np.ones(dataset.n), dataset, base)
    row = {
        "seed": int(seed),
        "n_outliers": int(outliers.size),
        "ridge_error": float(np.linalg.norm(w_ridge - w_true)),
    }
    clean = outliers.size == 0
    for reg_name in suite.regularizers:
        config = _train_config(suite, reg_name, clean)
        state = spl_fit(dataset, config)
        err = float(np.linalg.norm(state.w - w_true))
        row[f"{reg_name}_error"] = err
        row[f"{reg_name}_ridge_gap"] = float(np.linalg.norm(state.w - w_ridge))
        row[f"{reg_name}_beats_ridge"] = bool(err < row["ridge_error"])
    return row


def run_compare(suite: SuiteConfig) -> dict:
    """Run the suite across all seeds; summary counts per-regularizer wins."""
    rows = [compare_once(suite, seed) for seed in suite.seeds]
    summary = {
        "n": suite.n,
        "d": suite.d,
        "noise": suite.noise,
        "outlier_fraction": suite.outlier_fraction,
        "outlier_scale": suite.outlier_scale,
        "seeds": list(suite.seeds),
        "wins": {
            reg: int(sum(r[f"{reg}_beats_ridge"] for r in rows))
            for reg in suite.regularizers
        },
        "all_seeds_beat_ridge": {
            reg: bool(all(r[f"{reg}_beats_ridge"] for r in rows))
            for reg in suite.regularizers
        },
    }
    return {"rows": rows, "summary": summary}


def write_compare_csv(result: dict, path):
    """Write per-seed comparison rows as CSV with a stable column order."""
    rows = result["rows"]
    if not rows:
        raise BadParam("no comparison rows to write")
    cols = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            cells = []
            for c in cols:
                val = row[c]
                if isinstance(val, bool):
                    cells.append("true" if val else "false")
                elif isinstance(val, int):
                    cells.append(str(val))
                else:
                    cells.append(repr(float(val)))
            fh.write(",".join(cells) + "\n")
