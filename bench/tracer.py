"""Spans around the program's layer boundaries, installed from outside.

`Tracer.install()` replaces module attributes through which the program (and
the benchmark's ops) look functions up with wrappers that record a span per
call: its name, start, end, parent span and op. Spans stay in memory in
flat arrays; `per_layer()` turns them into per-op call counts and self times
(a span's duration minus that of its direct children), and `save()` writes
them out at the end. `restore()` puts every original attribute back.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from selfpaced import conjugacy, curriculum, regularizers, training

# (owner, attribute, span name); the owner is the module or class the caller
# looks the attribute up on
LAYERS = (
    (training, "spl_fit", "training.fit"),
    (training, "w_step", "training.w_step"),
    (training, "loss_vector", "training.loss"),
    (training, "full_objective", "training.objective"),
    (training, "latent_objective", "training.objective"),
    (training, "gradient_norm", "training.grad_norm"),
    (training, "affine_action", "curriculum.affine_action"),
    (training, "weight_extended", "curriculum.weight_extended"),
    (curriculum, "weight_extended", "curriculum.weight_extended"),
    (regularizers.SPRegularizer, "weight", "regularizers.weight"),
    (regularizers, "validate_sp_regularizer", "regularizers.validate"),
    (regularizers, "design_from_weight", "regularizers.design"),
    (regularizers, "design_from_regularizer", "regularizers.design"),
    (conjugacy, "biconjugate", "conjugacy.biconjugate"),
    (conjugacy, "sup_convolution", "conjugacy.sup_convolution"),
)
# these get a label per call: the v-step route, and whether the conjugate's
# input is concave
V_STEP = (training, "v_step")
CONJUGATES = ((regularizers, "concave_conjugate"), (conjugacy, "concave_conjugate"))
V_ROUTES = ("elementwise", "groups", "chain", "halfspace", "intersection")

# per-op call counts and self times reported from the spans
COUNTED = (
    "training.w_step",
    "training.grad_norm",
    "training.v_step",
    "curriculum.affine_action",
    "curriculum.weight_extended",
    "regularizers.weight",
    "conjugacy.concave_conjugate",
)
TIMED = (
    "training.w_step",
    "training.objective",
    "training.loss",
    "training.grad_norm",
    "training.fit",
    *(f"training.v_step.{r}" for r in V_ROUTES),
    "curriculum.affine_action",
    "curriculum.weight_extended",
    "regularizers.weight",
    "regularizers.validate",
    "regularizers.design",
    "conjugacy.concave_conjugate.concave_in",
    "conjugacy.concave_conjugate.nonconcave_in",
    "conjugacy.biconjugate",
    "conjugacy.sup_convolution",
)


def is_concave(g) -> bool:
    """Secant slopes of the finite samples never increase beyond rounding.

    The allowance is relative to the slopes plus the rounding error of
    differencing values over each cell, which matters on graded grids whose
    cells shrink to 1e-9.
    """
    finite = np.isfinite(g.values)
    x, y = g.grid[finite], g.values[finite]
    if x.size < 3:
        return True
    dx = np.diff(x)
    s = np.diff(y) / dx
    scale = 1.0 + float(np.max(np.abs(y)))
    noise = 4.0 * np.finfo(float).eps * scale * (1.0 / dx[:-1] + 1.0 / dx[1:])
    rise = np.diff(s) - 1e-7 * (1.0 + np.maximum(np.abs(s[:-1]), np.abs(s[1:])))
    return bool(np.all(rise <= noise))


class Tracer:
    """Records spans while installed; the route label names the op's region."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.current_op = -1
        self.route = "elementwise"

    # -- recording -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, args, kwargs):
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name: str):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            return self.call(name_id, fn, args, kwargs)

        return traced

    def _v_step_wrapper(self, fn):
        ids = {r: self._id(f"training.v_step.{r}") for r in V_ROUTES}

        def traced(l, lam, reg, region=None):
            route = "elementwise" if region is None or region.kind == "none" else self.route
            return self.call(ids[route], fn, (l, lam, reg, region), {})

        return traced

    def _conjugate_wrapper(self, fn):
        concave = self._id("conjugacy.concave_conjugate.concave_in")
        other = self._id("conjugacy.concave_conjugate.nonconcave_in")

        def traced(g, *args, **kwargs):
            return self.call(concave if is_concave(g) else other, fn, (g, *args), kwargs)

        return traced

    # -- installing ------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in LAYERS:
            self._patch(owner, attr, self._wrapper(getattr(owner, attr), name))
        self._patch(*V_STEP, self._v_step_wrapper(getattr(*V_STEP)))
        for owner, attr in CONJUGATES:
            self._patch(owner, attr, self._conjugate_wrapper(getattr(owner, attr)))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @staticmethod
    def originals():
        """The attributes install() replaces, to check that restore() worked."""
        spots = [(o, a) for o, a, _ in LAYERS] + [V_STEP, *CONJUGATES]
        return {(id(o), a): o.__dict__[a] for o, a in spots}

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span columns as NumPy arrays."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def per_layer(self, n_ops: int) -> dict:
        """Per-op call counts and self seconds by layer name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        self_s = dur - child
        size = len(self.names)
        calls = np.bincount(a["name_id"], minlength=size)
        busy = np.bincount(a["name_id"], weights=self_s, minlength=size)
        out = {}
        for name in COUNTED:  # a labelled span counts toward its unlabelled name
            ids = [i for i, n in enumerate(self.names) if n == name or n.startswith(name + ".")]
            out[f"{name}.calls"] = int(calls[ids].sum()) / n_ops
        for name in TIMED:
            out[f"{name}.self_s"] = float(busy[self._ids[name]]) / n_ops if name in self._ids else 0.0
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
