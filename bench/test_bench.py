"""Tests of the benchmark itself: seeded inputs, repeatable figures, live checks.

    python -m pytest bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = list(workloads.WORKLOADS)


def op_list_digest(ops) -> str:
    parts = []
    for op in ops:
        parts.append(np.frombuffer(op.kind.encode(), dtype=np.uint8))
        for key in sorted(op.inputs):
            value = op.inputs[key]
            values = value if isinstance(value, list) else [value]
            parts += [np.frombuffer(key.encode(), dtype=np.uint8)]
            parts += [np.asarray(v) if not isinstance(v, str) else np.frombuffer(v.encode(), np.uint8) for v in values]
    return workloads.digest(*parts)


def op_list_shape(ops):
    def shape(v):
        if isinstance(v, list):
            return [shape(x) for x in v]
        return "str" if isinstance(v, str) else np.shape(v)

    return [(op.kind, {k: shape(v) for k, v in sorted(op.inputs.items())}) for op in ops]


def short_runner(name, seed=5, n_ops=4):
    """The first n_ops ops of a seed's list; four cover every kind of op."""
    wl = workloads.WORKLOADS[name]
    return worker.Runner(wl, wl.make_ops(seed)[:n_ops])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_the_identical_op_list(name):
    wl = workloads.WORKLOADS[name]
    assert op_list_digest(wl.make_ops(11)) == op_list_digest(wl.make_ops(11))


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_gives_another_op_list_of_the_same_shape(name):
    wl = workloads.WORKLOADS[name]
    a, b = wl.make_ops(11), wl.make_ops(12)
    assert op_list_shape(a) == op_list_shape(b)
    assert op_list_digest(a) != op_list_digest(b)


@pytest.mark.parametrize("name", NAMES)
def test_two_runs_repeat_every_deterministic_figure(name, tmp_path):
    runs = []
    for k in range(2):
        timed = worker.measure(short_runner(name), seconds=0)
        traced = worker.trace(short_runner(name), tracer, str(tmp_path / f"spans{k}.npz"))
        assert timed["failed"] == 0 and traced["failed"] == 0
        runs.append((timed, traced))
    (t1, r1), (t2, r2) = runs
    for key in ("err_vs_ridge", "ok_frac", "training.iters_per_fit"):
        assert t1[key] == t2[key]
    calls = [k for k in r1 if k.endswith(".calls")]
    assert len(calls) == 7
    assert {k: r1[k] for k in calls} == {k: r2[k] for k in calls}
    assert r1["training.iters_per_fit"] == t1["training.iters_per_fit"]


def test_traced_run_reports_every_per_layer_metric_and_restores(tmp_path):
    before = tracer.Tracer.originals()
    result = worker.trace(short_runner("fit-curriculum"), tracer, str(tmp_path / "s.npz"))
    assert tracer.Tracer.originals() == before
    for metric in SPEC["per_layer"]:
        assert isinstance(result[metric["name"]], float), metric["name"]
    for route in ("groups", "chain", "halfspace", "intersection"):
        assert result[f"training.v_step.{route}.self_s"] > 0.0
    assert result["training.v_step.elementwise.self_s"] == 0.0
    spans = np.load(tmp_path / "s.npz")
    assert spans["start"].size == result["spans"]
    assert np.all(spans["end"] >= spans["start"])


def test_end_to_end_metrics_are_all_measured():
    result = worker.measure(short_runner("design-validate"), seconds=0)
    for metric in SPEC["end_to_end"]:
        if metric["name"] not in ("setup_s", "peak_rss_mb"):  # added by run.py and main
            assert result[metric["name"]] > 0.0, metric["name"]


def test_conjugate_inputs_are_labelled_by_their_secant_slopes():
    x = np.linspace(0.0, 1.0, 65)
    concave = workloads.conjugacy.SampledFunction(x, -((x - 0.3) ** 2))
    bumped = workloads.conjugacy.SampledFunction(x, concave.values + workloads._bump(x, 0.1, 0.5, 0.05))
    assert tracer.is_concave(concave)
    assert not tracer.is_concave(bumped)


# the checks must catch wrong outputs, not only pass right ones


def test_biconjugate_check_rejects_a_value_off_the_hull():
    x = np.linspace(0.0, 1.0, 65)
    g = workloads.conjugacy.SampledFunction(x, np.sin(6.0 * x))
    hull = workloads.conjugacy.biconjugate(g)
    assert workloads.check_biconjugate(g, hull) == []
    raised = hull.values.copy()
    raised[30] += 0.5
    assert workloads.check_biconjugate(g, workloads.conjugacy.SampledFunction(x, raised))
    assert workloads.check_biconjugate(g, g)  # not concave


def test_sup_convolution_check_rejects_a_perturbed_result():
    wl = workloads.WORKLOADS["design-validate"]
    op = wl.make_ops(0)[0]
    prep = wl.prepare(op)
    out = wl.run(op, prep)
    assert wl.check(op, prep, out) == []
    values = out["conv"].values.copy()
    values[0] += 1e-6
    wrong = workloads.conjugacy.SampledFunction(out["conv"].grid, values)
    assert workloads.check_sup_convolution(out["latent"], prep["exp_latent"], wrong)


def test_region_check_rejects_a_violated_constraint():
    wl = workloads.WORKLOADS["fit-curriculum"]
    for op in wl.make_ops(0)[:4]:
        prep = wl.prepare(op)
        out = wl.run(op, prep)
        assert wl.check(op, prep, out) == []
        fit = out["fits"][0]
        if op.kind == "groups":
            fit["v"][0] = 0.5 * fit["v"][0] + 0.25
        else:
            h = prep["config"].region.halfspaces[0]
            fit["v"][h.k > 0] = 0.0
        assert wl.check(op, prep, out), op.kind


def test_run_fails_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
