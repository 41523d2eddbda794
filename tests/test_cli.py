"""Command-line surface: artifacts, exit codes, config merging, determinism."""

import argparse
import json
import math

import numpy as np
import pytest

from selfpaced.cli import (
    _COMPARE_DEFAULTS,
    _CURRICULUM_DEFAULTS,
    _DERIVE_DEFAULTS,
    _FIT_DEFAULTS,
    _VALIDATE_DEFAULTS,
    build_parser,
    main,
)
from selfpaced.conjugacy import Halfspace
from selfpaced.curriculum import CurriculumRegion
from selfpaced.oracles import (
    critical_region_side,
    curriculum_action_numeric,
    homogeneous_action_ray,
)
from selfpaced.regularizers import catalog

DATASET = "data/outliers_small.csv"
PLANTED_OUTLIERS = [4, 5, 11, 13, 15, 20, 23, 38]


def read_table(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0], rows[:, 1]


# ==== derive ==================================================================


def test_derive_from_weight_writes_validated_tables(tmp_path):
    out = tmp_path / "d1"
    code = main(
        ["derive", "--pipeline", "from-weight", "--input", "linear-clamp",
         "--lambda", "1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads((out / "validation.json").read_text())
    assert payload["report"]["verdict"] is True
    assert payload["config"]["pipeline"] == "from-weight"
    v, r = read_table(out / "penalty.csv")
    finite = np.isfinite(r)
    assert np.max(np.abs(r[finite] - 0.5 * (1.0 - v[finite]) ** 2)) <= 1e-4
    ls, w = read_table(out / "weight.csv")
    assert np.max(np.abs(w - np.clip(1.0 - ls, 0.0, 1.0))) <= 2.5e-3
    assert (out / "latent.csv").exists()


def test_derive_from_penalty_recovers_inverse_weight(tmp_path):
    out = tmp_path / "d2"
    code = main(
        ["derive", "--pipeline", "from-regularizer", "--input", "neg-log", "--out", str(out)]
    )
    assert code == 0
    ls, w = read_table(out / "weight.csv")
    want = np.minimum(1.0, 1.0 / np.maximum(ls, 1e-12))
    assert np.max(np.abs(w - want)) <= 1e-4


def test_derive_accepts_weight_samples_from_csv(tmp_path):
    src = tmp_path / "w.csv"
    ls = np.linspace(0.0, 8.0, 257)
    lines = ["x,value"] + [f"{float(x)!r},{math.exp(-x)!r}" for x in ls]
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "d3"
    code = main(["derive", "--pipeline", "from-weight", "--input", str(src), "--out", str(out)])
    assert code == 0
    v, r = read_table(out / "penalty.csv")
    keep = (v >= 0.01) & np.isfinite(r)
    want = v[keep] * np.log(v[keep]) - v[keep] + 1.0
    assert np.max(np.abs(r[keep] - want)) <= 5e-3


def test_derive_malformed_csv_exits_one_with_line_number(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("x,value\n0.0,1.0\n0.5,oops\n")
    code = main(["derive", "--pipeline", "from-weight", "--input", str(src),
                 "--out", str(tmp_path / "d4")])
    assert code == 1
    assert ":3" in capsys.readouterr().err


@pytest.mark.parametrize("rows, fragment", [
    ("0.0,1.0\n0.5,nan\n", "finite"),
    ("0.0,1.0\n0.5,0.5\n0.5,0.2\n", "increasing"),
], ids=["nan-value", "flat-grid"])
def test_derive_csv_that_is_no_sampled_function_exits_one(tmp_path, capsys, rows, fragment):
    src = tmp_path / "bad.csv"
    src.write_text("x,value\n" + rows)
    code = main(["derive", "--pipeline", "from-weight", "--input", str(src),
                 "--out", str(tmp_path / "d")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(src) in err and fragment in err


def test_derive_unknown_named_input_exits_one(tmp_path):
    code = main(["derive", "--pipeline", "from-weight", "--input", "mystery",
                 "--out", str(tmp_path)])
    assert code == 1


def test_derive_missing_input_exits_one(tmp_path):
    code = main(["derive", "--pipeline", "from-weight", "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize(
    "config, message",
    [({"table_points": 0}, "table_points must be at least 2"),
     ({"table_points": 1}, "table_points must be at least 2"),
     ({"span": -1}, "span must be finite and positive"),
     ({"span": 0}, "span must be finite and positive")],
)
def test_derive_table_key_out_of_range_exits_one(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["derive", "--input", "exp-decay", "--config", str(path),
                 "--out", str(tmp_path / "d")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_derive_two_point_tables(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"table_points": 2}))
    out = tmp_path / "d"
    assert main(["derive", "--input", "exp-decay", "--config", str(path), "--out", str(out)]) == 0
    assert read_table(out / "weight.csv")[0].size == 2


# ==== validate ================================================================


def test_validate_catalog_regularizer(tmp_path):
    out = tmp_path / "v1"
    code = main(["validate", "--regularizer", "exp", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "validation.json").read_text())
    assert payload["report"]["verdict"] is True
    assert payload["regularizer"] == "exp"
    names = {c["name"] for c in payload["report"]["checks"]}
    assert "conjugacy" in names and "derivative_identity" in names


def test_validate_inconsistent_input_exits_two(tmp_path):
    src = tmp_path / "rise.csv"
    src.write_text("x,value\n0.0,0.2\n1.0,0.9\n2.0,1.0\n")
    code = main(["validate", "--pipeline", "from-weight", "--input", str(src),
                 "--out", str(tmp_path / "v2")])
    assert code == 2


def test_validate_unknown_regularizer_exits_one(tmp_path):
    code = main(["validate", "--regularizer", "mystery", "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("args", [
    ["derive", "--input", "exp-decay", "--grid-points", "1"],
    ["derive", "--input", "exp-decay", "--grid-points", "0"],
    ["validate", "--pipeline", "from-regularizer", "--input", "entropy", "--grid-points", "0"],
    ["validate", "--pipeline", "from-regularizer", "--input", "entropy", "--grid-points", "2"],
    ["derive", "--input", "exp-decay", "--l-max", "0"],
    ["derive", "--input", "exp-decay", "--l-max", "nan"],
])
def test_design_grid_and_range_it_cannot_use_exit_one(tmp_path, capsys, args):
    assert main([*args, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


# ==== curriculum ==============================================================


def test_curriculum_lattice_matches_the_pooled_closed_form(tmp_path):
    out = tmp_path / "c1"
    code = main(
        ["curriculum", "--regularizer", "exp", "--lambda", "1", "--k", "1,-1",
         "--b", "0", "--grid", "11", "--span", "4", "--out", str(out)]
    )
    assert code == 0
    rows = np.loadtxt(
        out / "lattice.csv", delimiter=",", skiprows=1, usecols=(0, 1, 2, 3), ndmin=2
    )
    l1, l2, base, fnew = rows.T
    pooled = np.where(
        l1 <= l2,
        (1.0 - np.exp(-l1)) + (1.0 - np.exp(-l2)),
        2.0 * (1.0 - np.exp(-(l1 + l2) / 2.0)),
    )
    assert np.max(np.abs(fnew - pooled)) <= 1e-6
    # the constrained latent never falls below the unconstrained one
    assert np.all(fnew >= base - 1e-12)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["region"]["k"] == [1.0, -1.0]
    assert summary["max_excess"] >= 0.0
    assert set(summary["sides"]) == {"unaffected", "penalized"}


def test_curriculum_groups_and_none(tmp_path):
    assert main(["curriculum", "--regularizer", "exp", "--lambda", "1",
                 "--groups", "0,1", "--grid", "7", "--out", str(tmp_path / "c2")]) == 0
    out = tmp_path / "c3"
    assert main(["curriculum", "--regularizer", "exp", "--lambda", "1",
                 "--grid", "5", "--out", str(out)]) == 0
    rows = np.loadtxt(
        out / "lattice.csv", delimiter=",", skiprows=1, usecols=(0, 1, 2, 3), ndmin=2
    )
    # without a region the constrained value is the unconstrained latent sum
    assert np.allclose(rows[:, 2], rows[:, 3], atol=1e-12)


def read_lattice(path):
    """The lattice rows as ((l1, l2), F, Fnew, side) tuples."""
    rows = []
    for line in path.read_text().splitlines()[1:]:
        l1, l2, base, fnew, side = line.split(",")
        rows.append((np.array([float(l1), float(l2)]), float(base), float(fnew), side))
    return rows


@pytest.mark.parametrize("reg", catalog(), ids=lambda r: r.name)
@pytest.mark.parametrize("k, b", [("1,-1", 0.0), ("-1,0.5", 0.0), ("1,0", 0.3)])
def test_curriculum_lattice_matches_the_references(tmp_path, reg, k, b):
    out = tmp_path / "lat"
    code = main(["curriculum", "--regularizer", reg.name, "--lambda", "1", f"--k={k}",
                 "--b", str(b), "--grid", "11", "--out", str(out)])
    assert code == 0
    h = Halfspace(np.array([float(t) for t in k.split(",")]), b)
    region = CurriculumRegion("halfspace", (h,))
    for l, _, fnew, side in read_lattice(out / "lattice.csv"):
        if b == 0.0:
            ref = homogeneous_action_ray(reg, 1.0, l, h)  # +inf where it diverges
            assert side == ref.side
            assert fnew == pytest.approx(ref.value, abs=1e-9)
        else:
            assert side == critical_region_side(reg, 1.0, l, h)
            ref = curriculum_action_numeric(reg, 1.0, l, region)
            assert fnew == pytest.approx(ref.value, abs=1e-3)


def test_curriculum_diverging_homogeneous_latent_is_written_as_inf(tmp_path):
    # log weights min(1, 1/l) never vanish, so no multiplier pushes the
    # second weight down to the constraint v_2 <= 0
    out = tmp_path / "lat"
    code = main(["curriculum", "--regularizer", "log", "--lambda", "1", "--k=0,-1",
                 "--b", "0", "--grid", "5", "--out", str(out)])
    assert code == 0
    rows = read_lattice(out / "lattice.csv")
    assert all(fnew == math.inf and side == "penalized" for _, _, fnew, side in rows)


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_curriculum_summary_writes_an_infinite_excess_as_null(tmp_path):
    out = tmp_path / "lat"
    code = main(["curriculum", "--regularizer", "log", "--k=0,-1", "--b", "0",
                 "--grid", "5", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    assert summary["max_excess"] is None


def test_curriculum_offset_above_the_box_cap_exits_two(tmp_path):
    code = main(["curriculum", "--regularizer", "exp", "--k", "1,-1", "--b", "1.5",
                 "--grid", "5", "--out", str(tmp_path)])
    assert code == 2


def test_curriculum_zero_normal_exits_two(tmp_path):
    code = main(["curriculum", "--regularizer", "exp", "--lambda", "1",
                 "--k", "0,0", "--b", "0", "--grid", "5", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("k, b", [("1,nan", "0"), ("1,-1", "nan"), ("inf,0", "0")])
def test_curriculum_nonfinite_halfspace_exits_two(tmp_path, capsys, k, b):
    code = main(["curriculum", f"--k={k}", "--b", b, "--grid", "3", "--out", str(tmp_path)])
    assert code == 2
    assert "curriculum setup failed: bad halfspace spec: " in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("entry", [{"k": {"a": 1}}, {"k": [1.0, 0.0], "b": [1]}])
@pytest.mark.parametrize("kind", ["halfspace", "intersection"])
def test_curriculum_malformed_halfspace_entry_exits_two(tmp_path, capsys, kind, entry):
    region = (
        {"kind": kind, **entry} if kind == "halfspace" else {"kind": kind, "halfspaces": [entry]}
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"region": region}))
    code = main(["curriculum", "--config", str(config), "--grid", "5", "--out", str(tmp_path)])
    assert code == 2
    assert "curriculum setup failed: bad halfspace spec" in capsys.readouterr().err


@pytest.mark.parametrize("partition", [3, [[0, "a"]], [[0, 1.5]]])
def test_curriculum_malformed_partition_exits_two(tmp_path, capsys, partition):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"region": {"kind": "groups", "partition": partition}}))
    code = main(["curriculum", "--config", str(config), "--grid", "5", "--out", str(tmp_path)])
    assert code == 2
    assert "curriculum setup failed: partition must be" in capsys.readouterr().err


def test_curriculum_one_halfspace_intersection_writes_the_halfspace_lattice(tmp_path):
    config = tmp_path / "config.json"
    region = {"kind": "intersection", "halfspaces": [{"k": [1, -1], "b": 0}]}
    config.write_text(json.dumps({"region": region}))
    code = main(["curriculum", "--config", str(config), "--grid", "11",
                 "--out", str(tmp_path / "one")])
    assert code == 0
    code = main(["curriculum", "--k", "1,-1", "--b", "0", "--grid", "11",
                 "--out", str(tmp_path / "halfspace")])
    assert code == 0
    lattice = (tmp_path / "halfspace" / "lattice.csv").read_bytes()
    assert (tmp_path / "one" / "lattice.csv").read_bytes() == lattice


def test_curriculum_lattice_under_two_halfspaces_matches_the_grid(tmp_path, capsys):
    config = tmp_path / "config.json"
    hs = [{"k": [1, -1], "b": 0}, {"k": [1, 0], "b": 0.5}]
    config.write_text(json.dumps({"region": {"kind": "intersection", "halfspaces": hs}}))
    region = CurriculumRegion.from_dict({"kind": "intersection", "halfspaces": hs})
    for reg in catalog():
        out = tmp_path / reg.name
        code = main(["curriculum", "--config", str(config), "--regularizer", reg.name,
                     "--grid", "5", "--out", str(out)])
        if reg.name == "hard":  # binary weights take one halfspace at most
            assert code == 2
            assert "intersection of 2 halfspaces" in capsys.readouterr().err
            continue
        assert code == 0
        for l, _, fnew, side in read_lattice(out / "lattice.csv"):
            weights = reg.weight(1.0, l)
            free = weights[0] >= weights[1] and weights[0] >= 0.5
            assert side == ("unaffected" if free else "penalized")
            ref = curriculum_action_numeric(reg, 1.0, l, region)
            assert fnew == pytest.approx(ref.value, abs=1e-3)


# ==== fit =====================================================================


def test_fit_hard_drops_exactly_the_planted_outliers(tmp_path):
    out = tmp_path / "f1"
    code = main(["fit", "--dataset", DATASET, "--regularizer", "hard", "--out", str(out)])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert result["converged"] is True
    dropped = [i for i, vi in enumerate(result["v"]) if vi == 0.0]
    assert dropped == PLANTED_OUTLIERS
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,lambda,spl_objective,latent_objective"
    assert len(trace) == 1 + result["iterations"]


def test_fit_one_halfspace_intersection_matches_the_halfspace_fit(tmp_path):
    # log's tiny start age stalls coordinate ascent on this halfspace
    h = {"k": [1.0 if i < 10 else 0.0 for i in range(40)], "b": 9.0}
    results = []
    for name, region in (("halfspace", {"kind": "halfspace", **h}),
                         ("one", {"kind": "intersection", "halfspaces": [h]})):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"region": region}))
        code = main(["fit", "--config", str(config), "--dataset", DATASET,
                     "--regularizer", "log", "--out", str(tmp_path / name)])
        assert code == 0
        results.append(json.loads((tmp_path / name / "result.json").read_text()))
    assert results[0]["w"] == results[1]["w"]
    assert results[0]["v"] == results[1]["v"]


def test_fit_portion_schedule_ages_are_nondecreasing(tmp_path):
    out = tmp_path / "f2"
    code = main(["fit", "--dataset", DATASET, "--regularizer", "exp",
                 "--schedule", "portion", "--fractions", "0.3,0.6,1.0", "--out", str(out)])
    assert code == 0
    rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    lams = rows[:, 1]
    assert np.all(np.diff(lams) >= -1e-15)


def test_fit_cross_check_reports_matching_stationary_points(tmp_path):
    out = tmp_path / "f3"
    code = main(["fit", "--dataset", DATASET, "--regularizer", "exp",
                 "--cross-check", "--out", str(out)])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    cc = result["cross_check"]
    assert cc["grad_norm_at_fixed_point"] <= 1e-6
    assert cc["latent_descent_grad_norm"] <= 1e-6
    assert cc["w_gap"] <= 1e-6


def test_fit_iteration_cap_exits_three(tmp_path):
    code = main(["fit", "--dataset", DATASET, "--regularizer", "exp",
                 "--max-inner", "1", "--out", str(tmp_path / "f4")])
    assert code == 3


def test_fit_missing_dataset_exits_one(tmp_path):
    code = main(["fit", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == 1


def test_fit_unknown_config_key_exits_one(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"regularizer": "exp", "bogus": 3}\n')
    code = main(["fit", "--config", str(cfg), "--dataset", DATASET, "--out", str(tmp_path)])
    assert code == 1


def test_fit_echoes_the_full_default_configuration(tmp_path):
    out = tmp_path / "f9"
    assert main(["fit", "--dataset", DATASET, "--regularizer", "exp", "--out", str(out)]) == 0
    assert json.loads((out / "result.json").read_text())["config"] == {
        "dataset": DATASET,
        "fractions": [],
        "full_weight_threshold": 0.99,
        "grad_tol": 1e-07,
        "growth": 1.3,
        "inner_tol": 1e-09,
        "lam": None,
        "loss": "squared",
        "max_inner": 200,
        "region": {"kind": "none"},
        "regularizer": "exp",
        "ridge": 0.001,
        "schedule": "median",
        "stages": 16,
    }


def test_fit_group_region_from_flags(tmp_path):
    out = tmp_path / "f8"
    # the partition must cover every sample; split the 40 rows into two blocks
    blocks = ";".join(
        [",".join(str(i) for i in range(20)), ",".join(str(i) for i in range(20, 40))]
    )
    code = main(["fit", "--dataset", DATASET, "--regularizer", "exp",
                 "--groups", blocks, "--stages", "4", "--out", str(out)])
    assert code in (0, 3)  # pooled blocks may stall short of the cap; must still run
    result = json.loads((out / "result.json").read_text())
    assert result["config"]["region"]["kind"] == "groups"
    v = result["v"]
    assert v[0] == pytest.approx(v[19], abs=1e-9)
    assert v[20] == pytest.approx(v[39], abs=1e-9)


# ==== compare =================================================================


@pytest.mark.parametrize("names", ["hard", "hard,exp"])
def test_compare_config_string_of_regularizers_splits_on_commas(tmp_path, names):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"regularizers": names}))
    out = tmp_path / "c"
    code = main(["compare", "--config", str(config), "--n", "30", "--d", "2", "--seeds", "1",
                 "--stages", "2", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["regularizers"] == names.split(",")
    assert set(summary["wins"]) == set(names.split(","))


def test_compare_writes_deterministic_summary(tmp_path):
    args = ["compare", "--n", "30", "--d", "2", "--seeds", "0,1", "--stages", "6"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "compare.csv").read_bytes() == (out_b / "compare.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    summary = json.loads((out_a / "summary.json").read_text())
    assert set(summary["wins"]) == {"hard", "exp"}
    rows = (out_a / "compare.csv").read_text().splitlines()
    assert len(rows) == 1 + 2  # header + one row per seed


def test_compare_explicit_seed_list(tmp_path):
    out = tmp_path / "c"
    code = main(["compare", "--n", "30", "--d", "2", "--seeds", "3,5", "--stages", "6",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [3, 5]


def test_compare_bare_seeds_value_is_a_count(tmp_path):
    out = tmp_path / "c"
    code = main(["compare", "--n", "30", "--d", "2", "--seeds", "2", "--stages", "6",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [0, 1]
    assert main(["compare", "--seeds", "", "--out", str(tmp_path / "x")]) == 1


def test_compare_echoes_the_full_default_configuration(tmp_path):
    out = tmp_path / "c"
    code = main(["compare", "--n", "30", "--d", "2", "--seeds", "1", "--stages", "6",
                 "--out", str(out)])
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["config"] == {
        "d": 2,
        "growth": 1.3,
        "n": 30,
        "noise": 0.1,
        "outlier_fraction": 0.2,
        "outlier_scale": 50.0,
        "regularizers": ["hard", "exp"],
        "ridge": 0.001,
        "seeds": [0],
        "stages": 6,
    }


# ==== global behavior =========================================================


@pytest.mark.parametrize("args", [
    ["compare", "--seeds", "1", "--growth", "0.5"],
    ["compare", "--seeds", "1", "--ridge", "-1"],
    ["compare", "--seeds", "1", "--stages", "0"],
    ["compare", "--seeds", "1", "--noise", "nan"],
    ["fit", "--dataset", DATASET, "--growth", "nan"],
    ["fit", "--dataset", DATASET, "--ridge", "inf"],
    ["curriculum", "--lambda", "nan"],
    ["curriculum", "--span", "inf"],
    ["derive", "--input", "exp-decay", "--lambda", "nan"],
])
def test_out_of_range_number_flag_exits_one(tmp_path, capsys, args):
    assert main([*args, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate"]) == 1


def test_unknown_regularizer_name_exits_one_everywhere(tmp_path, capsys):
    assert main(["validate", "--regularizer", "", "--out", str(tmp_path / "v")]) == 1
    assert "unknown regularizer ''" in capsys.readouterr().err
    assert main(["curriculum", "--regularizer", "mystery",
                 "--out", str(tmp_path / "c")]) == 1
    assert main(["fit", "--dataset", DATASET, "--regularizer", "mystery",
                 "--out", str(tmp_path / "f")]) == 1
    assert main(["compare", "--regularizers", "hard,mystery",
                 "--out", str(tmp_path / "m")]) == 1
    assert main(["compare", "--regularizers", "", "--out", str(tmp_path / "e")]) == 1


@pytest.mark.parametrize("command, key", [("compare", "seeds"), ("curriculum", "grid")])
def test_null_config_value_exits_one_naming_the_key(tmp_path, capsys, command, key):
    cfg = tmp_path / "null.json"
    cfg.write_text(json.dumps({key: None}) + "\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert command in err and key in err


@pytest.mark.parametrize("command, file_cfg", [
    ("curriculum", {"lam": "2"}),
    ("curriculum", {"grid": 2.5}),
    ("derive", {"lam": "2"}),
    ("derive", {"grid_points": True}),
    ("fit", {"stages": "4"}),
    ("fit", {"ridge": "0.1"}),
    ("fit", {"lam": "2"}),
    ("compare", {"n": "40"}),
    ("derive", {"input": 5}),
    ("derive", {"input": [1]}),
    ("validate", {"input": 5}),
    ("validate", {"input": [1]}),
    ("compare", {"seeds": 0.5}),
    ("fit", {"dataset": [1]}),
    ("fit", {"dataset": 5.5}),
])
def test_mistyped_numeric_config_value_exits_one_naming_the_key(tmp_path, capsys, command,
                                                                file_cfg):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(file_cfg) + "\n")
    # the required flags, except one whose key the config file sets
    args = {"derive": [] if "input" in file_cfg else ["--input", "exp-decay"],
            "validate": ["--pipeline", "from-weight"],
            "fit": [] if "dataset" in file_cfg else ["--dataset", DATASET]}.get(command, [])
    assert main([command, "--config", str(cfg), *args, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and next(iter(file_cfg)) in err


@pytest.mark.parametrize("value", ["false", 1, 0, None])
def test_bool_config_key_takes_only_true_or_false(tmp_path, capsys, value):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"cross_check": value}) + "\n")
    args = ["fit", "--config", str(cfg), "--dataset", DATASET, "--out", str(tmp_path / "o")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cross_check" in err
    assert not (tmp_path / "o" / "result.json").exists()


def test_integral_numbers_fill_int_keys_and_ints_fill_float_keys(tmp_path):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"grid": 3.0, "lam": 2}) + "\n")
    out = tmp_path / "o"
    assert main(["curriculum", "--config", str(cfg), "--out", str(out)]) == 0
    echo = json.loads((out / "summary.json").read_text())["config"]
    assert (echo["grid"], echo["lam"]) == (3, 2.0)
    assert type(echo["grid"]) is int and type(echo["lam"]) is float


# per command: a config file setting two keys, the other arguments, a flag
# overriding the first key, the echoed value of each key, and the echo file
OVERRIDES = {
    "derive": ({"lam": 2.0, "grid_points": 1025},
               ["--pipeline", "from-weight", "--input", "exp-decay"],
               ["--lambda", "1.5"], ("lam", 1.5), ("grid_points", 1025), "validation.json"),
    "validate": ({"regularizer": "hard", "grid_points": 1025}, [],
                 ["--regularizer", "exp"], ("regularizer", "exp"), ("grid_points", 1025),
                 "validation.json"),
    "curriculum": ({"regularizer": "hard", "grid": 5}, [],
                   ["--regularizer", "exp"], ("regularizer", "exp"), ("grid", 5), "summary.json"),
    "fit": ({"regularizer": "hard", "stages": 4}, ["--dataset", DATASET],
            ["--regularizer", "exp"], ("regularizer", "exp"), ("stages", 4), "result.json"),
    "compare": ({"n": 30, "stages": 6}, ["--d", "2", "--seeds", "1"],
                ["--stages", "5"], ("stages", 5), ("n", 30), "summary.json"),
}


@pytest.mark.parametrize("command", list(OVERRIDES))
def test_flags_override_config_file_values(tmp_path, command):
    file_cfg, args, flag, (flag_key, flag_val), (file_key, file_val), echo = OVERRIDES[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg) + "\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), *args, *flag, "--out", str(out)]) == 0
    merged = json.loads((out / echo).read_text())["config"]
    assert merged[flag_key] == flag_val  # flag wins
    assert merged[file_key] == file_val  # file fills the unset key


COMMAND_DEFAULTS = {
    "derive": _DERIVE_DEFAULTS,
    "validate": _VALIDATE_DEFAULTS,
    "curriculum": _CURRICULUM_DEFAULTS,
    "fit": _FIT_DEFAULTS,
    "compare": _COMPARE_DEFAULTS,
}


def test_every_declared_flag_sets_a_config_key():
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert set(commands) == set(COMMAND_DEFAULTS)
    for name, parser in commands.items():
        dests = {a.dest for a in parser._actions if a.option_strings} - {"help"}
        assert dests - {"config", "out", "k", "b", "groups"} <= set(COMMAND_DEFAULTS[name]), name


def test_every_command_echoes_its_configuration(tmp_path):
    out = tmp_path / "echo"
    main(["validate", "--regularizer", "hard", "--out", str(out)])
    report = json.loads((out / "validation.json").read_text())
    assert report["config"]["regularizer"] == "hard"
