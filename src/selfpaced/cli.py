"""Command-line harness.

Commands:
  derive      build a regularizer from a weight curve or a penalty, dump its
              penalty/weight/latent tables as CSV, and validate it
  validate    run the validation checks on a catalog or derived regularizer
  curriculum  dump a 2-D lattice of unconstrained vs curriculum-constrained
              latent values
  fit         run self-paced training on a CSV dataset
  compare     seeded robustness comparison of self-paced fits vs ridge

Global flags: --config <json> (defaults), --out <dir>.  Each other flag sets
the config key of its own name and overrides the config file's value; every
output JSON echoes the effective configuration.  Exit codes: 0 success,
1 input/IO error, 2 mathematical validation failure, 3 iteration-cap exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields

import numpy as np

from .conjugacy import SampledFunction
from .curriculum import CurriculumRegion, region_latent
from .errors import BadParam, SelfPacedError
from .experiments import SuiteConfig, run_compare, write_compare_csv
from .oracles import latent_descent_fit
from .regularizers import (
    design_from_regularizer,
    design_from_weight,
    get_regularizer,
    tabulate,
    validate_sp_regularizer,
)
from .training import TrainConfig, load_dataset_csv, spl_fit


class _InputError(Exception):
    """Bad flags, config, or input files; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for math failures
        raise _InputError(message)


# ==== named input functions for the design pipelines ==========================

# each name is a catalog entry's weight curve or penalty
WEIGHT_INPUTS = {
    name: get_regularizer(entry).weight_base
    for name, entry in (
        ("linear-clamp", "linear"), ("exp-decay", "exp"), ("inverse", "log"), ("step", "hard")
    )
}

PENALTY_INPUTS = {
    name: get_regularizer(entry).r_sp_base
    for name, entry in (
        ("half-quadratic", "linear"), ("entropy", "exp"), ("neg-log", "log"), ("neg-linear", "hard")
    )
}


def _input_callable(pipeline: str, name: str):
    registry = WEIGHT_INPUTS if pipeline == "from-weight" else PENALTY_INPUTS
    if name in registry:
        return registry[name]
    if name.endswith(".csv"):
        if not os.path.exists(name):
            raise _InputError(f"input file not found: {name}")
        try:
            sf = SampledFunction.from_csv(name)
        except ValueError as exc:
            raise _InputError(str(exc)) from None
        except SelfPacedError as exc:
            raise _InputError(f"{name}: {exc}") from None
        grid, vals = sf.grid, sf.values
        if pipeline == "from-weight":
            return lambda l: np.interp(np.asarray(l, dtype=float), grid, vals)
        lo, hi = float(grid[0]), float(grid[-1])
        return lambda v: np.where(
            (np.asarray(v, dtype=float) < lo) | (np.asarray(v, dtype=float) > hi),
            np.inf,
            np.interp(np.asarray(v, dtype=float), grid, vals),
        )
    raise _InputError(
        f"unknown input {name!r}: expected one of {sorted(registry)} or a .csv path"
    )


# ==== config plumbing =========================================================


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise _InputError(f"{path}: config must be a JSON object")
    return data


def _field_defaults(cls) -> dict:
    """The default of every field of a dataclass, by field name."""
    return {
        f.name: f.default if f.default is not MISSING else f.default_factory()
        for f in fields(cls)
    }


def _settings(args, defaults: dict, where: str) -> dict:
    """`defaults`, overridden by the --config file, overridden by the flags given.

    Each flag sets the key of its own name, and --k/--b or --groups set
    `region`.  Config keys must be keys of `defaults`.  A key whose default
    is a float takes any finite number and an int key an integral one, each
    turned into its default's type; a bool key takes only true or false.
    """
    given = vars(args)
    file_cfg = _load_config_file(given["config"]) if given.get("config") else {}
    unknown = set(file_cfg) - set(defaults)
    if unknown:
        raise _InputError(f"{where}: unknown config keys: {sorted(unknown)}")
    nulls = sorted(k for k, v in file_cfg.items() if v is None and defaults[k] is not None)
    if nulls:
        raise _InputError(f"{where}: config keys may not be null: {nulls}")
    for key, val in file_cfg.items():
        kind = type(defaults[key])
        if kind is bool and type(val) is not bool:
            raise _InputError(f"{where}: config key {key!r} must be true or false, got {val!r}")
        if kind not in (int, float):
            continue
        if not (type(val) is int or type(val) is float and math.isfinite(val)
                and (kind is float or val.is_integer())):
            expected = "an integer" if kind is int else "a finite number"
            raise _InputError(f"{where}: config key {key!r} must be {expected}, got {val!r}")
        file_cfg[key] = kind(val)
    flags = {key: val for key, val in given.items() if key in defaults}
    if "k" in given:
        flags["region"] = {"kind": "halfspace", "k": list(given["k"]), "b": given.get("b", 0.0)}
    elif "groups" in given:
        flags["region"] = {"kind": "groups", "partition": given["groups"]}
    return {**defaults, **file_cfg, **flags}


def _strict_json(value):
    """value with every non-finite float replaced by None: strict JSON writes it as null."""
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_strict_json(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_table_csv(path, xs, vals):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,value\n")
        for x, v in zip(xs, vals):
            fh.write(f"{float(x)!r},{float(v)!r}\n")


def _parse_floats(text: str, flag: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise _InputError(f"{flag}: expected comma-separated numbers, got {text!r}") from None


def _parse_partition(text: str) -> list:
    try:
        return [
            [int(tok) for tok in block.split(",") if tok.strip() != ""]
            for block in text.split(";")
        ]
    except ValueError:
        raise _InputError(f"--groups: expected blocks like '0,1;2', got {text!r}") from None


def _ensure_out(out_dir: str) -> str:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise _InputError(f"cannot create output directory: {exc}") from None
    return out_dir


# ==== commands ================================================================


def _build_regularizer(merged: dict):
    """Resolve a regularizer from 'regularizer' or a pipeline spec; BadParam is an input error."""
    pipeline = merged.get("pipeline")
    if pipeline not in (None, "from-weight", "from-regularizer"):
        raise _InputError(f"unknown pipeline {pipeline!r}")
    name = merged.get("input")
    if pipeline is not None and not (isinstance(name, str) and name):
        raise _InputError(f"pipeline requires --input, a named function or .csv path, got {name!r}")
    try:
        if pipeline is None:
            return get_regularizer(merged.get("regularizer"))
        fn = _input_callable(pipeline, name)
        if pipeline == "from-weight":
            return design_from_weight(fn, l_max=merged["l_max"], n=merged["grid_points"])
        return design_from_regularizer(fn, n=merged["grid_points"])
    except BadParam as exc:
        raise _InputError(str(exc)) from None


def _validated_regularizer(merged: dict, out: str, errored: str, table_args=None):
    """Build and validate the regularizer, writing validation.json to `out`.

    With table_args (tabulate's lam, n, span) its penalty, weight and
    latent tables are written as CSV too.  Returns the regularizer, or None
    after reporting on stderr when building, validating or tabulating
    raises (prefixed by `errored`) or a check fails: exit code 2.
    """
    try:
        reg = _build_regularizer(merged)
        report = validate_sp_regularizer(reg)
        tables = tabulate(reg, **table_args) if table_args else {}
    except SelfPacedError as exc:
        print(f"{errored}: {exc}", file=sys.stderr)
        return None

    for key, (xs, vals) in tables.items():
        _write_table_csv(os.path.join(out, f"{key}.csv"), xs, vals)
    _write_json(
        os.path.join(out, "validation.json"),
        {"config": merged, "regularizer": reg.name, "report": report.to_dict()},
    )
    if not report.verdict:
        failed = ", ".join(c.name for c in report.failures())
        print(f"validation failed: {failed}", file=sys.stderr)
        return None
    return reg


_DERIVE_DEFAULTS = {
    "pipeline": "from-weight",
    "input": None,
    "lam": 1.0,
    "grid_points": 2049,
    "l_max": 8.0,
    "span": 8.0,
    "table_points": 513,
}


def cmd_derive(args) -> int:
    merged = _settings(args, _DERIVE_DEFAULTS, "derive")
    if not 0 < merged["lam"] < math.inf:
        raise _InputError("--lambda must be finite and positive")
    if merged["table_points"] < 2:
        raise _InputError("table_points must be at least 2")
    if not 0 < merged["span"] < math.inf:
        raise _InputError("span must be finite and positive")
    out = _ensure_out(args.out)
    table_args = {"lam": merged["lam"], "n": merged["table_points"], "span": merged["span"]}
    reg = _validated_regularizer(merged, out, "derivation failed", table_args)
    if reg is None:
        return 2
    print(f"derived {reg.name}: all checks passed; tables in {out}")
    return 0


_VALIDATE_DEFAULTS = {
    "regularizer": None,
    "pipeline": None,
    "input": None,
    "grid_points": 2049,
    "l_max": 8.0,
}


def cmd_validate(args) -> int:
    merged = _settings(args, _VALIDATE_DEFAULTS, "validate")
    if merged["regularizer"] is None and merged["pipeline"] is None:
        raise _InputError("validate needs --regularizer or --pipeline/--input")
    out = _ensure_out(args.out)
    reg = _validated_regularizer(merged, out, "validation errored")
    if reg is None:
        return 2
    print(f"{reg.name}: all checks passed")
    return 0


_CURRICULUM_DEFAULTS = {
    "regularizer": "exp",
    "lam": 1.0,
    "region": None,
    "grid": 21,
    "span": 4.0,
}


def cmd_curriculum(args) -> int:
    merged = _settings(args, _CURRICULUM_DEFAULTS, "curriculum")
    if not 0 < merged["lam"] < math.inf:
        raise _InputError("--lambda must be finite and positive")
    if not 0 <= merged["span"] < math.inf:
        raise _InputError("--span must be finite and nonnegative")
    if merged["grid"] < 2:
        raise _InputError("--grid must be at least 2")
    out = _ensure_out(args.out)
    lam = merged["lam"]

    try:
        reg = get_regularizer(merged["regularizer"])
    except BadParam as exc:
        raise _InputError(str(exc)) from None
    spec = merged["region"]
    try:
        region = CurriculumRegion("none") if spec is None else CurriculumRegion.from_dict(spec)
    except SelfPacedError as exc:
        print(f"curriculum setup failed: {exc}", file=sys.stderr)
        return 2

    axis = np.linspace(0.0, merged["span"], merged["grid"])
    rows = []
    sides = {"unaffected": 0, "penalized": 0}
    boundary = []
    max_excess = 0.0
    try:
        for l1 in axis:
            for l2 in axis:
                l = np.array([l1, l2])
                base = float(np.sum(reg.latent(lam, l)))
                fnew = region_latent(reg, lam, l, region)[0]
                side = "-"
                if region.halfspaces:
                    gaps = region.normal_dots(reg.weight(lam, l)) - region.offsets
                    side = "unaffected" if np.all(gaps >= -1e-12) else "penalized"
                    sides[side] += 1
                    if np.any(np.abs(gaps) <= 1e-9):
                        boundary.append([float(l1), float(l2)])
                max_excess = max(max_excess, fnew - base)
                rows.append((float(l1), float(l2), base, fnew, side))
    except SelfPacedError as exc:
        print(f"curriculum evaluation failed: {exc}", file=sys.stderr)
        return 2

    lattice_path = os.path.join(out, "lattice.csv")
    with open(lattice_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("l1,l2,F,Fnew,side\n")
        for l1, l2, base, fnew, side in rows:
            fh.write(f"{l1!r},{l2!r},{base!r},{fnew!r},{side}\n")
    merged_echo = dict(merged)
    merged_echo["region"] = region.to_dict()
    _write_json(
        os.path.join(out, "summary.json"),
        {
            "config": merged_echo,
            "max_excess": float(max_excess),
            "sides": sides,
            "boundary_count": len(boundary),
            "boundary_points": boundary[:10],
        },
    )
    print(f"lattice written to {lattice_path} ({len(rows)} points)")
    return 0


_FIT_DEFAULTS = {"dataset": None, **_field_defaults(TrainConfig), "cross_check": False}


def cmd_fit(args) -> int:
    merged = _settings(args, _FIT_DEFAULTS, "fit")
    if not (isinstance(merged["dataset"], str) and merged["dataset"]):
        raise _InputError(f"fit requires --dataset <csv>, got {merged['dataset']!r}")
    out = _ensure_out(args.out)

    try:
        dataset = load_dataset_csv(merged["dataset"])
    except OSError as exc:
        raise _InputError(f"cannot read dataset: {exc}") from None
    except ValueError as exc:
        raise _InputError(str(exc)) from None

    config_dict = {k: v for k, v in merged.items() if k not in ("dataset", "cross_check")}
    try:
        config = TrainConfig.from_dict(config_dict)
    except (SelfPacedError, TypeError, ValueError) as exc:
        raise _InputError(f"bad training config: {exc}") from None

    try:
        state = spl_fit(dataset, config)
        payload = {"config": {**config.to_dict(), "dataset": merged["dataset"]}}
        payload.update(state.to_dict())
        if merged["cross_check"]:
            ld = latent_descent_fit(dataset, config, lam=state.lam, w0=state.w)
            payload["cross_check"] = {
                "grad_norm_at_fixed_point": state.grad_norm,
                "latent_descent_grad_norm": ld.grad_norm,
                "w_gap": float(np.linalg.norm(state.w - ld.w)),
            }
    except SelfPacedError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 2

    _write_json(os.path.join(out, "result.json"), payload)
    state.write_trace_csv(os.path.join(out, "trace.csv"))
    print(
        f"fit finished: lambda={state.lam:.6g}, {len(state.iters)} iterations, "
        f"converged={state.converged}"
    )
    return 0 if state.converged else 3


_COMPARE_DEFAULTS = _field_defaults(SuiteConfig)


def cmd_compare(args) -> int:
    merged = _settings(args, _COMPARE_DEFAULTS, "compare")
    if isinstance(merged["regularizers"], str):  # a config string, split as the flag is
        merged["regularizers"] = tuple(merged["regularizers"].split(","))
    seeds = merged["seeds"]
    if isinstance(seeds, str):
        # A bare integer is a seed count; only a comma-separated string
        # names explicit seeds.
        parsed = _parse_floats(seeds, "--seeds")
        if not parsed:
            raise _InputError("--seeds: expected a count or a list of seeds")
        seeds = tuple(int(s) for s in parsed) if "," in seeds else int(parsed[0])
    try:
        seeds = tuple(range(seeds)) if isinstance(seeds, int) else tuple(int(s) for s in seeds)
    except (TypeError, ValueError):
        raise _InputError(
            f"compare: config key 'seeds' must be a count or a list of seeds, got {seeds!r}"
        ) from None
    out = _ensure_out(args.out)

    try:
        suite = SuiteConfig(**{**merged, "seeds": seeds})
    except (SelfPacedError, TypeError, ValueError) as exc:
        raise _InputError(f"bad compare parameters: {exc}") from None

    try:
        result = run_compare(suite)
    except SelfPacedError as exc:
        print(f"comparison failed: {exc}", file=sys.stderr)
        return 2

    write_compare_csv(result, os.path.join(out, "compare.csv"))
    echo = dict(merged)
    echo["seeds"] = list(seeds)
    echo["regularizers"] = list(suite.regularizers)
    _write_json(
        os.path.join(out, "summary.json"),
        {"config": echo, **result["summary"]},
    )
    wins = result["summary"]["wins"]
    print(f"compare finished over {len(seeds)} seeds: wins vs ridge {wins}")
    return 0


# ==== parser ==================================================================


def build_parser() -> _Parser:
    p = _Parser(prog="selfpaced", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        # a flag left out stays out of the namespace, so vars(args) holds
        # exactly the flags given
        sp = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON config file with defaults")
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        sp.set_defaults(func=func)
        return sp

    def region_flags(sp):
        sp.add_argument("--k", type=lambda t: _parse_floats(t, "--k"),
                        help="halfspace normal, comma-separated (e.g. '1,-1'); write one "
                        "whose first entry is negative as --k=-1,0.5")
        sp.add_argument("--b", type=float, help="halfspace offset (default 0)")
        sp.add_argument("--groups", type=_parse_partition,
                        help="partition blocks like '0,1;2'")

    d = command("derive", cmd_derive, "build + validate a regularizer from a curve")
    d.add_argument("--pipeline", choices=("from-weight", "from-regularizer"))
    d.add_argument("--input", help="named function or .csv of samples")
    d.add_argument("--lambda", dest="lam", type=float, help="age for the table dumps")
    d.add_argument("--grid-points", type=int)
    d.add_argument("--l-max", type=float)

    v = command("validate", cmd_validate, "validate a catalog or derived regularizer")
    v.add_argument("--regularizer", help="catalog name: hard/linear/log/exp")
    v.add_argument("--pipeline", choices=("from-weight", "from-regularizer"))
    v.add_argument("--input")
    v.add_argument("--grid-points", type=int)

    c = command("curriculum", cmd_curriculum, "dump constrained-latent lattice over 2-D losses")
    c.add_argument("--regularizer")
    c.add_argument("--lambda", dest="lam", type=float)
    region_flags(c)
    c.add_argument("--grid", type=int, help="lattice points per axis")
    c.add_argument("--span", type=float, help="losses range over [0, span]")

    f = command("fit", cmd_fit, "self-paced training on a CSV dataset")
    f.add_argument("--dataset", help="CSV with feature columns then target")
    f.add_argument("--regularizer")
    f.add_argument("--schedule", choices=("median", "portion", "fixed"))
    f.add_argument("--lambda", dest="lam", type=float)
    f.add_argument("--fractions", type=lambda t: _parse_floats(t, "--fractions"),
                   help="comma-separated portions, e.g. '0.3,0.6,1.0'")
    f.add_argument("--growth", type=float)
    f.add_argument("--stages", type=int)
    f.add_argument("--ridge", type=float)
    f.add_argument("--loss", choices=("squared", "logistic"))
    region_flags(f)
    f.add_argument("--max-inner", type=int)
    f.add_argument("--cross-check", action="store_true", help="also run latent descent")

    m = command("compare", cmd_compare, "robustness comparison vs unweighted ridge")
    m.add_argument("--n", type=int)
    m.add_argument("--d", type=int)
    m.add_argument("--noise", type=float)
    m.add_argument("--outlier-fraction", type=float)
    m.add_argument("--outlier-scale", type=float)
    m.add_argument("--seeds", help="seed count (int) or comma-separated list")
    m.add_argument("--stages", type=int)
    m.add_argument("--growth", type=float)
    m.add_argument("--ridge", type=float)
    m.add_argument("--regularizers", type=lambda t: tuple(t.split(",")),
                   help="comma-separated catalog names")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
