"""Command-line interface.

Subcommands: `bounds`, `estimate`, `simulate`, `compare`, `oracle`.
Configuration is a flat key=value text file; any key can be overridden on the
command line with --set key=value.  Each mode reads its own keys (``_KEYS``);
a key it never reads, from the file, --set or --dgp, is refused (exit 2)
before any work.  ``_mode`` picks the mode: the subcommand, or for bounds
and compare one of these, which read

    bounds              the pair keys, the Gaussian-family keys, models, gh_nodes
    bounds --dist       (the flag or the dist key) the pair keys, models, dist
    compare --interval  no key
    compare --scan      the grid keys (compare._SCAN_KEYS)
    compare --dist      the pair keys and coef; json only, --format csv exits 2

and compare refuses no mode flag or two.  bounds and simulate read gh_nodes and
build its Gauss-Hermite rule before any work; estimate reads none, as ``fit``
integrates Gaussian laws, whose integrands are affine in z, with one node.  Every report,
the grid scan included, goes through one writer (``_report``), written
atomically (temp file + rename); CSV cells carry 6 significant digits and
booleans as 1 or 0 (``dist.report_cell``), json full precision.

`bounds --dgp` and `simulate` read each Gaussian-family key (alpha, beta,
gamma1, gamma2, sigma_z, sigma_y, p_c) and `simulate` its `setting` as comma
lists, grid points first key outermost, settings innermost; `--dgp` takes one
value per key.  Each key given several values leads the CSV rows as a column
and enters each json record (`simulate`: a list of per-run payloads).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import compare as cmp_mod
from .bounds import MODELS, SimDgpParams, bound, simdgp_bound
from .dist import TreatmentPair, csv_text, read_dist_csv, report_cell, write_text
from .errors import AceboundsError, DomainError
from .estimators import ESTIMATOR_TAGS, EstimationResult, estimate_all
from .fitting import SLOTS, CrossFitPlan, ModelSpec, fit, read_data_csv
from .influence import brute_force_variance
from .quadrature import _GH_NODES, GaussHermiteZRule
from .simlab import McConfig, run_mc, setting_model_specs

__all__ = ["main"]

_ORACLE_TOL = 1e-9  # `oracle` exits 1 when a bound formula and its enumeration differ by more


def _emit(text: str, out: str | None) -> None:
    if out is None and not text.endswith("\n"):
        text += "\n"
    write_text(text, sys.stdout if out is None else out)


def _report(args, header, rows, payload=None) -> None:
    """Rows of values under `header` as csv, streamed from any iterable, or as json records (`payload` in their place when given)."""
    if args.format == "json":
        _emit(json.dumps([dict(zip(header, row)) for row in rows] if payload is None else payload, indent=2, sort_keys=True), args.out)
    else:
        _emit(csv_text(header, rows, report_cell), args.out)


def read_config(path: str | None) -> dict:
    """Flat `key = value` lines; '#' starts a comment; later keys win."""
    cfg: dict = {}
    if path is None:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _apply_overrides(cfg: dict, pairs) -> dict:
    for item in pairs or []:
        if "=" not in item:
            raise DomainError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _number(key: str, text, kind=float):
    """`text` read as a finite float (or an int); a DomainError names the config key otherwise."""
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except (TypeError, ValueError):
        pass
    raise DomainError(f"{key}: expected {'an integer' if kind is int else 'a finite number'}, got {text!r}")


def _comma_list(key: str, text, read, what: str) -> tuple:
    """The non-empty comma list `text` of distinct values, each entry read by `read`.

    Each value is a point of a grid, a run or a report row, so a repeat would give the same one twice.
    """
    values = tuple(read(tok) for tok in str(text).split(",") if tok.strip())
    if not values:
        raise DomainError(f"{key}: expected a comma list of {what}, got {text!r}")
    if len(set(values)) < len(values):
        raise DomainError(f"{key}: the list {text!r} repeats a value")
    return values


def _numbers(key: str, text, kind=float) -> tuple:
    """The comma list `text` of distinct numbers (see :func:`_comma_list`), each read by :func:`_number`."""
    return _comma_list(key, text, lambda tok: _number(key, tok, kind), "numbers")


def _parse_pair(cfg: dict) -> TreatmentPair:
    return TreatmentPair(_number("a_star", cfg.get("a_star", 1.0)), _number("a_ref", cfg.get("a_ref", 0.0)))


_DGP_KEYS = ("alpha", "beta", "gamma1", "gamma2", "sigma_z", "sigma_y", "p_c")


def _dgp_grid(cfg: dict) -> list:
    """Per grid point (first key outermost): its SimDgpParams and the values of the keys given several values."""
    lists = {key: _numbers(key, cfg[key]) for key in _DGP_KEYS if key in cfg}
    missing = {"alpha", "beta", "gamma1", "gamma2"} - set(lists)
    if missing:
        raise DomainError(f"dgp parameters missing: {sorted(missing)}")
    points = [dict(zip(lists, values)) for values in itertools.product(*lists.values())]
    return [(SimDgpParams(**point), {key: point[key] for key in lists if len(lists[key]) > 1}) for point in points]


def _parse_names(cfg: dict, key: str, known: tuple) -> tuple:
    """The comma list of distinct names under `key`, upper-cased, or every known name for "all" (the default)."""
    raw = cfg.get(key, "all")
    if raw == "all":
        return known
    names = _comma_list(key, raw, lambda tok: tok.strip().upper(), "names")
    unknown = set(names) - set(known)
    if unknown:
        raise DomainError(f"unknown {key} {sorted(unknown)}")
    return names


def _parse_spec_value(slot: str, value: str) -> ModelSpec:
    tokens = value.split()
    if not tokens:
        raise DomainError(f"empty model spec for {slot}")
    family = tokens[0]
    predictors: tuple = ()
    omit: tuple = ()
    fix = None
    for tok in tokens[1:]:
        if "=" not in tok:
            raise DomainError(f"bad spec token {tok!r} for {slot}")
        key, val = tok.split("=", 1)
        if key == "predictors":
            predictors = tuple(p for p in val.split("+") if p)
        elif key == "omit":
            omit = tuple(p for p in val.split("+") if p)
        elif key == "fix":
            fix = _number(f"nuisance.{slot} fix", val)
        else:
            raise DomainError(f"unknown spec option {key!r} for {slot}")
    return ModelSpec(slot, family, predictors=predictors, omit=omit, fix_value=fix)


def _parse_model_specs(cfg: dict):
    preset = cfg.get("preset")
    specs = {}
    if preset is not None:
        if preset.startswith("sim-setting-"):
            for spec in setting_model_specs(_number("preset", preset.rsplit("-", 1)[1], int)):
                specs[spec.component] = spec
        elif preset == "empirical":
            for slot, (args, response, _) in SLOTS.items():
                specs[slot] = ModelSpec(slot, "empirical", predictors=tuple(v for v in args if v != response))
        else:
            raise DomainError(f"unknown preset {preset!r}")
    for key, value in cfg.items():
        if key.startswith("nuisance."):
            slot = key.split(".", 1)[1]
            specs[slot] = _parse_spec_value(slot, value)
    if not specs:
        raise DomainError("no nuisance model specs: give preset=... or nuisance.<slot>=... lines")
    return list(specs.values())


# -- subcommands --------------------------------------------------------------


def cmd_bounds(args, cfg: dict) -> int:
    if args.dist:
        cfg["dist"] = args.dist
    pair = _parse_pair(cfg)
    models = _parse_names(cfg, "models", MODELS)
    if "dist" in cfg:
        dist = read_dist_csv(cfg["dist"])
        keys, records = {}, [bound(dist, pair, model).to_dict() for model in models]
    else:
        nodes, records = _number("gh_nodes", cfg.get("gh_nodes", _GH_NODES), int), []
        GaussHermiteZRule(nodes)  # refuses a node count the rule refuses, as McConfig does, also for closed forms only
        for params, keys in _dgp_grid(cfg):  # every point varies the same keys
            records += [{**keys, **simdgp_bound(params, pair, model, n_nodes=nodes).to_dict()} for model in models]
    header = (*keys, "model", "value", "method", "a_star", "a_ref")
    _report(args, header, [[r[k] for k in header] for r in records])
    return 0


def cmd_estimate(args, cfg: dict) -> int:
    if args.data:
        cfg["data"] = args.data
    if "data" not in cfg:
        raise DomainError("estimate needs a dataset (--data or data=... in the config)")
    pair = _parse_pair(cfg)
    tags = _parse_names(cfg, "tags", ESTIMATOR_TAGS)
    td_form = cfg.get("td_form", "general")
    if td_form not in ("general", "reduced"):
        raise DomainError(f"td_form: expected 'general' or 'reduced', got {td_form!r}")
    data = read_data_csv(cfg["data"], pair)
    specs = _parse_model_specs(cfg)
    folds = _number("crossfit_folds", cfg.get("crossfit_folds", 0), int)
    seed = args.seed if args.seed is not None else _number("seed", cfg.get("seed", 0), int)
    plan = CrossFitPlan(folds=folds, seed=seed)
    eta = fit(data, specs, plan=plan)
    results = estimate_all(data, eta, tags, td_reduced=td_form == "reduced")
    _report(args, EstimationResult.CSV_HEADER, [[getattr(r, k) for k in EstimationResult.CSV_HEADER] for r in results], [vars(r) for r in results])
    return 0


def cmd_simulate(args, cfg: dict) -> int:
    grid = _dgp_grid(cfg)
    settings = _numbers("setting", cfg.get("setting", 0), int)
    sizes = _numbers("sizes", cfg.get("sizes", "5000"), int)
    replicates = _number("replicates", cfg.get("replicates", 200), int)
    if args.paper_scale:
        sizes, replicates = (50000,), 1000
    options = dict(
        sizes=sizes,
        replicates=replicates,
        tags=_parse_names(cfg, "tags", ESTIMATOR_TAGS),
        seed=args.seed if args.seed is not None else _number("seed", cfg.get("seed", 0), int),
        threads=args.threads if args.threads is not None else _number("threads", cfg.get("threads", 1), int),
        gh_nodes=_number("gh_nodes", cfg.get("gh_nodes", _GH_NODES), int),  # McConfig builds its rule
    )
    runs = [(keys, McConfig(params=params, setting=setting, **options)) for (params, keys), setting in itertools.product(grid, settings)]
    records, payloads = [], []
    for keys, config in runs:  # every point varies the same keys; each row carries its setting
        summary = run_mc(config)
        rows = [vars(r) for r in summary.rows]
        records += [[*keys.values(), *(r[k] for k in summary.CSV_HEADER)] for r in rows]
        run_keys = {**keys, "setting": config.setting} if len(settings) > 1 else keys
        payloads.append({**run_keys, "theta": summary.theta, "failed": summary.failed, "rows": rows})
    _report(args, (*keys, *summary.CSV_HEADER), records, payloads if len(payloads) > 1 else payloads[0])
    return 0


def cmd_compare(args, cfg: dict) -> int:
    if args.interval is not None:
        header, row = ("p_star", "low", "high"), (args.interval, *cmp_mod.density_ratio_interval(args.interval))
        _report(args, header, [row], dict(zip(header, row)))  # json: the one record as an object
        return 0
    if args.scan:
        grid = cmp_mod.default_scan_grid()
        for key in grid:
            if key in cfg:
                grid[key] = np.array(_numbers(key, cfg[key]))
        rows = cmp_mod.binary_family_scan(grid)
        inside = rows["diff"][rows["interval_member"]]
        gap = f"{inside.max():.3e}" if inside.size else "none"
        sys.stderr.write(f"{rows.size} grid points, {inside.size} inside the band, max in-band gap {gap}\n")
        _report(args, rows.dtype.names, zip(*(rows[name].tolist() for name in rows.dtype.names)))
        violations = int(np.sum(rows["interval_member"] & (rows["diff"] > 1e-10)))
        if violations:
            sys.stderr.write(f"{violations} grid points violate the ratio-band ordering\n")
            return 1
        return 0
    if args.format == "csv":  # the per-cell payload nests, so it has no csv form
        raise DomainError("compare --dist writes json only; drop --format csv or give --format json")
    dist = read_dist_csv(args.dist)
    pair = _parse_pair(cfg)
    gap = cmp_mod.td_minus_bd_gap(dist, pair)
    verdict = cmp_mod.td_vs_bd_verdict(dist, pair)
    payload = {
        "td_minus_bd": gap,
        "ordering": verdict.ordering,
        "holds_everywhere": verdict.holds_everywhere,
        "holds_nowhere": verdict.holds_nowhere,
        "cells": {f"z={z},c={c}": v for (z, c), v in verdict.cell_values.items()},
    }
    if "coef" in cfg:
        coef = tuple(_number("coef", tok) for tok in cfg["coef"].split(",") if tok.strip())  # a vector: values may repeat
        fd_verdict = cmp_mod.fd_vs_bd_verdict(dist, pair, coef)
        payload["fd_vs_bd"] = {
            "ordering": fd_verdict.ordering,
            "reciprocal_gaps": fd_verdict.extras["reciprocal_gaps"],
        }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def cmd_oracle(args, cfg: dict) -> int:
    dist = read_dist_csv(args.dist)
    pair = _parse_pair(cfg)
    rows = []
    for model in MODELS:
        closed = bound(dist, pair, model).value
        enum = brute_force_variance(dist, pair, model)
        rows.append((model, closed, enum, abs(closed - enum)))
    _report(args, ("model", "formula", "enumeration", "abs_diff"), rows)
    worst = max(0.0, *(r[3] for r in rows))
    if worst > _ORACLE_TOL:
        sys.stderr.write(f"oracle discrepancy {worst:.3e} exceeds tolerance {_ORACLE_TOL:.1e}\n")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="acebounds", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", help="output path (atomic write); default stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("bounds", help="efficiency bounds for a dist file or the Gaussian-mediator family")
    common(p)
    p.add_argument("--dist", help="distribution file with header c,a,z,y,p")
    p.add_argument("--dgp", help="comma list, e.g. alpha=1,beta=0.5,gamma1=0.5,gamma2=0.5")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("estimate", help="plug-in estimates on an observation file")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="overrides the seed config key")
    p.add_argument("--data", help="observations with header c,a,z,y")
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("simulate", help="Monte Carlo study of the estimators")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="overrides the seed config key")
    p.add_argument("--threads", type=int, default=None, help="replicates in flight; overrides the threads config key")
    p.add_argument("--paper-scale", action="store_true", help="n=50000, 1000 replicates")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("compare", help="bound comparisons: interval, grid scan or per-dist verdicts")
    common(p)
    p.add_argument("--interval", type=float, help="p(a*|c) for the density-ratio interval")
    p.add_argument("--scan", action="store_true", help="scan the all-binary example family grid")
    p.add_argument("--dist", help="distribution file for a per-dist verdict (json only)")
    p.set_defaults(handler=cmd_compare, format=None)  # unset: csv, except --dist, which refuses csv

    p = sub.add_parser("oracle", help="check bound formulas against brute-force enumeration")
    common(p)
    p.add_argument("--dist", required=True, help="distribution file with header c,a,z,y,p")
    p.set_defaults(handler=cmd_oracle)
    return parser


# mode (see _mode) -> every config key it reads; any other key is refused before any work
_PAIR_KEYS = ("a_star", "a_ref")
_KEYS = {
    "bounds": (*_PAIR_KEYS, *_DGP_KEYS, "models", "gh_nodes"),
    "bounds --dist": (*_PAIR_KEYS, "models", "dist"),
    "estimate": (*_PAIR_KEYS, "data", "tags", "td_form", "preset", *(f"nuisance.{slot}" for slot in SLOTS), "crossfit_folds", "seed"),
    "simulate": (*_DGP_KEYS, "setting", "sizes", "replicates", "tags", "seed", "threads", "gh_nodes"),
    "compare --interval": (),
    "compare --scan": cmp_mod._SCAN_KEYS,
    "compare --dist": (*_PAIR_KEYS, "coef"),
    "oracle": _PAIR_KEYS,
}


def _mode(args, cfg: dict) -> str:
    """The subcommand, or for `bounds --dist` (the flag or the dist key) and `compare` the mode its flag picks."""
    if args.command == "bounds" and (args.dist or "dist" in cfg):
        return "bounds --dist"
    if args.command != "compare":
        return args.command
    flags = [flag for flag, given in (("--interval", args.interval is not None), ("--scan", args.scan), ("--dist", args.dist)) if given]
    if not flags:
        raise DomainError("compare needs one of --interval, --scan or --dist")
    if len(flags) > 1:
        raise DomainError(f"compare takes one of --interval, --scan or --dist, got {' and '.join(flags)}")
    return f"compare {flags[0]}"


def _config(args) -> dict:
    """The config file, then --set, then (bounds) the --dgp items; refuses a key the mode never reads."""
    cfg = _apply_overrides(read_config(args.config), args.set)
    if getattr(args, "dgp", None):
        items = args.dgp.split(",")
        for item in items:
            if "=" not in item:
                raise DomainError(f"--dgp entry {item!r} is not key=value: --dgp takes one value per key; give a list with --set key=v1,v2 or in the config file")
        _apply_overrides(cfg, items)
    mode = _mode(args, cfg)
    unknown = sorted(set(cfg) - set(_KEYS[mode]))
    if unknown:
        raise DomainError(f"{mode} reads no config key {', '.join(map(repr, unknown))}")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, _config(args))
    except (AceboundsError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
