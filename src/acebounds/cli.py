"""Command-line interface.

Subcommands: `bounds`, `estimate`, `simulate`, `compare`, `oracle`.
Configuration is a flat key=value text file; any key can be overridden on the
command line with --set key=value.  Output files are written atomically
(temp file + rename).  CSV output carries 6 significant digits; json carries
full precision.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import compare as cmp_mod
from .bounds import MODELS, SimDgpParams, bound, simdgp_bound
from .dist import TreatmentPair, csv_text, read_dist_csv, report_cell, write_text
from .errors import AceboundsError, DomainError
from .estimators import ESTIMATOR_TAGS, EstimationResult, estimate_all
from .fitting import SLOTS, CrossFitPlan, ModelSpec, fit, read_data_csv
from .influence import brute_force_variance
from .simlab import McConfig, run_mc, setting_model_specs

__all__ = ["main"]


def _emit(text: str, out: str | None) -> None:
    if out is None and not text.endswith("\n"):
        text += "\n"
    write_text(text, sys.stdout if out is None else out)


def _report(args, header, records, payload=None) -> None:
    """Dict records as csv columns `header`, or as json (`payload` in their place when given)."""
    if args.format == "json":
        _emit(json.dumps(records if payload is None else payload, indent=2, sort_keys=True), args.out)
    else:
        _emit(csv_text(header, ([r[k] for k in header] for r in records), report_cell), args.out)


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


def _parse_pair(cfg: dict) -> TreatmentPair:
    return TreatmentPair(float(cfg.get("a_star", 1.0)), float(cfg.get("a_ref", 0.0)))


def _parse_dgp(cfg: dict) -> SimDgpParams:
    kwargs = {}
    for key in ("alpha", "beta", "gamma1", "gamma2", "sigma_z", "sigma_y", "p_c"):
        if key in cfg:
            kwargs[key] = float(cfg[key])
    missing = {"alpha", "beta", "gamma1", "gamma2"} - set(kwargs)
    if missing:
        raise DomainError(f"dgp parameters missing: {sorted(missing)}")
    return SimDgpParams(**kwargs)


def _parse_names(cfg: dict, key: str, known: tuple) -> tuple:
    """The comma list under `key`, upper-cased, or every known name for "all" (the default)."""
    raw = cfg.get(key, "all")
    if raw == "all":
        return known
    names = tuple(tok.strip().upper() for tok in raw.split(",") if tok.strip())
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
            fix = float(val)
        else:
            raise DomainError(f"unknown spec option {key!r} for {slot}")
    return ModelSpec(slot, family, predictors=predictors, omit=omit, fix_value=fix)


def _parse_model_specs(cfg: dict):
    preset = cfg.get("preset")
    specs = {}
    if preset is not None:
        if preset.startswith("sim-setting-"):
            for spec in setting_model_specs(int(preset.rsplit("-", 1)[1])):
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
    if args.dgp:
        _apply_overrides(cfg, args.dgp.split(","))
    if args.dist:
        cfg["dist"] = args.dist
    pair = _parse_pair(cfg)
    models = _parse_names(cfg, "models", MODELS)
    nodes = int(cfg.get("gh_nodes", 64))
    if "dist" in cfg:
        dist = read_dist_csv(cfg["dist"])
        reports = [bound(dist, pair, model) for model in models]
    else:
        params = _parse_dgp(cfg)
        reports = [simdgp_bound(params, pair, model, n_nodes=nodes) for model in models]
    _report(args, ("model", "value", "method", "a_star", "a_ref"), [r.to_dict() for r in reports])
    return 0


def cmd_estimate(args, cfg: dict) -> int:
    if args.data:
        cfg["data"] = args.data
    if "data" not in cfg:
        raise DomainError("estimate needs a dataset (--data or data=... in the config)")
    pair = _parse_pair(cfg)
    data = read_data_csv(cfg["data"], pair)
    specs = _parse_model_specs(cfg)
    folds = int(cfg.get("crossfit_folds", 0))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    plan = CrossFitPlan(folds=folds, seed=seed)
    eta = fit(data, specs, plan=plan, gh_nodes=int(cfg.get("gh_nodes", 64)))
    tags = _parse_names(cfg, "tags", ESTIMATOR_TAGS)
    td_reduced = cfg.get("td_form", "general") == "reduced"
    results = estimate_all(data, eta, tags, td_reduced=td_reduced)
    _report(args, EstimationResult.CSV_HEADER, [r.to_dict() for r in results])
    return 0


def cmd_simulate(args, cfg: dict) -> int:
    params = _parse_dgp(cfg)
    sizes = tuple(int(x) for x in str(cfg.get("sizes", "5000")).split(",") if x)
    replicates = int(cfg.get("replicates", 200))
    if args.paper_scale:
        sizes, replicates = (50000,), 1000
    config = McConfig(
        params=params,
        sizes=sizes,
        replicates=replicates,
        tags=_parse_names(cfg, "tags", ESTIMATOR_TAGS),
        setting=int(cfg.get("setting", 0)),
        seed=args.seed if args.seed is not None else int(cfg.get("seed", 0)),
        threads=args.threads if args.threads else int(cfg.get("threads", 1)),
        gh_nodes=int(cfg.get("gh_nodes", 64)),
    )
    summary = run_mc(config)
    rows = [vars(r) for r in summary.rows]
    _report(args, summary.CSV_HEADER, rows, {"theta": summary.theta, "failed": summary.failed, "rows": rows})
    return 0


def cmd_compare(args, cfg: dict) -> int:
    if args.interval is not None:
        low, high = cmp_mod.density_ratio_interval(args.interval)
        if args.format == "json":
            _emit(json.dumps({"p_star": args.interval, "low": low, "high": high}), args.out)
        else:
            _emit(csv_text(("p_star", "low", "high"), [(args.interval, low, high)], report_cell), args.out)
        return 0
    if args.scan:
        grid = cmp_mod.default_scan_grid()
        for key in grid:
            if key in cfg:
                grid[key] = np.array([float(v) for v in cfg[key].split(",")])
        rows = cmp_mod.binary_family_scan(grid)
        cmp_mod.scan_to_csv(rows, sys.stdout if args.out is None else args.out)
        violations = int(np.sum(rows["interval_member"] & (rows["diff"] > 1e-10)))
        if violations:
            sys.stderr.write(f"{violations} grid points violate the ratio-band ordering\n")
            return 1
        return 0
    if args.dist:
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
            coef = [float(v) for v in cfg["coef"].split(",")]
            fd_verdict = cmp_mod.fd_vs_bd_verdict(dist, pair, coef)
            payload["fd_vs_bd"] = {
                "ordering": fd_verdict.ordering,
                "reciprocal_gaps": fd_verdict.extras["reciprocal_gaps"],
            }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return 0
    raise DomainError("compare needs one of --interval, --scan or --dist")


def cmd_oracle(args, cfg: dict) -> int:
    dist = read_dist_csv(args.dist)
    pair = _parse_pair(cfg)
    tol = float(cfg.get("tol", 1e-9))
    rows = []
    for model in MODELS:
        closed = bound(dist, pair, model).value
        enum = brute_force_variance(dist, pair, model)
        rows.append({"model": model, "formula": closed, "enumeration": enum, "abs_diff": abs(closed - enum)})
    _report(args, ("model", "formula", "enumeration", "abs_diff"), rows)
    worst = max(0.0, *(r["abs_diff"] for r in rows))
    if worst > tol:
        sys.stderr.write(f"oracle discrepancy {worst:.3e} exceeds tolerance {tol:.1e}\n")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="acebounds", description=__doc__)
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
    p.add_argument("--threads", type=int, default=0, help="replicates in flight; overrides the threads config key")
    p.add_argument("--paper-scale", action="store_true", help="n=50000, 1000 replicates")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("compare", help="bound comparisons: interval, grid scan or per-dist verdicts")
    common(p)
    p.add_argument("--interval", type=float, help="p(a*|c) for the density-ratio interval")
    p.add_argument("--scan", action="store_true", help="scan the all-binary example family grid")
    p.add_argument("--dist", help="distribution file for a per-dist verdict")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("oracle", help="check bound formulas against brute-force enumeration")
    common(p)
    p.add_argument("--dist", required=True, help="distribution file with header c,a,z,y,p")
    p.set_defaults(handler=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, _apply_overrides(read_config(args.config), args.set))
    except (AceboundsError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
