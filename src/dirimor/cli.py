"""Command-line entry point.

Subcommands:
    norm        compute one scanned quantity for one function
    operator    ratio scan of J_g / I_g / M_g over the test family
    membership  coefficient block-sum and derivative-growth criteria
    verify      run verification tasks V1..V10 and emit the report
    sweep       tabulate a quantity over (p, lam) grids or over grid levels

Global flags configure grids and determinism; every flag has a config-file
equivalent (JSON, via --config or the DIRIMOR_CONFIG environment variable),
with CLI flags taking precedence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analytic import SpaceParams
from .gaps import GapCoefficients, gap_block_sums, remark_coefficient_rule, yamashita_limsup
from .norms import (
    boundary_double_seminorm,
    dirichlet_norm,
    dm_norm_translate,
    dm_seminorm_box,
    general_morrey_norm,
    gpcm_quantity,
    growth_envelope,
    hinf_sup,
    qp_log_quantity,
    qp_quantity,
)
from .operators import IG, JG, MG, ratio_scan
from .verify import (
    FunctionSpecError,
    RunConfig,
    _test_family,
    emit_report,
    parse_function_spec,
    resolve_config,
    run_tasks,
    summarize,
)

KIND_BY_NAME = {"jg": JG, "ig": IG, "mg": MG}
# grid flags by RunConfig field; the dp, gpcm and growth quantities read none
GRID_FLAGS = {
    "depth": "--depth", "k_a": "--k-a", "k_arc": "--k-arc",
    "base_panels": "--angular-min", "box_radial_order": "--radial-order",
}


def _add_common(ap: argparse.ArgumentParser):
    ap.add_argument("--config", help="JSON config file (DIRIMOR_CONFIG is the fallback)")
    ap.add_argument("--out", help="output path for structured results")
    ap.add_argument("--workers", type=int, help="worker pool size for verification runs")
    ap.add_argument("--depth", type=int, help="radial dyadic depth for translate scans")
    ap.add_argument("--seed", type=int, help="seed for random sample points")
    ap.add_argument("--p", type=float, help="weight exponent p in (0, 1]")
    ap.add_argument("--lambda", dest="lam", type=float, help="Morrey exponent in [0, 1]")
    ap.add_argument("--k-a", type=int, help="a-grid depth")
    ap.add_argument("--k-arc", type=int, help="arc-grid depth")
    ap.add_argument("--angular-min", dest="base_panels", type=int,
                    help="background angular panels per annulus")
    ap.add_argument("--radial-order", dest="box_radial_order", type=int,
                    help="radial rule order for fitted region grids")


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for key in (
        "out", "workers", "depth", "seed", "p", "lam", "k_a", "k_arc",
        "base_panels", "box_radial_order",
    ):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    return resolve_config(getattr(args, "config", None), overrides)


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)


def cmd_norm(args) -> int:
    q = args.quantity
    if q in ("dp", "gpcm", "growth"):
        given = [flag for key, flag in GRID_FLAGS.items() if getattr(args, key) is not None]
        if given:
            print(f"error: --quantity {q} reads no grid flag, got {', '.join(given)}",
                  file=sys.stderr)
            return 2
    config = _config_from_args(args)
    params = SpaceParams(config.p, config.lam)
    try:
        f = parse_function_spec(args.function, params)
    except FunctionSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    grid = config.param_grid()
    if q == "dp":
        rep = dirichlet_norm(f, config.p)
    elif q == "dm-translate":
        rep = dm_norm_translate(f, params, grid, **config.translate_opts())
    elif q == "dm-box":
        rep = dm_seminorm_box(f, params, grid, **config.box_opts())
    elif q == "qp":
        rep = qp_quantity(f, config.p, grid, **config.box_opts())
    elif q == "qplog":
        rep = qp_log_quantity(f, config.p, grid, **config.box_opts())
    elif q == "boundary":
        rep = boundary_double_seminorm(
            f, params, config.boundary_grid(), t_depth=config.boundary_t_depth
        )
    elif q == "gpcm":
        rep = gpcm_quantity(f, config.p)
    elif q == "hinf":
        rep = hinf_sup(f, k_levels=config.k_a)
    elif q == "growth":
        rep = growth_envelope(f, params)
    elif q == "morrey":
        rep = general_morrey_norm(f, config.p, args.s, grid, **config.translate_opts())
    else:
        print(f"error: unknown quantity {q!r}", file=sys.stderr)
        return 2
    payload = rep.as_dict()
    payload["function"] = args.function
    _emit(payload, args.out)
    return 0


def cmd_operator(args) -> int:
    config = _config_from_args(args)
    params = SpaceParams(config.p, config.lam)
    try:
        g = parse_function_spec(args.g, params)
    except FunctionSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = ratio_scan(KIND_BY_NAME[args.kind], g, _test_family(config, params))
    _emit(rep.as_dict(), args.out)
    return 0


def _parse_coeff_rule(text: str):
    text = text.strip()
    head, sep, rest = text.partition(":")
    fields = {}
    if sep:
        for item in rest.split(","):
            k, eq, v = item.partition("=")
            if not eq:
                raise FunctionSpecError(f"coefficient rule: expected key=value, got {item!r}")
            fields[k.strip()] = v.strip()
    if head == "remark":
        return remark_coefficient_rule(float(fields["q"]))
    if head == "geometric":
        r = float(fields["r"])
        return lambda k: r ** k
    if head == "constant":
        v = float(fields.get("v", "1"))
        return lambda k: v
    if head == "zero":
        return lambda k: 0.0
    raise FunctionSpecError(f"unknown coefficient rule {head!r}")


def cmd_membership(args) -> int:
    config = _config_from_args(args)
    try:
        rule = _parse_coeff_rule(args.coeff_rule)
    except (FunctionSpecError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    coeffs = GapCoefficients(rule, args.K)
    if args.criterion == "gap-qp":
        rep = gap_block_sums(coeffs, args.q)
        payload = {
            "criterion": "gap-qp",
            "q": args.q,
            "K": args.K,
            "classification": rep.classification,
            "partial_sum": rep.final_sum,
            "limit_estimate": rep.limit_estimate,
        }
    else:
        val = yamashita_limsup(coeffs, args.q)
        payload = {
            "criterion": "yamashita",
            "q": args.q,
            "K": args.K,
            "tail_max": val,
        }
    _emit(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    if args.task:
        config = config.with_overrides({"tasks": tuple(args.task)})
    results = run_tasks(config.tasks, config)
    emit_report(results, config.out, config)
    print(summarize(results), end="")
    return 0 if all(r.passed for r in results) else 1


def _parse_grid_spec(spec: str):
    lo, hi, n = spec.split(":")
    return np.linspace(float(lo), float(hi), int(n))


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    rows = ["p,lambda,value,refinement_delta"]
    if args.mode == "params":
        for p in _parse_grid_spec(args.p_grid):
            for lam in _parse_grid_spec(args.lambda_grid):
                params = SpaceParams(float(p), float(lam))
                f = parse_function_spec(args.function, params)
                rep = dm_norm_translate(f, params, config.param_grid(), **config.translate_opts())
                rows.append(f"{p:.6g},{lam:.6g},{rep.value:.12g},{rep.refinement_delta:.3g}")
    else:
        params = SpaceParams(config.p, config.lam)
        f = parse_function_spec(args.function, params)
        rep = dm_seminorm_box(f, params, config.param_grid(), **config.box_opts())
        rows = ["grid_level,quantity"]
        rows.extend(f"{l},{v:.12g}" for l, v in rep.levels)
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dirimor",
        description="Numerical scans of Dirichlet-Morrey norms, Carleson quantities "
        "and integration operators on the unit disc",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="compute one scanned quantity")
    p_norm.add_argument("--quantity", required=True, choices=[
        "dp", "dm-translate", "dm-box", "qp", "qplog", "boundary",
        "gpcm", "hinf", "growth", "morrey",
    ])
    p_norm.add_argument("--function", required=True, help="function spec, e.g. taylor:0,1")
    p_norm.add_argument("--s", type=float, default=0.0, help="power-weight exponent for morrey")
    _add_common(p_norm)
    p_norm.set_defaults(func=cmd_norm)

    p_op = sub.add_parser("operator", help="ratio scan of an operator")
    p_op.add_argument("--kind", required=True, choices=sorted(KIND_BY_NAME))
    p_op.add_argument("--g", required=True, help="symbol spec, e.g. log1")
    _add_common(p_op)
    p_op.set_defaults(func=cmd_operator)

    p_mem = sub.add_parser("membership", help="lacunary membership criteria")
    p_mem.add_argument("--criterion", required=True, choices=["gap-qp", "yamashita"])
    p_mem.add_argument("--q", type=float, required=True)
    p_mem.add_argument("--K", type=int, default=30)
    p_mem.add_argument("--coeff-rule", default="remark:q=0.3",
                       help="remark:q=..| geometric:r=..| constant:v=..| zero")
    _add_common(p_mem)
    p_mem.set_defaults(func=cmd_membership)

    p_ver = sub.add_parser("verify", help="run verification tasks and emit the report")
    p_ver.add_argument("--task", action="append",
                       help="task id V1..V10 or 'all' (repeatable)")
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="CSV sweeps over parameters or grid levels")
    p_sw.add_argument("--mode", choices=["params", "levels"], default="params")
    p_sw.add_argument("--function", required=True)
    p_sw.add_argument("--p-grid", default="0.2:0.8:4", help="lo:hi:n")
    p_sw.add_argument("--lambda-grid", default="0.2:0.8:4", help="lo:hi:n")
    _add_common(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
