"""Command-line entry point.

Subcommands:
    norm        compute one scanned quantity for one function
    operator    ratio scan of J_g / I_g / M_g over the test family
    membership  coefficient block-sum and derivative-growth criteria
    verify      run verification tasks V1..V10 and emit the report
    sweep       tabulate a quantity over (p, lam) grids or over grid levels

Each subcommand registers only the flags it reads.  The config file (JSON,
via --config or the DIRIMOR_CONFIG environment variable) sets any
``RunConfig`` field, and CLI flags take precedence.  Exit codes: 0 for
success, 1 for a failed verification, 2 for bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
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
    spec_fields,
    summarize,
)

KIND_BY_NAME = {"jg": JG, "ig": IG, "mg": MG}
# every option of the subcommands: flag -> add_argument keywords; a dest
# that names a RunConfig field overrides that field
FLAGS = {
    "--config": dict(dest="config", help="JSON config file (DIRIMOR_CONFIG is the fallback)"),
    "--out": dict(dest="out", help="output path for structured results"),
    "--p": dict(dest="p", type=float, help="weight exponent p in (0, 1]"),
    "--lambda": dict(dest="lam", type=float, help="Morrey exponent in [0, 1]"),
    "--depth": dict(dest="depth", type=int, help="radial dyadic depth for translate scans"),
    "--k-a": dict(dest="k_a", type=int, help="a-grid depth"),
    "--k-arc": dict(dest="k_arc", type=int, help="arc-grid depth"),
    "--angular-min": dict(dest="base_panels", type=int,
                          help="background angular panels per annulus"),
    "--radial-order": dict(dest="box_radial_order", type=int,
                           help="radial rule order for fitted region grids"),
    "--workers": dict(dest="workers", type=int, help="worker pool size for verification runs"),
    "--seed": dict(dest="seed", type=int, help="seed for random sample points"),
    "--s": dict(dest="s", type=float, help="power-weight exponent for morrey (default 0)"),
}
GRID_FLAGS = ("--depth", "--k-a", "--k-arc", "--angular-min", "--radial-order")
SCAN_FLAGS = ("--config", "--out", "--p", "--lambda", *GRID_FLAGS)
TRANSLATE_READS = ("--k-a", "--depth", "--angular-min")
BOX_READS = ("--k-arc", "--radial-order")
# --quantity name -> (the flags it reads, scan(f, params, config, s)).  Each
# scan names its norms function at call time, so a rebinding of that
# function (as a tracer does) reaches it.
QUANTITIES = {
    "dp": ((), lambda f, P, c, s: dirichlet_norm(f, c.p)),
    "dm-translate": (TRANSLATE_READS, lambda f, P, c, s: dm_norm_translate(
        f, P, c.param_grid())),
    "dm-box": (BOX_READS, lambda f, P, c, s: dm_seminorm_box(
        f, P, c.param_grid(), radial_order=c.box_radial_order)),
    "qp": (BOX_READS, lambda f, P, c, s: qp_quantity(
        f, c.p, c.param_grid(), radial_order=c.box_radial_order)),
    "qplog": (BOX_READS, lambda f, P, c, s: qp_log_quantity(
        f, c.p, c.param_grid(), radial_order=c.box_radial_order)),
    "boundary": ((), lambda f, P, c, s: boundary_double_seminorm(
        f, P, c.boundary_grid(), t_depth=c.boundary_t_depth)),
    "gpcm": ((), lambda f, P, c, s: gpcm_quantity(f, c.p)),
    "hinf": (("--k-a",), lambda f, P, c, s: hinf_sup(f, k_levels=c.k_a)),
    "growth": ((), lambda f, P, c, s: growth_envelope(f, P)),
    "morrey": ((*TRANSLATE_READS, "--s"), lambda f, P, c, s: general_morrey_norm(
        f, c.p, 0.0 if s is None else s, c.param_grid())),
}


def _add_flags(ap: argparse.ArgumentParser, flags):
    for flag in flags:
        ap.add_argument(flag, **FLAGS[flag])


def _config_from_args(args) -> RunConfig:
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields}
    return resolve_config(args.config, overrides)


def _scan(args, quantity: str, what: str, checked=(*GRID_FLAGS, "--s")):
    """(config, scan) of the QUANTITIES row ``quantity``.  Raises ValueError
    naming every flag of ``checked`` given on the command line that the row
    does not read."""
    reads, scan = QUANTITIES[quantity]
    unread = [flag for flag in checked
              if flag not in reads and getattr(args, FLAGS[flag]["dest"], None) is not None]
    if unread:
        raise ValueError(f"{what} does not read {', '.join(unread)}")
    return _config_from_args(args), scan


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)


def cmd_norm(args) -> int:
    config, scan = _scan(args, args.quantity, f"--quantity {args.quantity}")
    params = config.space_params()
    f = parse_function_spec(args.function, params)
    payload = scan(f, params, config, args.s).as_dict()
    payload["function"] = args.function
    _emit(payload, args.out)
    return 0


def cmd_operator(args) -> int:
    config = _config_from_args(args)
    params = config.space_params()
    g = parse_function_spec(args.g, params)
    rep = ratio_scan(KIND_BY_NAME[args.kind], g, _test_family(config, params))
    _emit(rep.as_dict(), args.out)
    return 0


# coefficient rule -> (its required keys, its optional keys with their
# defaults, the rule made from the numbers of those keys in that order)
COEFF_RULES = {
    "remark": (("q",), {}, remark_coefficient_rule),
    "geometric": (("r",), {}, lambda r: lambda k: r ** k),
    "constant": ((), {"v": "1"}, lambda v: lambda k: v),
    "zero": ((), {}, lambda: lambda k: 0.0),
}


def _parse_coeff_rule(text: str):
    head, _, rest = text.strip().partition(":")
    if head not in COEFF_RULES:
        raise FunctionSpecError(f"unknown coefficient rule {head!r}")
    required, defaults, rule = COEFF_RULES[head]
    fields = {**defaults, **spec_fields(rest, f"coefficient rule {head}", required, defaults)}
    numbers = []
    for key in (*required, *defaults):
        try:
            numbers.append(float(fields[key]))
        except ValueError:
            raise FunctionSpecError(
                f"coefficient rule {head}: bad number {key}={fields[key]!r}") from None
    return rule(*numbers)


def cmd_membership(args) -> int:
    coeffs = GapCoefficients(_parse_coeff_rule(args.coeff_rule), args.K)
    if args.criterion == "gap-qp":
        rep = gap_block_sums(coeffs, args.q)
        payload = {"classification": rep.classification, "partial_sum": rep.final_sum,
                   "limit_estimate": rep.limit_estimate}
    else:
        payload = {"tail_max": yamashita_limsup(coeffs, args.q)}
    _emit({"criterion": args.criterion, "q": args.q, "K": args.K, **payload}, args.out)
    return 0


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    if args.task:
        config = config.with_overrides({"tasks": tuple(args.task)})
    results = run_tasks(config.tasks, config)
    emit_report(results, config.out, config)
    print(summarize(results), end="")
    return 0 if all(r.passed for r in results) else 1


def _parse_grid_spec(flag: str, spec: str):
    try:
        lo, hi, n = spec.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError as exc:
        raise ValueError(f"{flag} {spec!r}: expected lo:hi:n ({exc})") from None


def cmd_sweep(args) -> int:
    if args.mode == "params":
        # --p-grid and --lambda-grid replace --p and --lambda
        config, scan = _scan(args, "dm-translate", "--mode params", (*GRID_FLAGS, "--p", "--lambda"))
        p_grid = _parse_grid_spec("--p-grid", args.p_grid)
        lam_grid = _parse_grid_spec("--lambda-grid", args.lambda_grid)
        rows = ["p,lambda,value,refinement_delta"]
        for p in p_grid:
            for lam in lam_grid:
                params = SpaceParams(float(p), float(lam))
                rep = scan(parse_function_spec(args.function, params), params, config, None)
                rows.append(f"{p:.6g},{lam:.6g},{rep.value:.12g},{rep.refinement_delta:.3g}")
    else:
        config, scan = _scan(args, "dm-box", "--mode levels")
        params = config.space_params()
        rep = scan(parse_function_spec(args.function, params), params, config, None)
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
    p_norm.add_argument("--quantity", required=True, choices=QUANTITIES)
    p_norm.add_argument("--function", required=True, help="function spec, e.g. taylor:0,1")
    _add_flags(p_norm, (*SCAN_FLAGS, "--s"))
    p_norm.set_defaults(func=cmd_norm)

    p_op = sub.add_parser("operator", help="ratio scan of an operator")
    p_op.add_argument("--kind", required=True, choices=sorted(KIND_BY_NAME))
    p_op.add_argument("--g", required=True, help="symbol spec, e.g. log1")
    _add_flags(p_op, ("--config", "--out", "--p", "--lambda"))
    p_op.set_defaults(func=cmd_operator)

    p_mem = sub.add_parser("membership", help="lacunary membership criteria")
    p_mem.add_argument("--criterion", required=True, choices=["gap-qp", "yamashita"])
    p_mem.add_argument("--q", type=float, required=True)
    p_mem.add_argument("--K", type=int, default=30)
    p_mem.add_argument("--coeff-rule", default="remark:q=0.3",
                       help="remark:q=..| geometric:r=..| constant:v=..| zero")
    _add_flags(p_mem, ("--out",))
    p_mem.set_defaults(func=cmd_membership)

    p_ver = sub.add_parser("verify", help="run verification tasks and emit the report")
    p_ver.add_argument("--task", action="append",
                       help="task id V1..V10 or 'all' (repeatable)")
    _add_flags(p_ver, (*SCAN_FLAGS, "--workers", "--seed"))
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="CSV sweeps over parameters or grid levels")
    p_sw.add_argument("--mode", choices=["params", "levels"], default="params")
    p_sw.add_argument("--function", required=True)
    p_sw.add_argument("--p-grid", default="0.2:0.8:4", help="lo:hi:n")
    p_sw.add_argument("--lambda-grid", default="0.2:0.8:4", help="lo:hi:n")
    _add_flags(p_sw, SCAN_FLAGS)
    p_sw.set_defaults(func=cmd_sweep)

    return ap


def _check_out(path: str, make_parents: bool) -> None:
    """Raise OSError naming ``path`` unless a file can be written there: it
    is no directory, and its parent is a writable directory (with
    ``make_parents``, its nearest existing ancestor is)."""
    target = Path(path)
    if target.is_dir():
        raise OSError(f"--out {path}: is a directory")
    parent = target.parent
    while make_parents and not parent.exists() and parent != parent.parent:
        parent = parent.parent
    if not (parent.is_dir() and os.access(parent, os.W_OK | os.X_OK)):
        raise OSError(f"--out {path}: {parent} is not a writable directory")


def main(argv=None) -> int:
    """Run one subcommand; bad input, or an output path that cannot be
    written, prints one ``error:`` line and gives 2 before any computation."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":  # emit_report creates missing parents
            _check_out(_config_from_args(args).out, make_parents=True)
        elif args.out:
            _check_out(args.out, make_parents=False)
        return args.func(args)
    except (ValueError, OSError) as exc:
        message = str(exc)
    except KeyError as exc:  # str() of a KeyError quotes its message
        message = exc.args[0] if exc.args else exc
    print(f"error: {message}", file=sys.stderr)
    return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
