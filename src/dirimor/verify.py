"""Verification tasks V1-V10: each one checks a single quantitative property
of the norm machinery at desk scale, over configurable grids, and reports
measured values against fixed thresholds.

Tasks are data: the registry maps an id to a statement, fixed parameters,
and thresholds; runners only orchestrate scans from the other modules, so
growing the suite list in the config grows the verification surface without
new task logic.  Reports are deterministic for a fixed config and worker
count independent (tasks are pure; assembly is ordered by id); the one
exception is the per-task runtime_ms field, which carries wall-clock timing
and is excluded from reproducibility comparisons.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .analytic import AnalyticFunction, BoundaryPoint, SpaceParams, log_kernel, make_power_kernel, make_taylor
from .gaps import GapCoefficients, gap_block_sums, remark_coefficient_rule, remark_example
from .norms import (
    BOX_PANEL_ORDER,
    ParamGrid,
    boundary_double_seminorm,
    box_quantity_pair,
    derivative_density,
    dm_norms_translate,
    dm_seminorm_box,
    growth_envelope,
    qp_quantity,
    trend_slope,
)
from .operators import (
    IG,
    JG,
    ibp_residual,
    interior_samples,
    make_test_family,
    ratio_scan,
)
from .quadrature import integrate_lune

SCHEMA = "dirimor-verify@1"

DEFAULT_SUITE = (
    "taylor:1",
    "taylor:0,1",
    "taylor:0,0,1",
    "taylor:1,2,0,1",
    "kernel:c=0.5+0i,s=auto",
    "kernel:c=0.9+0i,s=auto",
    "kernel:c=0.99+0i,s=auto",
    "kernel:c=1+0i,s=auto",
    "gap:q=0.2,K=20",
    "gap:q=0.5,K=20",
    "log1",
)


@dataclass(frozen=True)
class RunConfig:
    """Grid sizes, effort knobs and the suite; defaults reproduce the
    acceptance-criteria runs."""

    p: float = 0.5
    lam: float = 0.4
    # a-scan and arc-scan grids
    k_a: int = 10
    a_angle_cap: int = 64
    k_arc: int = 12
    n_centers: int = 64
    # disc quadrature for translate scans
    depth: int = 24
    base_panels: int = 16
    # fitted box quadrature
    box_radial_order: int = 6
    # boundary double integrals
    boundary_k_arc: int = 10
    boundary_n_centers: int = 16
    boundary_t_depth: int = 36
    # operator ratio scans
    k_c: int = 10
    c_directions: int = 8
    scan_k_a: int = 10
    scan_angle_cap: int = 16
    scan_depth: int = 20
    # misc
    workers: int = 1
    seed: int = 20260808
    out: str = "dirimor-report.json"
    suite: tuple = DEFAULT_SUITE
    tasks: tuple = ("all",)

    def __post_init__(self):
        for name, least in (("k_c", 1), ("c_directions", 1), ("workers", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")

    def space_params(self) -> SpaceParams:
        return SpaceParams(self.p, self.lam)

    def param_grid(self) -> ParamGrid:
        return ParamGrid(self.k_a, self.a_angle_cap, self.k_arc, self.n_centers,
                         self.depth, self.base_panels)

    def scan_grid(self) -> ParamGrid:
        return ParamGrid(self.scan_k_a, self.scan_angle_cap, self.k_arc, self.n_centers,
                         self.scan_depth, 12)

    def boundary_grid(self) -> ParamGrid:
        return ParamGrid(k_arc=self.boundary_k_arc, n_centers=self.boundary_n_centers)

    def describe(self) -> dict:
        d = dataclasses.asdict(self)
        d["suite"] = list(self.suite)
        d["tasks"] = list(self.tasks)
        return d

    def with_overrides(self, data: dict) -> "RunConfig":
        """This config with the fields of ``data`` replaced; a None value
        leaves its field alone.  An unknown key, or a value whose type does
        not fit its field, raises ValueError naming the key: int fields take
        integers (not bools), float fields numbers, ``out`` a string, and
        ``suite`` and ``tasks`` lists of strings."""
        types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
        unknown = set(data) - set(types)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        clean = {}
        for k, v in data.items():
            if v is None:
                continue
            if not _fits(types[k], v):
                raise ValueError(f"config key {k!r} takes {_TYPE_NAMES[types[k]]}, got {v!r}")
            clean[k] = tuple(v) if types[k] == "tuple" else v
        return dataclasses.replace(self, **clean)


# RunConfig field annotations (strings, under postponed evaluation) and what
# each takes, for the messages of with_overrides
_TYPE_NAMES = {"int": "an integer", "float": "a number", "str": "a string",
               "tuple": "a list of strings"}


def _fits(kind: str, v) -> bool:
    if isinstance(v, bool):
        return False
    if kind == "int":
        return isinstance(v, int)
    if kind == "float":
        return isinstance(v, (int, float))
    if kind == "str":
        return isinstance(v, str)
    return isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v)


def resolve_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """defaults < one config file < overrides.  The file is ``path`` when
    given, else the one DIRIMOR_CONFIG names; a named file that does not
    exist raises OSError, and one that holds no JSON object ValueError."""
    cfg = RunConfig()
    env_path = os.environ.get("DIRIMOR_CONFIG")
    if path is None and env_path:
        if not Path(env_path).exists():
            raise FileNotFoundError(f"DIRIMOR_CONFIG={env_path}: no such file")
        path = env_path
    if path is not None:
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config file {path}: expected a JSON object, got {data!r}")
        cfg = cfg.with_overrides(data)
    if overrides:
        cfg = cfg.with_overrides(overrides)
    return cfg


# ---------------------------------------------------------------------------
# Suite construction
# ---------------------------------------------------------------------------


class FunctionSpecError(ValueError):
    """A function spec string failed to parse; names the offending token."""


def parse_function_spec(text: str, params: Optional[SpaceParams] = None) -> AnalyticFunction:
    """Build a function from the mini-language:

    ``taylor:1,0,2`` | ``kernel:c=0.9+0i,s=0.35`` | ``gap:q=0.3,K=20`` | ``log1``

    Inside kernel specs, ``s=auto`` resolves to p(1-lam)/2 of the supplied
    parameters and |c| = 1 selects the boundary kernel.
    """
    text = text.strip()
    if text == "log1":
        return log_kernel()
    head, sep, rest = text.partition(":")
    if not sep:
        raise FunctionSpecError(f"unknown function spec {text!r}")
    if head == "taylor":
        coeffs = []
        for tok in rest.split(","):
            try:
                coeffs.append(_parse_complex(tok))
            except ValueError:
                raise FunctionSpecError(f"taylor spec: bad coefficient {tok!r}") from None
        return make_taylor(coeffs)
    if head == "kernel":
        fields = spec_fields(rest, "kernel spec", ("c", "s"))
        try:
            c = _parse_complex(fields["c"])
        except ValueError:
            raise FunctionSpecError(f"kernel spec: bad point {fields['c']!r}") from None
        if fields["s"] == "auto":
            if params is None:
                raise FunctionSpecError("kernel spec: s=auto needs space parameters")
            s = params.translate_exponent
        else:
            try:
                s = float(fields["s"])
            except ValueError:
                raise FunctionSpecError(f"kernel spec: bad exponent {fields['s']!r}") from None
        try:
            if abs(abs(c) - 1.0) <= 1e-12:
                return make_power_kernel(BoundaryPoint(math.atan2(c.imag, c.real)), s)
            return make_power_kernel(c, s)
        except ValueError as exc:
            raise FunctionSpecError(f"kernel spec: {exc}") from None
    if head == "gap":
        fields = spec_fields(rest, "gap spec", ("q",), ("K",))
        try:
            return remark_example(float(fields["q"]), int(fields.get("K", "20")))
        except ValueError as exc:  # a bad number, or too shallow a truncation
            raise FunctionSpecError(f"gap spec: {exc}") from None
    raise FunctionSpecError(f"unknown function family {head!r}")


def spec_fields(text: str, what: str, required=(), optional=()) -> dict:
    """The key=value fields of the comma-separated ``text`` of a ``what``
    (as "gap spec").  Raises FunctionSpecError naming a field without "=" or
    a repeated key, then the missing keys of ``required``, then a key
    neither required nor ``optional``."""
    fields = {}
    for item in text.split(",") if text else ():
        key, eq, val = (part.strip() for part in item.partition("="))
        if not eq:
            raise FunctionSpecError(f"{what}: expected key=value, got {item!r}")
        if key in fields:
            raise FunctionSpecError(f"{what}: repeated key {key!r}")
        fields[key] = val
    missing = [k for k in required if k not in fields]
    if missing:
        raise FunctionSpecError(f"{what}: missing {', '.join(missing)}")
    unknown = sorted(set(fields) - set(required) - set(optional))
    if unknown:
        raise FunctionSpecError(f"{what}: unknown key {', '.join(map(repr, unknown))}")
    return fields


def _parse_complex(tok: str) -> complex:
    tok = tok.strip().replace("i", "j")
    if not tok:
        raise ValueError("empty number")
    return complex(tok)


def build_suite(config: RunConfig, params: SpaceParams):
    return [(spec, parse_function_spec(spec, params)) for spec in config.suite]


def _boundary_suite(suite):
    return [(n, f) for n, f in suite if f.has_boundary_values]


# ---------------------------------------------------------------------------
# Task results and registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskResult:
    """One task's report.  ``runtime_ms`` is the task's wall time; a scan or
    test family its run shares with other tasks counts toward the task that
    builds it, and a task that waits for one counts the wait."""

    task_id: str
    statement: str
    inputs: dict
    measured: list
    thresholds: dict
    passed: bool
    runtime_ms: int
    notes: tuple = ()

    def as_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "statement": self.statement,
            "inputs": self.inputs,
            "measured": self.measured,
            "thresholds": self.thresholds,
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class VerificationTask:
    """``runner(config, fixed, memo)`` returns (measured, passed), where
    ``memo`` is the :class:`_RunMemo` of the run the task belongs to."""

    task_id: str
    statement: str
    runner: Callable
    fixed: dict = field(default_factory=dict)


class _RunMemo:
    """The scans and test families one verification run shares among its
    tasks, each made once.

    ``get(key, make)`` returns the value of ``key``, calling ``make()`` for
    it the first time.  One lock per key makes each value once whatever the
    worker count, and a task that asks for a value under construction waits
    for it.  No ``make`` asks the memo for another key, so a task never
    waits for a key while holding another key's lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._slots: dict = {}

    def get(self, key, make: Callable):
        with self._lock:
            slot = self._slots.setdefault(key, [threading.Lock(), None])
        with slot[0]:
            if slot[1] is None:
                slot[1] = make()
            return slot[1]


def _refined_translates(config: RunConfig, memo: _RunMemo) -> list:
    """The run's translate scan of the suite on the refined param grid."""
    params, grid = config.space_params(), config.param_grid().refined()
    return memo.get(("translate", config.suite, params, grid), lambda: dm_norms_translate(
        [f for _, f in build_suite(config, params)], params, grid))


def _refined_box(config: RunConfig, name: str, f: AnalyticFunction, memo: _RunMemo):
    """The run's box scan of the suite function ``name`` (built as ``f``) on
    the refined param grid."""
    params, grid = config.space_params(), config.param_grid().refined()
    return memo.get(("box", name, params, grid, config.box_radial_order), lambda: dm_seminorm_box(
        f, params, grid, radial_order=config.box_radial_order))


def _v1(config: RunConfig, fixed: dict, memo: _RunMemo):
    """Box quantity vs squared translate quantity across the suite, on the base
    grid and its refinement; the base-grid quantities are the refined scans
    read up to k_a and k_arc."""
    params = config.space_params()
    suite = build_suite(config, params)
    lo, hi = fixed["ratio_band"]
    dlo, dhi = fixed["drift_band"]
    grid = config.param_grid()
    measured, ok = [], True
    for (name, f), t in zip(suite, _refined_translates(config, memo)):
        row = {"function": name}
        box = _refined_box(config, name, f, memo)
        ratios = []
        for norm, b in ((t.upto(grid.k_a).value, box.upto(grid.k_arc).value),
                        (t.value, box.value)):
            tq = (norm - abs(f.at_zero())) ** 2
            if tq <= 1e-18 or b <= 1e-18:
                row["skipped"] = "degenerate"
                break
            ratios.append(tq / b)
        else:
            drift = ratios[1] / ratios[0]
            row.update(ratio=ratios[0], refined_ratio=ratios[1], drift=drift)
            good = lo <= ratios[0] <= hi and lo <= ratios[1] <= hi and dlo < drift < dhi
            row["pass"] = good
            ok = ok and good
        measured.append(row)
    return measured, ok


def _v2(config: RunConfig, fixed: dict, memo: _RunMemo):
    """Growth envelope controlled by the translate norm, drift-stable; the base
    norm and the 12-level envelope are the refined and 14-level scans read up
    to k_a and 12."""
    params = config.space_params()
    suite = build_suite(config, params)
    drift_cap = fixed["drift_cap"]
    grid = config.param_grid()
    measured, ok = [], True
    c_est = 0.0
    for (name, f), t in zip(suite, _refined_translates(config, memo)):
        n1, n2 = t.upto(grid.k_a).value, t.value
        if n1 <= 1e-18:  # n2 >= n1: the refined scan holds the base points
            measured.append({"function": name, "skipped": "degenerate"})
            continue
        env = growth_envelope(f, params, k_levels=14)
        e1, e2 = env.upto(12).value, env.value
        r1, r2 = e1 / n1, e2 / n2
        drift = r2 / r1 if r1 > 0 else 1.0
        good = (1.0 / drift_cap) < drift < drift_cap
        c_est = max(c_est, r1, r2)
        measured.append({
            "function": name, "envelope": e1, "norm": n1,
            "ratio": r1, "refined_ratio": r2, "drift": drift, "pass": good,
        })
        ok = ok and good
    measured.append({"C_est": c_est})
    return measured, ok


def _v3(config: RunConfig, fixed: dict, memo: _RunMemo):
    """Lune quantity of the boundary power kernel across dyadic chords."""
    p, lam = fixed["p"], fixed["lam"]
    params = SpaceParams(p, lam)
    f = make_power_kernel(BoundaryPoint(0.0), params.translate_exponent)
    spread_cap = fixed["spread_cap"]
    density = derivative_density(f, p)
    vals = []
    for j in range(1, fixed["h_levels"] + 1):
        h = 2.0 ** -j
        q = integrate_lune(
            density, 0.0, h, foci=(0.0,), rel_depth=24,
            radial_order=config.box_radial_order, panel_order=BOX_PANEL_ORDER,
        ).value / h ** params.box_exponent
        vals.append({"h": h, "quantity": q})
    qs = sorted(v["quantity"] for v in vals)
    med = qs[len(qs) // 2]
    ok = all(med / spread_cap <= v["quantity"] <= med * spread_cap for v in vals)
    vals.append({"median": med})
    return vals, ok


def _v4(config: RunConfig, fixed: dict, memo: _RunMemo):
    """Weight-exponent box inequality with the (2|I|)^(p2-p1) factor."""
    p1, p2 = fixed["p1"], fixed["p2"]
    params = config.space_params()
    suite = build_suite(config, params)
    grid = config.param_grid()
    measured, violations, checked = [], 0, 0
    for name, f in suite:
        worst = 0.0
        for arc, q1, q2 in box_quantity_pair(f, p1, p2, grid, radial_order=config.box_radial_order):
            checked += 1
            bound = (2.0 * arc.length) ** (p2 - p1) * q1
            if q2 > bound * (1 + 1e-12) + 1e-300:
                violations += 1
            if bound > 0:
                worst = max(worst, q2 / bound)
        measured.append({"function": name, "max_quotient": worst})
    measured.append({"arcs_checked": checked, "violations": violations})
    return measured, violations == 0


def _v5(config: RunConfig, fixed: dict, memo: _RunMemo):
    """Boundary double-integral quantity vs box quantity, drift-stable; the
    base-grid quantities are the refined scans read up to their k_arc."""
    params = config.space_params()
    suite = _boundary_suite(build_suite(config, params))
    drift_cap = fixed["drift_cap"]
    bgrid = config.boundary_grid()
    measured, ok = [], True
    for name, f in suite:
        bx = _refined_box(config, name, f, memo).upto(config.k_arc).value
        if bx <= 1e-18:
            measured.append({"function": name, "skipped": "degenerate"})
            continue
        rep = boundary_double_seminorm(f, params, bgrid.refined(), t_depth=config.boundary_t_depth)
        d1, d2 = rep.upto(bgrid.k_arc).value, rep.value
        r1, r2 = d1 / bx, d2 / bx
        drift = r2 / r1 if r1 > 0 else 1.0
        good = (1.0 / drift_cap) < drift < drift_cap
        measured.append({
            "function": name, "boundary": d1, "box": bx,
            "ratio": r1, "refined_ratio": r2, "drift": drift, "pass": good,
        })
        ok = ok and good
    return measured, ok


def _test_family(config: RunConfig, params: SpaceParams):
    """The operator test family of ``params`` on the config's scan grid."""
    return make_test_family(params, k_c=config.k_c, n_directions=config.c_directions,
                            norm_grid=config.scan_grid())


def _run_family(config: RunConfig, params: SpaceParams, memo: _RunMemo):
    """The run's test family of ``params``, keyed on every input of
    ``_test_family``."""
    key = ("family", params, config.k_c, config.c_directions, config.scan_grid())
    return memo.get(key, lambda: _test_family(config, params))


def _v6(config: RunConfig, fixed: dict, memo: _RunMemo):
    """Test-family norm uniformity up to |c| = 1 - 2^-k_c."""
    params = config.space_params()
    family = _run_family(config, params, memo)
    per_level: dict = {}
    for e in family.entries:
        per_level.setdefault(e.level, []).append(e.norm)
    levels = sorted(per_level)
    level_max = [max(per_level[k]) for k in levels]
    slope = trend_slope(levels, level_max)
    ratio = family.norm_max / family.norm_min
    ok = ratio <= fixed["uniformity_cap"] and abs(slope) < fixed["slope_cap"]
    measured = [
        {"norm_max": family.norm_max, "norm_min": family.norm_min,
         "max_over_min": ratio, "tail_slope": slope},
        {"level_max": {str(k): v for k, v in zip(levels, level_max)}},
    ]
    return measured, ok


def _v7(config: RunConfig, fixed: dict, memo: _RunMemo):
    """I_g dichotomy: bounded symbol bounded-trend, log symbol unbounded."""
    params = config.space_params()
    family = _run_family(config, params, memo)
    bounded = ratio_scan(IG, parse_function_spec(fixed["bounded_symbol"], params), family)
    unbounded = ratio_scan(IG, parse_function_spec(fixed["unbounded_symbol"], params), family)
    ok = (
        bounded.classification == "bounded-trend"
        and unbounded.classification == "unbounded-trend"
        and unbounded.slope > fixed["slope_floor"]
    )
    measured = [
        {"symbol": fixed["bounded_symbol"], "classification": bounded.classification,
         "slope": bounded.slope, "max_ratio": bounded.max_ratio},
        {"symbol": fixed["unbounded_symbol"], "classification": unbounded.classification,
         "slope": unbounded.slope, "max_ratio": unbounded.max_ratio},
    ]
    return measured, ok


def _v8(config: RunConfig, fixed: dict, memo: _RunMemo):
    """J_g bounded for the critical lacunary symbol, whose critical-exponent
    box scan nevertheless grows linearly with radial depth."""
    q = fixed["q"]
    params = SpaceParams(fixed["p"], q / fixed["p"])
    g = remark_example(q)
    family = _run_family(config, params, memo)
    scan = ratio_scan(JG, g, family)
    qp = qp_quantity(g, q, ParamGrid(k_arc=6, n_centers=16), radial_order=config.box_radial_order)
    lv = dict(qp.levels)
    j_lo, j_hi = fixed["depth_window"]
    xs = [j for j in range(j_lo, j_hi + 1) if j in lv]
    ys = [lv[j] for j in xs]
    corr = float(np.corrcoef(xs, ys)[0, 1]) if len(xs) >= 3 else 0.0
    ok = scan.classification == "bounded-trend" and corr >= fixed["corr_floor"]
    measured = [
        {"operator": "Jg", "symbol": g.label, "classification": scan.classification,
         "slope": scan.slope, "max_ratio": scan.max_ratio},
        {"qp_exponent": q, "depth_levels": xs, "values": ys, "corr": corr},
    ]
    return measured, ok


def _v9(config: RunConfig, fixed: dict, memo: _RunMemo):
    """Block-sum separation and the geometric limit above the critical exponent."""
    q, p = fixed["q"], fixed["p"]
    coeffs = GapCoefficients(remark_coefficient_rule(q), fixed["K"])
    at_q = gap_block_sums(coeffs, q)
    at_p = gap_block_sums(coeffs, p)
    want = 1.0 / (1.0 - 2.0 ** -(p - q))
    rel = abs((at_p.limit_estimate or 0.0) - want) / want
    ok = (
        at_q.classification == "divergent-trend"
        and at_p.classification == "convergent-trend"
        and rel <= fixed["limit_rtol"]
    )
    measured = [
        {"exponent": q, "classification": at_q.classification, "S_K": at_q.final_sum},
        {"exponent": p, "classification": at_p.classification,
         "limit_estimate": at_p.limit_estimate, "closed_form": want, "rel_error": rel},
    ]
    return measured, ok


def _v10(config: RunConfig, fixed: dict, memo: _RunMemo):
    """Integration-by-parts identity residual at quadrature tolerance."""
    params = config.space_params()
    samples = interior_samples(fixed["n_samples"], seed=config.seed)
    poly_pairs = [
        (make_taylor([1, -2, 0.5, 1j]), make_taylor([0.3, 1, 2])),
        (make_taylor([0, 1]), make_taylor([2, 0, 0, 1])),
    ]
    measured, ok = [], True
    worst_poly = 0.0
    for f, g in poly_pairs:
        worst_poly = max(worst_poly, ibp_residual(f, g, samples))
    good = worst_poly < fixed["poly_tol"]
    measured.append({"pairs": "polynomial", "max_residual": worst_poly, "pass": good})
    ok = ok and good
    fc = make_power_kernel(0.9, params.translate_exponent)
    singular = ibp_residual(fc, log_kernel(), samples)
    good = singular < fixed["singular_tol"]
    measured.append({"pairs": "(kernel 0.9, log1)", "max_residual": singular, "pass": good})
    ok = ok and good
    return measured, ok


TASKS: dict = {
    t.task_id: t
    for t in [
        VerificationTask(
            "V1",
            "Carleson-box quantity and squared translate quantity are comparable "
            "across the suite, stably under grid refinement",
            _v1,
            {"ratio_band": (1.0 / 50.0, 50.0), "drift_band": (0.5, 2.0)},
        ),
        VerificationTask(
            "V2",
            "Pointwise growth envelope is controlled by the translate norm",
            _v2,
            {"drift_cap": 1.5},
        ),
        VerificationTask(
            "V3",
            "Lune quantity of the boundary power kernel is stable across dyadic chord scales",
            _v3,
            {"p": 0.5, "lam": 0.4, "h_levels": 12, "spread_cap": 3.0},
        ),
        VerificationTask(
            "V4",
            "Raising the weight exponent is dominated boxwise by the (2|I|)^(p2-p1) factor",
            _v4,
            {"p1": 0.3, "p2": 0.6},
        ),
        VerificationTask(
            "V5",
            "Boundary double-integral quantity tracks the box quantity on "
            "boundary-evaluable functions",
            _v5,
            {"drift_cap": 2.0},
        ),
        VerificationTask(
            "V6",
            "Test-family norms stay uniformly comparable toward the boundary",
            _v6,
            {"uniformity_cap": 10.0, "slope_cap": 0.1},
        ),
        VerificationTask(
            "V7",
            "Volterra companion operator dichotomy: bounded symbol vs logarithmic symbol",
            _v7,
            {"bounded_symbol": "taylor:0.5,0.5", "unbounded_symbol": "log1",
             "slope_floor": 0.1},
        ),
        VerificationTask(
            "V8",
            "Volterra operator with a critical lacunary symbol stays bounded while "
            "the symbol's critical box scan grows with radial depth",
            _v8,
            {"q": 0.3, "p": 0.6, "depth_window": (4, 12), "corr_floor": 0.9},
        ),
        VerificationTask(
            "V9",
            "Coefficient block sums separate the critical exponent from larger ones, "
            "with the geometric limit recovered above",
            _v9,
            {"q": 0.3, "p": 0.6, "K": 30, "limit_rtol": 0.01},
        ),
        VerificationTask(
            "V10",
            "Integration-by-parts identity holds at quadrature tolerance",
            _v10,
            {"poly_tol": 1e-8, "singular_tol": 1e-6, "n_samples": 100},
        ),
    ]
}


def run_verification(
    task_id: str, config: RunConfig, memo: Optional[_RunMemo] = None
) -> TaskResult:
    """Run one task.  Shared scans and test families come from ``memo``, the
    memo of the run this task belongs to, and count toward the runtime of
    the task that builds them; without a memo the task builds its own, so
    its runtime includes every scan and family it uses."""
    task = TASKS.get(task_id)
    if task is None:
        raise KeyError(f"unknown verification task {task_id!r}")
    if memo is None:
        memo = _RunMemo()
    start = time.perf_counter()
    measured, passed = task.runner(config, task.fixed, memo)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))
    inputs = {
        "p": config.p, "lam": config.lam, "suite": list(config.suite),
        "seed": config.seed, **{k: _jsonable(v) for k, v in task.fixed.items()},
    }
    return TaskResult(
        task_id=task_id,
        statement=task.statement,
        inputs=inputs,
        measured=[_jsonable(m) for m in measured],
        thresholds={k: _jsonable(v) for k, v in task.fixed.items()},
        passed=bool(passed),
        runtime_ms=elapsed_ms,
    )


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


def select_tasks(selection: Sequence[str]) -> list:
    if not selection or "all" in selection:
        return sorted(TASKS)
    bad = [t for t in selection if t not in TASKS]
    if bad:
        raise KeyError(f"unknown verification tasks: {bad}")
    return sorted(set(selection))


def run_tasks(task_ids: Sequence[str], config: RunConfig):
    """Run the selected tasks, sharing one :class:`_RunMemo` among them: V1
    and V2 read one translate scan of the suite, V1 and V5 one box scan per
    suite function, and V6, V7 and V8 their test families.  Each task's
    runtime_ms stays its own wall time, so a shared scan's seconds land on
    the task that builds it, and a task waiting for a scan another task is
    building counts the wait."""
    ids = select_tasks(task_ids)
    memo = _RunMemo()
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = {tid: pool.submit(run_verification, tid, config, memo) for tid in ids}
            return [futures[tid].result() for tid in ids]
    return [run_verification(tid, config, memo) for tid in ids]


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def emit_report(results: Sequence[TaskResult], path, config: Optional[RunConfig] = None):
    """Write the JSON report (stable key order) and a plain-text summary table.

    Everything except runtime_ms is deterministic for a fixed config."""
    doc = {
        "schema": SCHEMA,
        "config": config.describe() if config else None,
        "all_passed": all(r.passed for r in results),
        "tasks": [r.as_dict() for r in results],
    }
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    summary = summarize(results)
    path.with_suffix(".txt").write_text(summary, encoding="utf-8")
    return doc


def summarize(results: Sequence[TaskResult]) -> str:
    lines = [f"{'task':6s} {'status':8s} {'ms':>8s}  statement"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.task_id:6s} {status:8s} {r.runtime_ms:8d}  {r.statement}")
    agg = "PASS" if all(r.passed for r in results) else "FAIL"
    lines.append(f"overall: {agg}")
    return "\n".join(lines) + "\n"
