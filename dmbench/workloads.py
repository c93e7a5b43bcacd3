"""The four benchmark workloads.

Each workload has these parts:

* ``build(seed)`` makes the inputs (spec strings parsed into function
  objects, grids, parameters).  It is the part ``setup_s`` times.
* ``run_round(inputs, work_root, trace_out)`` runs one round and returns
  its results, the operations attempted and failed, log lines and each
  operation's (wall, cpu) seconds.  The in-process workloads run a
  calibration pass after each operation (``gauge_speed``).  A round
  always holds the same operations, so the share of failed operations
  does not depend on how many rounds fit into a run.  The in-process workloads list their round
  as ``operations(inputs)``, ``(key, thunk)`` pairs.
* ``check(inputs, results)`` compares a round's results with references
  from :mod:`oracles` or with properties the method must have, and
  returns a list of error strings (empty when correct).
* ``digest(results)`` fingerprints a round's values so that rounds, and
  the traced and untraced rounds, can be compared for identical output.

Sizes are chosen so that one round takes a few seconds on a 2-CPU machine:
the translate scan uses 8 directions per radius instead of the default 64,
and the boundary, box and verify grids are reduced likewise (README.md
gives the measured cost of the full-size scans).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace as Inputs

import numpy as np

import oracles

HERE = Path(__file__).resolve().parent
P, LAM = 0.5, 0.4

SUITE = (
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
KERNEL = "kernel:c=0.9+0i,s=auto"
KERNEL_ROTATED = "kernel:c=0+0.9i,s=auto"  # the 0.9 kernel rotated by pi/2
KERNEL_FLIPPED = "kernel:c=-0.9+0i,s=auto"  # the 0.9 kernel rotated by pi


def seeded_polynomial(seed: int, degree: int) -> str:
    """A ``taylor:`` spec with coefficients (j + k i)/8, |j|, |k| <= 8, and
    nonzero coefficients of z..z^degree; every coefficient is exact in
    binary, so the spec string and the parsed function agree exactly."""
    rng = np.random.default_rng(seed)
    re = rng.integers(-8, 9, degree + 1)
    im = rng.integers(-8, 9, degree + 1)
    # a nonzero real part for n >= 1 keeps the degree and the cost fixed
    re[1:] = np.where(re[1:] == 0, rng.choice([-8, 8], degree), re[1:])
    return "taylor:" + ",".join(f"{a / 8:g}{b / 8:+g}i" for a, b in zip(re, im))


def coeffs_of(spec: str):
    return [complex(tok.replace("i", "j")) for tok in spec.split(":", 1)[1].split(",")]


def rel_err(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref) if ref != 0 else abs(x)


def _params():
    from dirimor.analytic import SpaceParams
    return SpaceParams(P, LAM)


def _parse(specs, params):
    from dirimor.verify import parse_function_spec
    return {s: parse_function_spec(s, params) for s in specs}


def _trace_consistent(rep) -> list:
    """A scan report's value is its levels trace's last running value, and the
    trace never decreases."""
    vals = [v for _, v in rep.levels]
    errs = []
    if vals and vals[-1] != rep.value:
        errs.append(f"{rep.quantity}: value {rep.value!r} != last trace value {vals[-1]!r}")
    # prefix sums of different lengths may round apart by an ulp
    if any(b < a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:])):
        errs.append(f"{rep.quantity}: levels trace decreases")
    if not all(math.isfinite(v) for v in vals):
        errs.append(f"{rep.quantity}: non-finite trace value")
    return errs


def _digest_value(v):
    if hasattr(v, "as_dict"):
        return v.as_dict()
    if isinstance(v, (list, tuple)):
        return [_digest_value(x) for x in v]
    if hasattr(v, "center") and hasattr(v, "length"):
        return [v.center, v.length]
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, float):
        return v.hex()
    return v


def digest(results: dict) -> str:
    doc = {repr(k): _digest_value(v) for k, v in results.items()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=repr).encode()).hexdigest()


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# The machine's speed is gauged by a fixed calibration pass, run after every
# operation of an in-process workload.  A run's times are scaled by CAL_REF_S
# over the median time of all its passes, so they read in seconds of a
# machine on which one pass takes CAL_REF_S.  A shared host slows the passes
# and the operations alike, so the scaled times keep still while the raw
# times drift from run to run (README.md, "End-to-end metrics").
CAL_REF_S = 0.005
_CAL_X = np.linspace(0.05, 0.95, 256)
PASSES = []  # (wall, cpu) seconds of every calibration pass of this process


def calibration_pass() -> float:
    """Small-array complex numpy calls inside a Python loop, the program's
    own mix; 4.2-4.6 ms on a shared 2.1 GHz x86 core."""
    acc = 0.0
    for n in range(1, 53):
        u = np.exp(1j * (_CAL_X + 0.01 * n))
        w = np.exp(-0.5 * np.log(1.0 - 0.9 * u))
        acc += float(np.sum(np.abs(w) ** 0.7)) + math.fsum(0.5 ** k for k in range(n % 7 + 3))
    return acc


def gauge_speed() -> None:
    """Time one calibration pass into PASSES."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    calibration_pass()
    PASSES.append((time.perf_counter() - t0, cpu_seconds() - c0))


class InProcess:
    """A workload whose operations are calls into dirimor in this process."""

    def run_round(self, inp: Inputs, work_root: Path, trace_out=None):
        """Run one round; returns (results, attempted, failed, log lines,
        per-operation (wall, cpu) seconds)."""
        results, log, times = {}, [], []
        ops = self.operations(inp)
        for key, thunk in ops:
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                results[key] = thunk()
            except Exception:  # an operation that raises counts as failed
                log.append(f"{key}: {traceback.format_exc()}")
            times.append((time.perf_counter() - t0, cpu_seconds() - c0))
            gauge_speed()
        return results, len(ops), len(ops) - len(results), log, times

    def digest(self, results: dict) -> str:
        return digest(results)


# ---------------------------------------------------------------------------
# translate: hyperbolic-translate scans (grid construction + Mobius reduction)
# ---------------------------------------------------------------------------


class Translate(InProcess):
    name = "translate"
    A_ANGLE_CAP = 8
    SCAN_OPTS = dict(depth=24, panel_order=4, base_panels=16)  # dm_norm_translate defaults

    def build(self, seed: int) -> Inputs:
        from dirimor.norms import ParamGrid
        params = _params()
        poly = seeded_polynomial(seed, 4)
        specs = SUITE + (poly, KERNEL_ROTATED)
        grid = ParamGrid(k_a=10, a_angle_cap=self.A_ANGLE_CAP)
        direction = int(np.random.default_rng(seed + 1).integers(self.A_ANGLE_CAP))
        radii = [(k, 0.0 if k == 0 else (1.0 - 2.0 ** -k)
                  * np.exp(2j * math.pi * direction / self.A_ANGLE_CAP))
                 for k in range(grid.k_a + 1)]
        return Inputs(params=params, specs=specs, poly=poly, grid=grid,
                      functions=_parse(specs, params), radii=radii)

    def operations(self, inp: Inputs):
        from dirimor import norms
        ops = [(("scan", s), lambda f=f: norms.dm_norm_translate(f, inp.params, inp.grid))
               for s, f in inp.functions.items()]
        ident = inp.functions["taylor:0,1"]
        ops += [(("seminorm", k), lambda a=a: norms.translate_seminorm(
                    ident, inp.params.p, a, **self.SCAN_OPTS))
                for k, a in inp.radii]
        return ops

    def check(self, inp: Inputs, res: dict) -> list:
        p, errs = inp.params.p, []
        scans = {k[1]: v for k, v in res.items() if k[0] == "scan"}
        for spec, rep in scans.items():
            errs += _trace_consistent(rep)
        if "taylor:1" in scans and scans["taylor:1"].value != 1.0:
            errs.append(f"taylor:1 value {scans['taylor:1'].value!r} != 1")
        if "taylor:0,1" in scans:
            e = rel_err(scans["taylor:0,1"].value, math.sqrt(1.0 / (1.0 + p)))
            if e > 1e-9:
                errs.append(f"taylor:0,1 value off sqrt(1/(1+p)) by {e:.2e}")
        # level 0 is a = 0: |a_0| + weighted Dirichlet seminorm of the polynomial
        for spec in [s for s in scans if s.startswith("taylor:")]:
            c = coeffs_of(spec)
            want = abs(c[0]) + math.sqrt(oracles.polynomial_disc_box(c, p))
            e = rel_err(scans[spec].levels[0][1], want)
            if e > 1e-9:
                errs.append(f"{spec}: a=0 trace value off the coefficient sum by {e:.2e}")
        for k, a in inp.radii:
            if ("seminorm", k) in res:
                want = oracles.identity_translate_seminorm(p, abs(a) ** 2)
                e = rel_err(res[("seminorm", k)], want)
                if e > 1e-8:
                    errs.append(f"identity seminorm at |a|=1-2^-{k} off the series by {e:.2e}")
        if KERNEL in scans and KERNEL_ROTATED in scans:
            e = rel_err(scans[KERNEL_ROTATED].value, scans[KERNEL].value)
            if e > 1e-9:
                errs.append(f"0.9 kernel and its rotation differ by {e:.2e}")
        bk = "kernel:c=1+0i,s=auto"
        if bk in scans and "bounded-trend" not in scans[bk].flags:
            errs.append(f"{bk}: flags {scans[bk].flags} lack bounded-trend")
        return errs


# ---------------------------------------------------------------------------
# boundary: boundary double integrals over arcs (trace evaluation + arc quadrature)
# ---------------------------------------------------------------------------


class Boundary(InProcess):
    name = "boundary"
    K_ARC, N_CENTERS = 2, 2
    CHECK_LEVELS = 5  # identity arc integrals at levels 0..4
    T_DEPTHS = (36, 44)  # V5's base and refined t-depths
    ARC_OPTS = dict(t_depth=36, s_base=8, s_order=8)  # boundary_double_seminorm defaults

    def build(self, seed: int) -> Inputs:
        from dirimor.norms import ParamGrid
        params = _params()
        poly = seeded_polynomial(seed, 3)
        specs = ("taylor:0,1", poly, KERNEL, "gap:q=0.5,K=20", KERNEL_FLIPPED)
        centre = float(np.random.default_rng(seed + 1).uniform(0.0, 2.0 * math.pi))
        return Inputs(params=params, specs=specs, poly=poly,
                      grid=ParamGrid(k_arc=self.K_ARC, n_centers=self.N_CENTERS),
                      functions=_parse(specs, params), centre=centre)

    def operations(self, inp: Inputs):
        from dirimor import norms, quadrature
        p = inp.params.p
        ops = []
        for t_depth in self.T_DEPTHS:
            for s, f in inp.functions.items():
                if s == KERNEL_FLIPPED and t_depth != self.T_DEPTHS[0]:
                    continue
                ops.append((("scan", s, t_depth), lambda f=f, t=t_depth:
                            norms.boundary_double_seminorm(f, inp.params, inp.grid, t_depth=t)))

        def chord_p(u, v):  # |f(u)-f(v)|^2 / |u-v|^(2-p) for f = z
            return (2.0 * np.abs(np.sin(0.5 * (u - v)))) ** p

        for j in range(self.CHECK_LEVELS):
            arc = quadrature.Arc(inp.centre, 2.0 ** -j)
            ops.append((("arc", j), lambda arc=arc: quadrature.arc_double_integral(
                chord_p, arc, beta=1.0 - p, resolution_check=False, **self.ARC_OPTS).value))
        return ops

    def check(self, inp: Inputs, res: dict) -> list:
        p, lam, errs = inp.params.p, inp.params.lam, []
        scans = {k[1:]: v for k, v in res.items() if k[0] == "scan"}
        for rep in scans.values():
            errs += _trace_consistent(rep)
        per_level = [oracles.identity_arc_double(2.0 * math.pi * 2.0 ** -j, p)
                     for j in range(self.CHECK_LEVELS)]
        for j, want in enumerate(per_level):
            if ("arc", j) in res and rel_err(res[("arc", j)], want) > 1e-9:
                errs.append(f"identity arc integral at level {j} off by "
                            f"{rel_err(res[('arc', j)], want):.2e}")
        weighted = [v * 2.0 ** (j * p * lam) for j, v in enumerate(per_level[:self.K_ARC + 1])]
        running = list(np.maximum.accumulate(weighted))
        for t_depth in self.T_DEPTHS:
            rep = scans.get(("taylor:0,1", t_depth))
            if rep is not None:
                for (j, v), want in zip(rep.levels, running):
                    if rel_err(v, want) > 1e-9:
                        errs.append(f"taylor:0,1 level {j} (t_depth {t_depth}) off by "
                                    f"{rel_err(v, want):.2e}")
            for spec in ("taylor:0,1", inp.poly):
                rep = scans.get((spec, t_depth))
                if rep is not None:
                    want = oracles.polynomial_full_circle_double(coeffs_of(spec), p)
                    if rel_err(rep.levels[0][1], want) > 1e-9:
                        errs.append(f"{spec}: full circle (t_depth {t_depth}) off by "
                                    f"{rel_err(rep.levels[0][1], want):.2e}")
        # refining the diagonal t-panels (V5's t_depth + 8) must not move a
        # converged value
        base, fine = self.T_DEPTHS
        for spec in inp.specs:
            a, b = scans.get((spec, base)), scans.get((spec, fine))
            if a is not None and b is not None and rel_err(b.value, a.value) > 1e-6:
                errs.append(f"{spec}: t_depth {base} -> {fine} moves the value by "
                            f"{rel_err(b.value, a.value):.2e}")
        a, b = scans.get((KERNEL, self.T_DEPTHS[0])), scans.get((KERNEL_FLIPPED, self.T_DEPTHS[0]))
        if a is not None and b is not None and rel_err(b.value, a.value) > 1e-9:
            errs.append(f"kernel scan not rotation invariant: {rel_err(b.value, a.value):.2e}")
        return errs


# ---------------------------------------------------------------------------
# box: Carleson-box scans, the exponent pair scan, the critical qp scan, gpcm
# ---------------------------------------------------------------------------


class Box(InProcess):
    name = "box"
    K_ARC, N_CENTERS = 8, 8
    P1, P2 = 0.3, 0.6  # V4's exponent pair
    GPCM = ("taylor:0,1", "log1", KERNEL)
    GPCM_OPTS = dict(k_w=4, w_angle_cap=4)
    QP = 0.3  # V8's critical exponent
    DEPTH_WINDOW = (4, 12)  # V8's depth window
    REL_DEPTH = 16  # box_rel_depth of dm_seminorm_box

    def build(self, seed: int) -> Inputs:
        from dirimor.gaps import remark_example
        from dirimor.norms import ParamGrid
        params = _params()
        poly = seeded_polynomial(seed, 4)
        specs = SUITE + (poly,)
        functions = _parse(specs, params)
        return Inputs(params=params, specs=specs, poly=poly, functions=functions,
                      grid=ParamGrid(k_arc=self.K_ARC, n_centers=self.N_CENTERS),
                      qp_grid=ParamGrid(k_arc=6, n_centers=16),
                      critical=remark_example(self.QP))

    def operations(self, inp: Inputs):
        from dirimor import norms
        ops = []
        for s, f in inp.functions.items():
            ops.append((("box", s), lambda f=f: norms.dm_seminorm_box(f, inp.params, inp.grid)))
        for s, f in inp.functions.items():
            ops.append((("pair", s), lambda f=f: norms.box_quantity_pair(
                f, self.P1, self.P2, inp.grid)))
        ops.append((("qp",), lambda: norms.qp_quantity(inp.critical, self.QP, inp.qp_grid)))
        for s in self.GPCM:
            ops.append((("gpcm", s), lambda f=inp.functions[s]: norms.gpcm_quantity(
                f, inp.params.p, **self.GPCM_OPTS)))
        return ops

    def check(self, inp: Inputs, res: dict) -> list:
        p, lam, errs = inp.params.p, inp.params.lam, []
        for k, rep in res.items():
            if k[0] in ("box", "gpcm", "qp"):
                errs += _trace_consistent(rep)
        # truncating the box at relative depth 16 drops a share of order
        # n^(p+1) 2^(-16(p+1)) < 1e-5 for the degrees used here
        tol = 1e-4
        violations = 0
        for k, rows in res.items():
            if k[0] != "pair":
                continue
            spec = k[1]
            for arc, q1, q2 in rows:
                if q2 > (2.0 * arc.length) ** (self.P2 - self.P1) * q1 * (1 + 1e-12) + 1e-300:
                    violations += 1
            if spec.startswith("taylor:"):
                c = coeffs_of(spec)
                arc, q1, q2 = rows[0]
                for q, pe in ((q1, self.P1), (q2, self.P2)):
                    want = oracles.polynomial_disc_box(c, pe)
                    if arc.length != 1.0 or abs(q - want) > tol * max(want, 1e-300):
                        errs.append(f"{spec}: full-circle box at p={pe} is {q!r}, want {want!r}")
            if spec == "taylor:0,1":
                for arc, q1, q2 in rows:
                    for q, pe in ((q1, self.P1), (q2, self.P2)):
                        if rel_err(q, oracles.identity_box(arc.length, pe)) > tol:
                            errs.append(f"taylor:0,1 box of length {arc.length} at p={pe} "
                                        f"off by {rel_err(q, oracles.identity_box(arc.length, pe)):.2e}")
        if violations:
            errs.append(f"{violations} violations of the (2|I|)^(p2-p1) domination")
        ident = res.get(("box", "taylor:0,1"))
        if ident is not None:
            want = max(oracles.identity_box(2.0 ** -j, p) * 2.0 ** (j * p * lam)
                       for j in range(self.K_ARC + 1))
            if rel_err(ident.value, want) > tol:
                errs.append(f"taylor:0,1 box value off the closed form by {rel_err(ident.value, want):.2e}")
        qp = res.get(("qp",))
        if qp is not None:
            lv = dict(qp.levels)
            xs = [j for j in range(self.DEPTH_WINDOW[0], self.DEPTH_WINDOW[1] + 1) if j in lv]
            corr = float(np.corrcoef(xs, [lv[j] for j in xs])[0, 1]) if len(xs) >= 3 else 0.0
            if corr < 0.9:
                errs.append(f"critical gap depth trace not linear over levels 4-12 (corr {corr:.3f})")
        g = res.get(("gpcm", "taylor:0,1"))
        if g is not None:
            # BoxMassTable uses midpoint slabs over 12 dyadic levels; its
            # masses carry relative errors of a few 1e-3
            e = rel_err(g.levels[0][1], oracles.identity_gpcm_at_origin(p))
            if e > 1e-2:
                errs.append(f"gpcm of taylor:0,1 at w=0 off the closed form by {e:.2e}")
        return errs


# ---------------------------------------------------------------------------
# verify: the CLI's task orchestration, thread pool and test families
# ---------------------------------------------------------------------------


class Verify:
    name = "verify"
    TASKS = ("V3", "V4", "V6", "V7", "V9", "V10")
    WORKERS = 2
    CONFIG = HERE / "verify_config.json"
    # I_g is bounded exactly for bounded symbols: taylor:0.5,0.5 is bounded,
    # log(1/(1-z)) is not
    V7_EXPECTED = {"taylor:0.5,0.5": "bounded-trend", "log1": "unbounded-trend"}

    def build(self, seed: int) -> Inputs:
        from dirimor import cli  # noqa: F401 - setup covers the CLI's imports
        from dirimor.verify import build_suite, resolve_config
        config = resolve_config(str(self.CONFIG))
        build_suite(config, config.space_params())
        return Inputs(seed=seed, config=config)

    def command(self, inp: Inputs, out_dir: Path, trace_out=None) -> list:
        cmd = [sys.executable, str(HERE / "cli_child.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--", "verify"]
        for t in self.TASKS:
            cmd += ["--task", t]
        cmd += ["--workers", str(self.WORKERS), "--config", str(self.CONFIG),
                "--seed", str(inp.seed), "--out", str(out_dir / "report.json")]
        return cmd

    def run_round(self, inp: Inputs, work_root: Path, trace_out=None):
        """One CLI run in a fresh temporary working directory.  Its result
        holds the exit code and the report with its wall-clock fields
        removed; a task missing from the report counts as failed."""
        src = str(HERE.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "DIRIMOR_CONFIG"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        tmp = Path(tempfile.mkdtemp(prefix="verify-", dir=work_root))
        try:
            c0, t0 = cpu_seconds(), time.perf_counter()
            proc = subprocess.run(self.command(inp, tmp, trace_out), cwd=tmp, env=env,
                                  capture_output=True, text=True, timeout=170)
            times = [(time.perf_counter() - t0, cpu_seconds() - c0)]
            report = None
            if (tmp / "report.json").exists():
                report = json.loads((tmp / "report.json").read_text())
                for task in report["tasks"]:
                    task.pop("runtime_ms", None)
                if report.get("config"):  # the temporary directory's name
                    report["config"]["out"] = Path(report["config"]["out"]).name
            stray = sorted(p.name for p in tmp.iterdir() if p.name not in ("report.json", "report.txt"))
            out = {"exit": proc.returncode, "report": report, "stray": stray,
                   "stderr": proc.stderr[-2000:]}
            done = len(report["tasks"]) if report else 0
            log = [proc.stderr] if proc.returncode != 0 else []
            return out, len(self.TASKS), len(self.TASKS) - done, log, times
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def digest(self, out: dict) -> str:
        doc = json.dumps([out["exit"], out["report"]], sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()

    def check(self, inp: Inputs, out: dict) -> list:
        errs = []
        if out["exit"] != 0:
            errs.append(f"verify exited with {out['exit']}: {out['stderr']}")
        if out["stray"]:
            errs.append(f"verify wrote files besides its --out report: {out['stray']}")
        rep = out["report"]
        if rep is None:
            return errs + ["verify wrote no report"]
        if not rep["all_passed"]:
            errs.append("report all_passed is false")
        tasks = {t["task_id"]: t for t in rep["tasks"]}
        if sorted(tasks) != sorted(self.TASKS):
            errs.append(f"report holds tasks {sorted(tasks)}")
        v9 = tasks.get("V9")
        if v9 is not None:
            th = v9["thresholds"]
            want = oracles.gap_block_limit(th["q"], th["p"])
            row = v9["measured"][1]
            if rel_err(row["closed_form"], want) > 1e-12:
                errs.append(f"V9 closed form {row['closed_form']!r} != {want!r}")
            if rel_err(row["limit_estimate"], want) > th["limit_rtol"]:
                errs.append(f"V9 limit estimate {row['limit_estimate']!r} off {want!r}")
        v7 = tasks.get("V7")
        if v7 is not None:
            for row in v7["measured"]:
                want = self.V7_EXPECTED.get(row["symbol"])
                if row["classification"] != want:
                    errs.append(f"V7 {row['symbol']}: {row['classification']}, theorem says {want}")
        return errs


WORKLOADS = {w.name: w for w in (Translate(), Boundary(), Box(), Verify())}
