"""Benchmark for dirimor: four workloads, end-to-end metrics and per-layer traces.

    python3 dmbench/run.py --workload {translate,boundary,box,verify,all}
                           [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository; dirimor is imported
from the checkout's ``src`` directory, and nothing needs building.

The times of the in-process workloads (translate, boundary, box) are
scaled by the machine's speed during the run: a fixed calibration pass
(``workloads.calibration_pass``) runs after each operation, and the run's
times are multiplied by ``workloads.CAL_REF_S``, the pass's time on the
reference machine, over the median time of the run's passes (wall-clock
passes for wall times, CPU passes for CPU times).  On a shared host raw
times drift by a third over minutes; the scaled times drift far less.
Times of child processes (the set-up probes, verify's CLI run) are not
scaled: a pass in this process does not follow their speed.

A run first times the set-up (``setup_s``): it starts ``SETUP_PROBES``
fresh interpreters that each import dirimor and build the workload's
inputs, and reports the median time from process start until the inputs
are built.  It then repeats whole rounds of the workload's operations
until ``--seconds`` have passed, checks every round's results against
independent references, and prints one JSON object as its last line:

* ``--trace 0``: ``setup_s``; ``run_s`` and ``cpu_s``, the wall time and
  the user+system CPU time (this process and its children) of one round,
  each taken as the sum over the round's operations of that operation's
  median over rounds, scaled as above; and ``peak_rss_mb``, the peak
  resident memory of this process or any child;
* ``--trace 1``: the per-layer metrics of ``tracer.PER_LAYER``, (low)
  medians over traced rounds.  The first round runs with the tracer off, and every
  traced round must reproduce its values exactly.

``--workload all`` runs every workload in turn, each in its own process,
and prints one table row per workload.  Outputs (trace spans, per-run
results, the CLI's temporary directories) go to ``.dmbench_out`` at the
root of the checkout.  Exit status: 0 when the run completed (``correct``
says whether the outputs were right), 2 when dirimor's sources are not
found.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".dmbench_out"
NAMES = ("translate", "boundary", "box", "verify")
SETUP_PROBES = 9
PROBE_TIMEOUT = 60.0


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def probe(workload: str, seed: int) -> int:
    """Set-up only: build the inputs in this fresh process, then say so."""
    import workloads
    workloads.WORKLOADS[workload].build(seed)
    print("ready", flush=True)
    return 0


def setup_seconds(workload: str, seed: int) -> list:
    """Times from starting a fresh interpreter until it has built the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=PROBE_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        times.append(elapsed)
    return times


def run_workload(args) -> dict:
    import workloads
    import tracer as tracing

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)

    spans = None
    if args.trace and args.workload != "verify":
        spans = tracing.Tracer()
        tracing.install(spans)  # before build, so the functions get traced callables
    inp = wl.build(args.seed)

    errors, rounds, layer_rounds = [], [], []
    attempted = failed = 0
    reference = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and reference is not None
        trace_out = OUT / "trace-verify.json" if traced and args.workload == "verify" else None
        mark = len(spans) if spans is not None else 0
        if spans is not None:
            spans.enabled = traced
        t0 = time.perf_counter()
        results, n_ops, n_failed, log, op_times = wl.run_round(inp, OUT, trace_out)
        wall = time.perf_counter() - t0
        if spans is not None:
            spans.enabled = False
        attempted += n_ops
        failed += n_failed
        for line in log:
            _log(line)
        errors += wl.check(inp, results)
        fingerprint = wl.digest(results)
        if reference is None:
            reference = fingerprint
        elif fingerprint != reference:
            errors.append(f"round {len(rounds)} output differs from round 0 "
                          f"({'traced' if traced else 'untraced'})")
        rounds.append({"wall": wall, "ops": op_times, "traced": traced})
        if traced:
            if trace_out is not None:
                layer_rounds.append(json.loads(trace_out.read_text()))
            else:
                layer_rounds.append(spans.layer_metrics(mark))
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (not args.trace or layer_rounds):
            break

    for e in sorted(set(errors)):
        _log(f"check failed: {e}")
    timed = [r["ops"] for r in rounds if r["traced"] == bool(args.trace)]
    # each operation's median over rounds, summed over the round: a burst of
    # contention from other processes slows only the rounds it overlaps
    raw_run = sum(statistics.median(op[0] for op in col) for col in zip(*timed))
    raw_cpu = sum(statistics.median(op[1] for op in col) for col in zip(*timed))
    _log(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds, "
         f"round walls {[round(r['wall'], 3) for r in rounds]}, "
         f"setup probes {[round(t, 3) for t in setup]}, digest {reference[:16]}")
    run_s, cpu_s = raw_run, raw_cpu
    if workloads.PASSES:  # in-process workloads: scale by the run's speed
        pass_wall = statistics.median(w for w, _ in workloads.PASSES)
        pass_cpu = statistics.median(c for _, c in workloads.PASSES)
        run_s *= workloads.CAL_REF_S / pass_wall
        cpu_s *= workloads.CAL_REF_S / pass_cpu
        _log(f"unscaled: run {raw_run:.3f} s, cpu {raw_cpu:.3f} s; median of "
             f"{len(workloads.PASSES)} calibration passes {1e3 * pass_wall:.2f} ms wall, "
             f"{1e3 * pass_cpu:.2f} ms cpu (reference {1e3 * workloads.CAL_REF_S:.2f} ms)")
    if args.trace:
        untraced = rounds[0]["wall"]
        _log(f"tracing overhead: traced {raw_run:.3f} s, untraced round {untraced:.3f} s (unscaled)")
        # median_low keeps counts whole: they repeat exactly from round to round
        metrics = {name: {"value": statistics.median_low(r[name] for r in layer_rounds), "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        if spans is not None:
            spans.dump(OUT / f"trace-{args.workload}.npz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process; one table row per workload."""
    rows, ok = {}, True
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            _log(f"{name}: exited with {proc.returncode}")
            ok = False
            continue
        rows[name] = json.loads(lines[-1])
        ok = ok and rows[name]["correct"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-trace{args.trace}.json").write_text(json.dumps(rows, indent=2))
    for name, row in rows.items():
        cells = [f"{name:10s}", f"correct={row['correct']}", f"attempted={row['attempted']}",
                 f"failed={row['failed']}"]
        cells += [f"{k}={m['value']:.6g} {m['unit']}" for k, m in row["metrics"].items()]
        print("  ".join(cells))
    return 0 if ok and len(rows) == len(NAMES) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "dirimor" / "__init__.py").is_file():
        _log(f"error: dirimor sources not found under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
