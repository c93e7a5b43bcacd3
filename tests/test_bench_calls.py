"""The benchmark's in-process workloads (dmbench/workloads.py) call dirimor
with fixed signatures and keywords; a change that breaks one of those calls
must fail here, not only in a benchmark run.  One operation of each kind runs
on the workload's own inputs, and the workload's check must pass on them."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "dmbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SEED = 20260808
# workload -> one operation key of each kind it runs, plus the 0.9 kernel
# operations behind the translate rotation check and the box domination check,
# and a gap series, whose translate scan takes the uniform-grid shift route;
# the boundary kernel at angle 0 and log1 put the box checks on boxes that
# straddle angle 0 next to a singular direction, and the gpcm scans of log1
# and the 0.9 kernel put the trace checks on point boxes that straddle it
OPERATIONS = {
    "translate": [("scan", "taylor:0,1"), ("seminorm", 3),
                  ("scan", "kernel:c=0.9+0i,s=auto"), ("scan", "kernel:c=0+0.9i,s=auto"),
                  ("scan", "gap:q=0.5,K=20")],
    "boundary": [("scan", "taylor:0,1", 36), ("arc", 3)],
    "box": [("box", "taylor:0,1"), ("pair", "taylor:0,1"), ("qp",), ("gpcm", "taylor:0,1"),
            ("box", "kernel:c=0.9+0i,s=auto"), ("pair", "kernel:c=0.9+0i,s=auto"),
            ("box", "kernel:c=1+0i,s=auto"), ("pair", "log1"),
            ("gpcm", "log1"), ("gpcm", "kernel:c=0.9+0i,s=auto")],
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_workload_operations_run_and_check(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(SEED)
    thunks = dict(workload.operations(inputs))
    results = {key: thunks[key]() for key in OPERATIONS[name]}
    assert workload.check(inputs, results) == []
