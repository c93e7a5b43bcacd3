"""The benchmark's span tracer (dmbench/tracer.py) wraps dirimor names it
looks up by string; a rename or deletion of one must fail here, not only in
a traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_traced_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "dmbench")]))
    env.pop("DIRIMOR_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


LUNE_UNDER_TRACER = """
import numpy as np
import tracer
t = tracer.Tracer()
tracer.install(t)
t.enabled = True
from dirimor import quadrature
res = quadrature.integrate_lune(lambda z: np.ones(z.shape), 0.0, 0.5)
sizes = [s for n, s in zip(t.name, t.size) if t.names[n] == "quadrature.region_node_arrays"]
assert sizes == [res.nodes_used], (sizes, res.nodes_used)
"""


def test_lune_nodes_are_traced_as_grid_work():
    # integrate_lune builds its nodes through quadrature.region_node_arrays,
    # the name the tracer counts toward quadrature.grid_s
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "dmbench")]))
    env.pop("DIRIMOR_CONFIG", None)
    proc = subprocess.run([sys.executable, "-c", LUNE_UNDER_TRACER],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
