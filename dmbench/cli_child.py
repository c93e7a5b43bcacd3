"""Run the dirimor command line in this process, optionally traced.

    python3 cli_child.py [--trace-out FILE] -- <dirimor arguments>

Without ``--trace-out`` this is the ``dirimor`` console script.  With it,
the span tracer is installed before the command runs, and the per-layer
metrics (JSON) and all spans (``FILE`` with suffix ``.npz``) are written
when it ends.  ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_out is None:
        from dirimor import cli
        return cli.main(argv)

    import tracer
    spans = tracer.Tracer()
    tracer.install(spans)
    from dirimor import cli
    spans.enabled = True
    try:
        return cli.main(argv)
    finally:
        spans.enabled = False
        trace_out.write_text(json.dumps(spans.layer_metrics()), encoding="utf-8")
        spans.dump(trace_out.with_suffix(".npz"))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
