"""One benchmark repetition in a fresh interpreter.

``run.py`` spawns this once per repetition and reads the single JSON
line it prints.  Modes: a workload (optionally under the span tracer)
or the isolated per-layer drives (``--layers``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--layers", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--spans", help="install the span tracer; write spans here")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.layers:
        import layers

        result = {"layers": layers.run_all(OUT)}
    else:
        import workloads

        tracer = None
        if args.spans:
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            tracer.install()
        try:
            if args.workload == "live_loopback":
                result = workloads.run_live(args.seed, args.scale)
            else:
                result = workloads.run_sim(args.workload, args.seed, args.scale, OUT)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            result["trace"] = dict(tracer.summary(), span_ns=tracer_mod.span_cost_ns())
            tracer.write(Path(args.spans), args.workload, args.seed)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
