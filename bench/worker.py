"""One benchmark pass in a fresh interpreter.

Started by run.py as ``python3 bench/worker.py --workload NAME [--trace-out
PATH] [--setup-only]`` with the pass's inputs as one JSON document on
standard input.  It sets up (imports monocat from the checkout's ``src``,
builds bases and quivers, loads reference data, parses the inputs), prints
``READY`` with the times of the reference loops it ran during set-up, runs
every item of the pass in order and prints one JSON line
with the pass's timings, failures and peak RSS.  Times are nominal seconds
from hostspeed.HostSpeedClock, which the pass runs under; ``raw_wall_s`` is
the plain wall-clock time of the pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import HostSpeedClock, reference_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    # Reference loops at the start and end of set-up let run.py turn the
    # set-up time into nominal seconds; the time they take is reported so it
    # can be left out.
    t0 = time.perf_counter()
    ref_start = reference_time()
    ref_spent = time.perf_counter() - t0
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    inputs = json.load(sys.stdin)
    items = workloads.WORKLOADS[args.workload].setup(inputs)
    t0 = time.perf_counter()
    ref_end = reference_time()
    ref_spent += time.perf_counter() - t0
    print("READY " + json.dumps([ref_start, ref_end, ref_spent]), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
    clock = HostSpeedClock()
    clock.start()
    t0, raw0 = clock.now(), time.perf_counter()
    item_s, failures = workloads.run_items(items, tracer, clock.now)
    wall_s, raw_wall_s = clock.now() - t0, time.perf_counter() - raw0
    clock.stop()
    result = {
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "speed_samples": clock.samples,
        "item_s": item_s,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(args.trace_out, {"workload": args.workload, "wall_s": wall_s,
                                      "items": [item.label for item in items]})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
