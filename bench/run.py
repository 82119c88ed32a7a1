"""monocat benchmark: time to a certified answer.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs in a fresh interpreter (bench/worker.py), so module-level
caches cost what a command-line user pays.  Passes run one after another
(closed loop, one client, one thread) until another pass would overrun
``--seconds``; at least one pass always runs.  Pass k takes input set
k modulo the workload's number of sets, all drawn from ``--seed``.  Every
item checks its output.

Times are nominal seconds (bench/hostspeed.py): wall-clock time corrected
for the host's speed, which a reference loop measures at short intervals
interleaved with the work.  On a shared machine the same work takes up to
twice as long in one minute as in the next; the correction takes that out.
``wall_s`` is the median pass time, ``item_ms_p50`` and ``item_ms_p90`` are
percentiles over every item of every pass, ``peak_rss_mb`` is the median of
the passes' peak RSS and ``setup_s`` the median of at least MIN_SETUPS
fresh-interpreter set-ups, each corrected by reference loops run at its
start and end.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` one untraced pass is followed by
traced passes on the same inputs, and the last line holds the per-layer
metrics, including the tracing overhead (traced minus untraced wall time).
Spans are written to ``.bench_out/`` in the checkout.

Exit codes: 0 with a result line; 2 when the checkout holds no monocat
sources or a pass could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# run.py must end within 180 s; a pass that would overrun this is killed.
DEADLINE_S = 170.0
# setup_s is the median of at least this many fresh-interpreter set-ups,
# SETUPS_BETWEEN_PASSES of them after each pass.
MIN_SETUPS = 21
SETUPS_BETWEEN_PASSES = 2


class PassError(RuntimeError):
    pass


def percentile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def environment() -> dict:
    """Commit (when the checkout is a git work tree), source digest,
    interpreter and core count of this run."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "monocat").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


def run_worker(workload: str, inputs: str, deadline: float, trace_out=None,
               setup_only: bool = False) -> dict:
    """One fresh interpreter: set-up time is measured from spawn to READY,
    and turned into nominal seconds by the reference loops the worker times
    at the start and end of its set-up."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        try:
            proc.stdin.write(inputs)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        proc.stdin = None  # closed; communicate() below only reads
        ready = proc.stdout.readline()
        raw_setup_s = time.perf_counter() - t0
        word, _, refs = ready.partition(" ")
        if word != "READY":
            raise PassError(f"worker did not get ready: {ready!r}")
        ref_start, ref_end, ref_spent = json.loads(refs)
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise PassError("pass overran the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise PassError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1]) if not setup_only else {}
    result["raw_setup_s"] = raw_setup_s
    result["setup_s"] = (raw_setup_s - ref_spent) * NOMINAL_REF_S * 2 / (ref_start + ref_end)
    return result


def run_passes(workload: str, input_sets, seconds: float, deadline: float, start: float,
               trace_out=None, setups=None) -> list:
    """Passes until another pass would overrun ``seconds``.  With ``setups``,
    set-up-only interpreters run between passes, so the set-up samples spread
    over the run like the passes do, and their results are appended to it;
    the time the set-ups still owed to MIN_SETUPS will take is kept free."""
    passes = []
    while True:
        k = len(passes)
        out = None if trace_out is None else OUT / f"{trace_out}-pass{k}.json.gz"
        passes.append(run_worker(workload, input_sets[k % len(input_sets)], deadline, out))
        owed = 0.0
        if setups is not None:
            setups.append(passes[-1])
            for _ in range(SETUPS_BETWEEN_PASSES):
                setups.append(run_worker(workload, input_sets[0], deadline, setup_only=True))
            owed_setups = max(0, MIN_SETUPS - len(setups) - 1 - SETUPS_BETWEEN_PASSES)
            owed = owed_setups * statistics.median(s["raw_setup_s"] for s in setups)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["raw_wall_s"] + p["raw_setup_s"] for p in passes)
        if elapsed + typical + owed > seconds:
            return passes


def end_to_end(workload: str, input_sets, seconds: float, deadline: float, start: float):
    setups = []
    passes = run_passes(workload, input_sets, seconds, deadline, start, setups=setups)
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, input_sets[0], deadline, setup_only=True))
    item_ms = [s * 1000 for p in passes for s in p["item_s"]]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_ms_p50": statistics.median(item_ms),
        "item_ms_p90": percentile(item_ms, 0.90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = [f"passes {len(passes)}, set-ups {len(setups)}, item samples {len(item_ms)}",
             "raw wall-clock: pass median "
             f"{statistics.median(p['raw_wall_s'] for p in passes):.3f} s, set-up median "
             f"{statistics.median(p['raw_setup_s'] for p in passes):.3f} s"]
    return passes, metrics, notes


def traced(workload: str, input_sets, seconds: float, deadline: float, start: float, tag: str):
    """One untraced and then traced passes, all on the first input set."""
    untraced = [run_worker(workload, input_sets[0], deadline)]
    traced_passes = run_passes(workload, input_sets[:1], seconds, deadline, start, trace_out=tag)
    names = traced_passes[0]["layers"].keys()
    metrics = {name: statistics.median(p["layers"][name] for p in traced_passes) for name in names}
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    notes = [f"traced passes {len(traced_passes)}: wall_s {traced_wall:.3f} traced, "
             f"{untraced_wall:.3f} untraced; spans in {OUT.name}/{tag}-pass*.json.gz"]
    return untraced + traced_passes, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    deadline = start + DEADLINE_S

    if not (ROOT / "src" / "monocat" / "__init__.py").is_file():
        print(f"no monocat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    # Inputs are generated here, before any timing, and handed to each pass
    # as one JSON document.
    input_sets = [json.dumps(workload.make_inputs(args.seed, k) if workload.make_inputs else None)
                  for k in range(workload.input_sets)]

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            passes, metrics, notes = traced(args.workload, input_sets, args.seconds, deadline,
                                            start, f"trace-{tag}")
        else:
            passes, metrics, notes = end_to_end(args.workload, input_sets, args.seconds,
                                                deadline, start)
    except PassError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    attempted = sum(len(p["item_s"]) for p in passes)
    failures = [line for p in passes for line in p["failures"]]
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": metrics, "passes": passes}
    (OUT / f"run-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("environment " + json.dumps(env))
    for line in notes:
        print(line)
    for line in failures:
        print("FAILED " + line)
    print(f"failed_frac {len(failures) / attempted} ({len(failures)} of {attempted} items)")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
