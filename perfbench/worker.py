"""The workload process of one benchmark run.

``run.py`` starts it; to try it by hand, from the root of the repository:

    python3 perfbench/worker.py --workload point-queries --seed 1 --seconds 5 --trace 0

It imports numpy and squaretori and prints ``ready`` with the seconds since
it was spawned (the set-up time). With ``--probe`` it stops there. Otherwise
it builds the workload's inputs from the seed, runs passes in a closed loop
for ``--seconds``, notes its peak RSS, verifies the passes and prints one
JSON line.

With ``--trace 1`` untraced and traced passes alternate. The spans of the
traced passes give the per-layer figures; the traced passes' median wall
time minus the untraced one is the tracing overhead. Both run in this
process, so the difference is the tracing alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

_start = time.perf_counter()
import numpy  # noqa: E402,F401
import squaretori.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _start  # the library's import, as a CLI process pays it


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--probe", action="store_true", help="stop once ready")
    return parser.parse_args(argv)


def plain_run(name: str, inputs: dict, seconds: float) -> dict:
    import workloads

    passes = workloads.closed_loop(
        lambda i: workloads.timed(lambda: workloads.run_pass(name, inputs, i)),
        seconds,
        workloads.MIN_PASSES,
    )
    outputs = [p["out"] for p in passes]
    result = {
        "walls": [p["wall"] for p in passes],
        "cpus": [p["cpu"] for p in passes],
        "outputs": outputs,
    }
    if name == "point-queries":
        result["latency_ns"] = [ns for out in outputs for ns in out["latency_ns"]]
    return result


def traced_run(name: str, inputs: dict, seconds: float, spans_path: Path) -> dict:
    import tracing
    import workloads

    untraced, traced, tracers = [], [], []

    def pair(i: int) -> None:
        # untraced and traced passes alternate, so warm-up and drift hit both alike
        untraced.append(workloads.timed(lambda: workloads.run_pass(name, inputs, 2 * i)))
        tracer = tracing.Tracer()
        tracers.append(tracer)
        with tracer.installed():
            traced.append(workloads.timed(lambda: workloads.run_pass(name, inputs, 2 * i + 1, tracer)))

    workloads.closed_loop(pair, seconds, 2)
    layers = tracing.layer_metrics(tracers, [p["out"] for p in traced])
    layers["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - statistics.median(
        p["wall"] for p in untraced
    )
    tracing.write_spans(spans_path, tracers)
    return {
        "walls": [p["wall"] for p in untraced],
        "traced_walls": [p["wall"] for p in traced],
        "outputs": [p["out"] for both in zip(untraced, traced) for p in both],
        "layers": layers,
        "spans": str(spans_path.relative_to(ROOT)),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # the launcher in run.py passes the time it spawned this process
    spawned = float(os.environ.get("PERFBENCH_SPAWNED", "nan"))
    print(f"ready {time.monotonic() - spawned}", flush=True)
    if args.probe:
        return 0
    # the benchmark's own modules and inputs come after "ready", outside the set-up time
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, workloads.SIZES[args.size])
    if args.trace:
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        run = traced_run(args.workload, inputs, args.seconds, spans_path)
        run["layers"]["process.import_s"] = IMPORT_S
    else:
        run = plain_run(args.workload, inputs, args.seconds)
    # the peak before verification, so it covers the passes alone (ru_maxrss is in KiB)
    run["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outputs = run.pop("outputs")
    attempted, failed, problems = workloads.tally(args.workload, inputs, outputs)
    run.update(
        attempted=attempted,
        failed=failed,
        problems=problems[:5],
        digest=outputs[0]["digest"],
        bytes=outputs[0].get("bytes"),
    )
    print(json.dumps(run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
