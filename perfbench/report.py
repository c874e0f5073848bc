"""Run the benchmark over workloads and seeds; print every metric by name and unit.

From the root of the repository:

    python3 perfbench/report.py                       # all workloads, seed 1, and a traced run
    python3 perfbench/report.py --seeds 10 --no-trace --workloads sweep-json

Each (workload, seed) is one ``run.py`` run of ``run_seconds`` (from
``BENCHMARK.json``). For each workload the report gives every end-to-end
metric with its unit, the median over the seeds and, with four seeds or
more, the quartile spread (q3 - q1) / median next to the metric's bound. The
fail ratio is failed / attempted over all runs. The traced run (first seed)
gives the per-layer metrics, ``trace.overhead_s`` among them. The last line
of output is every run's result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=int, default=1, help="number of seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    args = parser.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    everything = {}
    for workload in args.workloads:
        runs = [run(workload, seed, 0) for seed in seeds]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"== {workload}: {len(runs)} runs, fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
        for metric in SPEC["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            line = f"  {metric['name']:<14} {median:>14.6g} {metric['unit']:<6}"
            if len(values) >= 4:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f" q1 {q1:.6g} q3 {q3:.6g} spread {(q3 - q1) / median:.4f} (bound {metric['bound']})"
            print(line)
        for r in runs:
            if r["result"]["failed"]:
                print(f"  seed {r['detail']['env']['seed']}: problems {r['detail']['problems']}")
        latency = [r["detail"]["query_latency_us"] for r in runs if "query_latency_us" in r["detail"]]
        if latency:
            p50 = statistics.median(x["p50"] for x in latency)
            p99 = statistics.median(x["p99"] for x in latency)
            print(f"  query latency: p50 {p50:.6g} us, p99 {p99:.6g} us, {latency[0]['n']} queries a run")
        everything[workload] = {"runs": runs}
        if not args.no_trace:
            traced = run(workload, seeds[0], 1)
            print(f"  traced run, seed {seeds[0]} (fail_ratio {traced['detail']['fail_ratio']:.6g}):")
            for metric in SPEC["per_layer"]:
                value = traced["result"]["metrics"][metric["name"]]["value"]
                print(f"    {metric['name']:<34} {value:>14.6g} {metric['unit']}")
            everything[workload]["traced"] = traced
    print(json.dumps(everything))
    return 0


if __name__ == "__main__":
    sys.exit(main())
