"""squaretori benchmark: one run of one workload.

From the root of a checkout of the repository:

    python3 perfbench/run.py --workload sweep-json --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``, measured untraced;
with ``--trace 1`` they are its per-layer metrics, from a traced run. The
line before it holds the details: every metric's spread over the run, the
output digest and size, the run's environment and any verification problem.

A run is one closed loop with a single caller. ``sweep-json`` and
``enumerate-csv`` start the CLI (``python3 -m squaretori``) once per pass,
with its stdout going to a file under ``.perfbench/`` that the parent
checks after the pass; the pass's wall, CPU and peak RSS figures are the
child's own (``os.wait4``). ``point-queries`` and ``mean-order`` run in one
worker process (``worker.py``), which reports wall and CPU time per pass,
and its own peak RSS as it stands after the passes, before it verifies
them. The set-up time is the median, over several spawns, of the time from
spawning a worker until it has imported numpy and squaretori. At most one
child runs at a time, and the parent waits while it runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SPAWNS = 9
CHILD_TIMEOUT_S = 150  # a child still running after this is killed and its run fails


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one squaretori benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="problem sizes; 'tiny' is for the benchmark's self-tests",
    )
    return parser.parse_args(argv)


# Linux charges a child's ru_maxrss with the RSS its parent had when it
# spawned it. The parent holds numpy and the run's outputs, so each child is
# started by this small launcher. It writes the child's stdout to the file
# argv[2], passes the spawn time on in PERFBENCH_SPAWNED, reaps the child with
# wait4 and writes its exit code, wall time, CPU time and peak RSS (KiB) to
# the descriptor argv[1].
LAUNCHER = """\
import json, os, sys, time
report, out, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
actions = [
    (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    (os.POSIX_SPAWN_CLOSE, report),
]
env = dict(os.environ)
start = time.monotonic()
env["PERFBENCH_SPAWNED"] = repr(start)
pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
wall = time.monotonic() - start
code = os.waitstatus_to_exitcode(status)
os.write(report, json.dumps([code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]).encode())
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stdout_path: Path) -> dict:
    """Run argv through the launcher, with its stdout written to ``stdout_path``.

    Returns the child's exit code, wall seconds, CPU seconds and peak RSS in MB.
    """
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", LAUNCHER, str(report_w), str(stdout_path), *argv],
            cwd=ROOT, env=child_env(), start_new_session=True, pass_fds=(report_w,),
        )
    finally:
        os.close(report_w)
    with os.fdopen(report_r, "rb") as report:
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the child share the session
            proc.wait()
        raw = report.read()
    if not raw:
        return {"exit_code": proc.returncode or -1, "wall": 0.0, "cpu": 0.0, "rss_mb": 0.0}
    code, wall, cpu, rss_kib = json.loads(raw)
    return {"exit_code": code, "wall": wall, "cpu": cpu, "rss_mb": rss_kib / 1024}


def worker_argv(args: argparse.Namespace, *extra: str) -> list[str]:
    return [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size, *extra,
    ]


def run_worker(args: argparse.Namespace, stdout_path: Path, *extra: str) -> list[str]:
    """Run a worker; return its stdout lines, the first being ``ready <set-up seconds>``."""
    child = run_child(worker_argv(args, *extra), stdout_path)
    lines = stdout_path.read_text().splitlines()
    stdout_path.unlink()
    if child["exit_code"] != 0 or not lines or not lines[0].startswith("ready "):
        raise RuntimeError(f"worker exited with {child['exit_code']}")
    return lines


def setup_seconds(args: argparse.Namespace, stdout_path: Path) -> list[float]:
    """Spawn-to-ready times of probe workers that stop once ready."""
    return [
        float(run_worker(args, stdout_path, "--probe")[0].split()[1])
        for _ in range(SETUP_SPAWNS)
    ]


def cli_passes(args: argparse.Namespace, workloads, inputs: dict, stdout_path: Path) -> dict:
    """Closed loop of CLI processes; after each, the parent reads and checks its stdout."""
    argv = [sys.executable, "-m", "squaretori", *inputs["argv"]]

    def one_pass(index: int) -> dict:
        child = run_child(argv, stdout_path)
        data = stdout_path.read_bytes()
        stdout_path.unlink()
        child["out"] = workloads.summarize(
            data, inputs["sample_lines"], workloads.keeps_text(args.workload, index)
        )
        child["out"]["exit_code"] = child["exit_code"]
        return child

    passes = workloads.closed_loop(one_pass, args.seconds, workloads.MIN_PASSES)
    outputs = [p["out"] for p in passes]
    attempted, failed, problems = workloads.tally(args.workload, inputs, outputs)
    return {
        "walls": [p["wall"] for p in passes],
        "cpus": [p["cpu"] for p in passes],
        "rss_mb": [p["rss_mb"] for p in passes],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "digest": outputs[0]["digest"],
        "bytes": outputs[0]["bytes"],
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles, extremes and count of a run's samples."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
    }


def environment(args: argparse.Namespace, numpy_version: str) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), None)
    except OSError:
        pass
    sources = sorted((SRC / "squaretori").glob("*.py"))
    source_hash = hashlib.sha256()
    for path in sources:
        source_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "source_sha256": source_hash.hexdigest(),
        "seed": args.seed,
        "command": [Path(sys.executable).name, *sys.argv],
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, or None outside one."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def end_to_end(items: int, run: dict, rss_mb: list[float], setup: list[float]) -> dict:
    """Per-sample values of every end-to-end metric."""
    return {
        "wall_s": run["walls"],
        "cpu_s": run["cpus"],
        "items_per_s": [items / wall for wall in run["walls"]],
        "peak_rss_mb": rss_mb,
        "setup_s": setup,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "squaretori" / "__init__.py").is_file():
        print(f"perfbench: no squaretori sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, workloads.SIZES[args.size])
    detail = {"workload": args.workload, "items": inputs["items"], "env": environment(args, numpy.__version__)}

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    stdout_path = scratch / f"stdout-{os.getpid()}"
    if args.trace:
        run = json.loads(run_worker(args, stdout_path)[-1])
        declared = SPEC["per_layer"]
        values = run["layers"]
        detail.update(spans=run["spans"], untraced_walls=run["walls"], traced_walls=run["traced_walls"])
    else:
        setup = setup_seconds(args, stdout_path)
        if args.workload in workloads.CLI_WORKLOADS:
            run = cli_passes(args, workloads, inputs, stdout_path)
            rss_mb = run["rss_mb"]
        else:
            run = json.loads(run_worker(args, stdout_path)[-1])
            rss_mb = [run["rss_mb"]]
        samples = end_to_end(inputs["items"], run, rss_mb, setup)
        declared = SPEC["end_to_end"]
        detail["spread"] = {name: spread(vals) for name, vals in samples.items()}
        if "latency_ns" in run:
            latencies_us = [ns / 1e3 for ns in run["latency_ns"]]
            q = statistics.quantiles(latencies_us, n=100)
            detail["query_latency_us"] = {"p50": q[49], "p99": q[98], "n": len(latencies_us)}
        values = {name: statistics.median(vals) for name, vals in samples.items()}
    detail.update(
        digest=run["digest"], stdout_bytes=run["bytes"], problems=run["problems"],
        fail_ratio=run["failed"] / run["attempted"],
    )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
