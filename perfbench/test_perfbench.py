"""Self-tests of the benchmark at tiny sizes.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs() -> dict:
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            done = bench(workload, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.splitlines()
            out[workload, trace] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(runs, workload, trace):
    _, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_isolates_the_layers(runs):
    layers = {w: runs[w, 1][1]["metrics"] for w in workloads.WORKLOADS}

    def value(workload: str, name: str):
        return layers[workload][name]["value"]

    for w in ("enumerate-csv", "point-queries"):
        assert value(w, "arith.sieve_calls") == 0 and value(w, "arith.sieve_entries") == 0
    for w in ("sweep-json", "mean-order"):
        assert value(w, "arith.sieve_calls") == 1
        assert value(w, "arith.sieve_entries") == runs[w, 1][0]["items"]
    for w in ("point-queries", "mean-order"):
        assert all(v["value"] == 0 for k, v in layers[w].items() if k.startswith("cli."))
        spans = json.loads((ROOT / runs[w, 1][0]["spans"]).read_text())
        names = {span[2] for p in spans["passes"] for span in p["spans"]}
        assert not any(name.startswith("cli.") for name in names)
    rows = runs["enumerate-csv", 1][0]["items"]
    assert value("enumerate-csv", "lattice.enumerate_rows") == rows
    assert value("enumerate-csv", "lattice.is_cyclic_calls") == rows
    assert value("point-queries", "lattice.classify_calls") > 0
    assert value("point-queries", "arith.factorize_calls") > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("sweep-json", 0, cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def first_pass(workload: str, seed: int = 5) -> tuple[dict, dict]:
    inputs = workloads.make_inputs(workload, seed, workloads.TINY)
    return inputs, workloads.run_pass(workload, inputs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_output(workload):
    (_, one), (_, two) = first_pass(workload), first_pass(workload)
    assert one["digest"] == two["digest"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_clean_output_verifies(workload):
    inputs, out = first_pass(workload)
    attempted, failed, problems = workloads.tally(workload, inputs, [out, out])
    assert (failed, problems) == (0, []) and attempted >= 2


def _corrupt_sweep_row(inputs, out):
    line = max(out["samples"], key=int)
    row = json.loads(out["samples"][line])
    row["psi"] += 1
    out["samples"][line] = json.dumps(row, separators=(",", ":"))


def _corrupt_enumerate_row(inputs, out):
    lines = out["text"].split("\n")
    lines[1], lines[2] = lines[2], lines[1]
    out["text"] = "\n".join(lines)


def _corrupt_query_answer(inputs, out):
    out["answers"][inputs["oracle_checks"][0]][1] += 1


def _corrupt_mean_order(inputs, out):
    out["result"][3] += 1e-3


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("sweep-json", _corrupt_sweep_row),
        ("enumerate-csv", _corrupt_enumerate_row),
        ("point-queries", _corrupt_query_answer),
        ("mean-order", _corrupt_mean_order),
    ],
)
def test_a_corrupted_row_or_answer_raises_the_fail_ratio(workload, corrupt):
    inputs, out = first_pass(workload)
    corrupt(inputs, out)
    attempted, failed, problems = workloads.tally(workload, inputs, [out])
    assert failed > 0 and problems


def test_a_pass_that_differs_from_the_first_fails():
    inputs, out = first_pass("sweep-json")
    attempted, failed, _ = workloads.tally("sweep-json", inputs, [out, dict(out, digest="0")])
    assert (attempted, failed) == (2, 1)


def test_summary_keeps_the_chosen_lines_and_the_tail():
    lines = [f"line {i} " + "x" * (i % 7) for i in range(500)]
    data = ("\n".join(lines) + "\n").encode()
    wanted = [0, 1, 77, 250, 498, 499]
    summary = workloads.summarize(data, wanted, keep=True)
    assert summary["samples"] == {str(i): lines[i] for i in wanted}
    assert summary["lines"] == 500 and summary["bytes"] == len(data)
    assert summary["tail"] == lines[-2:] and summary["text"] == data.decode()


def test_captured_stdout_is_what_the_cli_process_writes(tmp_path):
    inputs = workloads.make_inputs("enumerate-csv", 5, workloads.TINY)
    in_process = workloads.run_cli_inprocess(inputs, keep=False)
    argv = [sys.executable, "-m", "squaretori", *inputs["argv"]]
    env = {"PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, check=True, timeout=60)
    assert in_process["digest"] == workloads.summarize(done.stdout)["digest"]
