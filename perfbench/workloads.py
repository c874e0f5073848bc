"""Workloads of the benchmark: inputs made from a seed, passes, verification.

Every workload is a closed loop with one caller: the next pass starts only
after the previous one has finished. A pass is the unit that is timed:

- ``sweep-json``    one ``--format json sweep N`` CLI run (rows 1..N + footer);
- ``enumerate-csv`` one ``--format csv enumerate n`` CLI run (sigma(n) rows);
- ``point-queries`` one walk over a seeded stream of count/classify queries;
- ``mean-order``    one sieve reduced by ``partial_sums`` and
  ``qd2_partial_sum``, plus ``extremal_sequence_rho(1..50)``.

The seed makes the inputs and picks which outputs are checked. The library
only ever receives the generated inputs. Library functions are called
through their module attributes (``arith.factorize``, not a copied name),
so the traced run can wrap them in place.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from squaretori import arith, asymptotics, cli, lattice

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("sweep-json", "enumerate-csv", "point-queries", "mean-order")
CLI_WORKLOADS = ("sweep-json", "enumerate-csv")
MIN_PASSES = 3  # a run times at least this many passes, however long they take

# Indices with sigma(n) within 1% of 480000 and at least 96 divisors, so
# every seed enumerates about the same number of rows over many widths.
ENUMERATE_INDICES = (
    120120, 126720, 129600, 130200, 130680, 132480, 133920, 133980,
    135660, 136620, 137088, 137592, 139104, 140448, 141372,
)

INV_ZETA2 = 6 / math.pi**2
INV_ZETA4 = 90 / math.pi**4
ZETA2_OVER_ZETA4 = 15 / math.pi**2

# Shares of the point-query stream. Hard queries (balanced semiprimes with
# both factors near 2^18) cost ~20 ms of trial division each; at 3% they
# are well above 1% of the stream, so the 99th percentile of query latency
# falls inside that class rather than on its boundary.
HARD_SHARE = 0.03
CLASSIFY_SHARE = 0.40
ROUTE_SHARE = 0.10  # of count queries, which also evaluate the two other psi routes
HARD_CENTRE = 2**18
HARD_HALF_WIDTH = 2**11

# Sampled sweep rows at n <= ORACLE_LIMIT are also checked by brute force.
ORACLE_LIMIT = 3_000


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is what the benchmark runs, ``TINY`` is for self-tests."""

    sweep_n: int
    enumerate_indices: tuple[int, ...]
    queries: int
    mean_n: int
    samples: int


FULL = Sizes(300_000, ENUMERATE_INDICES, 2_000, 1_000_000, 24)
TINY = Sizes(3_000, (720, 840), 120, 5_000, 8)
SIZES = {"full": FULL, "tiny": TINY}


def _fmt(x: float) -> float:
    """A float as the CLI prints it (12 significant digits), read back."""
    return float(f"{x:.12g}")


def _band(rng: random.Random, centre: int) -> int:
    """A size within +-0.5% of centre, so runs with different seeds stay comparable."""
    half = centre // 200
    return centre + rng.randrange(-half, half + 1)


def make_inputs(workload: str, seed: int, sizes: Sizes = FULL) -> dict:
    """The inputs of one run, a pure function of (workload, seed, sizes)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-json":
        n = _band(rng, sizes.sweep_n)
        small = rng.sample(range(1, min(n, ORACLE_LIMIT) + 1), sizes.samples // 4)
        large = rng.sample(range(1, n + 1), sizes.samples)
        return {
            "argv": ["--format", "json", "sweep", str(n)],
            "n": n,
            "items": n,
            # line i of the output holds the row for n = i + 1
            "sample_lines": sorted({m - 1 for m in small + large}),
        }
    if workload == "enumerate-csv":
        n = rng.choice(sizes.enumerate_indices)
        rows = load_oracles().brute_sigma(n)
        return {
            "argv": ["--format", "csv", "enumerate", str(n)],
            "n": n,
            "items": rows,
            # line 0 is the CSV header
            "sample_lines": sorted(rng.sample(range(1, rows + 1), sizes.samples)),
        }
    if workload == "point-queries":
        return _make_queries(rng, sizes)
    if workload == "mean-order":
        n = _band(rng, sizes.mean_n)
        return {"n": n, "items": n}
    raise ValueError(f"unknown workload {workload!r}")


def _small_primes_in(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo | 1, hi, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]


def _make_queries(rng: random.Random, sizes: Sizes) -> dict:
    total = sizes.queries
    n_hard = max(1, round(HARD_SHARE * total))
    n_classify = round(CLASSIFY_SHARE * total)
    n_count = total - n_hard - n_classify
    kinds = ["hard"] * n_hard + ["classify"] * n_classify + ["count"] * n_count
    rng.shuffle(kinds)
    pool = _small_primes_in(HARD_CENTRE - HARD_HALF_WIDTH, HARD_CENTRE + HARD_HALF_WIDTH)
    bound = 2**30
    queries = []
    for kind in kinds:
        if kind == "hard":
            p, q = sorted(rng.sample(pool, 2))
            queries.append(["hard", p * q, p, q])
        elif kind == "count":
            queries.append(["count", rng.randrange(2, 10**9), rng.random() < ROUTE_SHARE])
        else:
            while True:
                u1, u2, v1, v2 = (rng.randrange(-bound, bound + 1) for _ in range(4))
                if u1 * v2 - u2 * v1 != 0:
                    break
            queries.append(["classify", u1, u2, v1, v2])
    count_at = [i for i, q in enumerate(queries) if q[0] == "count"]
    classify_at = [i for i, q in enumerate(queries) if q[0] == "classify"]
    return {
        "queries": queries,
        "items": total,
        "oracle_checks": sorted(rng.sample(count_at, min(sizes.samples, len(count_at)))),
        "basis_checks": sorted(rng.sample(classify_at, min(sizes.samples, len(classify_at)))),
        "basis_seed": rng.randrange(2**32),
    }


# --- CLI output ---------------------------------------------------------


def summarize(data: bytes, sample_lines=(), keep: bool = False) -> dict:
    """Digest, size and line count of a pass's whole output, plus chosen lines.

    Keeps the lines whose 0-based indices are in ``sample_lines``, the last
    two lines and, when ``keep`` is set, the whole text.
    """
    text = data.decode(errors="replace")
    lines = text.split("\n")  # the last item is whatever follows the final newline
    out = {
        "digest": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "lines": data.count(b"\n"),
        "samples": {str(i): lines[i] for i in sample_lines if i < len(lines) - 1},
        "tail": lines[-3:-1],
    }
    if keep:
        out["text"] = text
    return out


def run_cli_inprocess(inputs: dict, keep: bool, on_write=None) -> dict:
    """One CLI pass through ``cli.main(argv)`` with stdout captured in memory.

    The capture is a text stream over a byte buffer, as ``sys.stdout`` is over
    a file, so a write costs what it costs the CLI short of the system call.
    ``on_write``, when given, wraps the stream's ``write`` (the traced run
    times it). The output is digested and split only after ``cli.main`` returns.
    """
    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="utf-8")
    if on_write:
        stream.write = on_write(stream.write)
    saved = sys.stdout
    sys.stdout = stream
    try:
        code = cli.main(list(inputs["argv"]))
    finally:
        sys.stdout = saved
    stream.flush()
    out = summarize(buffer.getvalue(), inputs["sample_lines"], keep)
    out["exit_code"] = code
    return out


# --- in-process passes --------------------------------------------------


def _answer(query: list) -> list:
    kind = query[0]
    if kind == "classify":
        g = lattice.GeneratorPair((query[1], query[2]), (query[3], query[4]))
        h = lattice.hnf_reduce(g)
        shape = lattice.smith_shape(g)
        return [
            h.width, h.height, h.twist, shape.d1, shape.d2,
            lattice.content(g), lattice.lattice_index(g), lattice.is_cyclic(h),
        ]
    n = query[1]
    f = arith.factorize(n)
    answer = [
        [list(pa) for pa in f.factors],
        arith.dedekind_psi(f),
        arith.sigma(f),
        asymptotics.rho(f).value,
    ]
    if kind == "count" and query[2]:
        answer.append([arith.psi_via_cylinders(n), arith.psi_prime(n)])
    return answer


def run_queries(inputs: dict, on_query=None) -> dict:
    """One walk over the query stream; ``on_query`` wraps each query when given."""
    answers = []
    latencies = []
    clock = time.perf_counter_ns
    answer = _answer
    for query in inputs["queries"]:
        call = on_query(query[0], answer) if on_query else answer
        t0 = clock()
        try:
            result = call(query)
        except (ValueError, ArithmeticError) as exc:
            result = ["error", f"{type(exc).__name__}: {exc}"]
        latencies.append(clock() - t0)
        answers.append(result)
    return {"answers": answers, "digest": digest(answers), "latency_ns": latencies}


def run_mean_order(inputs: dict) -> dict:
    n = inputs["n"]
    sv = arith.sieve_multiplicative(n)
    record = asymptotics.partial_sums(n, sieve=sv)
    qd2 = asymptotics.qd2_partial_sum(n, sieve=sv)
    del sv
    extremal = [asymptotics.extremal_sequence_rho(k) for k in range(1, 51)]
    result = [record.cum_psi, record.cum_sigma, record.cum_ratio, qd2, extremal]
    return {"result": result, "digest": digest(result)}


def keeps_text(workload: str, index: int) -> bool:
    """Whether pass ``index`` keeps its whole output: enumerate-csv's first, for verification."""
    return index == 0 and workload == "enumerate-csv"


def run_pass(workload: str, inputs: dict, index: int = 0, tracer=None) -> dict:
    """Pass ``index`` of an in-process workload, traced when a tracer is given.

    Only the first pass keeps what verification reads; later passes keep
    their digest, so memory does not grow with the number of passes.
    """
    if workload in CLI_WORKLOADS:
        keep = keeps_text(workload, index)
        return run_cli_inprocess(inputs, keep, tracer.wrap_write if tracer else None)
    if workload == "point-queries":
        out = run_queries(inputs, tracer.wrap_query if tracer else None)
    else:
        out = run_mean_order(inputs)
    if index:
        out.pop("answers", None)
        out.pop("result", None)
    return out


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def timed(fn) -> dict:
    """Wall and CPU (user + system) seconds of ``fn()`` in this process, with its output."""
    cpu = time.process_time()
    start = time.perf_counter()
    out = fn()
    return {"wall": time.perf_counter() - start, "cpu": time.process_time() - cpu, "out": out}


def closed_loop(do_pass, seconds: float, min_passes: int) -> list[dict]:
    """Passes back to back, ``do_pass(index)``, until ``seconds`` have passed.

    A pass is never cut short, so the loop may overrun by up to one pass.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(do_pass(len(passes)))
    return passes


def tally(workload: str, inputs: dict, outputs: list[dict]) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, problems found) over a run's passes.

    An operation is a query on ``point-queries`` and a pass elsewhere. The
    first pass is verified in full; a later pass must repeat its output
    exactly (same digest, exit code 0), or all its operations fail.
    """
    problems = verify(workload, inputs, outputs[0])
    per_pass = inputs["items"] if workload == "point-queries" else 1
    failed_in_first = min(len(problems), per_pass)
    failed = 0
    for out in outputs:
        if out["digest"] != outputs[0]["digest"] or out.get("exit_code", 0) != 0:
            failed += per_pass
        else:
            failed += failed_in_first
    return per_pass * len(outputs), failed, problems


# --- verification -------------------------------------------------------


def load_oracles():
    """The brute-force reference functions of the test suite."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def squarefree_upto(n: int) -> np.ndarray:
    """mu(d)^2 for d = 0..n (index 0 unused), by striking multiples of p^2."""
    sqf = np.ones(n + 1, dtype=np.int64)
    sqf[0] = 0
    for p in range(2, math.isqrt(n) + 1):
        sqf[p * p :: p * p] = 0
    return sqf


def cumulative_counts(x: int, sqf: np.ndarray) -> tuple[int, int]:
    """(sum of psi(m), sum of sigma(m)) over m <= x, without a multiplicative sieve.

    sum sigma = sum_k k * floor(x/k);  sum psi = sum_d mu(d)^2 * T(floor(x/d)),
    with T(y) = y(y+1)/2, because psi(m) = sum over square-free d | m of m/d.
    """
    k = np.arange(1, x + 1, dtype=np.int64)
    q = x // k
    return int((sqf[1 : x + 1] * (q * (q + 1) // 2)).sum()), int((k * q).sum())


def verify(workload: str, inputs: dict, first: dict) -> list[str]:
    """Failures found in the first pass's output; an empty list means correct."""
    try:
        check = {
            "sweep-json": _verify_sweep,
            "enumerate-csv": _verify_enumerate,
            "point-queries": _verify_queries,
            "mean-order": _verify_mean_order,
        }[workload]
        return check(inputs, first)
    except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
        return [f"verification raised {type(exc).__name__}: {exc}"]


def _verify_sweep(inputs: dict, out: dict) -> list[str]:
    n = inputs["n"]
    bad = []
    if out.get("exit_code") != 0:
        bad.append(f"exit code {out.get('exit_code')}")
    if out["lines"] != n + 1:
        bad.append(f"{out['lines']} lines, expected {n} rows and a footer")
    oracles = load_oracles()
    sqf = squarefree_upto(n)
    rows = {int(k): json.loads(v) for k, v in out["samples"].items()}
    last, footer = (json.loads(line) for line in out["tail"])
    rows[n - 1] = last
    for line, row in sorted(rows.items()):
        m = line + 1
        f = arith.factorize(m)
        psi, sig = arith.dedekind_psi(f), arith.sigma(f)
        cum_psi, cum_sigma = cumulative_counts(m, sqf)
        expected = {
            "n": m, "psi": psi, "sigma": sig, "rho": _fmt(psi / sig),
            "cum_psi": cum_psi, "cum_sigma": cum_sigma,
            "cum_ratio": _fmt(cum_psi / cum_sigma),
        }
        if row != expected:
            bad.append(f"row {m}: {row} != {expected}")
        if m <= ORACLE_LIMIT and (
            row["psi"] != oracles.brute_psi_triples(m) or row["sigma"] != oracles.brute_sigma(m)
        ):
            bad.append(f"row {m} disagrees with the brute-force oracles")
    record = asymptotics.partial_sums(n)
    if (last["cum_psi"], last["cum_sigma"]) != (record.cum_psi, record.cum_sigma):
        bad.append("last row disagrees with partial_sums")
    if footer.get("final_cum_ratio") != _fmt(record.cum_ratio):
        bad.append(f"footer {footer} disagrees with partial_sums {record.cum_ratio}")
    return bad


def _verify_enumerate(inputs: dict, out: dict) -> list[str]:
    n = inputs["n"]
    bad = []
    if out.get("exit_code") != 0:
        bad.append(f"exit code {out.get('exit_code')}")
    oracles = load_oracles()
    lines = out["text"].split("\n")
    if lines[0] != "w,h,t,cyclic" or lines[-1] != "":
        bad.append("missing CSV header or final newline")
    rows = lines[1:-1]
    expected_rows = oracles.brute_sigma(n)
    if len(rows) != expected_rows or out["lines"] != expected_rows + 1:
        bad.append(f"{len(rows)} rows, expected sigma({n}) = {expected_rows}")
    previous = (0, -1)
    cyclic = 0
    for text in rows:
        w, h, t, flag = text.split(",")
        w, h, t = int(w), int(h), int(t)
        # strictly ascending (width, twist) makes the rows distinct and in order
        if not (w * h == n and 0 <= t < w and (w, t) > previous and flag in ("true", "false")):
            bad.append(f"row {text!r} breaks the documented order or form")
            break
        previous = (w, t)
        cyclic += flag == "true"
    if cyclic != oracles.brute_psi_triples(n):
        bad.append(f"{cyclic} cyclic rows, expected psi({n})")
    for index, text in out["samples"].items():
        w, h, t, flag = text.split(",")
        shape = lattice.smith_shape(lattice.GeneratorPair((int(w), 0), (int(t), int(h))))
        if (flag == "true") != (shape.d1 == 1):
            bad.append(f"row {index} {text!r}: cyclic flag disagrees with smith_shape")
    return bad


def _verify_queries(inputs: dict, out: dict) -> list[str]:
    """Checks each query answer; each failure names the query index first."""
    oracles = load_oracles()
    bad = []
    oracle_checks = set(inputs["oracle_checks"])
    basis_checks = set(inputs["basis_checks"])
    for i, (query, answer) in enumerate(zip(inputs["queries"], out["answers"], strict=True)):
        reason = _check_answer(query, answer, i in oracle_checks, oracles)
        if reason is None and i in basis_checks:
            reason = _check_basis(query, inputs["basis_seed"] + i)
        if reason:
            bad.append(f"{i}: {query} -> {answer}: {reason}")
    return bad


def _check_answer(query, answer, with_oracle, oracles) -> str | None:
    if answer[0] == "error":
        return answer[1]
    kind = query[0]
    if kind == "classify":
        w, h, t, d1, d2, content, index, cyclic = answer
        if d1 != content or d1 * d2 != index or w * h != index or cyclic != (d1 == 1):
            return "invariants disagree"
        return None
    n = query[1]
    factors, psi, sig, rho = answer[:4]
    if math.prod(p**a for p, a in factors) != n:
        return "factors do not multiply to n"
    if rho != psi / sig:
        return "rho != psi/sigma"
    if kind == "hard":
        p, q = query[2], query[3]
        if factors != [[p, 1], [q, 1]] or psi != (p + 1) * (q + 1) or sig != psi:
            return "wrong semiprime counts"
    if len(answer) == 5 and answer[4] != [psi, psi]:
        return "the three psi routes disagree"
    if with_oracle:
        fmap = oracles.brute_factor_map(n)
        if sorted(fmap.items()) != [tuple(pa) for pa in factors]:
            return "factorization disagrees with the oracle"
        if psi != n * math.prod(p + 1 for p in fmap) // math.prod(fmap) or sig != math.prod(
            (p ** (a + 1) - 1) // (p - 1) for p, a in fmap.items()
        ):
            return "counts disagree with the oracle factorization"
    return None


def _check_basis(query, seed: int) -> str | None:
    g = lattice.GeneratorPair((query[1], query[2]), (query[3], query[4]))
    moved = lattice.random_unimodular(g, seed, 12)
    if lattice.hnf_reduce(moved) != lattice.hnf_reduce(g):
        return "HNF changes under a unimodular change of basis"
    return None


def _verify_mean_order(inputs: dict, out: dict) -> list[str]:
    n = inputs["n"]
    cum_psi, cum_sigma, cum_ratio, qd2, extremal = out["result"]
    bad = []
    if (cum_psi, cum_sigma) != cumulative_counts(n, squarefree_upto(n)):
        bad.append("cumulative sums disagree with the divisor-sum route")
    if cum_ratio != cum_psi / cum_sigma:
        bad.append("cum_ratio != cum_psi/cum_sigma")
    if not abs(cum_ratio - INV_ZETA4) <= math.log(n) / n:
        bad.append(f"cum_ratio {cum_ratio} outside log(N)/N of 90/pi^4")
    if not 0 < ZETA2_OVER_ZETA4 - qd2 <= 1 / n:
        bad.append(f"qd2 {qd2} not within 1/N below 15/pi^2")
    if len(extremal) != 50 or min(extremal) < INV_ZETA2:
        bad.append("an extremal rho lies below 6/pi^2")
    return bad
