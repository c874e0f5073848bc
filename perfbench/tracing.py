"""Spans and counters around the library's public functions, for the traced run.

The tracer replaces functions at the module attributes the library looks
them up through: ``asymptotics`` and ``lattice`` import
``sieve_multiplicative``, ``factorize``, ``dedekind_psi`` and ``sigma`` by
name, so each of those is wrapped in every module that holds it. Spans
record (id, parent id, name, start ns, end ns, size) in memory; they are
written out when the run ends. Calls made once per row are not spanned,
so the tracing does not swamp what it measures: ``is_cyclic`` calls are
counted, and the rows of ``enumerate_lattices`` are counted with one step
in ``STEP_SAMPLE`` timed.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import time
from collections import Counter
from pathlib import Path

from squaretori import arith, asymptotics, cli, lattice

# (module, attribute, span name); every alias of a function gets the same name
SPANNED = (
    (arith, "sieve_multiplicative", "arith.sieve"),
    (asymptotics, "sieve_multiplicative", "arith.sieve"),
    (arith, "factorize", "arith.factorize"),
    (lattice, "factorize", "arith.factorize"),
    (arith, "dedekind_psi", "arith.counts"),
    (asymptotics, "dedekind_psi", "arith.counts"),
    (arith, "sigma", "arith.counts"),
    (asymptotics, "sigma", "arith.counts"),
    (lattice, "sigma", "arith.counts"),
    (arith, "psi_via_cylinders", "arith.psi_routes"),
    (arith, "psi_prime", "arith.psi_routes"),
    (lattice, "hnf_reduce", "lattice.hnf"),
    (lattice, "smith_shape", "lattice.smith"),
    (asymptotics, "partial_sums", "asymptotics.partial_sums"),
    (asymptotics, "qd2_partial_sum", "asymptotics.qd2"),
    (asymptotics, "extremal_sequence_rho", "asymptotics.extremal"),
    (cli, "main", "cli.main"),
)
SIZED = {"arith.sieve"}  # the span's size is the first argument (the sieve limit)
STEP_SAMPLE = 16  # iterator steps are timed one in STEP_SAMPLE and scaled up


class Tracer:
    """Spans of one pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self._counters: dict = {}
        self._stack = [0]
        self._ids = itertools.count(1)
        self._query_wrappers: dict = {}
        self.phi_cache = (0, 0)  # (hits, misses) of the totient cache while installed

    def span(self, name: str, fn, sized: bool = False):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, args[0] if sized else 0))

        return traced

    def counted(self, name: str, fn):
        # An lru_cache that keeps nothing still counts every call as a miss,
        # and in C, which is cheaper than a Python wrapper on a per-row call.
        counter = functools.lru_cache(maxsize=0)(fn)
        self._counters[name] = counter
        return counter

    @property
    def counts(self) -> dict[str, int]:
        return {name: c.cache_info().misses for name, c in self._counters.items()}

    def iterated(self, name: str, fn):
        """Span the call, and count and sample-time the steps of the iterator it returns."""
        spanned = self.span(name, fn)

        def traced(*args, **kwargs):
            return self._steps(f"{name}_iter", spanned(*args, **kwargs))

        return traced

    def _steps(self, name: str, iterator):
        # One record for all steps: its size is the item count, its duration
        # STEP_SAMPLE times the summed time of every STEP_SAMPLE-th step.
        # Timing every step would cost about as much as a step of enumerate_lattices.
        clock = time.perf_counter_ns
        sid = next(self._ids)
        parent = self._stack[-1]
        busy = items = 0
        first = clock()
        try:
            while True:
                sampled = items % STEP_SAMPLE == 0
                start = clock() if sampled else 0
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if sampled:
                        busy += clock() - start
                items += 1
                yield item
        finally:
            self.spans.append((sid, parent, name, first, first + busy * STEP_SAMPLE, items))

    def wrap_write(self, fn):
        return self.span("cli.write", fn)

    def wrap_query(self, kind: str, fn):
        if kind not in self._query_wrappers:
            self._query_wrappers[kind] = self.span(f"query.{kind}", fn)
        return self._query_wrappers[kind]

    @contextlib.contextmanager
    def installed(self):
        """Wrap the library functions for the duration of the block."""
        saved = []
        hits, misses = phi_cache_info()
        try:
            for module, attr, name in SPANNED:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.span(name, fn, sized=name in SIZED))
            saved.append((lattice, "enumerate_lattices", lattice.enumerate_lattices))
            lattice.enumerate_lattices = self.iterated("lattice.enumerate", lattice.enumerate_lattices)
            saved.append((lattice, "is_cyclic", lattice.is_cyclic))
            lattice.is_cyclic = self.counted("lattice.is_cyclic", lattice.is_cyclic)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            hits_after, misses_after = phi_cache_info()
            self.phi_cache = (hits_after - hits, misses_after - misses)


def phi_cache_info() -> tuple[int, int]:
    """(hits, misses) of the totient cache behind ``psi_via_cylinders``, if it exists."""
    info = getattr(getattr(arith, "_phi_of", None), "cache_info", None)
    if info is None:
        return 0, 0
    data = info()
    return data.hits, data.misses


def pass_metrics(tracer: Tracer, output: dict) -> dict:
    """Per-layer figures of one traced pass."""
    total: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    size: Counter[str] = Counter()
    children: Counter[int] = Counter()
    for sid, parent, name, start, end, sz in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        size[name] += sz
        children[parent] += end - start
    own: Counter[str] = Counter()
    for sid, parent, name, start, end, sz in tracer.spans:
        own[name] += end - start - children[sid]
    s = 1e-9
    cli_ran = calls["cli.main"] > 0
    return {
        "arith.sieve_s": total["arith.sieve"] * s,
        "arith.sieve_calls": calls["arith.sieve"],
        "arith.sieve_entries": size["arith.sieve"],
        "arith.factorize_s": total["arith.factorize"] * s,
        "arith.factorize_calls": calls["arith.factorize"],
        "arith.counts_s": total["arith.counts"] * s,
        "arith.psi_routes_s": own["arith.psi_routes"] * s,
        "lattice.enumerate_s": (total["lattice.enumerate"] + total["lattice.enumerate_iter"]) * s,
        "lattice.enumerate_rows": size["lattice.enumerate_iter"],
        "lattice.is_cyclic_calls": tracer.counts.get("lattice.is_cyclic", 0),
        "lattice.hnf_s": total["lattice.hnf"] * s,
        "lattice.smith_s": total["lattice.smith"] * s,
        "lattice.classify_calls": calls["query.classify"],
        "asymptotics.partial_sums_self_s": own["asymptotics.partial_sums"] * s,
        "asymptotics.qd2_self_s": own["asymptotics.qd2"] * s,
        "asymptotics.extremal_s": total["asymptotics.extremal"] * s,
        "cli.main_s": total["cli.main"] * s,
        "cli.self_s": own["cli.main"] * s,
        "cli.write_s": total["cli.write"] * s,
        "cli.write_calls": calls["cli.write"],
        "cli.rows_out": output["lines"] if cli_ran else 0,
        "cli.bytes_out": output["bytes"] if cli_ran else 0,
    }


def layer_metrics(tracers: list[Tracer], outputs: list[dict]) -> dict:
    """Medians over the traced passes, plus figures pooled over all of them."""
    per_pass = [pass_metrics(t, o) for t, o in zip(tracers, outputs, strict=True)]
    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    factorize_us = [
        (end - start) / 1e3
        for t in tracers
        for _, _, name, start, end, _ in t.spans
        if name == "arith.factorize"
    ]
    metrics["arith.factorize_p99_us"] = (
        statistics.quantiles(factorize_us, n=100)[98] if len(factorize_us) >= 2 else sum(factorize_us)
    )
    hits = sum(t.phi_cache[0] for t in tracers)
    misses = sum(t.phi_cache[1] for t in tracers)
    metrics["arith.phi_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return metrics


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write every recorded span and counter as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "fields": ["id", "parent", "name", "start_ns", "end_ns", "size"],
        "passes": [{"spans": t.spans, "counts": t.counts} for t in tracers],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))
