"""Command-line front end: counting, enumeration, classification, sweeps.

Every command writes deterministic, machine-readable output to stdout
(plain text, CSV with a header row, or JSON lines; see ``_template``) and
diagnostics to stderr only. Exit codes: 0 success, 2 usage, 1 runtime.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import compress, cycle, islice, takewhile
from math import gcd
from operator import add
from typing import IO, Iterable, Sequence

from . import arith, asymptotics, lattice

# Lines per write. 4096 keeps a chunk's lines, their join and its encoding
# small, so memory stays flat in N, and wall time is no worse than at 65536.
_CHUNK = 4096

# Field schemas: a name, then a printf spec after ":" where "%s" will not do.
# Floats are printed with 12 significant digits in every format.
_COUNT = ("n", "psi", "sigma", "rho:.12g")
_ENUMERATE = ("w", "h", "t", "cyclic")
_CLASSIFY = ("w", "h", "t", "n", "content", "d1", "d2", "cyclic")
_SWEEP = ("n", "psi", "sigma", "rho:.12g", "cum_psi", "cum_sigma", "cum_ratio:.12g")
_EXTREMAL = ("k", "rho:.12g", "deviation:.12g")

_SWEEP_FOOTER = {
    "plain": "final cum_ratio=%.12g deviation=%.12g\n",
    "csv": "# final cum_ratio=%.12g deviation=%.12g\n",
    "json": '{"final_cum_ratio":%.12g,"deviation":%.12g}\n',
}

_BOOL = ("false", "true")


def _template(
    out: IO[str], fmt: str, fields: Sequence[str], keyed: bool = False
) -> str:
    """Write the header of a table in the requested format; return the line template.

    A row is a tuple in schema order. json writes one object per row. csv writes
    a header of field names, then comma-separated rows. plain has two layouts: a
    keyed record (count, classify) is one line of space-separated name=value
    pairs; a table (enumerate, sweep, extremal) is a header of names, then columns.
    """
    names = [field.partition(":")[0] for field in fields]
    specs = ["%" + (field.partition(":")[2] or "s") for field in fields]
    if fmt == "json":
        pairs = (f'"{name}":{spec}' for name, spec in zip(names, specs))
        template = "{" + ",".join(pairs) + "}"
    elif keyed and fmt == "plain":
        template = " ".join(f"{name}={spec}" for name, spec in zip(names, specs))
    else:
        sep = "," if fmt == "csv" else " "
        out.write(sep.join(names) + "\n")
        template = sep.join(specs)
    return template + "\n"


def _emit(
    out: IO[str], fmt: str, fields: Sequence[str], rows: Iterable, keyed: bool = False
) -> None:
    """Write rows, each a tuple in schema order, in the requested format."""
    lines = map(_template(out, fmt, fields, keyed).__mod__, rows)
    while chunk := "".join(islice(lines, _CHUNK)):
        out.write(chunk)


def _cmd_count(args: argparse.Namespace, out: IO[str]) -> None:
    r = asymptotics.rho(arith.factorize(args.n))
    _emit(out, args.format, _COUNT, [(args.n, r.psi, r.sigma, r.value)], keyed=True)


def _cmd_enumerate(args: argparse.Namespace, out: IO[str]) -> None:
    # (w, h, t) is cyclic iff gcd(t, g) = 1 with g = gcd(w, h); g divides w, so
    # the flag has period g in t. Each width cuts the line template once per
    # flag, into the text before t and the text after it, and joins its twists.
    shapes = lattice._shapes(args.n)  # refuses before the header is written
    template = _template(out, args.format, _ENUMERATE)
    for w, h in shapes:
        g = gcd(w, h)
        flags = [gcd(t, g) == 1 for t in range(g)]
        cut = [(template % (w, h, "\0", flag)).split("\0") for flag in _BOOL]
        (pre, false), (_, true) = cut
        kept = compress(range(w), cycle(flags)) if args.cyclic_only else range(w)
        twists = map(str, kept)
        if g == 1 or args.cyclic_only:  # every row written is cyclic
            sep, end = true + pre, true
        else:  # each twist carries the text after it
            twists = map(add, twists, cycle([(false, true)[f] for f in flags]))
            sep, end = pre, ""
        while part := sep.join(islice(twists, _CHUNK)):
            out.write(pre + part + end)


def _cmd_classify(args: argparse.Namespace, out: IO[str]) -> None:
    g = lattice.GeneratorPair((args.u1, args.u2), (args.v1, args.v2))
    hnf = lattice.hnf_reduce(g)
    shape = lattice.smith_shape(g)
    row = (
        hnf.width, hnf.height, hnf.twist, lattice.lattice_index(g),
        lattice.content(g), shape.d1, shape.d2, _BOOL[lattice.is_cyclic(hnf)],
    )
    _emit(out, args.format, _CLASSIFY, [row], keyed=True)


def _cmd_sweep(args: argparse.Namespace, out: IO[str]) -> None:
    # sweep_stream refuses at the call, before _emit writes the header; the
    # footer's sublinear sums equal the last row's sieve sums
    _emit(out, args.format, _SWEEP, asymptotics.sweep_stream(args.n))
    final = asymptotics.partial_sums(args.n).cum_ratio
    deviation = abs(final - asymptotics.INV_ZETA4)
    out.write(_SWEEP_FOOTER[args.format] % (final, deviation))


def _cmd_extremal(args: argparse.Namespace, out: IO[str]) -> None:
    rho = asymptotics.extremal_sequence_rho
    rho(args.kmax)  # refuses a kmax out of its range before any other work
    inv_z2 = asymptotics.INV_ZETA2
    rows = [(k, v, v - inv_z2) for k in range(1, args.kmax + 1) for v in [rho(k)]]
    _emit(out, args.format, _EXTREMAL, rows)


_COMMANDS = (
    ("count", _cmd_count, "psi(n), sigma(n) and their ratio", "n"),
    ("enumerate", _cmd_enumerate, "all index-n tori as (w,h,t) rows", "n"),
    ("classify", _cmd_classify,
     "canonical form and invariants of a generator pair", "u1 u2 v1 v2"),
    ("sweep", _cmd_sweep, "census rows 1..N with running totals", "n"),
    ("extremal", _cmd_extremal,
     "rho along powered primorials, against 1/zeta(2)", "kmax"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squaretori",
        description="Count, enumerate and classify square-tiled tori.",
    )
    parser.add_argument(
        "--format",
        choices=("csv", "json", "plain"),
        default="plain",
        help="output format (default: plain)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text, positionals in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for positional in positionals.split():
            p.add_argument(positional, type=int)
        p.set_defaults(func=func)
    sub.choices["enumerate"].add_argument(
        "--cyclic-only", action="store_true", help="keep only cyclic tori"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    commands = {command[0] for command in _COMMANDS}
    options = parser._option_string_actions  # argparse also takes any prefix of one
    for token in takewhile(lambda t: t not in commands, argv):
        # argparse would take the value after an unknown option for the
        # command ("invalid choice: '3'"), so name the option itself
        option = token.partition("=")[0]
        if option.startswith("-") and not any(o.startswith(option) for o in options):
            parser.error(f"unrecognized arguments: {token}")
    args = parser.parse_args(argv)
    try:
        args.func(args, sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # a closed reader or a full device; point stdout at devnull so exit
        # flushes cleanly, and name the failure unless the reader just left
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, MemoryError, arith.BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
