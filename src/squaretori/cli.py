"""Command-line front end: counting, enumeration, classification, sweeps.

Every command writes deterministic, machine-readable output to stdout
(plain key=value text, CSV with a header row, or JSON lines) and
diagnostics to stderr only. Exit codes: 0 success, 2 usage, 1 runtime.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO

from . import arith, asymptotics, lattice

_CHUNK = 65536


def _fmt(x: float) -> str:
    # floats are printed with 12 significant digits in every format
    return f"{x:.12g}"


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _cmd_count(args: argparse.Namespace, out: IO[str]) -> None:
    f = arith.factorize(args.n)
    psi = arith.dedekind_psi(f)
    sig = arith.sigma(f)
    ratio = psi / sig
    if args.format == "csv":
        out.write("n,psi,sigma,rho\n")
        out.write(f"{args.n},{psi},{sig},{_fmt(ratio)}\n")
    elif args.format == "json":
        out.write(
            f'{{"n":{args.n},"psi":{psi},"sigma":{sig},"rho":{_fmt(ratio)}}}\n'
        )
    else:
        out.write(f"n={args.n} psi={psi} sigma={sig} rho={_fmt(ratio)}\n")


def _cmd_enumerate(args: argparse.Namespace, out: IO[str]) -> None:
    rows = lattice.enumerate_lattices(args.n, max_triples=args.max_triples)
    if args.format == "csv":
        out.write("w,h,t,cyclic\n")
    elif args.format == "plain":
        out.write("w h t cyclic\n")
    buffer: list[str] = []
    for lat in rows:
        cyclic = lattice.is_cyclic(lat)
        if args.cyclic_only and not cyclic:
            continue
        w, h, t = lat.width, lat.height, lat.twist
        if args.format == "csv":
            buffer.append(f"{w},{h},{t},{_bool(cyclic)}")
        elif args.format == "json":
            buffer.append(
                f'{{"w":{w},"h":{h},"t":{t},"cyclic":{_bool(cyclic)}}}'
            )
        else:
            buffer.append(f"{w} {h} {t} {_bool(cyclic)}")
        if len(buffer) >= _CHUNK:
            out.write("\n".join(buffer) + "\n")
            buffer.clear()
    if buffer:
        out.write("\n".join(buffer) + "\n")


def _cmd_classify(args: argparse.Namespace, out: IO[str]) -> None:
    g = lattice.GeneratorPair((args.u1, args.u2), (args.v1, args.v2))
    hnf = lattice.hnf_reduce(g)
    n = lattice.lattice_index(g)
    r = lattice.content(g)
    shape = lattice.smith_shape(g)
    cyclic = lattice.is_cyclic(hnf)
    w, h, t = hnf.width, hnf.height, hnf.twist
    if args.format == "csv":
        out.write("w,h,t,n,content,d1,d2,cyclic\n")
        out.write(
            f"{w},{h},{t},{n},{r},{shape.d1},{shape.d2},{_bool(cyclic)}\n"
        )
    elif args.format == "json":
        out.write(
            f'{{"w":{w},"h":{h},"t":{t},"n":{n},"content":{r},'
            f'"d1":{shape.d1},"d2":{shape.d2},"cyclic":{_bool(cyclic)}}}\n'
        )
    else:
        out.write(
            f"w={w} h={h} t={t} n={n} content={r} "
            f"d1={shape.d1} d2={shape.d2} cyclic={_bool(cyclic)}\n"
        )


def _cmd_sweep(args: argparse.Namespace, out: IO[str]) -> None:
    sv = arith.sieve_multiplicative(args.n, max_sieve=args.max_sieve)
    psi = sv.psi[: args.n + 1].tolist()
    sig = sv.sigma[: args.n + 1].tolist()
    if args.format == "csv":
        out.write("n,psi,sigma,rho,cum_psi,cum_sigma,cum_ratio\n")
    elif args.format == "plain":
        out.write("n psi sigma rho cum_psi cum_sigma cum_ratio\n")
    cum_psi = 0
    cum_sigma = 0
    buffer: list[str] = []
    for n in range(1, args.n + 1):
        p = psi[n]
        s = sig[n]
        cum_psi += p
        cum_sigma += s
        ratio = _fmt(p / s)
        cum_ratio = _fmt(cum_psi / cum_sigma)
        if args.format == "csv":
            buffer.append(
                f"{n},{p},{s},{ratio},{cum_psi},{cum_sigma},{cum_ratio}"
            )
        elif args.format == "json":
            buffer.append(
                f'{{"n":{n},"psi":{p},"sigma":{s},"rho":{ratio},'
                f'"cum_psi":{cum_psi},"cum_sigma":{cum_sigma},'
                f'"cum_ratio":{cum_ratio}}}'
            )
        else:
            buffer.append(
                f"{n} {p} {s} {ratio} {cum_psi} {cum_sigma} {cum_ratio}"
            )
        if len(buffer) >= _CHUNK:
            out.write("\n".join(buffer) + "\n")
            buffer.clear()
    if buffer:
        out.write("\n".join(buffer) + "\n")
    final = cum_psi / cum_sigma
    deviation = abs(final - asymptotics.ZETA.inv_zeta4)
    if args.format == "csv":
        out.write(f"# final cum_ratio={_fmt(final)} deviation={_fmt(deviation)}\n")
    elif args.format == "json":
        out.write(
            f'{{"final_cum_ratio":{_fmt(final)},"deviation":{_fmt(deviation)}}}\n'
        )
    else:
        out.write(f"final cum_ratio={_fmt(final)} deviation={_fmt(deviation)}\n")


def _cmd_extremal(args: argparse.Namespace, out: IO[str]) -> None:
    if not 1 <= args.kmax <= 50:
        raise ValueError(f"kmax must be in [1, 50], got {args.kmax}")
    inv_z2 = asymptotics.ZETA.inv_zeta2
    if args.format == "csv":
        out.write("k,rho,deviation\n")
    elif args.format == "plain":
        out.write("k rho deviation\n")
    for k in range(1, args.kmax + 1):
        value = asymptotics.extremal_sequence_rho(k)
        dev = value - inv_z2
        if args.format == "csv":
            out.write(f"{k},{_fmt(value)},{_fmt(dev)}\n")
        elif args.format == "json":
            out.write(f'{{"k":{k},"rho":{_fmt(value)},"deviation":{_fmt(dev)}}}\n')
        else:
            out.write(f"{k} {_fmt(value)} {_fmt(dev)}\n")


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
    parser.add_argument(
        "--max-triples",
        type=int,
        default=lattice.DEFAULT_MAX_TRIPLES,
        metavar="N",
        help="enumeration budget in triples",
    )
    parser.add_argument(
        "--max-sieve",
        type=int,
        default=arith.DEFAULT_MAX_SIEVE,
        metavar="N",
        help="sieve budget",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="psi(n), sigma(n) and their ratio")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="all index-n tori as (w,h,t) rows")
    p.add_argument("n", type=int)
    p.add_argument(
        "--cyclic-only", action="store_true", help="keep only cyclic tori"
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "classify", help="canonical form and invariants of a generator pair"
    )
    p.add_argument("u1", type=int)
    p.add_argument("u2", type=int)
    p.add_argument("v1", type=int)
    p.add_argument("v2", type=int)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", help="census rows 1..N with running totals")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "extremal", help="rho along powered primorials, against 1/zeta(2)"
    )
    p.add_argument("kmax", type=int)
    p.set_defaults(func=_cmd_extremal)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early; point stdout at devnull so exit flushes cleanly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError, arith.BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
