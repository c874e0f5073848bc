import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import groupby, product
from operator import itemgetter

import pytest

from squaretori import arith, asymptotics, cli, lattice
from squaretori.cli import main

FORMATS = ("plain", "csv", "json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_plain(line):
    return dict(item.split("=", 1) for item in line.split())


def census_row(n):
    """The sweep's row at n: psi, sigma and rho from n's factors, then partial_sums(n)."""
    r = asymptotics.rho(arith.factorize(n))
    return (n, r.psi, r.sigma, r.value, *asymptotics.partial_sums(n))


# --- enumerate rows and extremal deviations --------------------------------

# every n up to 1500, then highly composite n, a prime power with many
# non-coprime shapes (3^9), a square (32400) and a power of two (65536)
PER_WIDTH_INDICES = [*range(1, 1501), 5040, 19683, 27720, 32400, 65536]


# the enumerate schema's header and row template, written out once by hand
ENUMERATE_LAYOUT = {
    "plain": ("w h t cyclic\n", "%s %s %s %s\n"),
    "csv": ("w,h,t,cyclic\n", "%s,%s,%s,%s\n"),
    "json": ("", '{"w":%s,"h":%s,"t":%s,"cyclic":%s}\n'),
}


def object_route_rows(n, cyclic_only=False):
    """The (w, h, t, cyclic) rows of index n, each decided on its own."""
    rows = [(*lat, lattice.is_cyclic(lat)) for lat in lattice.enumerate_lattices(n)]
    return [(w, h, t, cli._BOOL[c]) for w, h, t, c in rows if c or not cyclic_only]


def enumerate_into(out, n, fmt, cyclic_only):
    args = argparse.Namespace(n=n, format=fmt, cyclic_only=cyclic_only)
    cli._cmd_enumerate(args, out)
    return out


def test_per_width_rows_match_the_object_route():
    # the CLI writes each width's rows as one join cut from gcd(w, h);
    # enumerate_lattices and is_cyclic decide each row on its own, and the
    # two texts must agree byte for byte
    for n in PER_WIDTH_INDICES:
        every = object_route_rows(n)
        cyclic = [row for row in every if row[3] == "true"]
        for fmt in ("csv",) if n <= 1500 else ENUMERATE_LAYOUT:
            header, template = ENUMERATE_LAYOUT[fmt]
            for cyclic_only, rows in ((False, every), (True, cyclic)):
                out = enumerate_into(io.StringIO(), n, fmt, cyclic_only)
                expected = header + "".join(template % row for row in rows)
                assert out.getvalue() == expected, (n, fmt, cyclic_only)


# sha256 of the whole stdout of `enumerate 139104` (483840 rows over 160
# widths), as the object route wrote it before rows were written per width
ENUMERATE_139104_SHA256 = {
    "csv": "ad9da840f76337cbf27085b9cb84bbab555818da32538db7d8689a86738d2e44",
    "json": "b155051aca432c56a49f89a4bec6c39a4a2f4072f5a26a00fa0712ecd816651b",
    "csv --cyclic-only":
        "4e6ebc77f1959a107b2f902982bb65079b02bac136d0d142bc2bbe511db4e9bf",
}


@pytest.mark.parametrize("options", list(ENUMERATE_139104_SHA256))
def test_enumerate_139104_is_byte_exact(capsys, options):
    fmt, *flags = options.split()
    code, out, err = run_cli(capsys, "--format", fmt, "enumerate", "139104", *flags)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_139104_SHA256[options]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("flags", [(), ("--cyclic-only",)], ids=["all", "cyclic"])
def test_enumerate_makes_no_lattice_object(capsys, monkeypatch, fmt, flags):
    argv = ("--format", fmt, "enumerate", "720", *flags)
    expected = run_cli(capsys, *argv)

    def refuse(*args):
        raise AssertionError("the CLI builds enumerate rows from the widths")

    monkeypatch.setattr(lattice, "is_cyclic", refuse)
    monkeypatch.setattr(lattice, "enumerate_lattices", refuse)
    assert run_cli(capsys, *argv) == expected


def test_extremal_deviations_decrease(capsys):
    code, out, err = run_cli(capsys, "--format", "csv", "extremal", "12")
    devs = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert all(d >= 0 for d in devs)
    assert all(b < a for a, b in zip(devs[1:], devs[2:]))  # from k=2 onward


# --- cross-format and determinism -------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("count", "12"),
        ("enumerate", "6"),
        ("classify", "2", "4", "1", "5"),
        ("sweep", "8"),
        ("extremal", "5"),
    ],
)
def test_identical_invocations_are_byte_identical(capsys, argv):
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "argv", [("count", "4"), ("count", "1"), ("classify", "2", "0", "0", "2")]
)
def test_formats_carry_the_same_values(capsys, argv):
    _, plain, _ = run_cli(capsys, *argv)
    _, csv_text, _ = run_cli(capsys, "--format", "csv", *argv)
    _, json_text, _ = run_cli(capsys, "--format", "json", *argv)
    from_plain = parse_plain(plain.strip())
    header, row = (line.split(",") for line in csv_text.splitlines())
    from_csv = dict(zip(header, row))
    from_json = {
        k: str(v).lower() if isinstance(v, bool) else str(v)
        for k, v in json.loads(json_text).items()
    }
    assert from_plain == from_csv == from_json


def test_extremal_formats_agree(capsys):
    _, csv_text, _ = run_cli(capsys, "--format", "csv", "extremal", "6")
    _, json_text, _ = run_cli(capsys, "--format", "json", "extremal", "6")
    _, plain, _ = run_cli(capsys, "extremal", "6")
    csv_rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    json_rows = [json.loads(line) for line in json_text.splitlines()]
    plain_rows = [line.split() for line in plain.splitlines()[1:]]
    for row, payload, words in zip(csv_rows, json_rows, plain_rows):
        assert int(row[0]) == payload["k"] == int(words[0])
        assert float(row[1]) == payload["rho"] == float(words[1])
        assert float(row[2]) == payload["deviation"] == float(words[2])


def test_sweep_formats_agree(capsys):
    _, csv_text, _ = run_cli(capsys, "--format", "csv", "sweep", "6")
    _, json_text, _ = run_cli(capsys, "--format", "json", "sweep", "6")
    csv_rows = [line.split(",") for line in csv_text.splitlines()[1:-1]]
    json_rows = [json.loads(line) for line in json_text.splitlines()[:-1]]
    for row, payload in zip(csv_rows, json_rows):
        assert int(row[0]) == payload["n"]
        assert int(row[1]) == payload["psi"]
        assert int(row[2]) == payload["sigma"]
        assert float(row[3]) == payload["rho"]
        assert int(row[4]) == payload["cum_psi"]
        assert int(row[5]) == payload["cum_sigma"]
        assert float(row[6]) == payload["cum_ratio"]


# --- byte-exact goldens: every command in every format ---------------------

GOLDEN = {
    (("count", "1"), "json"): (
        '{"n":1,"psi":1,"sigma":1,"rho":1}\n'
    ),
    (("count", "4"), "plain"): (
        "n=4 psi=6 sigma=7 rho=0.857142857143\n"
    ),
    (("count", "12"), "plain"): (
        "n=12 psi=24 sigma=28 rho=0.857142857143\n"
    ),
    (("count", "12"), "csv"): (
        "n,psi,sigma,rho\n"
        "12,24,28,0.857142857143\n"
    ),
    (("count", "12"), "json"): (
        '{"n":12,"psi":24,"sigma":28,"rho":0.857142857143}\n'
    ),
    (("enumerate", "1"), "plain"): (
        "w h t cyclic\n"
        "1 1 0 true\n"
    ),
    (("enumerate", "2"), "csv"): (
        "w,h,t,cyclic\n"
        "1,2,0,true\n"
        "2,1,0,true\n"
        "2,1,1,true\n"
    ),
    (("enumerate", "4"), "plain"): (
        "w h t cyclic\n"
        "1 4 0 true\n"
        "2 2 0 false\n"
        "2 2 1 true\n"
        "4 1 0 true\n"
        "4 1 1 true\n"
        "4 1 2 true\n"
        "4 1 3 true\n"
    ),
    (("enumerate", "4"), "csv"): (
        "w,h,t,cyclic\n"
        "1,4,0,true\n"
        "2,2,0,false\n"
        "2,2,1,true\n"
        "4,1,0,true\n"
        "4,1,1,true\n"
        "4,1,2,true\n"
        "4,1,3,true\n"
    ),
    (("enumerate", "4"), "json"): (
        '{"w":1,"h":4,"t":0,"cyclic":true}\n'
        '{"w":2,"h":2,"t":0,"cyclic":false}\n'
        '{"w":2,"h":2,"t":1,"cyclic":true}\n'
        '{"w":4,"h":1,"t":0,"cyclic":true}\n'
        '{"w":4,"h":1,"t":1,"cyclic":true}\n'
        '{"w":4,"h":1,"t":2,"cyclic":true}\n'
        '{"w":4,"h":1,"t":3,"cyclic":true}\n'
    ),
    (("enumerate", "4", "--cyclic-only"), "plain"): (
        "w h t cyclic\n"
        "1 4 0 true\n"
        "2 2 1 true\n"
        "4 1 0 true\n"
        "4 1 1 true\n"
        "4 1 2 true\n"
        "4 1 3 true\n"
    ),
    (("enumerate", "4", "--cyclic-only"), "csv"): (
        "w,h,t,cyclic\n"
        "1,4,0,true\n"
        "2,2,1,true\n"
        "4,1,0,true\n"
        "4,1,1,true\n"
        "4,1,2,true\n"
        "4,1,3,true\n"
    ),
    (("enumerate", "4", "--cyclic-only"), "json"): (
        '{"w":1,"h":4,"t":0,"cyclic":true}\n'
        '{"w":2,"h":2,"t":1,"cyclic":true}\n'
        '{"w":4,"h":1,"t":0,"cyclic":true}\n'
        '{"w":4,"h":1,"t":1,"cyclic":true}\n'
        '{"w":4,"h":1,"t":2,"cyclic":true}\n'
        '{"w":4,"h":1,"t":3,"cyclic":true}\n'
    ),
    (("classify", "1", "0", "0", "1"), "plain"): (
        "w=1 h=1 t=0 n=1 content=1 d1=1 d2=1 cyclic=true\n"
    ),
    (("classify", "2", "0", "0", "2"), "plain"): (
        "w=2 h=2 t=0 n=4 content=2 d1=2 d2=2 cyclic=false\n"
    ),
    (("classify", "0", "2", "3", "1"), "plain"): (
        "w=6 h=1 t=3 n=6 content=1 d1=1 d2=6 cyclic=true\n"
    ),
    (("classify", "2", "4", "1", "5"), "plain"): (
        "w=6 h=1 t=5 n=6 content=1 d1=1 d2=6 cyclic=true\n"
    ),
    (("classify", "2", "4", "1", "5"), "csv"): (
        "w,h,t,n,content,d1,d2,cyclic\n"
        "6,1,5,6,1,1,6,true\n"
    ),
    (("classify", "2", "4", "1", "5"), "json"): (
        '{"w":6,"h":1,"t":5,"n":6,"content":1,"d1":1,"d2":6,"cyclic":true}\n'
    ),
    (("sweep", "1"), "plain"): (
        "n psi sigma rho cum_psi cum_sigma cum_ratio\n"
        "1 1 1 1 1 1 1\n"
        "final cum_ratio=1 deviation=0.0760615970784\n"
    ),
    (("sweep", "10"), "plain"): (
        "n psi sigma rho cum_psi cum_sigma cum_ratio\n"
        "1 1 1 1 1 1 1\n"
        "2 3 3 1 4 4 1\n"
        "3 4 4 1 8 8 1\n"
        "4 6 7 0.857142857143 14 15 0.933333333333\n"
        "5 6 6 1 20 21 0.952380952381\n"
        "6 12 12 1 32 33 0.969696969697\n"
        "7 8 8 1 40 41 0.975609756098\n"
        "8 12 15 0.8 52 56 0.928571428571\n"
        "9 12 13 0.923076923077 64 69 0.927536231884\n"
        "10 18 18 1 82 87 0.942528735632\n"
        "final cum_ratio=0.942528735632 deviation=0.0185903327106\n"
    ),
    (("sweep", "10"), "csv"): (
        "n,psi,sigma,rho,cum_psi,cum_sigma,cum_ratio\n"
        "1,1,1,1,1,1,1\n"
        "2,3,3,1,4,4,1\n"
        "3,4,4,1,8,8,1\n"
        "4,6,7,0.857142857143,14,15,0.933333333333\n"
        "5,6,6,1,20,21,0.952380952381\n"
        "6,12,12,1,32,33,0.969696969697\n"
        "7,8,8,1,40,41,0.975609756098\n"
        "8,12,15,0.8,52,56,0.928571428571\n"
        "9,12,13,0.923076923077,64,69,0.927536231884\n"
        "10,18,18,1,82,87,0.942528735632\n"
        "# final cum_ratio=0.942528735632 deviation=0.0185903327106\n"
    ),
    (("sweep", "10"), "json"): (
        '{"n":1,"psi":1,"sigma":1,"rho":1,"cum_psi":1,"cum_sigma":1,"cum_ratio":1}\n'
        '{"n":2,"psi":3,"sigma":3,"rho":1,"cum_psi":4,"cum_sigma":4,"cum_ratio":1}\n'
        '{"n":3,"psi":4,"sigma":4,"rho":1,"cum_psi":8,"cum_sigma":8,"cum_ratio":1}\n'
        '{"n":4,"psi":6,"sigma":7,"rho":0.857142857143'
        ',"cum_psi":14,"cum_sigma":15,"cum_ratio":0.933333333333}\n'
        '{"n":5,"psi":6,"sigma":6,"rho":1'
        ',"cum_psi":20,"cum_sigma":21,"cum_ratio":0.952380952381}\n'
        '{"n":6,"psi":12,"sigma":12,"rho":1'
        ',"cum_psi":32,"cum_sigma":33,"cum_ratio":0.969696969697}\n'
        '{"n":7,"psi":8,"sigma":8,"rho":1'
        ',"cum_psi":40,"cum_sigma":41,"cum_ratio":0.975609756098}\n'
        '{"n":8,"psi":12,"sigma":15,"rho":0.8'
        ',"cum_psi":52,"cum_sigma":56,"cum_ratio":0.928571428571}\n'
        '{"n":9,"psi":12,"sigma":13,"rho":0.923076923077'
        ',"cum_psi":64,"cum_sigma":69,"cum_ratio":0.927536231884}\n'
        '{"n":10,"psi":18,"sigma":18,"rho":1'
        ',"cum_psi":82,"cum_sigma":87,"cum_ratio":0.942528735632}\n'
        '{"final_cum_ratio":0.942528735632,"deviation":0.0185903327106}\n'
    ),
    (("extremal", "3"), "plain"): (
        "k rho deviation\n"
        "1 1 0.392072898146\n"
        "2 0.791208791209 0.183281689355\n"
        "3 0.692307692308 0.0843805904537\n"
    ),
    (("extremal", "3"), "csv"): (
        "k,rho,deviation\n"
        "1,1,0.392072898146\n"
        "2,0.791208791209,0.183281689355\n"
        "3,0.692307692308,0.0843805904537\n"
    ),
    (("extremal", "3"), "json"): (
        '{"k":1,"rho":1,"deviation":0.392072898146}\n'
        '{"k":2,"rho":0.791208791209,"deviation":0.183281689355}\n'
        '{"k":3,"rho":0.692307692308,"deviation":0.0843805904537}\n'
    ),
}


@pytest.mark.parametrize("argv,fmt", list(GOLDEN))
def test_output_is_byte_exact(capsys, argv, fmt):
    code, out, err = run_cli(capsys, "--format", fmt, *argv)
    assert code == 0 and err == ""
    assert out == GOLDEN[argv, fmt]


# sha256 of the whole stdout of `sweep 131073`, whose rows cross powers of
# two (65536 and 131072 among them) and the chunk edges of _emit (every
# _CHUNK lines)
SWEEP_131073_SHA256 = {
    "plain": "b3bbcba628c8ac14ff4e2c9facde9070ea173eda19f3c0fb584dc32b3d2cc42b",
    "csv": "d71cb9ef3ac08a771f806d8f48b7aeefd663715623c519a1dc4d5ccac3271803",
    "json": "5e2d8edfbbf96d21d452aa1b4e480583c82c267976c80a199b348d8d5d9877ad",
}


@pytest.mark.parametrize("fmt", list(SWEEP_131073_SHA256))
def test_sweep_across_block_edges_is_byte_exact(capsys, fmt):
    code, out, err = run_cli(capsys, "--format", fmt, "sweep", "131073")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_131073_SHA256[fmt]


# the sweep schema's header and row template, written out once by hand
SWEEP_LAYOUT = {
    "plain": ("n psi sigma rho cum_psi cum_sigma cum_ratio\n",
              "%s %s %s %.12g %s %s %.12g\n"),
    "csv": ("n,psi,sigma,rho,cum_psi,cum_sigma,cum_ratio\n",
            "%s,%s,%s,%.12g,%s,%s,%.12g\n"),
    "json": ("", '{"n":%s,"psi":%s,"sigma":%s,"rho":%.12g,'
                 '"cum_psi":%s,"cum_sigma":%s,"cum_ratio":%.12g}\n'),
}


class Writes(list):
    """A text sink that keeps each write as one item."""

    write = list.append


@pytest.mark.parametrize("fmt", list(SWEEP_LAYOUT))
def test_chunk_edges_are_byte_exact(fmt):
    header, template = SWEEP_LAYOUT[fmt]
    chunk = cli._CHUNK
    rows = list(asymptotics.sweep_stream(2 * chunk + 1))
    for count in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        writes = Writes()
        cli._emit(writes, fmt, cli._SWEEP, rows[:count])
        expected = header + "".join(template % row for row in rows[:count])
        assert "".join(writes) == expected
        # after the header's own write, each write holds one chunk of lines
        body = writes[1:] if header else writes
        full, rest = divmod(count, chunk)
        assert [w.count("\n") for w in body] == [chunk] * full + [rest] * (rest > 0)


# single widths (w = n, h = 1) of _CHUNK - 1, _CHUNK and _CHUNK + 1 rows; and
# 3^9, whose g = 3 width of 6561 twists spans two chunks (3 does not divide _CHUNK)
ENUMERATE_EDGES = (cli._CHUNK - 1, cli._CHUNK, cli._CHUNK + 1, 3**9)


@pytest.mark.parametrize("fmt", list(ENUMERATE_LAYOUT))
@pytest.mark.parametrize("cyclic_only", [False, True], ids=["all", "cyclic"])
def test_enumerate_chunk_edges_are_byte_exact(fmt, cyclic_only):
    header, template = ENUMERATE_LAYOUT[fmt]
    chunk = cli._CHUNK
    for n in ENUMERATE_EDGES:
        rows = object_route_rows(n, cyclic_only)
        writes = enumerate_into(Writes(), n, fmt, cyclic_only)
        assert "".join(writes) == header + "".join(template % row for row in rows), n
        # after the header's own write, each width's rows come in writes of
        # one chunk of lines, the last of them holding the rest
        body = writes[1:] if header else writes
        lines = []
        for _, width in groupby(rows, key=itemgetter(0)):
            full, rest = divmod(len(list(width)), chunk)
            lines += [chunk] * full + [rest] * (rest > 0)
        assert [w.count("\n") for w in body] == lines, n


# sweeps whose last row sits on or next to a _CHUNK edge or a power of two
FOOTER_EDGES = sorted({
    1, cli._CHUNK - 1, cli._CHUNK, cli._CHUNK + 1, 2 * cli._CHUNK + 1,
    8191, 8192, 8193,
})


@pytest.mark.parametrize("fmt", list(SWEEP_LAYOUT))
def test_the_footer_is_the_sum_routes_ratio(capsys, monkeypatch, fmt):
    # the last row sums the sieve's columns and the footer takes partial_sums'
    # sublinear sums; both must print the same sums. Blocks of 2**13 rows put
    # the edges 8192 and 8193 on either side of a sieve block's end
    monkeypatch.setattr(asymptotics, "_BLOCK", 2**13)
    template = SWEEP_LAYOUT[fmt][1]
    for n in FOOTER_EDGES:
        code, out, err = run_cli(capsys, "--format", fmt, "sweep", str(n))
        assert code == 0 and err == ""
        *_, last, footer = out.splitlines(keepends=True)
        record = asymptotics.partial_sums(n)
        deviation = abs(record.cum_ratio - asymptotics.INV_ZETA4)
        assert last == template % census_row(n)
        assert footer == cli._SWEEP_FOOTER[fmt] % (record.cum_ratio, deviation)


def test_row_buffers_stay_flat_in_n():
    # one json chunk of lines and one row of ints, whatever the sweep's length
    sizes = (24577, 49153)
    peaks = []
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            for n in sizes:
                rows = asymptotics.sweep_stream(n)  # its sieve is not a row buffer
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                cli._emit(sink, "json", cli._SWEEP, rows)
                _, peak = tracemalloc.get_traced_memory()
                peaks.append((peak - before) / 2**20)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 2.0, peaks
    assert abs(peaks[1] - peaks[0]) <= 0.25, peaks


@pytest.mark.parametrize("fmt", list(ENUMERATE_LAYOUT))
def test_enumerate_buffers_stay_flat_in_n(fmt):
    # a prime n has one width of n rows (w = n, h = 1); it is written one
    # chunk of lines at a time, so its buffers do not grow with n
    sizes = (65537, 131071)
    peaks = []
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            for n in sizes:
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                enumerate_into(sink, n, fmt, False)
                _, peak = tracemalloc.get_traced_memory()
                peaks.append((peak - before) / 2**20)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 2.0, peaks
    assert abs(peaks[1] - peaks[0]) <= 0.25, peaks


def test_a_sweep_of_many_blocks_stays_flat_in_n(monkeypatch):
    # a sweep's whole life, its sieve included: one block of 2**13 entries
    # (128 KB), one json chunk of lines and one row, however many blocks it takes
    monkeypatch.setattr(asymptotics, "_BLOCK", 2**13)
    list(asymptotics.sweep_stream(1))  # loads numpy outside the measured region
    sizes = (3 * 2**13 + 1, 6 * 2**13 + 1)
    peaks = []
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            for n in sizes:
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                cli._emit(sink, "json", cli._SWEEP, asymptotics.sweep_stream(n))
                _, peak = tracemalloc.get_traced_memory()
                peaks.append((peak - before) / 2**20)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 2.0, peaks
    assert abs(peaks[1] - peaks[0]) <= 0.25, peaks


# --- numpy is loaded only by the sieve ---------------------------------------

# runs one command in a fresh interpreter, then reports on stderr whether
# numpy was imported
_PROBE = """\
import sys
from squaretori.cli import main
code = main(sys.argv[1:])
print("numpy" in sys.modules, code, file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "360"),
        ("enumerate", "12"),
        ("classify", "2", "4", "1", "5"),
        ("extremal", "5"),
        ("sweep", "10"),
    ],
)
def test_only_the_sieve_loads_numpy(capsys, src_env, argv):
    _, expected, _ = run_cli(capsys, *argv)
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True,
        env=src_env,
        text=True,
        timeout=60,
    )
    loads_numpy = argv[0] == "sweep"
    assert result.stderr == f"{loads_numpy} 0\n"
    assert result.stdout == expected


# --- errors and exit codes -----------------------------------------------------

def test_a_failure_in_a_later_block_is_reported(capsys, monkeypatch):
    # only the first block is sieved before any row; a later one that fails
    # ends the rows already written with an error, and no footer
    sieve = asymptotics._sieve_block

    def refuse_later_blocks(lo, hi, primes):
        if lo > 1:
            raise MemoryError("Unable to allocate 512. KiB for an array")
        return sieve(lo, hi, primes)

    monkeypatch.setattr(asymptotics, "_sieve_block", refuse_later_blocks)
    code, out, err = run_cli(capsys, "sweep", "65537")
    assert code == 1
    assert err == "error: Unable to allocate 512. KiB for an array\n"
    header, template = SWEEP_LAYOUT["plain"]
    head, *rows = out.splitlines(keepends=True)
    assert head == header and rows and out.endswith("\n")
    last = int(rows[-1].split()[0])
    assert rows[-1] == template % census_row(last)
    assert all(row.count(" ") == 6 for row in rows)  # no footer, no cut line


# argv -> what a refused command writes to stderr after "error: ". Each is
# refused before any output, so no format writes a header or a partial table
REFUSED = {
    ("count", "0"): "n must be >= 1, got 0",
    ("count", str(3 * 2**61)):
        "psi(6917529027641081856) = 13835058055282163712 leaves the 64-bit range",
    ("count", "9223372036854775807"):  # the largest input
        "psi(9223372036854775807) = 10801620952394481664 leaves the 64-bit range",
    ("count", "9223372036854775808"): "n = 9223372036854775808 leaves the 64-bit range",
    ("enumerate", "4611686018427387904"): (  # 2**62
        "index 4611686018427387904 needs at least 4611686018427387905 triples,"
        " over the MAX_TRIPLES budget of 10000000"
    ),
    ("classify", "1", "0", "2", "0"):
        "generators (1, 0) and (2, 0) are linearly dependent",
    ("classify", str(2**40), "0", "0", str(2**40)): "generators leave the 64-bit range",
    ("sweep", "0"): "limit must be >= 1, got 0",
    ("sweep", "-3"): "limit must be >= 1, got -3",
    ("sweep", "9223372036854775808"):
        "limit = 9223372036854775808 leaves the 64-bit range",
    ("sweep", "10000001"):
        "a sieve of 10000001 entries, over the MAX_SIEVE budget of 10000000",
    ("extremal", "0"): "k must be >= 1, got 0",
    ("extremal", "51"): "k must be in [1, 50], got 51",
    # kmax is checked first, not k = 51 after fifty values
    ("extremal", "100"): "k must be in [1, 50], got 100",
    ("extremal", "9223372036854775808"):
        "k = 9223372036854775808 leaves the 64-bit range",
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", list(REFUSED), ids=" ".join)
def test_a_refusal_is_one_error_line(capsys, argv, fmt):
    code, out, err = run_cli(capsys, "--format", fmt, *argv)
    assert (code, out, err) == (1, "", f"error: {REFUSED[argv]}\n")


def test_every_command_has_goldens_and_a_refusal():
    # a new command or format lands with its byte-exact output and a refusal
    commands = [name for name, *_ in cli._COMMANDS]
    assert {(argv[0], fmt) for argv, fmt in GOLDEN} == set(product(commands, FORMATS))
    assert {argv[0] for argv in REFUSED} == set(commands)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_refused_sweep_writes_no_header(capsys, monkeypatch, fmt):
    # stands in for numpy's _ArrayMemoryError without allocating anything
    def refuse(limit):
        raise MemoryError("Unable to allocate 7.28 PiB for an array")

    monkeypatch.setattr(asymptotics, "sieve_multiplicative", refuse)
    code, out, err = run_cli(capsys, "--format", fmt, "sweep", "10")
    assert (code, out) == (1, "")
    assert err == "error: Unable to allocate 7.28 PiB for an array\n"


def test_an_unknown_option_is_named(capsys):
    # a value after the unknown option must not be read as the command
    for argv in (
        ["--max-sieve", "3", "sweep", "12"],
        ["--max-triples", "3", "enumerate", "12"],
        ["--bogus", "sweep", "12"],
    ):
        with pytest.raises(SystemExit) as usage:
            main(argv)
        captured = capsys.readouterr()
        assert usage.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {argv[0]}\n")
    # a prefix of a known option is still the option
    code, out, err = run_cli(capsys, "--form", "csv", "count", "12")
    assert (code, out, err) == (0, "n,psi,sigma,rho\n12,24,28,0.857142857143\n", "")


def test_usage_error_exits_with_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["count", "not-a-number"])
    assert info.value.code == 2


# --- the installed module entry point -------------------------------------------

def test_module_entry_point(src_env):
    result = subprocess.run(
        [sys.executable, "-m", "squaretori", "--format", "json", "count", "4"],
        capture_output=True,
        env=src_env,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert json.loads(result.stdout)["psi"] == 6


@pytest.mark.parametrize(
    "argv,header",
    [(("sweep", "200000"), b"n psi sigma"), (("enumerate", "720720"), b"w h t cyclic")],
    ids=["sweep", "enumerate"],
)
def test_closed_pipe_exits_without_traceback(src_env, argv, header):
    proc = subprocess.Popen(
        [sys.executable, "-m", "squaretori", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=src_env,
    )
    assert proc.stdout.readline().startswith(header)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr
    assert stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ("count", "12"),
        ("--format", "json", "sweep", "100000"),
        ("--format", "csv", "enumerate", "720720"),
    ],
)
def test_a_full_device_is_one_error_line(src_env, argv):
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "squaretori", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=src_env,
            text=True,
            timeout=60,
        )
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr
