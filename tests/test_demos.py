"""The demo scripts and the README's examples run and show what they claim.

Each demo runs in a fresh interpreter with the package's ``src`` directory on
PYTHONPATH. A change to the public API or to a printed value that a demo
shows fails here, so a digest is updated only when a demo's text is meant
to change. The README's library examples are run one statement at a time
against their trailing comments, and its command lines through ``cli.main``.
"""

import ast
import hashlib
import io
import os
import shlex
import subprocess
import sys
import tokenize
from math import pi
from pathlib import Path

import pytest

from squaretori.cli import main

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
DEMO_DIGESTS = {
    "asymptotics.py": "2bab4f248633032c7634bba42eff5fc3fc6c9860a48f5f6d58f898d180594f11",
    "classification.py": "30a4f614386eef51cf2bd6edbab0ff6a1c6a64aeba4c01471f8d56d58897fd9e",
    "counting.py": "6e6f41408b1872fba2993fbae829097d8f7dc0481f32f1272c4debd6cc410a90",
}


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_is_unchanged(name, src_env):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=src_env,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == b""
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_DIGESTS[name]


def readme_block(section, language):
    """The first ```language block under the README heading `## section`."""
    text = (ROOT / "README.md").read_text().split(f"\n## {section}\n", 1)[1]
    return text.split(f"```{language}\n", 1)[1].split("```", 1)[0]


# a comment "~ x = name" claims that the value lies near this limit, which x shows
LIMITS = {"1/zeta(4)": 90 / pi**4}


def check_shown(value, comment):
    """Assert that a value is what its comment shows.

    "~ x = name": within 1e-6 of the limit, which x shows to its digits.
    "x -> ...": x is the value's repr, or a float's value to x's digits.
    Anything else is the value's repr.
    """
    shown = comment.partition(" ->")[0]
    if shown.startswith("~ "):
        digits, _, name = shown[2:].partition(" = ")
        limit = LIMITS[name]
        assert f"{limit:.{len(digits.partition('.')[2])}f}" == digits
        assert abs(value - limit) < 1e-6, (value, limit)
    elif shown != comment and isinstance(value, float):
        assert f"{value:.{len(shown.partition('.')[2])}f}" == shown
    else:
        assert repr(value) == shown


def test_readme_library_examples_show_their_values():
    source = readme_block("Library", "python")
    lines = io.StringIO(source).readline
    comments = {
        token.start[0]: token.string.lstrip("#").strip()
        for token in tokenize.generate_tokens(lines)
        if token.type == tokenize.COMMENT
    }
    namespace = {}
    checked = set()
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            value = eval(code, namespace)
        else:
            module = ast.Module([statement], type_ignores=[])
            exec(compile(module, "README.md", "exec"), namespace)
            value = None
        if statement.end_lineno in comments:
            check_shown(value, comments[statement.end_lineno])
            checked.add(statement.end_lineno)
    assert checked == set(comments) and len(checked) == 7


@pytest.mark.parametrize(
    "line",
    [
        line.partition("#")[0].strip()
        for line in readme_block("Command line", "sh").splitlines()
        if line.startswith("squaretori ")
    ],
)
def test_readme_command_lines_succeed(line, capsys, monkeypatch):
    # rows go to the null device, so the million-row sweep holds no output
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""
