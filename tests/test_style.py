"""House style of the library source, checked here because no linter is set up."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "squaretori"
MAX_LINE = 88


def test_source_lines_fit_in_88_columns():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths, SOURCE
    long = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long, long


def imported_but_unused(tree):
    """Names a module imports but never reads and does not list in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_imported_but_unused_sees_a_leftover_import():
    tree = ast.parse("import os\nfrom math import gcd, isqrt\n__all__ = ['gcd']\n")
    assert imported_but_unused(tree) == [(1, "os"), (2, "isqrt")]


def test_every_import_is_used():
    unused = [
        f"{path.name}:{line}: {name} is imported but unused"
        for path in sorted(SOURCE.glob("*.py"))
        for line, name in imported_but_unused(ast.parse(path.read_text()))
    ]
    assert not unused, unused
