"""House style of the library source, checked here because no linter is set up."""

import ast
import importlib.util
from pathlib import Path

from squaretori import asymptotics, lattice
from squaretori.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "squaretori"
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
    """Names a module imports but never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_imported_but_unused_sees_a_leftover_import():
    tree = ast.parse("import os\nfrom math import gcd, isqrt\nprint(gcd(4, 6))\n")
    assert imported_but_unused(tree) == [(1, "os"), (2, "isqrt")]


def test_every_import_is_used():
    paths = [
        path
        for folder in (SOURCE, ROOT / "tests", ROOT / "demos")
        for path in sorted(folder.glob("*.py"))
    ]
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name} is imported but unused"
        for path in paths
        for line, name in imported_but_unused(ast.parse(path.read_text()))
    ]
    assert not unused, unused


def names_read(tree):
    """Names a module reads, as a bare name or as an attribute."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    } | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_names_read_sees_loads_and_attributes():
    tree = ast.parse("x = 1\nprint(m.y)\ndef f(z): pass\n")
    assert names_read(tree) == {"print", "m", "y"}


def attributes_read(tree):
    """Names a module reads as an attribute, x.name; a bare name is no such read."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_attributes_read_sees_only_attribute_loads():
    tree = ast.parse("limit = 3\nprint(limit, m.y.z)\nm.w = 1\n")
    assert attributes_read(tree) == {"y", "z"}


def top_level_names(tree):
    """Top-level def, class and assigned names of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(  # through tuple unpacking; x.y = ... binds no name
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
            )
    return names


def public_names(tree):
    """Top-level def, class and assigned names of a module not starting with _."""
    return {name for name in top_level_names(tree) if not name.startswith("_")}


def test_public_names_sees_defs_classes_and_constants():
    tree = ast.parse(
        "import os\nfrom math import gcd\n"
        "def f(): pass\nclass C: pass\nK = 1\nT: int = 2\n_hidden = 3\n"
        "A, B = 1, 2\nx.y = 4\n"
    )
    assert public_names(tree) == {"f", "C", "K", "T", "A", "B"}


def private_names(tree):
    """Top-level def, class and assigned names starting with _ but not __."""
    return {
        name
        for name in top_level_names(tree)
        if name.startswith("_") and not name.startswith("__")
    }


def test_private_names_sees_single_underscore_names():
    tree = ast.parse(
        "import _thread\nfrom os import _exit\n"
        "def _f(): pass\nclass _C: pass\n_K = 1\n_T: int = 2\n__all__ = []\n"
        "_A, B = 1, 2\nx._y = 4\npublic = 5\ndef g():\n    _local = 6\n"
    )
    assert private_names(tree) == {"_f", "_C", "_K", "_T", "_A"}


def public_fields(tree):
    """Annotated fields of a module's top-level classes, as Class.field."""
    return {
        f"{node.name}.{item.target.id}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        if not item.target.id.startswith("_")
    }


def test_public_fields_sees_annotated_class_fields():
    tree = ast.parse(
        "class C:\n    x: int\n    y: int = 0\n    _z: int\n    w = 1\n"
        "def f():\n    class D:\n        q: int\n"
        "K: int = 1\n"
    )
    assert public_fields(tree) == {"C.x", "C.y"}


def test_every_public_name_has_a_reader():
    """Public names and class fields are read by the library, demos or benchmark.

    A field counts as read only as an attribute, x.field, so that a local
    variable of the same spelling cannot hide an unread field."""
    modules = [path for path in SOURCE.glob("*.py") if path.name != "__init__.py"]
    readers = [*modules, *(ROOT / "demos").glob("*.py")]
    readers.append(ROOT / "perfbench" / "workloads.py")
    trees = [ast.parse(path.read_text()) for path in readers]
    read = set().union(*map(names_read, trees))
    fields = set().union(*map(attributes_read, trees))
    unread = sorted(
        f"{path.name}: {name}"
        for path in modules
        for tree in [ast.parse(path.read_text())]
        for names, seen in [(public_names(tree), read), (public_fields(tree), fields)]
        for name in names
        if name.rpartition(".")[2] not in seen
    )
    assert not unread, unread


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    """The traced run wraps library names through module attributes, such as
    asymptotics.sieve_multiplicative and lattice.factorize, so each must stay."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = asymptotics.partial_sums, lattice.enumerate_lattices
    with tracing.Tracer().installed():  # AttributeError if a wrapped name is gone
        assert asymptotics.partial_sums is not before[0]
    assert (asymptotics.partial_sums, lattice.enumerate_lattices) == before


def test_every_private_name_has_a_reader():
    """Private helpers and constants are read somewhere in the library."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCE.glob("*.py")}
    read = set().union(*map(names_read, trees.values()))
    unread = sorted(
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in private_names(tree)
        if name not in read
    )
    assert not unread, unread


def bound_comparisons(tree):
    """Top-level defs and classes holding a comparison that reads WORD_BOUND."""
    return {
        getattr(node, "name", "<module>")
        for node in tree.body
        for compare in ast.walk(node)
        if isinstance(compare, ast.Compare)
        for name in ast.walk(compare)
        if isinstance(name, ast.Name) and name.id == "WORD_BOUND"
    }


def test_bound_comparisons_sees_a_nested_compare():
    tree = ast.parse(
        "class C:\n    def f(self, x):\n        return abs(x) > WORD_BOUND\n"
        "def g(x):\n    return x < 1\n"
        "def h(x):\n    return WORD_BOUND\n"
        "assert 2**63 - 1 == WORD_BOUND\n"
    )
    assert bound_comparisons(tree) == {"C", "<module>"}


# coordinates may be 0 or negative, so GeneratorPair checks their size itself
WORD_CHECKS = {("arith.py", "_word"), ("lattice.py", "GeneratorPair")}


def test_the_64_bit_check_lives_in_arith():
    """Sizes and results both go through _word; only coordinates compare
    against WORD_BOUND elsewhere."""
    found = {
        (path.name, owner)
        for path in sorted(SOURCE.glob("*.py"))
        for owner in bound_comparisons(ast.parse(path.read_text()))
    }
    assert found <= WORD_CHECKS


def raise_sites(tree, exception):
    """Top-level defs and classes holding a raise of the named exception."""
    return [
        getattr(node, "name", "<module>")
        for node in tree.body
        for statement in ast.walk(node)
        if isinstance(statement, ast.Raise) and statement.exc is not None
        for name in ast.walk(statement.exc)  # E, E(...), module.E or module.E(...)
        if getattr(name, "id", getattr(name, "attr", None)) == exception
    ]


def test_raise_sites_sees_calls_and_bare_names():
    tree = ast.parse(
        "def f(x):\n    if x:\n        raise E('no')\n    raise E\n"
        "class C:\n    def g(self):\n        raise KeyError\n"
        "def h():\n    raise\n"
        "def k():\n    raise m.E('no') from None\n"
        "raise E()\n"
    )
    assert raise_sites(tree, "E") == ["f", "f", "k", "<module>"]


def test_every_budget_is_refused_in_one_place():
    """Only arith._budget raises BudgetError."""
    found = [
        (path.name, owner)
        for path in sorted(SOURCE.glob("*.py"))
        for owner in raise_sites(ast.parse(path.read_text()), "BudgetError")
    ]
    assert found == [("arith.py", "_budget")]


def test_only_the_64_bit_checks_raise_overflow():
    """OverflowError comes from _word, or from GeneratorPair for a coordinate."""
    found = {
        (path.name, owner)
        for path in sorted(SOURCE.glob("*.py"))
        for owner in raise_sites(ast.parse(path.read_text()), "OverflowError")
    }
    assert found == WORD_CHECKS


def budget_calls(tree):
    """Each _budget(...) call, bare or as an attribute."""
    return [
        call
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        if getattr(call.func, "id", getattr(call.func, "attr", None)) == "_budget"
    ]


def call_argument(call, position, keyword):
    """A call's argument by position or keyword, as source text; [] if absent."""
    found = call.args[position : position + 1]
    found += [k.value for k in call.keywords if k.arg == keyword]
    return [ast.unparse(argument) for argument in found]


def budget_arguments(tree):
    """The budget argument of each _budget(...) call, as source text."""
    return [
        budget
        for call in budget_calls(tree)
        for budget in call_argument(call, 1, "budget")
    ]


def test_budget_arguments_sees_positional_keyword_and_attribute_calls():
    tree = ast.parse(
        "_budget(n, MAX_X, 'MAX_X', '%s')\n"
        "def f(b):\n    arith._budget(1, budget=b, name='b', what='%s')\n"
        "g(n, limit)\n"
    )
    assert budget_arguments(tree) == ["MAX_X", "b"]


def test_every_budget_is_a_module_constant():
    """No budget is a parameter: each _budget call reads an upper-case constant."""
    trees = [ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))]
    constants = {name for tree in trees for name in public_names(tree) if name.isupper()}
    found = [budget for tree in trees for budget in budget_arguments(tree)]
    assert set(found) == {"MAX_SIEVE", "MAX_TRIPLES"}
    assert set(found) <= constants


def budget_requests(tree):
    """(budget, message template) of each _budget(...) call, as source text."""
    return [
        (*call_argument(call, 1, "budget"), *call_argument(call, 3, "what"))
        for call in budget_calls(tree)
    ]


def test_budget_requests_pairs_each_budget_with_its_message():
    tree = ast.parse(
        "_budget(n, MAX_X, 'MAX_X', 'a %s')\n"
        "def f(b):\n    arith._budget(1, budget=b, name='b', what=f'{b} %s')\n"
        "_budget(m, MAX_X, 'MAX_X', what='a %s')\n"
    )
    assert budget_requests(tree) == [
        ("MAX_X", "'a %s'"),
        ("MAX_X", "'a %s'"),
        ("b", "f'{b} %s'"),
    ]


def test_each_budget_request_is_written_once():
    """No two _budget calls share a budget and a message: a domain that several
    entry points share is checked by one helper."""
    found = [
        request
        for path in sorted(SOURCE.glob("*.py"))
        for request in budget_requests(ast.parse(path.read_text()))
    ]
    repeated = sorted({request for request in found if found.count(request) > 1})
    assert not repeated, repeated


def readme_global_flags(text):
    """Options that open the bullets of README's "Global flags" list."""
    bullets = text.split("Global flags", 1)[1].split("\n\n")[1]  # after the lead-in
    return {
        line.split("`")[1].split()[0]
        for line in bullets.splitlines()
        if line.startswith("- `")
    }


def test_readme_global_flags_sees_each_bullet():
    text = "Global flags, first:\n\n- `--a {x,y}` one\n  more\n- `--b N` two\n\n- `--c`\n"
    assert readme_global_flags(text) == {"--a", "--b"}


def test_readme_names_exactly_the_global_flags():
    parser = build_parser()
    options = {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert readme_global_flags((ROOT / "README.md").read_text()) == options
