"""House style of the library source, checked here because no linter is set up."""

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
