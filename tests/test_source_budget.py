"""src/wsnpriv stays within its line budget."""

import pathlib

LINE_BUDGET = 2630
SRC = pathlib.Path(__file__).parents[1] / "src" / "wsnpriv"


def test_source_line_budget():
    # Newline characters over the package's modules, as
    # `cat src/wsnpriv/*.py | wc -l` counts them.
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert 0 < lines <= LINE_BUDGET, f"src/wsnpriv: {lines} lines (budget {LINE_BUDGET})"
