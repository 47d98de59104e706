"""Line length and unused imports, checked with the standard library alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "triclone").glob("*.py"))
MAX_LINE = 88


@pytest.mark.parametrize("folder", ["src", "tests"])
def test_no_line_is_longer_than_the_limit(folder):
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / folder).rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def _unused_imports(source):
    """Names that import statements in ``source`` bind and nothing else reads.

    A name listed in ``__all__`` counts as read; ``__future__`` imports bind
    nothing.
    """
    tree = ast.parse(source)
    bound = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read.update(ast.literal_eval(node.value))
    return bound - read


def test_the_unused_import_scan_finds_one():
    source = "import math\nfrom os import path, sep\n__all__ = ['sep']\n"
    assert _unused_imports(source) == {"math", "path"}


@pytest.mark.parametrize("path", PACKAGE, ids=[p.stem for p in PACKAGE])
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == set()
