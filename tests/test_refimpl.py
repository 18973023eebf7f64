"""Both routes stay independent of the package.

The factorization check means something only because the brute-force side
never consults the formula side it is compared with. Two modules hold a
brute-force route: the reference implementation, `tests/refimpl.py`, and
the package's scan, `src/multlat/scan.py`. One import lint checks both:
each imports the standard library alone, so neither can reach the
formula, the maps or the cores, whatever names they come to have.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def foreign_imports(source):
    """Each import in source that is not of the standard library, by the
    name it imports from: a relative import reaches into whatever package
    holds the module, so every one is foreign. A source that imports
    nothing fails, as a parse of the wrong text would."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "found no imports at all"
    return [name for name in imported
            if name.partition(".")[0] not in sys.stdlib_module_names]


def route_imports(path, defines):
    """`foreign_imports` of the module at path, ROOT-relative, which must
    define the function `defines`, so that the lint reads the route it
    names."""
    source = (ROOT / path).read_text(encoding="utf-8")
    assert defines in {node.name for node in ast.parse(source).body
                       if isinstance(node, ast.FunctionDef)}, path
    return foreign_imports(source)


def test_the_lint_flags_every_way_into_the_package():
    assert foreign_imports(
        "from . import partitions\n"
        "from .partitions import stirling2\n"
        "import os, multlat.lattice\n"
        "def f():\n"
        "    from multlat import enumeration\n") == [
        ".", ".partitions", "multlat.lattice", "multlat"]
    assert foreign_imports(
        "from __future__ import annotations\n"
        "import os\n"
        "from itertools import chain\n"
        "def f():\n"
        "    import multiprocessing\n") == []
    with pytest.raises(AssertionError, match="no imports"):
        foreign_imports("x = 1\n")


def test_refimpl_imports_nothing_from_the_package():
    assert route_imports("tests/refimpl.py", "ref_corank_scan") == []


def test_scan_imports_nothing_from_the_package():
    assert route_imports("src/multlat/scan.py", "_corank_worker") == []
