"""The mutant catalogue (tests/mutants.py) cannot rot.

Each mutant's old text must occur exactly once in src/, so applying it
changes the one place it names and never nothing, and each test it names
must exist, so a renamed test cannot leave a mutant with no killer. No
mutant is run here; `python tests/mutants.py` runs them.
"""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT

SOURCES = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
           for path in sorted((ROOT / "src").rglob("*.py"))}


def _test_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("test_")}


def test_mutant_names_are_distinct():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_changes_one_place_in_src(mutant):
    assert mutant.path in SOURCES
    assert mutant.old and mutant.old != mutant.new
    assert SOURCES[mutant.path].count(mutant.old) == 1
    assert sum(text.count(mutant.old) for text in SOURCES.values()) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        assert path.startswith("tests/test_") and (ROOT / path).is_file()
        assert not name or name in _test_names(ROOT / path), node
