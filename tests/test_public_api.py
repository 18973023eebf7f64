"""The package root exports exactly what the documentation imports from it.

The README's Library block and the scripts in demos/ import names from
`multlat`; each such name must be in `multlat.__all__`, and every name in
`__all__` must resolve, lazily, to the object its defining module holds.
The README's count of those names must match `__all__`. Imports are read
with `ast`; each demo is also run once, in a fresh interpreter against the
checkout's `src`. Two lints by `ast` need no linter installed: every name a
module under `src/multlat/` imports is read in that module, and every
module-level private name defined there is read elsewhere in the package.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import multlat

ROOT = Path(__file__).resolve().parents[1]


def imported_from_multlat(source):
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "multlat":
            names.update(alias.name for alias in node.names)
    return names


def library_block():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_documented_imports_are_exported():
    sources = {"README.md (Library)": library_block()}
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        sources[f"demos/{path.name}"] = path.read_text(encoding="utf-8")
    missing = []
    for where, source in sources.items():
        names = imported_from_multlat(source)
        assert names, where
        missing += [(where, name) for name in sorted(names)
                    if name not in multlat.__all__]
    assert missing == []


def test_every_exported_name_resolves():
    assert len(set(multlat.__all__)) == len(multlat.__all__)
    # each name is the object its defining module holds; the two constants
    # carry no __module__ to name it
    homes = {"DEFAULT_BUDGET": "multlat.enumeration",
             "ENGINE_VERSION": "multlat"}
    for name in multlat.__all__:
        value = getattr(multlat, name)
        home = importlib.import_module(homes.get(name) or value.__module__)
        assert getattr(home, name) is value, name
    assert set(multlat.__all__) <= set(dir(multlat))
    with pytest.raises(AttributeError):
        multlat.no_such_name


def test_readme_counts_the_exported_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    total = re.search(r"Of the (\d+) names in\s+`multlat\.__all__`", readme)
    others = re.search(r"each of the other\s+(\d+)", readme)
    assert total is not None and others is not None
    assert int(total.group(1)) == len(multlat.__all__)
    assert int(others.group(1)) == len(multlat.__all__) - 1


def test_project_version_is_the_package_version():
    # read with a regex: Python 3.10, which pyproject.toml allows, has no
    # tomllib
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == multlat.__version__


def test_sources_parse_at_the_declared_python_floor():
    # feature_version makes the parser refuse syntax newer than the floor,
    # such as an except* clause (3.11) under 3.10
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject,
                      re.MULTILINE)
    assert floor is not None
    version = (int(floor.group(1)), int(floor.group(2)))
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=version)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=version)


def unused_imports(source):
    """The names an import binds in source that no name in it reads; a
    `from __future__` import binds none."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}


def test_every_import_is_used():
    # a lint that needs no linter installed
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\n"
                          "from typing import Optional, Sequence\n"
                          "def f(x: Optional[int]) -> None:\n"
                          "    os.path.join(x)\n") == {"Sequence"}
    sources = sorted((ROOT / "src" / "multlat").glob("*.py"))
    assert sources
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8"))
              for path in sources}
    assert {name: names for name, names in unused.items() if names} == {}


def unread_private_names(sources):
    """The private names (`_x`, no dunder) that a module-level def, class or
    assignment in one of sources binds and that no other module-level
    statement of any of them reads, as a name, an attribute or an import."""
    statements = [stmt for source in sources
                  for stmt in ast.parse(source).body]
    reads = [{node.id if isinstance(node, ast.Name) else
              node.attr if isinstance(node, ast.Attribute) else node.name
              for node in ast.walk(stmt)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              or isinstance(node, (ast.Attribute, ast.alias))}
             for stmt in statements]
    unread = set()
    for i, stmt in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            bound = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            bound = {node.id for target in targets
                     for node in ast.walk(target) if isinstance(node, ast.Name)}
        else:
            continue
        unread.update(
            name for name in bound
            if name.startswith("_") and not name.startswith("__")
            and not any(name in names
                        for j, names in enumerate(reads) if j != i))
    return unread


def test_every_private_name_is_read():
    # a dead-code lint that needs no linter installed
    assert unread_private_names([
        "_read = 1\n_dead = 2\n__dunder__ = 3\n"
        "def _called():\n    return _read\n"
        "def _recursive():\n    return _recursive()\n"
        "class _Unused:\n    _attr = 4\n",
        "from m import _imported\n"
        "_imported()\nm._by_attribute\n"
        "def _by_attribute():\n    pass\n"
        "_other: int = _called()\n"]) == {"_dead", "_recursive", "_Unused",
                                          "_other"}
    sources = sorted((ROOT / "src" / "multlat").glob("*.py"))
    assert sources
    assert unread_private_names(
        [path.read_text(encoding="utf-8") for path in sources]) == set()


@pytest.mark.parametrize("demo", sorted(p.name for p in
                                        (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    # the checkout's src first, so no installed copy answers in its place
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src")
               + (os.pathsep + old if old else ""))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, timeout=120,
                          env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
