"""The package root exports exactly what the documentation imports from it.

The README's Library block and the scripts in demos/ import names from
`multlat`; each such name must be in `multlat.__all__`, and every name in
`__all__` must resolve, lazily, to the object its defining module holds.
The README's count of those names must match `__all__`. Imports are read
with `ast`; each demo is also run once, in a fresh interpreter against the
checkout's `src`.
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
