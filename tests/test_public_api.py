"""The package root exports exactly what the documentation imports from it.

The README's Library block and the scripts in demos/ import names from
`multlat`; each such name must be in `multlat.__all__`, and every name in
`__all__` must resolve, lazily, to the object its defining module holds.
Imports are read with `ast`, so nothing documented is run.
"""

import ast
import importlib
import re
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


def test_project_version_is_the_package_version():
    # read with a regex: Python 3.10, which pyproject.toml allows, has no
    # tomllib
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == multlat.__version__
