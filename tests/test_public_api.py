"""The package root exports exactly what the documentation imports from it.

The README's Library block and the scripts in demos/ import names from
`multlat`; each such name must be in `multlat.__all__`, and every name in
`__all__` must resolve. Imports are read with `ast`, so nothing documented
is run.
"""

import ast
import re
from pathlib import Path

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
    assert [name for name in multlat.__all__
            if not hasattr(multlat, name)] == []
