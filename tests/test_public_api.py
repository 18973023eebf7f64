"""The package root exports exactly what the documentation imports from it.

The README's Library block and the scripts in demos/ import names from
`multlat`; each such name must be in `multlat.__all__`, and every name in
`__all__` must resolve, lazily, to the object its defining module holds.
The README's count of those names must match `__all__`. Imports are read
with `ast`; each demo is also run once, in a fresh interpreter against the
checkout's `src`. Seven lints by `ast` need no linter installed: every name
a module under `src/multlat/` imports is read in that module, every
module-level private name defined there is read elsewhere in the package,
each module imports only the modules below it in its layer, every name
a test patches on a package module is one that the package reads from that
module, so no patch goes unseen, only the three functions that hold a
proof build a value unchecked, no exception is swallowed by a bare
`pass`, and each argument in a table is stated in one docstring alone.
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
import multlat.cli

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
    homes = {"DEFAULT_BUDGET": "multlat.scan",
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


def test_the_installed_command_runs_cli_main():
    # the `multlat` command an install creates calls the object that
    # [project.scripts] names; a rename of cli.main would break it for
    # every installed user, and no other test runs that entry point. Read
    # with a regex, as the version is above
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
                        pyproject, re.MULTILINE | re.DOTALL)
    assert scripts is not None
    entry = re.search(r'^multlat = "([\w.]+):(\w+)"$', scripts.group(1),
                      re.MULTILINE)
    assert entry is not None
    module, name = entry.groups()
    assert getattr(importlib.import_module(module), name) is multlat.cli.main


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


# the package's layers, each module with the modules it may import: the
# engines' chain intlinalg <- lattice <- partitions <- enumeration, the
# scan below enumeration alone, and the command line's chain, the root <-
# cache <- cli; "multlat" is the root
BELOW = {"intlinalg": set(),
         "lattice": {"intlinalg"},
         "partitions": {"intlinalg", "lattice"},
         "scan": set(),
         "enumeration": {"intlinalg", "lattice", "partitions", "scan"},
         "multlat": set(),
         "cache": {"multlat"},
         "cli": {"multlat", "cache"}}
# the engines the command line imports only inside a function, so that a
# run served from the cache loads none of them
LAZY = {"cli": {"enumeration", "partitions", "scan"}}


def package_imports(source, modules):
    """(module, inside a function) for each import of a package module in
    source, relative or absolute; `from . import x` imports x when x is one
    of modules, else the root."""
    tree = ast.parse(source)
    nested = {id(node) for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names
                     if alias.name.partition(".")[0] == "multlat"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0]
                == "multlat"):
            base = (node.module or "") if node.level else \
                node.module.partition(".")[2]
            names = ([base] if base else
                     [alias.name for alias in node.names])
        else:
            continue
        for name in names:
            name = name.rpartition(".")[2]
            found.add((name if name in modules else "multlat",
                       id(node) in nested))
    return found


def layering_faults(sources):
    """The (module, imported module, inside a function) imports of sources,
    a dict of module name to source, that break BELOW and LAZY."""
    return {(module, name, lazy) for module, source in sources.items()
            for name, lazy in package_imports(source, set(BELOW))
            if name not in BELOW[module]
            and not (lazy and name in LAZY.get(module, ()))}


def test_modules_import_only_downward():
    assert package_imports(
        "from . import ENGINE_VERSION, cache\n"
        "from .lattice import Lattice\n"
        "import multlat.intlinalg\n"
        "import os\n"
        "def f():\n"
        "    from . import enumeration\n"
        "    from multlat.partitions import stirling2\n",
        set(BELOW)) == {("multlat", False), ("cache", False),
                        ("lattice", False), ("intlinalg", False),
                        ("enumeration", True), ("partitions", True)}
    assert layering_faults({
        "intlinalg": "from . import ENGINE_VERSION\n",
        "lattice": "from .partitions import AcceptableMap\n",
        "enumeration": "from .cache import CountCache\n",
        "cache": "def f():\n    from .enumeration import decompose\n",
        "cli": "from . import enumeration\n"
               "def f():\n    from . import partitions, lattice\n"}) == {
        ("intlinalg", "multlat", False), ("lattice", "partitions", False),
        ("enumeration", "cache", False), ("cache", "enumeration", True),
        ("cli", "enumeration", False), ("cli", "lattice", True)}
    package = ROOT / "src" / "multlat"
    sources = {("multlat" if path.stem == "__init__" else path.stem):
               path.read_text(encoding="utf-8")
               for path in package.glob("*.py")}
    assert set(sources) == set(BELOW)
    assert layering_faults(sources) == set()


def patched_seams(source):
    """The (module, name) of each `<patcher>.setattr(module, "name", ...)`
    in a test's source whose module is a package module the test imports
    under a name of its own (`import multlat.m as m`, `from multlat import
    m`)."""
    tree = ast.parse(source)
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name.rpartition(".")[2])
                           for alias in node.names
                           if alias.asname and alias.name.startswith("multlat."))
        elif isinstance(node, ast.ImportFrom) and node.module == "multlat":
            modules.update((alias.asname or alias.name, alias.name)
                           for alias in node.names)
    return {(modules[node.args[0].id], node.args[1].value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setattr" and len(node.args) > 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in modules
            and isinstance(node.args[1], ast.Constant)}


def unread_seams(seams, sources):
    """The seams, (module, name) pairs, that the package never reads from
    that module: as a global inside one of the module's functions, or as
    `module.name` anywhere in sources, a dict of module name to source."""
    reads = {module: set() for module in sources}
    for module, source in sources.items():
        tree = ast.parse(source)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads[module].update(
                    node.id for node in ast.walk(func)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in reads):
                reads[node.value.id].add(node.attr)
    return {(module, name) for module, name in seams
            if name not in reads.get(module, ())}


def test_every_patched_seam_is_read():
    # a fault injected through a name nothing reads injects nothing, and a
    # test that expects no fault then passes without checking anything
    assert patched_seams(
        "import os\nimport multlat.lattice as lat\n"
        "from multlat import enumeration\n"
        "def test(monkeypatch):\n"
        "    monkeypatch.setattr(lat, 'hermite_normal_form', None)\n"
        "    monkeypatch.setattr(os, 'cpu_count', None)\n"
        "    with monkeypatch.context() as patched:\n"
        "        patched.setattr(enumeration, '_census', None)\n"
        "    setattr(lat, 'ignored', None)\n") == {
        ("lattice", "hermite_normal_form"), ("enumeration", "_census")}
    package = ROOT / "src" / "multlat"
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in package.glob("*.py")}
    # the Smith form is read through `lattice`, which imports it by name,
    # so a patch of `intlinalg.smith_normal_form` is never seen
    assert unread_seams({("intlinalg", "smith_normal_form"),
                         ("lattice", "smith_normal_form"),
                         ("enumeration", "_verify"),
                         ("enumeration", "_gone")}, sources) == {
        ("intlinalg", "smith_normal_form"), ("enumeration", "_gone")}
    seams = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        seams |= patched_seams(path.read_text(encoding="utf-8"))
    assert ("enumeration", "_census") in seams
    assert unread_seams(seams, sources) == set()


def trusted_builders(source):
    """The name of the innermost function around each call of a `_trusted`
    store in source, "<module>" for a call outside any function."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "_trusted"):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


# each of these holds, in its docstring, the proof that the constructor
# would accept what it stores unchecked
TRUSTED_BUILDERS = {"decompose", "apply_map"}


def test_only_the_proved_builds_skip_the_constructor():
    assert trusted_builders(
        "x = C._trusted(1)\n"
        "def f():\n"
        "    def g():\n"
        "        return C._trusted(2)\n"
        "    return g\n"
        "def h():\n"
        "    return C(_trusted=3)\n") == {"<module>", "g"}
    builders, docs = set(), {}
    for path in sorted((ROOT / "src" / "multlat").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        builders |= trusted_builders(source)
        docs.update((node.name, ast.get_docstring(node) or "")
                    for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.FunctionDef))
    assert builders == TRUSTED_BUILDERS
    for name in sorted(TRUSTED_BUILDERS):
        assert "._trusted`" in docs[name], name


def silenced_handlers(source):
    """The line of each `except` handler in source whose body is only
    `pass`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler)
            and all(isinstance(stmt, ast.Pass) for stmt in node.body)]


def test_no_exception_is_silenced():
    assert silenced_handlers(
        "try:\n    f()\nexcept ValueError:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, TypeError):\n"
        "    pass\n    pass\n"
        "try:\n    f()\nexcept OSError:\n    g()\n") == [3, 7]
    sources = sorted((ROOT / "src" / "multlat").glob("*.py"))
    assert sources
    assert {path.name: silenced_handlers(path.read_text(encoding="utf-8"))
            for path in sources} == {path.name: [] for path in sources}


# a term that only its argument's proof uses, and the one docstring, as
# (module, owner), that holds that proof; the README points to it
ARGUMENT_HOMES = {"idempotent": ("lattice", "_pivot_square"),
                  "automorphism": ("scan", "_corank_worker"),
                  "times as many witnesses": ("enumeration", "_verify"),
                  "one closure proof": ("enumeration", "decompose")}


def term_uses(terms, sources, readme):
    """Each of terms, with every docstring of sources, a dict of module
    name to source, that uses it, as (module, owner), "<module>" for the
    module's own, plus "README.md" if readme uses it; case is ignored."""
    found = {term: set() for term in terms}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = (ast.get_docstring(node) or "").lower()
                owner = getattr(node, "name", "<module>")
                for term in terms:
                    if term in doc:
                        found[term].add((module, owner))
    for term in terms:
        if term in readme.lower():
            found[term].add("README.md")
    return found


def test_each_argument_has_one_home():
    # a proof restated in a second place drifts from the first when the
    # code changes; every other place names the home instead
    assert term_uses(
        {"idempotent", "nilpotent"},
        {"m": '"""Idempotents."""\n'
              'class C:\n    """no term"""\n'
              '    def f(self):\n        """one idempotent"""\n',
         "n": "x = 'idempotent'  # idempotent\n"},
        "nilpotent") == {"idempotent": {("m", "<module>"), ("m", "f")},
                         "nilpotent": {"README.md"}}
    package = ROOT / "src" / "multlat"
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in package.glob("*.py")}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert term_uses(set(ARGUMENT_HOMES), sources, readme) == {
        term: {home} for term, home in ARGUMENT_HOMES.items()}


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
