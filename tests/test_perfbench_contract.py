"""The benchmark still finds, and can call, everything it uses.

perfbench/tracer.py patches the package from outside it, by module and
attribute name, and perfbench/worker.py and perfbench/make_expected.py call
the package and tests/refimpl.py by name and by argument position. A
refactor that renames, moves or re-signs one of those functions would only
surface when a benchmark run crashes or counts every cell as failed; these
tests surface it here. The two scripts are read with `ast`, not run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
CALLERS = ("worker.py", "make_expected.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_modules_import():
    tracer = _load_tracer()
    assert tracer.MODULES
    for name in tracer.MODULES:
        importlib.import_module(name)


def test_tracer_targets_resolve_in_the_package():
    tracer = _load_tracer()
    assert tracer.TARGETS
    modules = set(tracer.MODULES)
    missing = []
    for span, modname, attr in tracer.TARGETS:
        assert modname in modules, (span, modname)
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                break
        if not callable(owner):
            missing.append((span, f"{modname}.{attr}"))
    assert missing == []


def _ours(module):
    return module == "refimpl" or module.split(".")[0] == "multlat"


def _bindings(tree):
    """Each name the script binds by importing from the package or
    refimpl, anywhere in it, to the object it is bound to; AssertionError
    for a name that does not resolve, or one bound to two objects."""
    bound = {}

    def bind(name, value):
        assert bound.setdefault(name, value) is value, name

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _ours(node.module or ""):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
                bind(alias.asname or alias.name, getattr(module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _ours(alias.name):
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bind(alias.asname, module)
                    else:
                        top = alias.name.split(".")[0]
                        bind(top, importlib.import_module(top))
    return bound


def _resolve(expr, bound):
    """The object an imported name or an attribute chain on one denotes,
    or None for any other expression; AssertionError for a missing
    attribute."""
    if isinstance(expr, ast.Name):
        return bound.get(expr.id)
    if isinstance(expr, ast.Attribute):
        owner = _resolve(expr.value, bound)
        if owner is not None and inspect.ismodule(owner):
            assert hasattr(owner, expr.attr), (owner.__name__, expr.attr)
            return getattr(owner, expr.attr)
    return None


def _calls(tree, bound):
    """(callee, call node, positional args, keyword args) for each call the
    script makes through its package imports. make_expected's
    within(seconds, fn, *args) calls fn(*args), so it counts as that call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee, args = _resolve(node.func, bound), node.args
        if (isinstance(node.func, ast.Name) and node.func.id == "within"
                and len(args) >= 2):
            callee, args = _resolve(args[1], bound), args[2:]
        if callee is not None:
            yield callee, node, args, node.keywords


@pytest.mark.parametrize("script", CALLERS)
def test_benchmark_calls_bind_to_the_package_signatures(script):
    # each call must bind to its callee's signature with the positional
    # count and keyword names it is written with
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    bound = _bindings(tree)
    assert bound
    checked, unbound = set(), []
    for callee, node, args, keywords in _calls(tree, bound):
        where = f"{script}:{node.lineno} {callee.__qualname__}"
        # a starred argument hides its count from this check
        assert not any(isinstance(a, ast.Starred) for a in args), where
        assert all(kw.arg is not None for kw in keywords), where
        try:
            inspect.signature(callee).bind(
                *range(len(args)), **{kw.arg: None for kw in keywords})
        except TypeError as exc:
            unbound.append(f"{where}: {exc}")
        checked.add(callee.__name__)
    assert unbound == []
    # the calls that fix each workload's results are among those checked
    assert checked >= {
        "worker.py": {"verify_corank_factorization", "enumerate_ordered_maps",
                      "apply_map", "decompose", "torsion_size",
                      "enumerate_full_rank_multiplicative", "Lattice"},
        "make_expected.py": {"verify_corank_factorization", "count_full_rank",
                             "count_unital", "enumerate_ordered_maps",
                             "ref_corank_scan", "ref_count_full_rank_mult",
                             "ref_count_unital", "stirling_ref"},
    }[script]
