"""The reference implementation stays independent of the package."""

import ast
from pathlib import Path

REFIMPL = Path(__file__).parent / "refimpl.py"


def test_refimpl_imports_nothing_from_the_package():
    tree = ast.parse(REFIMPL.read_text(), filename=str(REFIMPL))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import would reach into whatever package holds it
            imported.append("." * node.level + (node.module or ""))
    assert imported, "found no imports at all; is the parse looking at refimpl?"
    offending = [name for name in imported
                 if name.split(".")[0] == "multlat" or name.startswith(".")]
    assert offending == []
