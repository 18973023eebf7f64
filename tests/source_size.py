"""The size of the package's source: docstring lines, code lines and a hash
of the code, per module.

    python tests/source_size.py            # this checkout
    python tests/source_size.py PATH       # the checkout at PATH

For each `src/multlat/*.py` it prints the docstring lines (the `ast` line
spans of the module's, its classes' and its functions' docstrings), the
code lines (lines holding a token that is not a comment, outside every
docstring, by `tokenize`) and the first 16 hex digits of a SHA-256 of the
module's `ast.dump` with every docstring removed. Two checkouts whose
hashes agree hold the same code, whatever their docstrings, comments and
layout. The last line is the totals. Standard library only; not a test
module, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import hashlib
import io
import sys
import tokenize
from pathlib import Path

# tokens that are not code on their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _documented(tree: ast.Module) -> list[ast.AST]:
    """The module, classes and functions of tree that have a docstring,
    which is the first statement of each one's body."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None]


def measure(source: str) -> tuple[int, int, str]:
    """(docstring lines, code lines, code hash) of one module's source."""
    tree = ast.parse(source)
    owners = _documented(tree)
    in_doc = {line for node in owners
              for line in range(node.body[0].lineno,
                                node.body[0].end_lineno + 1)}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in owners:
        del node.body[0]
    digest = hashlib.sha256(ast.dump(tree).encode("utf-8")).hexdigest()
    return len(in_doc), len(code - in_doc), digest[:16]


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "multlat").glob("*.py"))
    if not paths:
        print(f"no package source under {root}")
        return 2
    total_doc = total_code = 0
    print(f"{'module':<16}{'doc':>6}{'code':>6}  hash")
    for path in paths:
        doc, code, digest = measure(path.read_text(encoding="utf-8"))
        total_doc += doc
        total_code += code
        print(f"{path.name:<16}{doc:>6}{code:>6}  {digest}")
    print(f"{'total':<16}{total_doc:>6}{total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
