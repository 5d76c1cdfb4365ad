"""No unreferenced functions in the library.

An AST scan over `src/diacats`: every def, nested defs and methods
included, must be referenced by name (a bare name or an attribute) somewhere
in `src/`, `tests/`, `bench/` or `demos/` outside its own body.  Dunder
methods are called by the language and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "diacats"
CORPUS = [ROOT / d for d in ("src", "tests", "bench", "demos")]


def parse(path):
    return ast.parse(path.read_text(), str(path))


def references(tree):
    """(name, names of the enclosing defs) for every name and attribute."""
    out = []

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    walk(tree, frozenset())
    return out


def test_every_library_def_is_referenced():
    defs = {}
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defs.setdefault(node.name, "%s:%d" % (path.relative_to(ROOT), node.lineno))
    used = set()
    for root in CORPUS:
        for path in root.rglob("*.py"):
            used.update(name for name, enclosing in references(parse(path))
                        if name not in enclosing)
    dead = sorted("%s (%s)" % (name, where) for name, where in defs.items()
                  if name not in used)
    assert not dead, "unreferenced defs: " + ", ".join(dead)
