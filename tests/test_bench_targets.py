"""Every function the benchmark tracer wraps exists in the library.

`bench/spans.py` resolves its `TARGETS` by dotted name at run time, so a
renamed or moved function would only fail the benchmark.  The file is read
as source, not imported, and each name is resolved the way the tracer does:
a module of `diacats`, then classes, then an attribute defined on the last
owner itself.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def target_names():
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [entry.elts[0].value for entry in node.value.elts]
    raise AssertionError("no TARGETS list in %s" % SPANS)


def test_bench_targets_resolve():
    names = target_names()
    assert names
    missing = []
    for name in names:
        parts = name.split(".")
        owner = importlib.import_module("diacats." + parts[0])
        for p in parts[1:-1]:
            owner = getattr(owner, p, None)
        if owner is None or not callable(vars(owner).get(parts[-1])):
            missing.append(name)
    assert not missing, "traced names absent from src/: %s" % missing
