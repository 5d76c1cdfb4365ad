"""No unreferenced functions and no unused parameters in the library.

An AST scan over `src/diacats`: every def, nested defs and methods
included, must be reached by name (a bare name or an attribute) from
`src/`, `bench/` or `demos/` outside its own body, where a reference made
inside a library def or class counts only once that def or class is
itself reached, and a method counts as reached only once its class is;
a def that only `tests/` reach must be listed in `TEST_ONLY` with the
reason it stays in the library.  Annotations reach nothing.  Dunder
methods are called by the language and are exempt.  A second scan requires every parameter with a default to be
passed by some call in `src/`, `bench/` or `demos/`, or to be listed in
`KEPT_DEFAULTS` with its reason.  A third requires every local a library
def assigns to be read somewhere in that def.  A fourth requires every
attribute the library stores on an object other than `self` to be read
somewhere in `src/`, `bench/` or `demos/`.  A fifth
rejects a nested def that calls itself: exhaustive searches go through
`fincat.backtrack`.  A sixth requires every name a library module imports
to be read in that module.  A seventh requires every parameter of a
module-level def or method to be read in its body, or to be listed in
`UNREAD_PARAMS` with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "diacats"
# The code the library must serve: a reference, call or read from a test
# is no use.
USERS = [ROOT / d for d in ("src", "bench", "demos")]


def parse(path):
    return ast.parse(path.read_text(), str(path))


def references(tree):
    """(name, names of the enclosing defs and classes) for every name and
    attribute outside an annotation."""
    out = []

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, enclosing))
        for field, child in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                for c in child if isinstance(child, list) else [child]:
                    if isinstance(c, ast.AST):
                        walk(c, enclosing)

    walk(tree, frozenset())
    return out


def library_defs():
    """(defining class or None, name) -> where, for every def of the
    library but the dunders; a nested def has no class."""
    defs = {}

    def visit(node, cls, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not is_dunder(child.name):
                    defs.setdefault((cls, child.name),
                                    "%s:%d" % (path.relative_to(ROOT), child.lineno))
                visit(child, None, path)
            else:
                visit(child, cls, path)

    for path in sorted(LIBRARY.glob("*.py")):
        visit(parse(path), None, path)
    return defs


# Library defs that only tests reach but that stay, with why.
TEST_ONLY = {
    "cone_poset": "a bundled fixture: the fence with a top, a test input",
    "product_category": "builds the product shapes the tests take as inputs",
    "check_adjunction": "the reference oracle of the `left_adjoint` and ADJ "
                        "differential tests",
    "degree": "`HomologySummary.degree` refuses a degree past `valid_range`; "
              "the tests read homology through it",
    "encode_universe": "writes the `universe.v1` files the CLI tests load",
    "encode_site": "writes the `site.v1` records of `encode_universe` and "
                   "of the site round-trip tests",
    "l3_instances": "`bench/spans.py` resolves it by name with getattr for "
                    "`--trace 1`",
    "induced_comma_map": "`bench/spans.py` resolves it by name with getattr "
                         "for `--trace 1`",
}


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_library_def_is_referenced():
    """A def that no code in `src/`, `bench/` or `demos/` reaches is dead,
    unless `TEST_ONLY` says why the tests need it in the library; a
    `TEST_ONLY` entry that is reached or gone is stale.  A reference from
    inside library defs and classes counts once every one of them is
    reached, so a def that only unreached defs call is unreached too.  A
    method is matched by its bare name, so it is reached only once its
    class is: a method of a class that only tests name is dead."""
    defs = library_defs()
    # (name, the library defs and classes the reference sits in); bench and
    # demo code is reached as a whole
    refs = set()
    for root in USERS:
        for path in root.rglob("*.py"):
            in_library = path.parent == LIBRARY
            refs.update((name, frozenset(e for e in enclosing if not is_dunder(e))
                         if in_library else frozenset())
                        for name, enclosing in references(parse(path))
                        if name not in enclosing)
    used, grown = set(), True
    while grown:
        reached = {name for name, enclosing in refs if enclosing <= used}
        grown = not reached <= used
        used |= reached
    unused = {(cls, name): where for (cls, name), where in defs.items()
              if name not in used or (cls is not None and cls not in used)}
    dead = sorted("%s (%s)" % (name if cls is None else cls + "." + name, where)
                  for (cls, name), where in unused.items() if name not in TEST_ONLY)
    assert not dead, "defs no code outside tests/ reaches: " + ", ".join(dead)
    stale = sorted(set(TEST_ONLY) - {name for _, name in unused})
    assert not stale, "TEST_ONLY entries now reached or gone: %s" % stale


# Defaulted parameters that no call site passes but that stay, with why.
KEPT_DEFAULTS = {
    ("find_isomorphism", "max_nodes"): "a safety budget on the search; "
                                       "`test_max_nodes_bounds_the_search` sets it",
    ("random_simpset", "per_position"): "the only route to torsion draws, while "
                                        "`bench/golden.json` pins the default draws",
}


def defaulted_params():
    """(call name, parameter, position or None, where) for every parameter
    with a default of a library def.  A method's position does not count
    `self`, which its calls bind, and `__init__` is called by its class."""
    out = []

    def visit(node, cls, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(child, cls, "%s:%d" % (path.relative_to(ROOT), child.lineno))
                visit(child, None, path)
            else:
                visit(child, cls, path)

    def add(fn, cls, where):
        if fn.name.startswith("__") and fn.name != "__init__":
            return
        call = cls if fn.name == "__init__" else fn.name
        bound = cls is not None and not any(
            getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        a = fn.args
        positional = (a.posonlyargs + a.args)[bound:]
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], first):
            out.append((call, arg.arg, i, where))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out.append((call, arg.arg, None, where))

    for path in sorted(LIBRARY.glob("*.py")):
        visit(parse(path), None, path)
    return out


def call_sites():
    """Per called name: (positional count, starred?, keywords, **kwargs?)."""
    sites = {}
    for root in USERS:
        for path in root.rglob("*.py"):
            for node in ast.walk(parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                sites.setdefault(name, []).append((
                    len(node.args), any(isinstance(x, ast.Starred) for x in node.args),
                    {k.arg for k in node.keywords}, any(k.arg is None for k in node.keywords)))
    return sites


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default that no call site in src/, bench/ or demos/ overrides is
    a constant: remove the parameter, or list it in
    KEPT_DEFAULTS with the reason it stays.  Calls are matched by name, a
    method call binding `self`; `name` parameters are exempt."""
    sites = call_sites()

    def passed(call, param, pos):
        for npos, starred, kws, kwargs in sites.get(call, []):
            if param in kws or kwargs or starred or (pos is not None and npos > pos):
                return True
        return False

    unused = {(call, param): where for call, param, pos, where in defaulted_params()
              if param != "name" and not passed(call, param, pos)}
    flagged = sorted("%s(%s) at %s" % (c, p, w) for (c, p), w in unused.items()
                     if (c, p) not in KEPT_DEFAULTS)
    assert not flagged, "defaulted parameters no call site passes: " + ", ".join(flagged)
    stale = sorted(k for k in KEPT_DEFAULTS if k not in unused)
    assert not stale, "KEPT_DEFAULTS entries now passed or gone: %s" % stale


COMPARE_SIGNATURE = "`cli.cmd_compare` calls every `COMPARE` entry as fn(args, rng)"

# Parameters that their def does not read but that stay, with why.
UNREAD_PARAMS = {
    ("closure_fixpoint", "trunc"): "`bench/workloads.py` passes it; it goes with the "
                                   "next change to the benchmark",
    ("_compare_theoremback", "args"): COMPARE_SIGNATURE,
    ("_compare_hocolimnerve", "rng"): COMPARE_SIGNATURE,
    ("_compare_pointwiseint", "args"): COMPARE_SIGNATURE,
}


def unread_params(tree):
    """(function, parameter, line) for each parameter of a module-level def
    or method that its body, nested defs included, never reads.  `self` and
    `cls` are exempt, and so are nested defs and lambdas: they are callbacks
    whose signature their caller fixes."""
    out = []

    def visit(body):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p is not None]
                read = {n.id for n in ast.walk(node)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                out.extend((node.name, p.arg, node.lineno) for p in params
                           if p.arg not in read | {"self", "cls"})

    visit(tree.body)
    return out


def test_every_parameter_is_read():
    """A parameter that its def never reads is dead: callers pass a value
    that changes nothing.  Remove it, or list it in `UNREAD_PARAMS` with
    the reason it stays."""
    unread = {(fn, param): "%s:%d" % (path.relative_to(ROOT), line)
              for path in sorted(LIBRARY.glob("*.py"))
              for fn, param, line in unread_params(parse(path))}
    flagged = sorted("%s(%s) at %s" % (fn, param, where)
                     for (fn, param), where in unread.items() if (fn, param) not in UNREAD_PARAMS)
    assert not flagged, "parameters never read: " + ", ".join(flagged)
    stale = sorted(k for k in UNREAD_PARAMS if k not in unread)
    assert not stale, "UNREAD_PARAMS entries now read or gone: %s" % stale


def dead_locals(tree):
    """(function, name, line) for each name a def binds by a plain
    single-name assignment in its own scope and never reads anywhere in
    its body, nested defs included.  Tuple unpacking is exempt, and so
    are names declared global or nonlocal."""
    out = []
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

    def own_nodes(fn):
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, scopes):
                stack.extend(ast.iter_child_nodes(node))

    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        outer = {name for n in own_nodes(fn)
                 if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        for node in own_nodes(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            for t in targets:
                if isinstance(t, ast.Name) and t.id not in read | outer:
                    out.append((fn.name, t.id, node.lineno))
    return out


def test_no_dead_local_assignments():
    """A value assigned to a local name that nothing reads is dead code."""
    dead = sorted("%s in %s (%s:%d)" % (name, fn, path.relative_to(ROOT), line)
                  for path in sorted(LIBRARY.glob("*.py"))
                  for fn, name, line in dead_locals(parse(path)))
    assert not dead, "locals assigned but never read: " + ", ".join(dead)


def stored_attributes(tree):
    """(attribute, line) for each `x.attr = ...` whose object is not `self`."""
    out = []
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
        for t in targets:
            if isinstance(t, ast.Attribute) and not (
                    isinstance(t.value, ast.Name) and t.value.id == "self"):
                out.append((t.attr, node.lineno))
    return out


def test_every_stored_attribute_is_read():
    """An attribute set on another object that no code in src/, bench/ or
    demos/ reads is dead data."""
    read = set()
    for root in USERS:
        for path in root.rglob("*.py"):
            read.update(n.attr for n in ast.walk(parse(path))
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    unread = sorted("%s (%s:%d)" % (attr, path.relative_to(ROOT), line)
                    for path in sorted(LIBRARY.glob("*.py"))
                    for attr, line in stored_attributes(parse(path)) if attr not in read)
    assert not unread, "attributes stored but never read: " + ", ".join(unread)


def recursive_nested_defs(tree):
    """(name, line) of each def nested in another def whose body calls it
    by bare name."""
    out = []

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if nested and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                                  and n.func.id == child.name for n in ast.walk(child)):
                    out.append((child.name, child.lineno))
                visit(child, True)
            else:
                visit(child, nested)

    visit(tree, False)
    return out


def test_no_hand_written_recursive_search():
    """A nested def that recurses on itself is a private copy of the
    depth-first walk `fincat.backtrack` already is."""
    found = sorted("%s (%s:%d)" % (name, path.relative_to(ROOT), line)
                   for path in sorted(LIBRARY.glob("*.py"))
                   for name, line in recursive_nested_defs(parse(path)))
    assert not found, "recursive nested defs, use fincat.backtrack: " + ", ".join(found)


def unused_imports(tree, exported=()):
    """(name, line) for each name an import binds that the module never
    reads.  `from __future__` imports and the names in `exported` (the
    package's `__all__`) are exempt."""
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported:
                    out.append((name, node.lineno))
    return out


def test_every_import_is_read():
    """An import that its module never reads is dead code."""
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = parse(path)
        exported = ()
        if path.name == "__init__.py":
            exported = next(ast.literal_eval(n.value) for n in tree.body
                            if isinstance(n, ast.Assign)
                            and [getattr(t, "id", None) for t in n.targets] == ["__all__"])
        unused += ["%s (%s:%d)" % (name, path.relative_to(ROOT), line)
                   for name, line in unused_imports(tree, exported)]
    assert not unused, "imports never read: " + ", ".join(sorted(unused))
