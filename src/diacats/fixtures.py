"""Bundled example sites and shapes: the terminal site, the Sierpinski and
pseudocircle open lattices, the fence poset, and the zig-zag shapes used in
the fraction-calculus arguments.
"""

from __future__ import annotations

from . import fincat as fc
from .site import Site


def terminal_site() -> Site:
    return Site(fc.terminal_category())


def subset_lattice(name, sets) -> fc.FinCat:
    """Poset category of a family of sets ordered by inclusion.  Objects
    are named by their sorted element strings ('{}' for the empty set)."""
    names = {}
    for s in sets:
        key = "{%s}" % ",".join(sorted(s))
        names[key] = frozenset(s)
    order = sorted(names)
    return fc.poset_category(name, order, lambda a, b: names[a] <= names[b])


def sierpinski_site() -> Site:
    """Open-set lattice of the Sierpinski space: {} < {1} < {0,1}."""
    cat = subset_lattice("sierpinski", [set(), {"1"}, {"0", "1"}])
    covers = {}
    return Site(cat, covers)


PSEUDOCIRCLE_OPENS = [set(), {"a"}, {"b"}, {"a", "b"},
                      {"a", "b", "c"}, {"a", "b", "d"}, {"a", "b", "c", "d"}]


def pseudocircle_site() -> Site:
    """Open-set lattice of the 4-point pseudocircle.

    Points a, b are open; c, d have minimal opens {a,b,c} and {a,b,d}.
    The whole space is covered by U = {a,b,c} and V = {a,b,d}.
    """
    cat = subset_lattice("pseudocircle", PSEUDOCIRCLE_OPENS)
    u, v, x = "{a,b,c}", "{a,b,d}", "{a,b,c,d}"
    covers = {x: [["%s<=%s" % (u, x), "%s<=%s" % (v, x)]]}
    return Site(cat, covers)


def fence_poset() -> fc.FinCat:
    """Four objects a, b < U, V with the four cover relations only."""
    return fc.poset_category(
        "fence", ["a", "b", "U", "V"],
        lambda x, y: x == y or (x in ("a", "b") and y in ("U", "V")))


def cone_poset() -> fc.FinCat:
    """The fence plus a top element (so a final object exists)."""
    return fc.poset_category(
        "cone", ["a", "b", "U", "V", "T"],
        lambda x, y: x == y or y == "T" or (x in ("a", "b") and y in ("U", "V")))


def xi_zigzag(n: int) -> fc.FinCat:
    """The zig-zag shape with n arrows: 0 <- 1 -> 2 <- 3 -> ...

    Objects 0..n; odd objects map to both neighbours.
    """
    objs = [str(i) for i in range(n + 1)]

    def leq(x, y):
        i, j = int(x), int(y)
        return i == j or (i % 2 == 1 and abs(i - j) == 1)

    return fc.poset_category("Xi%d" % n, objs, leq)


def span_shape() -> fc.FinCat:
    """The shape b <- a -> c (a pushout diagram shape)."""
    return fc.poset_category("span", ["a", "b", "c"],
                             lambda x, y: x == y or (x == "a" and y in ("b", "c")))
