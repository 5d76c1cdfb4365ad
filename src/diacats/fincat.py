"""Finite categories, functors, natural transformations and the exhaustive
constructions on them: comma categories, slices, fibers, (op)fibration
checks, brute-force limits and twisted arrows.  Nerves of categories live
in :mod:`diacats.simplicial`.

Everything is a plain immutable value.  Object and morphism identifiers are
strings, and declaration order is the canonical order.  Every exhaustive
search is one :func:`backtrack`: it fills its slots in canonical order, each
slot trying its options in canonical order, so results come out in the
lexicographic order of those choices and a search that stops early returns
the first witness in that order.

The builders here (products, categories of elements, commas, fibers,
twisted arrows, posets, the terminal category) return categories correct
by construction and do not re-check their axioms.  :func:`keyed_category`
fills the identities and composition table of every one of them whose
morphisms are keyed by their ends and data.  A category of elements
(:func:`elements`) stores no table: it composes through its base.  A
pullback is the two-leg :func:`wide_pullback`.  :func:`validate_category`
checks raw input, and :meth:`FinCat.validate` checks any category assembled
by hand.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    TargetMismatch,
    DomCodMismatch,
    EndpointMismatch,
    InvalidFunctor,
    InvalidNatTransf,
    MissingIdentity,
    NonAssociative,
    ObjectNotInTarget,
    PartialCompositionTable,
)


@dataclass(frozen=True)
class Mor:
    id: str
    dom: str
    cod: str


class FinCat:
    """A finite category with a total composition table.

    `compose[(g, f)] = g o f` for every composable pair (cod f == dom g):
    a dict, or any read-only mapping such as :class:`ElementComposition`.
    The constructor only stores and indexes by id; the hom, out and in
    indexes and the colours of the isomorphism search are built on first
    query.  :meth:`validate` checks the axioms.
    """

    def __init__(self, name, objects, morphisms, identity, compose):
        self.name = name
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.identity = dict(identity)
        self.compose_table = compose
        self._mor_by_id = {m.id: m for m in self.morphisms}
        self._hom = self._out = self._in = self._colors = None

    def _indexed(self):
        """Build the hom, out and in indexes, None until a query reads one."""
        self._hom, self._out, self._in = hom, out, into = {}, {}, {}
        for m in self.morphisms:
            hom.setdefault((m.dom, m.cod), []).append(m.id)
            out.setdefault(m.dom, []).append(m.id)
            into.setdefault(m.cod, []).append(m.id)
        for index in (hom, out, into):
            for k, ids in index.items():
                index[k] = tuple(ids)
        return self

    # -- basic queries ----------------------------------------------------

    def mor(self, mid: str) -> Mor:
        return self._mor_by_id[mid]

    def dom(self, mid: str) -> str:
        return self._mor_by_id[mid].dom

    def cod(self, mid: str) -> str:
        return self._mor_by_id[mid].cod

    def hom(self, x: str, y: str) -> tuple:
        return (self._hom or self._indexed()._hom).get((x, y), ())

    def out(self, x: str) -> tuple:
        return (self._out or self._indexed()._out).get(x, ())

    def into(self, x: str) -> tuple:
        return (self._in or self._indexed()._in).get(x, ())

    def wl_colors(self) -> dict:
        """The colour of each object under :func:`_wl_colors`, computed on
        the first query."""
        if self._colors is None:
            self._colors = _wl_colors(self)
        return self._colors

    def id_of(self, x: str) -> str:
        return self.identity[x]

    def is_identity(self, mid: str) -> bool:
        m = self._mor_by_id[mid]
        return m.dom == m.cod and self.identity[m.dom] == mid

    def comp(self, g: str, f: str) -> str:
        """g o f (apply f first)."""
        return self.compose_table[(g, f)]

    def comp_path(self, path) -> str:
        """Compose a list of morphism ids given in diagrammatic order
        (first applied first).  Empty paths are not allowed."""
        acc = path[0]
        for nxt in path[1:]:
            acc = self.comp(nxt, acc)
        return acc

    def is_mono(self, mid: str) -> bool:
        m = self._mor_by_id[mid]
        for x in self.objects:
            for g in self.hom(x, m.dom):
                for h in self.hom(x, m.dom):
                    if g != h and self.comp(mid, g) == self.comp(mid, h):
                        return False
        return True

    def opposite(self) -> "FinCat":
        mors = [Mor(m.id, m.cod, m.dom) for m in self.morphisms]
        comp = {(f, g): h for (g, f), h in self.compose_table.items()}
        return FinCat(self.name + "^op", self.objects, mors, self.identity, comp)

    def __repr__(self):
        return "FinCat(%s: %d objects, %d morphisms)" % (
            self.name, len(self.objects), len(self.morphisms))

    def validate(self) -> "FinCat":
        """Check every axiom, associativity included, and raise the first
        violation: ids, endpoints and identities first, then the
        composition table, then the identity laws and associativity."""
        ids = set()
        for m in self.morphisms:
            if m.id in ids:
                raise DomCodMismatch("duplicate morphism id %r" % m.id)
            ids.add(m.id)
            if m.dom not in self.objects or m.cod not in self.objects:
                raise DomCodMismatch("morphism %r has unknown endpoint" % m.id)
        for x in self.objects:
            if x not in self.identity:
                raise MissingIdentity("object %r has no identity" % x)
            i = self.identity[x]
            if i not in self._mor_by_id:
                raise MissingIdentity("identity of %r is not a morphism" % x)
            m = self.mor(i)
            if m.dom != x or m.cod != x:
                raise MissingIdentity("identity of %r has wrong endpoints" % x)
        table = self.compose_table
        for m in self.morphisms:
            for f in self.morphisms:
                if f.cod != m.dom:
                    continue
                if (m.id, f.id) not in table:
                    raise PartialCompositionTable("missing composite (%r, %r)" % (m.id, f.id))
                h = table[(m.id, f.id)]
                if h not in self._mor_by_id:
                    raise PartialCompositionTable(
                        "composite (%r,%r) -> unknown id" % (m.id, f.id))
                hm = self.mor(h)
                if hm.dom != f.dom or hm.cod != m.cod:
                    raise DomCodMismatch("composite (%r,%r) has wrong endpoints" % (m.id, f.id))
        for m in self.morphisms:
            i, j = self.identity[m.dom], self.identity[m.cod]
            if table[(m.id, i)] != m.id or table[(j, m.id)] != m.id:
                raise MissingIdentity("identity law fails at %r" % m.id)
        for f in self.morphisms:
            for g in self.morphisms:
                if g.dom != f.cod:
                    continue
                gf = table[(g.id, f.id)]
                for h in self.morphisms:
                    if h.dom == g.cod and table[(h.id, gf)] != table[(table[(h.id, g.id)], f.id)]:
                        raise NonAssociative(
                            "associativity fails on (%r,%r,%r)" % (h.id, g.id, f.id))
        return self


def validate_category(raw: dict, name: str = "C") -> FinCat:
    """Validate a raw description {objects, morphisms, identities, compose}.

    Raises the first violation found (MissingIdentity, NonAssociative,
    DomCodMismatch or PartialCompositionTable).
    """
    mors = [Mor(m["id"], m["dom"], m["cod"]) for m in raw["morphisms"]]
    comp = {(g, f): h for g, f, h in raw.get("compose", [])}
    return FinCat(name, raw["objects"], mors, raw["identities"], comp).validate()


# ---------------------------------------------------------------------------
# standard builders


def terminal_category() -> FinCat:
    return FinCat("1", ["*"], [Mor("id_*", "*", "*")], {"*": "id_*"},
                  {("id_*", "id_*"): "id_*"})


def poset_category(name, elements, leq) -> FinCat:
    """The category of a finite poset.  `leq(a, b)` decides a <= b."""
    elements = list(elements)
    arrows = [(a, b, (), "%s<=%s" % (a, b)) for a in elements for b in elements if leq(a, b)]
    return keyed_category(name, elements, arrows, lambda g, f: (), lambda a: ())[0]


def chain_category(n: int) -> FinCat:
    """The poset [n] = {0 < 1 < ... < n}."""
    return poset_category("[%d]" % n, [str(i) for i in range(n + 1)],
                          lambda a, b: int(a) <= int(b))


def discrete_category(name, elements) -> FinCat:
    return poset_category(name, elements, lambda a, b: a == b)


def elements(name, fibers, out, act, comp, identity, ofmt, mfmt):
    """Category of elements of a set-valued functor F on a finite base.

    `fibers` lists (c, F(c)) per base object, `out[c]` the arrows
    (f, cod f) out of c, `act(f, x)` is F(f)(x), `comp[(g, f)]` is g o f
    for every composable pair and `identity[c]` is the identity of c.  An
    object (c, x) gets the id `ofmt(c, x)`; a morphism
    (c, x, f) : (c, x) -> (cod f, F(f)(x)) gets `mfmt(c, f, src id, tgt id)`.
    Ids are inserted in the order of `fibers` and `out`.  No composition
    table is stored: the category composes through its base, by an
    :class:`ElementComposition`.  Returns (category, okey[(c, x)],
    mkey[(c, x, f)]).
    """
    okey = {(c, x): ofmt(c, x) for c, xs in fibers for x in xs}
    mors, mkey, over, out_of = [], {}, {}, {}
    for (c, x), oid in okey.items():
        mids = out_of[oid] = []
        for f, c2 in out[c]:
            oid2 = okey[(c2, act(f, x))]
            key = (c, x, f)
            mid = mkey[key] = mfmt(c, f, oid, oid2)
            over[mid] = (key, oid, oid2)
            mids.append(mid)
            mors.append(Mor(mid, oid, oid2))
    ident = {oid: mkey[(c, x, identity[c])] for (c, x), oid in okey.items()}
    table = ElementComposition(out, comp, identity, mkey, over, out_of)
    return FinCat(name, okey.values(), mors, ident, table), okey, mkey


class ElementComposition(Mapping):
    """The composition table of a category of elements, answered from its
    base: (g, F(f)x) o (f, x) = (g o f, x), a discrete opfibration.

    `out`, `comp` and `identity` are the base tables :func:`elements` read,
    `mkey[(c, x, f)]` the morphism over the base arrow f out of (c, x),
    `over[mid]` its ((c, x, f), src id, tgt id) and `out_of[oid]` the
    morphisms out of an object.  A pair (g, f) is a key when the two
    elements meet, cod f == dom g; base arrows that compose are not
    enough.  Keys run per f in morphism order, then per g out of cod f,
    so `len` is the sum over f of |out(cod f)|.
    """

    def __init__(self, out, comp, identity, mkey, over, out_of):
        self.out, self.comp, self.identity = out, comp, identity
        self.mkey, self.over, self.out_of = mkey, over, out_of

    def __getitem__(self, pair):
        g, f = pair
        (_, _, psi), src, _ = self.over[g]
        (c, x, phi), _, tgt = self.over[f]
        if src != tgt:
            raise KeyError(pair)
        return self.mkey[(c, x, self.comp[(psi, phi)])]

    def __iter__(self):
        out_of = self.out_of
        for f, (_, _, tgt) in self.over.items():
            for g in out_of[tgt]:
                yield g, f

    def __len__(self):
        out_of = self.out_of
        return sum(len(out_of[tgt]) for _, _, tgt in self.over.values())

    def items(self):
        return _ElementItems(self)


class _ElementItems(ItemsView):
    def __iter__(self):
        t = self._mapping
        mkey, comp, over, out_of = t.mkey, t.comp, t.over, t.out_of
        for f, ((c, x, phi), _, tgt) in over.items():
            for g in out_of[tgt]:
                yield (g, f), mkey[(c, x, comp[(over[g][0][2], phi)])]


def keyed_category(name, objects, arrows, compose, identity):
    """A category whose morphisms are keyed by (src id, tgt id) + data.

    `arrows` lists (src id, tgt id, data tuple, morphism id) in canonical
    order, `compose(d2, d1)` is the data of d2 o d1 and `identity(oid)` the
    data of the identity at oid.  The composition table is filled in one
    pass per source object.  Returns (category, mkey[(src, tgt) + data]).
    """
    mors, mkey, out = [], {}, {}
    for src, tgt, data, mid in arrows:
        mors.append(Mor(mid, src, tgt))
        mkey[(src, tgt) + data] = mid
        out.setdefault(src, []).append((tgt, data, mid))
    table = {}
    for src, firsts in out.items():
        for tgt, d1, f in firsts:
            for tgt2, d2, g in out[tgt]:
                table[(g, f)] = mkey[(src, tgt2) + compose(d2, d1)]
    ident = {oid: mkey[(oid, oid) + identity(oid)] for oid in objects}
    return FinCat(name, objects, mors, ident, table), mkey


def product_category(c: FinCat, d: FinCat) -> FinCat:
    pair = {"(%s,%s)" % xy: xy for xy in itertools.product(c.objects, d.objects)}
    arrows = [("(%s,%s)" % (f.dom, g.dom), "(%s,%s)" % (f.cod, g.cod), (f.id, g.id),
               "(%s,%s)" % (f.id, g.id)) for f in c.morphisms for g in d.morphisms]
    cc, dc = c.compose_table, d.compose_table
    return keyed_category(
        "%sx%s" % (c.name, d.name), list(pair), arrows,
        lambda g, f: (cc[(g[0], f[0])], dc[(g[1], f[1])]),
        lambda o: (c.id_of(pair[o][0]), d.id_of(pair[o][1])))[0]


# ---------------------------------------------------------------------------
# exhaustive search


def backtrack(slots, options, fits=None, partial=None):
    """Every completion of the dict `partial` over `slots`, depth first
    (Knuth, TAOCP 4B, 7.2.2, Algorithm B).

    Slot k tries, in order, the values `options(slot, partial)` lists while
    the slots before it are set; the walk goes deeper only while
    `fits(slot, partial)` holds with the new value in place.  Yields the one
    working dict, so a caller copies what it keeps.
    """
    partial = {} if partial is None else partial
    slots = tuple(slots)
    if not slots:
        yield partial
        return
    last = len(slots) - 1
    stack = [iter(options(slots[0], partial))]
    while stack:
        k = len(stack) - 1
        slot = slots[k]
        for value in stack[k]:
            partial[slot] = value
            if fits is None or fits(slot, partial):
                break
        else:
            partial.pop(slot, None)
            stack.pop()
            continue
        if k == last:
            yield partial
        else:
            stack.append(iter(options(slots[k + 1], partial)))


# ---------------------------------------------------------------------------
# functors, natural transformations, adjunctions


class FinFunctor:
    def __init__(self, name, source: FinCat, target: FinCat, object_map, morphism_map):
        self.name = name
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.morphism_map = dict(morphism_map)

    def ob(self, x: str) -> str:
        return self.object_map[x]

    def mo(self, m: str) -> str:
        return self.morphism_map[m]

    def validate(self) -> "FinFunctor":
        s, t = self.source, self.target
        for x in s.objects:
            if self.object_map.get(x) not in t.objects:
                raise InvalidFunctor("object %r not mapped into target" % x)
        for m in s.morphisms:
            fm = self.morphism_map.get(m.id)
            if fm is None or fm not in t._mor_by_id:
                raise InvalidFunctor("morphism %r not mapped" % m.id)
            if t.dom(fm) != self.ob(m.dom) or t.cod(fm) != self.ob(m.cod):
                raise InvalidFunctor("functor breaks dom/cod at %r" % m.id)
        for x in s.objects:
            if self.mo(s.id_of(x)) != t.id_of(self.ob(x)):
                raise InvalidFunctor("functor breaks identity at %r" % x)
        for (g, f), h in s.compose_table.items():
            if t.comp(self.mo(g), self.mo(f)) != self.mo(h):
                raise InvalidFunctor("functor breaks composition at (%r, %r)" % (g, f))
        return self

    def __call__(self, x):
        return self.object_map[x] if x in self.object_map else self.morphism_map[x]

    def then(self, other: "FinFunctor") -> "FinFunctor":
        if other.source is not self.target and not (
                other.source.objects == self.target.objects
                and set(other.source._mor_by_id) == set(self.target._mor_by_id)):
            raise EndpointMismatch("functors not composable")
        return FinFunctor("%s;%s" % (self.name, other.name), self.source, other.target,
                          {x: other.ob(y) for x, y in self.object_map.items()},
                          {m: other.mo(n) for m, n in self.morphism_map.items()})

    def key(self):
        return (tuple(sorted(self.object_map.items())),
                tuple(sorted(self.morphism_map.items())))

    @staticmethod
    def identity(c: FinCat) -> "FinFunctor":
        return FinFunctor("id", c, c, {x: x for x in c.objects},
                          {m.id: m.id for m in c.morphisms})

    @staticmethod
    def constant(source: FinCat, target: FinCat, obj: str) -> "FinFunctor":
        return FinFunctor("const_%s" % obj, source, target,
                          {x: obj for x in source.objects},
                          {m.id: target.id_of(obj) for m in source.morphisms})


class StrictFunctor:
    """A strict functor from a finite category into structures: diagrams,
    split simplicial objects or simplicial sets.  `ob[a]` is the value at
    each object and `mo[m]` the map at each morphism.  The values need
    `validate` and `key`; the maps need `validate`, `key`, `src`, `tgt`
    and `then`, and their class a static `identity` on a value."""

    def __init__(self, base: FinCat, ob, mo, name):
        self.base = base
        self.ob = dict(ob)
        self.mo = dict(mo)
        self.name = name

    def validate(self) -> "StrictFunctor":
        """Every value and map validates, each map's ends have the keys of
        the values at its morphism's ends, and identities and composites
        are preserved on the nose; raise the first violation."""
        base, ob, mo = self.base, self.ob, self.mo
        for a in base.objects:
            ob[a].validate()
        key = {a: ob[a].key() for a in base.objects}
        for m in base.morphisms:
            f = mo[m.id].validate()
            if f.src.key() != key[m.dom] or f.tgt.key() != key[m.cod]:
                raise InvalidFunctor("%s: ends wrong at %r" % (self.name, m.id))
        for a in base.objects:
            f = mo[base.id_of(a)]
            if f.key() != type(f).identity(ob[a]).key():
                raise InvalidFunctor("%s: not strict at the identity of %r" % (self.name, a))
        for (g, f), h in base.compose_table.items():
            if mo[f].then(mo[g]).key() != mo[h].key():
                raise InvalidFunctor("%s: not strict at (%r, %r)" % (self.name, g, f))
        return self


class NatTransf:
    """Components x -> morphism F(x) -> G(x) of the target category."""

    def __init__(self, source: FinFunctor, target: FinFunctor, components):
        self.source = source
        self.target = target
        self.components = dict(components)

    def at(self, x: str) -> str:
        return self.components[x]

    def validate(self) -> "NatTransf":
        F, G = self.source, self.target
        if F.source is not G.source or F.target is not G.target:
            raise EndpointMismatch("natural transformation endpoints differ")
        t = F.target
        for x in F.source.objects:
            c = self.components.get(x)
            if c is None or t.dom(c) != F.ob(x) or t.cod(c) != G.ob(x):
                raise InvalidNatTransf("component at %r has wrong endpoints" % x)
        for m in F.source.morphisms:
            left = t.comp(self.at(m.cod), F.mo(m.id))
            right = t.comp(G.mo(m.id), self.at(m.dom))
            if left != right:
                raise InvalidNatTransf("naturality fails at %r" % m.id)
        return self


def all_functors(source: FinCat, target: FinCat):
    """Every functor source -> target: object images in product order, then
    the non-identity morphisms' images by :func:`backtrack`, checked by
    :func:`functoriality`."""
    mors = [m.id for m in source.morphisms if not source.is_identity(m.id)]
    fits = functoriality(source, target, mors)

    def images(m, _):
        return target.hom(omap[source.dom(m)], omap[source.cod(m)])

    results = []
    for objs in itertools.product(target.objects, repeat=len(source.objects)):
        omap = dict(zip(source.objects, objs))
        ids = {source.id_of(x): target.id_of(omap[x]) for x in source.objects}
        for mmap in backtrack(mors, images, fits, ids):
            results.append(FinFunctor("F", source, target, omap, dict(mmap)))
    return results


def functoriality(source: FinCat, target: FinCat, mors):
    """`fits` for a :func:`backtrack` of morphism images source -> target
    over the non-identity morphisms `mors`, in that order, with the
    identities' images already set: a composable pair of `mors` is checked
    against its composite once the last of the three is placed."""
    rank = {m: k for k, m in enumerate(mors)}
    checks = {m: [] for m in mors}
    for (g, f), h in source.compose_table.items():
        if g in rank and f in rank:
            checks[max((g, f, h), key=lambda n: rank.get(n, -1))].append((g, f, h))
    tc = target.compose_table
    return lambda m, mmap: all(tc[(mmap[g], mmap[f])] == mmap[h] for g, f, h in checks[m])


def by_later_end(c: FinCat, mors):
    """The morphisms `mors` of c grouped under their later end in canonical
    order: a :func:`backtrack` over c's objects checks each once both its
    ends are set."""
    rank = {x: k for k, x in enumerate(c.objects)}
    out = {x: [] for x in c.objects}
    for m in mors:
        out[max(c.dom(m), c.cod(m), key=rank.__getitem__)].append(m)
    return out


def naturality(F: FinFunctor, G: FinFunctor):
    """`fits` for a :func:`backtrack` of components x -> (F x -> G x) over
    F.source's objects."""
    S, tc = F.source, F.target.compose_table
    checks = {x: [(S.dom(m), S.cod(m), F.mo(m), G.mo(m)) for m in ms]
              for x, ms in by_later_end(S, [m.id for m in S.morphisms]).items()}
    return lambda x, c: all(tc[(c[y], fm)] == tc[(gm, c[x0])] for x0, y, fm, gm in checks[x])


def all_nat_transfs(F: FinFunctor, G: FinFunctor):
    """Every natural transformation F => G, in canonical order."""
    if F.source is not G.source or F.target is not G.target:
        return []
    t = F.target
    return [NatTransf(F, G, dict(c)) for c in backtrack(
        F.source.objects, lambda x, _: t.hom(F.ob(x), G.ob(x)), naturality(F, G))]


@dataclass
class AdjunctionWitness:
    left: FinFunctor   # L : C -> D
    right: FinFunctor  # R : D -> C
    unit: NatTransf    # id_C => R o L
    counit: NatTransf  # L o R => id_D


def check_adjunction(w: AdjunctionWitness):
    """Verify both triangle identities; returns (ok, failing description)."""
    L, R = w.left, w.right
    if L.source is not R.target or L.target is not R.source:
        raise EndpointMismatch("left/right functors do not close")
    C, D = L.source, L.target
    for x in C.objects:
        # counit_{L x} o L(unit_x) = id_{L x}
        lhs = D.comp(w.counit.at(L.ob(x)), L.mo(w.unit.at(x)))
        if lhs != D.id_of(L.ob(x)):
            return False, ("triangle L at %r" % x)
    for y in D.objects:
        # R(counit_y) o unit_{R y} = id_{R y}
        lhs = C.comp(R.mo(w.counit.at(y)), w.unit.at(R.ob(y)))
        if lhs != C.id_of(R.ob(y)):
            return False, ("triangle R at %r" % y)
    return True, None


def slice_extremal(j: str, alpha: FinFunctor):
    """The first initial object of the slice j x_{/J} I of alpha : I -> J
    as ("InitialObject", (i, phi)), else its first final object as
    ("FinalObject", (i, phi)), else None; "first" in the order
    :func:`slice_under` lists the objects.

    The slice is read from the hom-sets, not built: its objects are the
    pairs (i, phi : j -> alpha i), and its arrows (i0, phi0) -> (i, phi) the
    u : i0 -> i with alpha(u) o phi0 = phi.  One pass over the arrows out
    of each i0 counts the slice arrows out of (i0, phi0) by their target.
    """
    I, J = alpha.source, alpha.target
    under = [(i, phi) for i in I.objects for phi in J.hom(j, alpha.ob(i))]
    rows = []
    for i0, phi0 in under:
        row = Counter((I.cod(u), J.comp(alpha.mo(u), phi0)) for u in I.out(i0))
        if len(row) == len(under) and all(n == 1 for n in row.values()):
            return "InitialObject", (i0, phi0)
        rows.append(row)
    final = next((x for x in under if all(row[x] == 1 for row in rows)), None)
    return None if final is None else ("FinalObject", final)


def left_adjoint(s: FinFunctor):
    """A left adjoint p of s : I -> J with its unit id_J => s o p, or None.

    Mac Lane's criterion (CWM, Thm IV.1.2): s has a left adjoint iff every
    slice j x_{/J} I has an initial object.  (p(j), unit_j) is the first
    initial object :func:`slice_extremal` reads from the hom-sets, and p(g)
    for g : j -> j' is the one slice arrow u : p(j) -> p(j') with
    s(u) o unit_j = unit_j' o g.
    """
    I, J = s.source, s.target
    omap, unit = {}, {}
    for j in J.objects:
        ext = slice_extremal(j, s)
        if ext is None or ext[0] != "InitialObject":
            return None
        omap[j], unit[j] = ext[1]
    mmap = {g.id: next(u for u in I.hom(omap[g.dom], omap[g.cod])
                       if J.comp(s.mo(u), unit[g.dom]) == J.comp(unit[g.cod], g.id))
            for g in J.morphisms}
    p = FinFunctor("F", J, I, omap, mmap)
    return p, NatTransf(FinFunctor.identity(J), p.then(s), unit)


# ---------------------------------------------------------------------------
# comma constructions


def comma_category(F: FinFunctor, G: FinFunctor):
    """Comma category of F : A -> C and G : B -> C.

    Objects are triples (a, b, phi : F a -> G b); a morphism
    (a,b,phi) -> (a',b',phi') is a pair (u : a -> a', v : b -> b') with
    phi' o F u = G v o phi.  Returns (category, projection to A,
    projection to B, key->id maps).
    """
    if F.target is not G.target and F.target.name != G.target.name:
        raise TargetMismatch("comma factors must share a target")
    A, B, C = F.source, G.source, F.target
    cc = C.compose_table
    okey = {(a, b, phi): "(%s|%s|%s)" % (a, b, phi) for a in A.objects
            for b in B.objects for phi in C.hom(F.ob(a), G.ob(b))}
    arrows = [(oid, oid2, (u, v), "(%s|%s):%s->%s" % (u, v, oid, oid2))
              for (a, b, phi), oid in okey.items() for (a2, b2, phi2), oid2 in okey.items()
              for u in A.hom(a, a2) for v in B.hom(b, b2)
              if cc[(phi2, F.mo(u))] == cc[(G.mo(v), phi)]]
    ends = {oid: (A.id_of(a), B.id_of(b)) for (a, b, _), oid in okey.items()}
    ac, bc = A.compose_table, B.compose_table
    cat, mkey = keyed_category("(%s/%s)" % (F.name, G.name), list(okey.values()), arrows,
                               lambda g, f: (ac[(g[0], f[0])], bc[(g[1], f[1])]),
                               ends.__getitem__)
    proj_a = FinFunctor("pr1", cat, A,
                        {okey[k]: k[0] for k in okey},
                        {mid: u for (o1, o2, u, v), mid in mkey.items()})
    proj_b = FinFunctor("pr2", cat, B,
                        {okey[k]: k[1] for k in okey},
                        {mid: v for (o1, o2, u, v), mid in mkey.items()})
    return cat, proj_a, proj_b, okey, mkey


def const_functor_at(c: FinCat, j: str) -> FinFunctor:
    if j not in c.objects:
        raise ObjectNotInTarget("object %r not in %r" % (j, c.name))
    pt = terminal_category()
    return FinFunctor("<%s>" % j, pt, c, {"*": j}, {"id_*": c.id_of(j)})


def slice_under(j: str, alpha: FinFunctor):
    """The comma category j x_{/J} I for alpha : I -> J, with projection to I.

    Objects are pairs (i, phi : j -> alpha(i)).
    """
    if j not in alpha.target.objects:
        raise ObjectNotInTarget("object %r not in %r" % (j, alpha.target.name))
    cat, _, proj, okey, mkey = comma_category(const_functor_at(alpha.target, j), alpha)
    return cat, proj, okey, mkey


def slice_over(alpha: FinFunctor, j: str):
    """The comma category I x_{/J} j: pairs (i, phi : alpha(i) -> j)."""
    if j not in alpha.target.objects:
        raise ObjectNotInTarget("object %r not in %r" % (j, alpha.target.name))
    cat, proj, _, okey, mkey = comma_category(alpha, const_functor_at(alpha.target, j))
    return cat, proj, okey, mkey


def fiber(alpha: FinFunctor, j: str):
    """Full subcategory of I on objects over j and morphisms over id_j."""
    I, J = alpha.source, alpha.target
    if j not in J.objects:
        raise ObjectNotInTarget("object %r not in %r" % (j, J.name))
    objs = [x for x in I.objects if alpha.ob(x) == j]
    keep = [m for m in I.morphisms
            if m.dom in objs and m.cod in objs and alpha.mo(m.id) == J.id_of(j)]
    ids = {m.id for m in keep}
    comp = {(g, f): h for (g, f), h in I.compose_table.items()
            if g in ids and f in ids and h in ids}
    identity = {x: I.id_of(x) for x in objs}
    cat = FinCat("%s_%s" % (I.name, j), objs, keep, identity, comp)
    incl = FinFunctor("incl", cat, I, {x: x for x in objs}, {m.id: m.id for m in keep})
    return cat, incl


def detect_extremal(c: FinCat) -> dict:
    """Find an initial and/or a final object (unique arrow to/from all)."""
    initial = final = None
    for x in c.objects:
        if all(len(c.hom(x, y)) == 1 for y in c.objects):
            initial = x
            break
    for x in c.objects:
        if all(len(c.hom(y, x)) == 1 for y in c.objects):
            final = x
            break
    return {"initial": initial, "final": final}


# ---------------------------------------------------------------------------
# fibration checks


def _cocartesian(alpha: FinFunctor, m: str) -> bool:
    I, J = alpha.source, alpha.target
    i, i2 = I.dom(m), I.cod(m)
    g = alpha.mo(m)
    for m2 in I.out(i):
        # factorisations h of alpha(m2) through g
        for h in J.hom(J.cod(g), alpha.ob(I.cod(m2))):
            if J.comp(h, g) != alpha.mo(m2):
                continue
            lifts = [u for u in I.hom(i2, I.cod(m2))
                     if alpha.mo(u) == h and I.comp(u, m) == m2]
            if len(lifts) != 1:
                return False
    return True


def is_opfibration(alpha: FinFunctor):
    """Exhaustive cocartesian-lift search.  Returns (bool, witness).

    On success the witness maps (object, target morphism) to the chosen
    cocartesian lift; on failure it is the offending pair.
    """
    I, J = alpha.source, alpha.target
    witness = {}
    for i in I.objects:
        for g in J.out(alpha.ob(i)):
            lift = None
            for m in I.out(i):
                if alpha.mo(m) == g and _cocartesian(alpha, m):
                    lift = m
                    break
            if lift is None:
                return False, (i, g)
            witness[(i, g)] = lift
    return True, witness


def is_fibration(alpha: FinFunctor):
    """Dual of :func:`is_opfibration` (cartesian lifts)."""
    I, J = alpha.source, alpha.target
    op_alpha = FinFunctor(alpha.name + "^op", I.opposite(), J.opposite(),
                          alpha.object_map, alpha.morphism_map)
    return is_opfibration(op_alpha)


# ---------------------------------------------------------------------------
# limits by exhaustion


def _cones(D: FinFunctor):
    """All cones over D, as (apex, legs dict): the natural transformations
    from each constant functor, apexes in canonical order."""
    J, C = D.source, D.target
    return [(apex, n.components) for apex in C.objects
            for n in all_nat_transfs(FinFunctor.constant(J, C, apex), D)]


def factor(C: FinCat, a: str, b: str, cone):
    """The unique u : a -> b with C.comp(leg, u) == want for every
    (leg, want) in `cone`, or None when no u or more than one u fits."""
    found = None
    for u in C.hom(a, b):
        if all(C.comp(leg, u) == want for leg, want in cone):
            if found is not None:
                return None
            found = u
    return found


def limit_cone(D: FinFunctor):
    """Brute-force limit of D : J -> C; returns (apex, legs) or None.

    Universality is verified against every cone; the first universal cone
    in canonical order is returned.
    """
    J, C = D.source, D.target
    cones = _cones(D)
    for apex, legs in cones:
        if all(factor(C, apex2, apex, [(legs[j], legs2[j]) for j in J.objects])
               is not None for apex2, legs2 in cones):
            return apex, legs
    return None


def _two_object_diagram(C: FinCat, a: str, b: str):
    J = discrete_category("2", ["l", "r"])
    return FinFunctor("D", J, C, {"l": a, "r": b},
                      {J.id_of("l"): C.id_of(a), J.id_of("r"): C.id_of(b)})


def product(C: FinCat, a: str, b: str):
    return limit_cone(_two_object_diagram(C, a, b))


def pullback(C: FinCat, f: str, g: str):
    """Pullback of the cospan dom f -> cod f <- dom g; cod f == cod g."""
    if C.cod(f) != C.cod(g):
        raise DomCodMismatch("pullback needs a cospan")
    res = wide_pullback(C, [f, g], C.cod(f))
    return None if res is None else (res[0], *res[1])


def wide_pullback(C: FinCat, legs, x: str):
    """Limit of a wide cospan: each `legs[i]` is a morphism into x.

    Returns (apex, projections list) or None.  Duplicate legs are allowed
    and share projections.
    """
    n = len(legs)
    names = ["s%d" % i for i in range(n)]
    J = poset_category("wide", names + ["m"], lambda a, b: a == b or b == "m")
    omap = {"m": x}
    mmap = {J.id_of("m"): C.id_of(x)}
    for nm, leg in zip(names, legs):
        omap[nm] = C.dom(leg)
        mmap[J.id_of(nm)] = C.id_of(C.dom(leg))
        mmap["%s<=m" % nm] = leg
    D = FinFunctor("D", J, C, omap, mmap)
    res = limit_cone(D)
    if res is None:
        return None
    apex, conelegs = res
    return apex, [conelegs[nm] for nm in names]


# ---------------------------------------------------------------------------
# twisted arrows


def twisted_arrow(I: FinCat, variant: str = "tw"):
    """tw(I) / twc(I) with their projections.

    tw(I): objects are the morphisms of I; a morphism nu -> nu' is a pair
    (a : dom nu -> dom nu', b : cod nu' -> cod nu) with nu = b o nu' o a.
    pi1 lands in I, pi3 in I^op.

    twc(I): objects are composable pairs; morphisms are triples (a, b, c)
    filling the displayed ladder; pi1, pi3 both land in I and mu : pi1 => pi3
    is given by the pair's composite.
    """
    ic = I.compose_table
    if variant == "tw":
        arrows = [(nu.id, nu2.id, (a, b), "(%s|%s):%s->%s" % (a, b, nu.id, nu2.id))
                  for nu in I.morphisms for nu2 in I.morphisms
                  for a in I.hom(nu.dom, nu2.dom) for b in I.hom(nu2.cod, nu.cod)
                  if ic[(b, ic[(nu2.id, a)])] == nu.id]
        cat, mkey = keyed_category(
            "tw(%s)" % I.name, [m.id for m in I.morphisms], arrows,
            lambda g, f: (ic[(g[0], f[0])], ic[(f[1], g[1])]),
            lambda nu: (I.id_of(I.dom(nu)), I.id_of(I.cod(nu))))
        pi1 = FinFunctor("pi1", cat, I, {m.id: I.dom(m.id) for m in I.morphisms},
                         {mid: k[2] for k, mid in mkey.items()})
        pi3 = FinFunctor("pi3", cat, I.opposite(), {m.id: I.cod(m.id) for m in I.morphisms},
                         {mid: k[3] for k, mid in mkey.items()})
        return cat, pi1, pi3, None
    if variant != "twc":
        raise ValueError("variant must be 'tw' or 'twc'")
    pairs = [(f.id, g.id) for f in I.morphisms for g in I.morphisms
             if I.cod(f.id) == I.dom(g.id)]
    okey = {p: "(%s,%s)" % p for p in pairs}
    arrows = [(okey[(f1, f2)], okey[(g1, g2)], (a, b, c),
               "(%s|%s|%s):%s->%s" % (a, b, c, okey[(f1, f2)], okey[(g1, g2)]))
              for (f1, f2) in pairs for (g1, g2) in pairs
              for a in I.hom(I.dom(f1), I.dom(g1)) for b in I.hom(I.cod(g1), I.cod(f1))
              if ic[(b, ic[(g1, a)])] == f1
              for c in I.hom(I.cod(f2), I.cod(g2)) if ic[(c, ic[(f2, b)])] == g2]
    ends = {okey[(f, g)]: (I.id_of(I.dom(f)), I.id_of(I.dom(g)), I.id_of(I.cod(g)))
            for (f, g) in pairs}
    cat, mkey = keyed_category(
        "twc(%s)" % I.name, [okey[p] for p in pairs], arrows,
        lambda g, f: (ic[(g[0], f[0])], ic[(f[1], g[1])], ic[(g[2], f[2])]),
        ends.__getitem__)
    pi1 = FinFunctor("pi1", cat, I, {okey[p]: I.dom(p[0]) for p in pairs},
                     {mid: k[2] for k, mid in mkey.items()})
    pi3 = FinFunctor("pi3", cat, I, {okey[p]: I.cod(p[1]) for p in pairs},
                     {mid: k[4] for k, mid in mkey.items()})
    mu = NatTransf(pi1, pi3, {okey[(f, g)]: I.comp(g, f) for (f, g) in pairs})
    return cat, pi1, pi3, mu


# ---------------------------------------------------------------------------
# isomorphism search


def _wl_colors(c: FinCat):
    colors = {}
    for x in c.objects:
        colors[x] = (len(c.out(x)), len(c.into(x)),
                     sorted(len(c.hom(x, y)) for y in c.objects),
                     sorted(len(c.hom(y, x)) for y in c.objects))
    colors = _canon_colors(colors)
    for _ in range(4):
        nxt = {}
        for x in c.objects:
            outp = sorted((colors[c.cod(m)] for m in c.out(x)))
            inp = sorted((colors[c.dom(m)] for m in c.into(x)))
            nxt[x] = (colors[x], tuple(outp), tuple(inp))
        colors = _canon_colors(nxt)
    return colors


def _canon_colors(colors):
    vals = sorted(set(map(repr, colors.values())))
    rank = {v: i for i, v in enumerate(vals)}
    return {x: rank[repr(v)] for x, v in colors.items()}


def find_isomorphism(c: FinCat, d: FinCat, max_nodes: int = 2_000_000,
                     labels=None):
    """Backtracking isomorphism search guided by WL colour refinement:
    objects first, each pair's hom-set sizes compared once both are placed,
    then the non-identity morphisms, checked by :func:`functoriality`.

    With labels = (F, G), functors out of c and out of d into one category,
    only isomorphisms iso with G o iso = F on objects and morphisms count.
    Returns a FinFunctor witnessing c ~= d, or None when there is none.
    Raises BudgetExceeded once `max_nodes` nodes are spent: an unfinished
    search proves nothing.
    """
    if len(c.objects) != len(d.objects) or len(c.morphisms) != len(d.morphisms):
        return None
    cc, dc = c.wl_colors(), d.wl_colors()
    if labels is not None:
        F, G = labels
        cc = {x: (col, F.ob(x)) for x, col in cc.items()}
        dc = {y: (col, G.ob(y)) for y, col in dc.items()}
    if sorted(cc.values()) != sorted(dc.values()):
        return None
    cgroups = {}
    for x, col in cc.items():
        cgroups.setdefault(col, []).append(x)
    dgroups = {}
    for x, col in dc.items():
        dgroups.setdefault(col, []).append(x)
    if any(len(cgroups[k]) != len(dgroups.get(k, [])) for k in cgroups):
        return None
    xs = sorted(c.objects, key=lambda x: (len(cgroups[cc[x]]), cc[x], x))
    # the nodes counted against max_nodes: the root, each object placed, the
    # root of each morphism search and each non-identity morphism placed
    budget = [max_nodes]

    def visit():
        """Count one node of the search; raise once `max_nodes` are spent."""
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded("isomorphism search needs more than %d nodes" % max_nodes)
        return True

    def feasible(x, part):
        y = part[x]
        return all(len(c.hom(x, x2)) == len(d.hom(y, y2)) and
                   len(c.hom(x2, x)) == len(d.hom(y2, y)) for x2, y2 in part.items()) \
            and visit()

    def images(f, mmap):
        return [g for g in d.hom(omap[c.dom(f)], omap[c.cod(f)]) if g not in mmap.values()
                and (labels is None or G.mo(g) == F.mo(f))]

    visit()
    flat = [f for x in c.objects for y in c.objects for f in c.hom(x, y)]
    mors = [f for f in flat if not c.is_identity(f)]
    functorial = functoriality(c, d, mors)
    for omap in backtrack(xs, lambda x, part: [y for y in dgroups[cc[x]]
                                               if y not in part.values()], feasible):
        visit()
        ids = {c.id_of(x): d.id_of(omap[x]) for x in c.objects}
        mmap = next(backtrack(mors, images, lambda f, mm: functorial(f, mm) and visit(), ids),
                    None)
        if mmap is not None:
            return FinFunctor("iso", c, d, dict(omap), {f: mmap[f] for f in flat})
    return None


def verify_isomorphism(F: FinFunctor) -> bool:
    """Check that a given functor is bijective on objects and morphisms and
    functorial (a complete isomorphism proof)."""
    try:
        F.validate()
    except InvalidFunctor:
        return False
    return is_bijective(F)


def is_bijective(F: FinFunctor) -> bool:
    """Bijectivity on objects and morphisms; functoriality is not checked."""
    return (sorted(F.object_map.values()) == sorted(F.target.objects) and
            sorted(F.morphism_map.values()) == sorted(m.id for m in F.target.morphisms))


def partition(items, related, pairs=None):
    """Classes of the equivalence relation generated by the `pairs` (every
    pair of `items` by default) that are `related`, as {root: members in
    item order} in order of first member.  A pair already in one class is
    not tested: joining it would change nothing."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in itertools.combinations(items, 2) if pairs is None else pairs:
        if find(a) != find(b) and related(a, b):
            parent[find(a)] = find(b)
    classes = {}
    for x in items:
        classes.setdefault(find(x), []).append(x)
    return classes


# ---------------------------------------------------------------------------
# DOT export


def generators(c: FinCat) -> list:
    """Non-identity morphisms that admit no factorization into two
    non-identity morphisms."""
    out = []
    for m in c.morphisms:
        if c.is_identity(m.id):
            continue
        composite = False
        for (g, f), h in c.compose_table.items():
            if h == m.id and not c.is_identity(g) and not c.is_identity(f) \
                    and g != m.id and f != m.id:
                composite = True
                break
        if not composite:
            out.append(m.id)
    return out


def to_dot(c: FinCat) -> str:
    """Graphviz export: objects as nodes, non-identity generators as edges."""
    gens = set(generators(c))
    lines = ["digraph %s {" % _dot_name(c.name)]
    for x in c.objects:
        lines.append('  "%s";' % x)
    for m in c.morphisms:
        if m.id in gens:
            lines.append('  "%s" -> "%s" [label="%s"];' % (m.dom, m.cod, m.id))
    lines.append("}")
    return "\n".join(lines)


def _dot_name(s: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in s)
