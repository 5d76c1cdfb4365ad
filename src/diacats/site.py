"""Sites (finite category + pretopology), the free coproduct completion,
and pullbacks / correspondence composition inside it.

A CoprodObj is an ordered list of carrier objects; equality is strict list
equality, with a separate isomorphism test.  Covering families are stored
unrefined; refinement checks use exhaustive factorization search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fincat as fc
from .errors import LimitAbsent, ObjectNotInTarget


@dataclass
class Site:
    cat: fc.FinCat
    covers: dict = field(default_factory=dict)   # object -> list of families
    trivial_topology: bool = False
    extensive_topology: bool = False

    def families_of(self, x: str):
        """Declared covering families of x, always including the identity."""
        fams = [[self.cat.id_of(x)]]
        for fam in self.covers.get(x, []):
            fams.append(list(fam))
        return fams

    def validate(self):
        rep = validate_pretopology(self)
        if rep:
            raise LimitAbsent("pretopology violations: %s" % "; ".join(rep))
        return self


def trivial_site(cat: fc.FinCat) -> Site:
    return Site(cat, {}, trivial_topology=True)


def validate_pretopology(site: Site):
    """Report pretopology violations with witnesses.

    Checks that (a) singleton isomorphism families cover, (b) every
    declared family can be base-changed: pullbacks exist and the
    pulled-back family is refined by a declared cover of the base,
    (c) composites of covers are refined by covers.
    """
    cat = site.cat
    problems = []
    for x, fams in site.covers.items():
        if x not in cat.objects:
            problems.append("cover declared on unknown object %r" % x)
            continue
        for fam in fams:
            for m in fam:
                if m not in cat._mor_by_id or cat.cod(m) != x:
                    problems.append("family member %r does not land in %r" % (m, x))
    if problems:
        return problems
    for x in cat.objects:
        for fam in site.families_of(x):
            for y in cat.objects:
                for g in cat.hom(y, x):
                    pulled = []
                    ok = True
                    for m in fam:
                        pb = fc.pullback(cat, m, g)
                        if pb is None:
                            problems.append(
                                "pullback of %r along %r missing (cover of %r)" % (m, g, x))
                            ok = False
                            break
                        apex, leg_m, leg_g = pb
                        pulled.append((apex, leg_g))
                    if ok and not _refined_by_some_cover(site, y, pulled):
                        problems.append(
                            "pullback of cover %r along %r not refined by a cover of %r"
                            % (fam, g, y))
    # composition stability: refine one member at a time by each of its
    # declared covers; the mixed family must again be refined by a cover
    for x in cat.objects:
        for fam in site.families_of(x):
            for k, m in enumerate(fam):
                u = cat.dom(m)
                for sub in site.families_of(u):
                    composite = [(cat.dom(m2), m2) for m2 in fam[:k] + fam[k + 1:]]
                    composite += [(cat.dom(m2), cat.comp(m, m2)) for m2 in sub]
                    if not _refined_by_some_cover(site, x, composite):
                        problems.append(
                            "refining %r inside cover %r of %r breaks composition"
                            % (m, fam, x))
    return problems


def _refined_by_some_cover(site: Site, y: str, family):
    """Does some declared cover of y refine the given family?

    `family` lists (domain, morphism into y); a declared cover {w_j}
    refines it when every w_j factors through some member.
    """
    cat = site.cat
    return any(all(any(cat.comp(m, h) == w for d, m in family for h in cat.hom(cat.dom(w), d))
                   for w in cov) for cov in site.families_of(y))


# ---------------------------------------------------------------------------
# free coproduct completion


@dataclass(frozen=True)
class CoprodObj:
    """An object of the free coproduct completion: an ordered component list."""

    components: tuple

    def __len__(self):
        return len(self.components)

    @staticmethod
    def of(*objs):
        return CoprodObj(tuple(objs))


@dataclass(frozen=True)
class CoprodMor:
    """index_map sends each source index to a target index; parts[i] is the
    carrier morphism between the matched components."""

    src: CoprodObj
    tgt: CoprodObj
    index_map: tuple
    parts: tuple
    split_injection: bool = False

    def validate(self, cat: fc.FinCat):
        for i, j in enumerate(self.index_map):
            m = cat.mor(self.parts[i])
            if m.dom != self.src.components[i] or m.cod != self.tgt.components[j]:
                raise ObjectNotInTarget("part %d has wrong endpoints" % i)
        if self.split_injection:
            if len(set(self.index_map)) != len(self.index_map):
                raise ObjectNotInTarget("split marker on a non-injective index map")
            if not all(cat.is_identity(p) for p in self.parts):
                raise ObjectNotInTarget("split marker with non-identity parts")
        return self

    @staticmethod
    def injection(cat, src: CoprodObj, tgt: CoprodObj, offsets):
        parts = tuple(cat.id_of(c) for c in src.components)
        return CoprodMor(src, tgt, tuple(offsets), parts, split_injection=True)


def coprod_identity(cat, a: CoprodObj) -> CoprodMor:
    return CoprodMor(a, a, tuple(range(len(a))),
                     tuple(cat.id_of(c) for c in a.components), True)


def coprod_iso(cat, a: CoprodObj, b: CoprodObj):
    """Component bijection + componentwise isomorphism, or None: the first
    assignment i -> (j, m) that :func:`fc.backtrack` finds."""
    if len(a) != len(b):
        return None

    def options(i, assign):
        used = {j for j, _ in assign.values()}
        return ((j, m) for j in range(len(b)) if j not in used
                for m in cat.hom(a.components[i], b.components[j]) if cat.is_iso(m))

    assign = next(fc.backtrack(range(len(a)), options), None)
    if assign is None:
        return None
    return CoprodMor(a, b, tuple(j for j, _ in assign.values()),
                     tuple(m for _, m in assign.values()))


def coprod_pullback(site: Site, f: CoprodMor, g: CoprodMor):
    """Pullback of f, g over a single-component object X, componentwise.

    Components are the pullbacks U_i x_X V_j in lexicographic (i, j) order.
    Returns (CoprodObj, projection to f.src, projection to g.src).
    """
    cat = site.cat
    if len(f.tgt) != 1 or f.tgt != g.tgt:
        raise LimitAbsent("pullback target must be a shared single component")
    comps, pf_idx, pf_parts, pg_idx, pg_parts = [], [], [], [], []
    for i, u in enumerate(f.src.components):
        for j, v in enumerate(g.src.components):
            pb = fc.pullback(cat, f.parts[i], g.parts[j])
            if pb is None:
                raise LimitAbsent("pullback of components (%d, %d) absent" % (i, j))
            apex, leg_f, leg_g = pb
            comps.append(apex)
            pf_idx.append(i)
            pf_parts.append(leg_f)
            pg_idx.append(j)
            pg_parts.append(leg_g)
    obj = CoprodObj(tuple(comps))
    proj_f = CoprodMor(obj, f.src, tuple(pf_idx), tuple(pf_parts))
    proj_g = CoprodMor(obj, g.src, tuple(pg_idx), tuple(pg_parts))
    return obj, proj_f, proj_g


def hom_set(site: Site, x: str, a: CoprodObj):
    """Hom(x, a) as the disjoint union over components, each element tagged
    with its component index."""
    cat = site.cat if isinstance(site, Site) else site
    out = []
    for i, c in enumerate(a.components):
        for m in cat.hom(x, c):
            out.append((i, m))
    return out


# ---------------------------------------------------------------------------
# correspondences


@dataclass(frozen=True)
class Span:
    """A correspondence S <- Z -> T in the site category."""

    left: str    # morphism Z -> S
    right: str   # morphism Z -> T

    def apex(self, cat):
        return cat.dom(self.left)


def span_compose(site: Site, s1: Span, s2: Span) -> Span:
    """Composition via the fiber product of the middle legs."""
    cat = site.cat
    if cat.cod(s1.right) != cat.cod(s2.left):
        raise LimitAbsent("spans not composable")
    pb = fc.pullback(cat, s1.right, s2.left)
    if pb is None:
        raise LimitAbsent("fiber product of span legs absent")
    apex, to_z1, to_z2 = pb
    return Span(cat.comp(s1.left, to_z1), cat.comp(s2.right, to_z2))


def span_identity(site: Site, x: str) -> Span:
    i = site.cat.id_of(x)
    return Span(i, i)


def spans_isomorphic(site: Site, a: Span, b: Span) -> bool:
    cat = site.cat
    if cat.cod(a.left) != cat.cod(b.left) or cat.cod(a.right) != cat.cod(b.right):
        return False
    for h in cat.hom(cat.dom(a.left), cat.dom(b.left)):
        if cat.is_iso(h) and cat.comp(b.left, h) == a.left \
                and cat.comp(b.right, h) == a.right:
            return True
    return False
