"""Left calculus of fractions on a finite category, the localization by
cospans, saturation, and the 2-out-of-6 / retract-closure checks.

Hom-classes of the localization are cospans (f : X -> Z, w : Y -> Z with
w in W) modulo the zig-zag closure of the one-step relation given by a
connecting morphism under both cospans.  All class computations are over
the full finite cospan set at once; representatives are lexicographically
least.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fincat as fc
from .errors import FractionsFailed


@dataclass(frozen=True)
class CospanRep:
    """A morphism X -> Y of the localization: X -f-> Z <-w- Y, w in W."""

    f: str
    w: str


def check_left_fractions(c: fc.FinCat, w):
    """Square completion and coequalization, by exhaustive search.

    Returns (ok, witnesses, failure): `witnesses` maps each instance to
    its first completion; `failure` names the first failing instance.
    """
    w = set(w)
    witnesses = {}
    for wm in sorted(w):
        y, z = c.dom(wm), c.cod(wm)
        for g in c.out(y):
            found = next(((cap_f, cap_g) for x in c.objects for cap_f in c.hom(c.cod(g), x)
                          if cap_f in w for cap_g in c.hom(z, x)
                          if c.comp(cap_f, g) == c.comp(cap_g, wm)), None)
            if found is None:
                return False, witnesses, ("square", wm, g)
            witnesses[("square", wm, g)] = found
    for h in sorted(w):
        z = c.cod(h)
        for f in c.out(z):
            for g in c.hom(z, c.cod(f)):
                if g == f or c.comp(f, h) != c.comp(g, h):
                    continue
                found = next((rho for rho in c.out(c.cod(f))
                              if rho in w and c.comp(rho, f) == c.comp(rho, g)), None)
                if found is None:
                    return False, witnesses, ("coequalize", h, f, g)
                witnesses[("coequalize", h, f, g)] = found
    return True, witnesses, None


def _closed_class(c: fc.FinCat, w):
    w = set(w)
    ordered = [m.id for m in c.morphisms if m.id in w]  # a witness free of set order
    for x in c.objects:
        if c.id_of(x) not in w:
            return False, ("identity", x)
    for a in ordered:
        for b in ordered:
            if c.cod(a) == c.dom(b) and c.comp(b, a) not in w:
                return False, ("composition", a, b)
    return True, None


@dataclass
class LocalizedCat:
    base: fc.FinCat
    w: set
    homs: dict                 # (x, y) -> tuple of representative CospanReps
    class_of: dict             # (x, y, CospanRep) -> representative
    comp_table: dict           # (rep2, rep1) -> rep of the composite
    loc: dict                  # base morphism id -> its class representative

    def compose(self, g: CospanRep, f: CospanRep) -> CospanRep:
        return self.comp_table[(g, f)]

    def hom(self, x, y):
        return self.homs.get((x, y), ())

    def is_iso_class(self, x, y, rep: CospanRep):
        idx = self.loc[self.base.id_of(x)]
        idy = self.loc[self.base.id_of(y)]
        for inv in self.hom(y, x):
            if self.compose(inv, rep) == idx and self.compose(rep, inv) == idy:
                return inv
        return None


def localize_fractions(c: fc.FinCat, w) -> LocalizedCat:
    """The localization C[W^{-1}] presented by cospans.

    Fails (FractionsFailed) unless W contains identities, is closed under
    composition, and admits a left calculus of fractions.  Functoriality
    and W-inversion of the canonical functor are verified exhaustively.
    """
    w = set(w)
    ok, why = _closed_class(c, w)
    if not ok:
        raise FractionsFailed("W is not a composition-closed wide class: %r" % (why,))
    ok, witnesses, failure = check_left_fractions(c, w)
    if not ok:
        raise FractionsFailed("no left calculus of fractions: %r" % (failure,))

    cospans = {}
    for x in c.objects:
        for y in c.objects:
            items = []
            for f in c.morphisms:
                if f.dom != x:
                    continue
                for wm in c.hom(y, f.cod):
                    if wm in w:
                        items.append(CospanRep(f.id, wm))
            cospans[(x, y)] = sorted(items, key=lambda r: (r.f, r.w))

    def linked(r1, r2):
        """Some u carries one cospan onto the other, both legs."""
        return any(c.comp(u, a.f) == b.f and c.comp(u, a.w) == b.w
                   for a, b in ((r1, r2), (r2, r1))
                   for u in c.hom(c.cod(a.f), c.cod(b.f)))

    class_of = {}
    homs = {}
    for (x, y), items in cospans.items():
        reps = {}
        for members in fc.partition(items, linked).values():
            rep = min(members, key=lambda r: (r.f, r.w))
            for m in members:
                reps[m] = rep
        for r, rep in reps.items():
            class_of[(x, y, r)] = rep
        homs[(x, y)] = tuple(sorted(set(reps.values()), key=lambda r: (r.f, r.w)))

    def compose_raw(r2: CospanRep, r1: CospanRep) -> CospanRep:
        cap_f, cap_g = witnesses[("square", r1.w, r2.f)]
        return CospanRep(c.comp(cap_g, r1.f), c.comp(cap_f, r2.w))

    comp_table = {}
    for (x, y), items1 in homs.items():
        for (y2, t), items2 in homs.items():
            if y2 != y:
                continue
            for r1 in items1:
                for r2 in items2:
                    raw = compose_raw(r2, r1)
                    comp_table[(r2, r1)] = class_of[(x, t, raw)]

    loc = {}
    for m in c.morphisms:
        loc[m.id] = class_of[(m.dom, m.cod, CospanRep(m.id, c.id_of(m.cod)))]
    out = LocalizedCat(c, w, homs, class_of, comp_table, loc)

    # exhaustive checks: composition well-defined on classes, functoriality,
    # and W-inversion
    for (x, y), items in cospans.items():
        for (y2, t), items2 in cospans.items():
            if y2 != y:
                continue
            for r1 in items:
                for r2 in items2:
                    raw = compose_raw(class_of[(y, t, r2)], class_of[(x, y, r1)])
                    raw2 = compose_raw(r2, r1)
                    if class_of[(x, t, raw)] != class_of[(x, t, raw2)]:
                        raise FractionsFailed(
                            "composition not class-invariant at (%r, %r)" % (r1, r2))
    for (g, f), h in c.compose_table.items():
        lhs = out.compose(loc[g], loc[f])
        if lhs != loc[h]:
            raise FractionsFailed("localization functor breaks composition at (%r,%r)"
                                  % (g, f))
    for wm in w:
        if out.is_iso_class(c.dom(wm), c.cod(wm), loc[wm]) is None:
            raise FractionsFailed("localization does not invert %r" % wm)
    return out


def saturation(c: fc.FinCat, w):
    """Morphisms inverted by the localization functor."""
    lc_ = localize_fractions(c, w)
    out = set()
    for m in c.morphisms:
        if lc_.is_iso_class(m.dom, m.cod, lc_.loc[m.id]) is not None:
            out.add(m.id)
    return out


def check_two_out_of_six(w, c: fc.FinCat):
    """Violations of 2-out-of-6 over all composable triples."""
    w = set(w)
    violations = []
    for f in c.morphisms:
        for g in c.morphisms:
            if g.dom != f.cod:
                continue
            gf = c.comp(g.id, f.id)
            for h in c.morphisms:
                if h.dom != g.cod:
                    continue
                hg = c.comp(h.id, g.id)
                if gf in w and hg in w:
                    hgf = c.comp(h.id, gf)
                    for x in (f.id, g.id, h.id, hgf):
                        if x not in w:
                            violations.append((f.id, g.id, h.id, x))
    return violations


def check_retract_closed(w, c: fc.FinCat):
    """Violations of retract closure: f a retract of g in the arrow
    category with g in W but f not."""
    w = set(w)
    violations = []
    for f in c.morphisms:
        if f.id in w:
            continue
        for g in c.morphisms:
            if g.id not in w:
                continue
            for i in c.hom(f.dom, g.dom):
                for r in c.hom(g.dom, f.dom):
                    if c.comp(r, i) != c.id_of(f.dom):
                        continue
                    for j in c.hom(f.cod, g.cod):
                        for s in c.hom(g.cod, f.cod):
                            if c.comp(s, j) != c.id_of(f.cod):
                                continue
                            if c.comp(g.id, i) == c.comp(j, f.id) and \
                                    c.comp(f.id, r) == c.comp(s, g.id):
                                violations.append((f.id, g.id, i, r, j, s))
    return violations


def localized_as_fincat(lc_: LocalizedCat) -> fc.FinCat:
    """Materialize the localization as a finite category (classes as
    morphisms)."""
    c = lc_.base
    arrows = [(x, y, (r,), "[%s|%s]:%s->%s" % (r.f, r.w, x, y))
              for (x, y), reps in sorted(lc_.homs.items()) for r in reps]
    return fc.keyed_category("%s[W^-1]" % c.name, c.objects, arrows,
                             lambda g, f: (lc_.comp_table[(g[0], f[0])],),
                             lambda x: (lc_.loc[c.id_of(x)],))[0].validate()
