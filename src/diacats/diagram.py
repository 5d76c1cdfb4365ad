"""Diagrams in a site and their 2-category: objects (I, S), morphisms
(alpha, f), 2-morphisms, comma fiber products, the Grothendieck
construction, nerves, and Hom-diagrams.
"""

from __future__ import annotations

import functools
import itertools

from . import fincat as fc
from . import simplicial as sp
from .errors import (
    EndpointMismatch,
    InvalidFunctor,
    InvalidNatTransf,
    LimitAbsent,
    ObjectNotInTarget,
    TargetMismatch,
)
from .site import Site


class DiaObj:
    """A diagram (I, S): a finite shape with a labeling functor into the
    site category."""

    def __init__(self, shape: fc.FinCat, labels: fc.FinFunctor, name=None):
        self.shape = shape
        if labels.source is not shape:
            # accept a structurally identical shape instance
            labels = fc.FinFunctor(labels.name, shape, labels.target,
                                   labels.object_map, labels.morphism_map)
        self.labels = labels
        self.name = name or ("(%s)" % shape.name)

    @property
    def scat(self):
        return self.labels.target

    def validate(self):
        self.labels.validate()
        return self

    def key(self):
        return (tuple(self.shape.objects),
                tuple((m.id, m.dom, m.cod) for m in self.shape.morphisms),
                tuple(sorted(self.labels.object_map.items())),
                tuple(sorted(self.labels.morphism_map.items())))

    def __repr__(self):
        return "DiaObj(%s: %d objects over %s)" % (
            self.name, len(self.shape.objects), self.scat.name)


def point_dia(scat: fc.FinCat, s: str, name=None) -> DiaObj:
    pt = fc.terminal_category()
    return DiaObj(pt, fc.FinFunctor("lbl", pt, scat, {"*": s},
                                    {"id_*": scat.id_of(s)}),
                  name or ("pt(%s)" % s))


class DiaMor:
    """(alpha, f) : (I, S) -> (J, T) with f_i : S(i) -> T(alpha i), natural."""

    def __init__(self, src: DiaObj, tgt: DiaObj, shape_map: fc.FinFunctor,
                 label_transf, name=None):
        self.src = src
        self.tgt = tgt
        self.shape_map = shape_map
        self.label_transf = dict(label_transf)
        self.name = name or "mor"

    def validate(self):
        self.shape_map.validate()
        scat = self.src.scat
        S, T, a = self.src.labels, self.tgt.labels, self.shape_map
        for i in self.src.shape.objects:
            p = self.label_transf.get(i)
            if p is None:
                raise InvalidNatTransf("missing label part at %r" % i)
            m = scat.mor(p)
            if m.dom != S.ob(i) or m.cod != T.ob(a.ob(i)):
                raise InvalidNatTransf("label part endpoints wrong at %r" % i)
        for m in self.src.shape.morphisms:
            left = scat.comp(T.mo(a.mo(m.id)), self.label_transf[m.dom])
            right = scat.comp(self.label_transf[m.cod], S.mo(m.id))
            if left != right:
                raise InvalidNatTransf("label naturality fails at %r" % m.id)
        return self

    def is_pure_diagram_type(self):
        scat = self.src.scat
        return all(scat.is_identity(p) for p in self.label_transf.values())

    def key(self):
        return (self.src.key(), self.tgt.key(),
                tuple(sorted(self.shape_map.object_map.items())),
                tuple(sorted(self.shape_map.morphism_map.items())),
                tuple(sorted(self.label_transf.items())))

    def then(self, other: "DiaMor") -> "DiaMor":
        if other.src is not self.tgt and other.src.key() != self.tgt.key():
            raise EndpointMismatch("diagram morphisms not composable")
        return composite(self, other, *composite_maps(self, other))

    @staticmethod
    def identity(d: DiaObj) -> "DiaMor":
        return DiaMor(d, d, fc.FinFunctor.identity(d.shape),
                      {i: d.scat.id_of(d.labels.ob(i)) for i in d.shape.objects},
                      "id")

    def __repr__(self):
        return "DiaMor(%s: %s -> %s)" % (self.name, self.src.name, self.tgt.name)


def composite_maps(f: DiaMor, g: DiaMor):
    """Shape-map object and morphism maps and label parts of f then g."""
    a, b = f.shape_map, g.shape_map
    scat = f.src.scat
    return ({x: b.object_map[y] for x, y in a.object_map.items()},
            {m: b.morphism_map[n] for m, n in a.morphism_map.items()},
            {i: scat.comp(g.label_transf[a.object_map[i]], f.label_transf[i])
             for i in f.src.shape.objects})


def composite(f: DiaMor, g: DiaMor, omap, mmap, lt) -> DiaMor:
    """f then g from its :func:`composite_maps`; composability is the
    caller's to check."""
    a, b = f.shape_map, g.shape_map
    return DiaMor(f.src, g.tgt,
                  fc.FinFunctor("%s;%s" % (a.name, b.name), a.source, b.target, omap, mmap),
                  lt, "%s;%s" % (f.name, g.name))


class Dia2Mor:
    """mu : (alpha, f) => (beta, g), a natural transformation of the shape
    maps satisfying mu^* T o f = g."""

    def __init__(self, source: DiaMor, target: DiaMor, mu: fc.NatTransf):
        self.source = source
        self.target = target
        self.mu = mu

    def validate(self):
        f, g = self.source, self.target
        if f.src is not g.src or f.tgt is not g.tgt:
            raise EndpointMismatch("parallel morphisms required")
        self.mu.validate()
        scat = f.src.scat
        T = f.tgt.labels
        for i in f.src.shape.objects:
            if scat.comp(T.mo(self.mu.at(i)), f.label_transf[i]) != g.label_transf[i]:
                raise InvalidNatTransf("2-morphism compatibility fails at %r" % i)
        return self


def all_dia_mors(d1: DiaObj, d2: DiaObj):
    """Every DiaMor d1 -> d2, in canonical order: shape functors as
    :func:`fc.all_functors` lists them, then label parts by
    :func:`fc.backtrack`, each shape morphism checked for naturality once
    both its ends have parts."""
    scat, S, T = d1.scat, d1.labels, d2.labels
    out = []
    for a in fc.all_functors(d1.shape, d2.shape):
        for lt in fc.backtrack(d1.shape.objects,
                               lambda i, _: scat.hom(S.ob(i), T.ob(a.ob(i))),
                               fc.naturality(S, a.then(T))):
            out.append(DiaMor(d1, d2, a, dict(lt)))
    return out


def two_morphisms(f: DiaMor, g: DiaMor):
    """All 2-morphisms f => g: the natural transformations mu of the shape
    maps with mu^* T o f = g, found by one :func:`fc.backtrack`."""
    a, b = f.shape_map, g.shape_map
    if f.src is not g.src or f.tgt is not g.tgt \
            or a.source is not b.source or a.target is not b.target:
        return []
    scat, T, J = f.src.scat, f.tgt.labels, a.target
    natural = fc.naturality(a, b)

    def fits(i, mu):
        return natural(i, mu) and \
            scat.comp(T.mo(mu[i]), f.label_transf[i]) == g.label_transf[i]

    return [Dia2Mor(f, g, fc.NatTransf(a, b, dict(mu))) for mu in fc.backtrack(
        a.source.objects, lambda i, _: J.hom(a.ob(i), b.ob(i)), fits)]


# ---------------------------------------------------------------------------
# comma fiber products


def _pullback_label(scat, a, b):
    """Label of a comma object: the target of a and b is shared; when one
    leg is an identity the other side is taken verbatim, otherwise the
    canonical pullback.  Returns (label, leg to dom a, leg to dom b)."""
    if scat.is_identity(a):
        return scat.dom(b), b, scat.id_of(scat.dom(b))
    if scat.is_identity(b):
        return scat.dom(a), scat.id_of(scat.dom(a)), a
    pb = fc.pullback(scat, a, b)
    if pb is None:
        raise LimitAbsent("comma label pullback of (%r, %r) absent" % (a, b))
    return pb


def comma_fiber_product(p: DiaMor, q: DiaMor):
    """The non-commutative fiber product of p : (I,S) -> (K,U) and
    q : (J,T) -> (K,U); shape is the comma category I x_{/K} J.

    Returns (DiaObj, projection DiaMor to p.src, projection DiaMor to q.src).
    """
    if p.tgt is not q.tgt and p.tgt.key() != q.tgt.key():
        raise TargetMismatch("comma factors must share their target")
    scat = p.src.scat
    S, T, U = p.src.labels, q.src.labels, p.tgt.labels
    shape, pr_i, pr_j, okey, mkey = fc.comma_category(p.shape_map, q.shape_map)
    label_ob, leg_s, leg_t = {}, {}, {}
    for (i, j, phi), oid in okey.items():
        a = scat.comp(U.mo(phi), p.label_transf[i])    # S(i) -> U(beta j)
        b = q.label_transf[j]                          # T(j) -> U(beta j)
        lab, la, lb = _pullback_label(scat, a, b)
        label_ob[oid] = lab
        leg_s[oid] = la
        leg_t[oid] = lb
    label_mo = {}
    for (o1, o2, u, v), mid in mkey.items():
        want_s = scat.comp(S.mo(u), leg_s[o1])
        want_t = scat.comp(T.mo(v), leg_t[o1])
        label_mo[mid] = fc.factor(scat, label_ob[o1], label_ob[o2],
                                  [(leg_s[o2], want_s), (leg_t[o2], want_t)])
        if label_mo[mid] is None:
            raise LimitAbsent("no unique comma label map at %r" % mid)
    labels = fc.FinFunctor("lbl", shape, scat, label_ob, label_mo)
    dia = DiaObj(shape, labels, "%s x/%s %s" % (p.src.name, p.tgt.name, q.src.name))
    proj_p = DiaMor(dia, p.src, pr_i, {oid: leg_s[oid] for oid in label_ob}, "pr1")
    proj_q = DiaMor(dia, q.src, pr_j, {oid: leg_t[oid] for oid in label_ob}, "pr2")
    dia.comma_okey = okey
    dia.comma_mkey = mkey
    return dia, proj_p, proj_q


def comma_rows(comma, iso=None):
    """What `induced_rows` reads of a comma (dia, pr to p.src, pr to E) in
    the names `iso` gives (its own when None): object rows (name, (i, e,
    phi), label, leg to p.src, leg to E) and morphism rows (name, n1, n2, u,
    v) with n1, n2 the row numbers of its ends, both sorted by name, and the
    maps (i, e, phi) -> row number and (n1, n2, u, v) -> name."""
    c, c_p, c_q = comma
    ob = iso.object_map if iso else {o: o for o in c.shape.objects}
    mo = iso.morphism_map if iso else {m.id: m.id for m in c.shape.morphisms}
    order = sorted(c.comma_okey.items(), key=lambda ko: ob[ko[1]])
    row_of = {o: n for n, (k, o) in enumerate(order)}
    objs = [(ob[o], k, c.labels.ob(o), c_p.label_transf[o], c_q.label_transf[o])
            for k, o in order]
    mkeys = {(row_of[o1], row_of[o2], u, v): mo[m]
             for (o1, o2, u, v), m in c.comma_mkey.items()}
    mors = sorted((m,) + k for k, m in mkeys.items())
    return objs, {k: n for n, (k, o) in enumerate(order)}, mors, mkeys


def induced_rows(w: DiaMor, rows1, rows2):
    """`induced_comma_map` between two `comma_rows` as (object pairs,
    morphism pairs, label parts) in their names, sorted by source name, or
    None when an object has no unique label map."""
    (objs1, _, mors1, _), (objs2, row2, _, mkeys2) = rows1, rows2
    scat, a, wl = w.src.scat, w.shape_map, w.label_transf
    image, labels = [], []
    for name, (i, e, phi), lab, leg_s, leg_t in objs1:
        n = row2[(a.object_map[i], e, phi)]
        _, _, lab2, leg_s2, leg_t2 = objs2[n]
        h = fc.factor(scat, lab, lab2,
                      [(leg_s2, scat.comp(wl[i], leg_s)), (leg_t2, leg_t)])
        if h is None:
            return None
        image.append(n)
        labels.append((name, h))
    return (tuple((row[0], objs2[n][0]) for row, n in zip(objs1, image)),
            tuple((name, mkeys2[(image[n1], image[n2], a.morphism_map[u], v)])
                  for name, n1, n2, u, v in mors1),
            tuple(labels))


def induced_comma_map(w: DiaMor, comma1, comma2):
    """For a strict triangle p2 o w = p1 over a common target and the comma
    products comma1 = comma_fiber_product(p1, q) and comma2 =
    comma_fiber_product(p2, q) with one probe q : E -> target, the induced
    morphism

        p1.src x_{/target} E  ->  p2.src x_{/target} E,

    `induced_rows` on the commas' own names.  The triangle is a precondition
    and is not checked: the caller takes p1 from a composition table, such
    as a `DiagramUniverse.comp` that has passed its `validate`.
    """
    parts = induced_rows(w, comma_rows(comma1), comma_rows(comma2))
    if parts is None:
        raise LimitAbsent("no unique induced comma label")
    (c1, *_), (c2, *_), (omap, mmap, lt) = comma1, comma2, parts
    return DiaMor(c1, c2, fc.FinFunctor("w_k", c1.shape, c2.shape, omap, mmap), lt, "induced")


# ---------------------------------------------------------------------------
# Grothendieck construction


class DiaFunctor:
    """A strict functor from a finite base category into diagrams: an
    object assignment a -> DiaObj and a morphism assignment m -> DiaMor."""

    def __init__(self, base: fc.FinCat, ob, mo, name="F"):
        self.base = base
        self.ob = dict(ob)
        self.mo = dict(mo)
        self.name = name

    def validate(self):
        for a in self.base.objects:
            self.ob[a].validate()
        for m in self.base.morphisms:
            dm = self.mo[m.id]
            dm.validate()
            if dm.src.key() != self.ob[m.dom].key() or dm.tgt.key() != self.ob[m.cod].key():
                raise InvalidFunctor("diagram functor endpoints wrong at %r" % m.id)
        for a in self.base.objects:
            if self.mo[self.base.id_of(a)].key() != DiaMor.identity(self.ob[a]).key():
                raise InvalidFunctor("diagram functor not strict at id_%r" % a)
        for (g, f), h in self.base.compose_table.items():
            if self.mo[f].then(self.mo[g]).key() != self.mo[h].key():
                raise InvalidFunctor("diagram functor not strict at (%r,%r)" % (g, f))
        return self


def grothendieck_construction(F: DiaFunctor):
    """int F = (int I, S): objects (a, i), morphisms (m, g) with
    g : alpha_m(i) -> i', labeled S_a(i).  Returns (DiaObj, projection
    functor to the base, fiber inclusion DiaMors)."""
    A = F.base
    shape_of = {a: F.ob[a].shape for a in A.objects}
    okey = {(a, i): "(%s|%s)" % (a, i) for a in A.objects for i in shape_of[a].objects}
    at = {oid: k for k, oid in okey.items()}
    arrows = []
    for a in A.objects:
        for m in A.out(a):
            a2 = A.cod(m)
            am = F.mo[m].shape_map
            for i in shape_of[a].objects:
                for g in shape_of[a2].out(am.ob(i)):
                    src, tgt = okey[(a, i)], okey[(a2, shape_of[a2].cod(g))]
                    arrows.append((src, tgt, (m, g), "(%s|%s):%s->%s" % (m, g, src, tgt)))

    def compose(d2, d1):
        (m2, g2), (m, g) = d2, d1
        return A.comp(m2, m), shape_of[A.cod(m2)].comp(g2, F.mo[m2].shape_map.mo(g))

    def identity(oid):
        a, i = at[oid]
        return A.id_of(a), shape_of[a].id_of(i)

    shape, mkey = fc.keyed_category("int(%s)" % F.name, list(okey.values()), arrows,
                                    compose, identity)
    scat = F.ob[A.objects[0]].scat
    lab_ob = {okey[(a, i)]: F.ob[a].labels.ob(i) for (a, i) in okey}
    lab_mo = {mid: scat.comp(F.ob[A.cod(m)].labels.mo(g), F.mo[m].label_transf[at[src][1]])
              for (src, _, m, g), mid in mkey.items()}
    labels = fc.FinFunctor("lbl", shape, scat, lab_ob, lab_mo)
    dia = DiaObj(shape, labels, "int(%s)" % F.name)
    proj = fc.FinFunctor("proj", shape, A,
                         {okey[(a, i)]: a for (a, i) in okey},
                         {mid: k[2] for k, mid in mkey.items()})
    incl = {}
    for a in A.objects:
        Ia = shape_of[a]
        incl[a] = DiaMor(
            F.ob[a], dia,
            fc.FinFunctor("inc_%s" % a, Ia, shape,
                          {i: okey[(a, i)] for i in Ia.objects},
                          {m.id: mkey[(okey[(a, m.dom)], okey[(a, m.cod)], A.id_of(a), m.id)]
                           for m in Ia.morphisms}),
            {i: scat.id_of(F.ob[a].labels.ob(i)) for i in Ia.objects},
            "iota_%s" % a)
    return dia, proj, incl


def span_diafunctor(f: DiaMor, g: DiaMor, name="X"):
    """A span-shaped diagram functor from two morphisms with common source:
    b <-f- a -g-> c."""
    from .fixtures import span_shape
    if f.src is not g.src:
        raise EndpointMismatch("span legs must share their source")
    sh = span_shape()
    ob = {"a": f.src, "b": f.tgt, "c": g.tgt}
    mo = {sh.id_of("a"): DiaMor.identity(f.src),
          sh.id_of("b"): DiaMor.identity(f.tgt),
          sh.id_of("c"): DiaMor.identity(g.tgt),
          "a<=b": f, "a<=c": g}
    return DiaFunctor(sh, ob, mo, name)


# ---------------------------------------------------------------------------
# nerves and hom diagrams


class LabeledNerve(sp.SplitSimpObj):
    """The nerve of (c, labels) as a split object: a chain is carried by the
    label of its first object, d_0's part is the label of its first arrow.
    `label` and `part` are written on first read, each chain taking both
    from its parent (the last entry of its row); `chain_of` is the nerve's."""

    def __init__(self, labels: fc.FinFunctor, uset: sp.Nerve, name):
        self.scat, self.labels, self.uset, self.name = labels.target, labels, uset, name

    chain_of = property(lambda self: self.uset.chain_of)

    @functools.cached_property
    def label(self):
        carried = [[self.labels.ob(x) for x in self.uset.objects]]
        for k in range(1, self.trunc + 1):
            carried.append([carried[-1][row[-1]] for row in self.uset.rows[k]])
        return dict(zip(itertools.chain(*self.levels), itertools.chain(*carried)))

    @functools.cached_property
    def part(self):
        nerve, label, part, moved = self.uset, self.label, {}, []
        for k in range(1, self.trunc + 1):
            moved = ([self.labels.mo(nerve.mids[a]) for a in nerve.arrows[1]] if k == 1
                     else [moved[row[-1]] for row in nerve.rows[k]])
            for sid, p in zip(self.levels[k], moved):
                part[(sid, 0)] = p
                part.update(((sid, i), self.scat.id_of(label[sid])) for i in range(1, k + 1))
        return part


def nerve(d: DiaObj, trunc: int) -> sp.SplitSimpObj:
    """The nerve N(I, S): chains labeled by the value at their first
    object."""
    return sp.nerve_labeled(d.shape, d.labels, trunc, "N(%s)" % d.name)


def nerve_mor(m: DiaMor, trunc: int, na=None, nb=None) -> sp.SplitMor:
    """N applied to a morphism of diagrams (optionally against pre-built
    nerves of the endpoints)."""
    na = na or nerve(m.src, trunc)
    nb = nb or nerve(m.tgt, trunc)
    val, part = {}, {}
    for ids in na.levels:
        for sid in ids:
            chain = na.chain_of[sid]
            val[sid] = sp.chain_image(m.shape_map, chain)
            part[sid] = m.label_transf[chain[0]]
    return sp.SplitMor(na, nb, val, part, "N(%s)" % m.name)


def nerve_diagram(F: DiaFunctor, trunc: int):
    """Nerves of every value of a diagram functor, with the induced
    morphisms between the shared nerve objects."""
    from .homotopy import SplitDiagram
    nerves = {a: nerve(F.ob[a], trunc) for a in F.base.objects}
    mors = {m.id: nerve_mor(F.mo[m.id], trunc, nerves[m.dom], nerves[m.cod])
            for m in F.base.morphisms}
    return SplitDiagram(F.base, nerves, mors, "N(%s)" % F.name)


def hom_diagram(site: Site, x, d: DiaObj):
    """The category of elements of i -> Hom(x, S(i)) with its projection
    to the shape of d (a discrete-fiber opfibration), for an object x of
    the site.  The category carries the key maps `hom_okey[(i, h)]` and
    `hom_mkey[(i, h, phi)]` of :func:`fincat.elements`.
    """
    scat, cat = d.scat, site.cat
    if x not in cat.objects:
        raise ObjectNotInTarget("object %r not in %r" % (x, cat.name))
    fibers = [(i, cat.hom(x, d.labels.ob(i))) for i in d.shape.objects]

    def act(phi, h):
        return scat.comp(d.labels.mo(phi), h)

    cat_el, okey, mkey = fc.elements(
        "Hom(%s,%s)" % (x, d.name), fibers,
        {i: [(phi, d.shape.cod(phi)) for phi in d.shape.out(i)] for i in d.shape.objects},
        act, d.shape.compose_table, d.shape.identity,
        lambda i, t: "(%s|%s)" % (i, t),
        lambda i, phi, src, tgt: "(%s):%s->%s" % (phi, src, tgt))
    proj = fc.FinFunctor("proj", cat_el, d.shape,
                         {oid: i for (i, t), oid in okey.items()},
                         {mid: phi for (i, t, phi), mid in mkey.items()})
    cat_el.hom_okey, cat_el.hom_mkey = okey, mkey
    return cat_el, proj
