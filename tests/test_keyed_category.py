"""Categories built by `fincat.keyed_category` against the code they replaced.

The `reference_*` functions keep the earlier hand-written constructions of
the poset, product, comma (and with it the slices), twisted-arrow,
Grothendieck and localized categories, each with its own morphism,
identity and composition loops.  The builder must give the same object
and morphism ids in the same order, the same identities and composition
table, and the same key and projection maps; every output must validate.
"""

import random

import pytest

from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import fractions as fr
from diacats import randgen as rg

PS = fx.pseudocircle_site()


def reference_poset_category(name, elements, leq):
    elements = list(elements)
    mors, identity, hom = [], {}, {}
    for a in elements:
        for b in elements:
            if leq(a, b):
                mid = "%s<=%s" % (a, b)
                mors.append(fc.Mor(mid, a, b))
                hom[(a, b)] = mid
                if a == b:
                    identity[a] = mid
    comp = {}
    for (a, b), f in hom.items():
        for (b2, c), g in hom.items():
            if b2 == b:
                comp[(g, f)] = hom[(a, c)]
    return fc.FinCat(name, elements, mors, identity, comp)


def reference_product_category(c, d):
    objs = ["(%s,%s)" % (x, y) for x in c.objects for y in d.objects]
    mors, identity, comp = [], {}, {}
    mid = {}
    for f in c.morphisms:
        for g in d.morphisms:
            m = "(%s,%s)" % (f.id, g.id)
            mid[(f.id, g.id)] = m
            mors.append(fc.Mor(m, "(%s,%s)" % (f.dom, g.dom), "(%s,%s)" % (f.cod, g.cod)))
    for x in c.objects:
        for y in d.objects:
            identity["(%s,%s)" % (x, y)] = mid[(c.id_of(x), d.id_of(y))]
    for (f1, g1), m1 in mid.items():
        for (f2, g2), m2 in mid.items():
            if c.cod(f2) == c.dom(f1) and d.cod(g2) == d.dom(g1):
                comp[(m1, m2)] = mid[(c.comp(f1, f2), d.comp(g1, g2))]
    return fc.FinCat("%sx%s" % (c.name, d.name), objs, mors, identity, comp)


def reference_comma_category(F, G):
    A, B, C = F.source, G.source, F.target
    objs, okey = [], {}
    for a in A.objects:
        for b in B.objects:
            for phi in C.hom(F.ob(a), G.ob(b)):
                oid = "(%s|%s|%s)" % (a, b, phi)
                okey[(a, b, phi)] = oid
                objs.append(oid)
    mors, mkey, identity = [], {}, {}
    for (a, b, phi), oid in okey.items():
        for (a2, b2, phi2), oid2 in okey.items():
            for u in A.hom(a, a2):
                for v in B.hom(b, b2):
                    if C.comp(phi2, F.mo(u)) == C.comp(G.mo(v), phi):
                        mid = "(%s|%s):%s->%s" % (u, v, oid, oid2)
                        mkey[(oid, oid2, u, v)] = mid
                        mors.append(fc.Mor(mid, oid, oid2))
                        if u == A.id_of(a) and v == B.id_of(b) and oid == oid2:
                            identity[oid] = mid
    comp = {}
    by_src = {}
    for (o1, o2, u, v), mid in mkey.items():
        by_src.setdefault(o1, []).append((o1, o2, u, v, mid))
    for (o1, o2, u, v), mid in mkey.items():
        for (p1, p2, u2, v2, mid2) in by_src.get(o2, []):
            comp[(mkey[(o2, p2, u2, v2)], mid)] = mkey[(o1, p2, A.comp(u2, u), B.comp(v2, v))]
    cat = fc.FinCat("(%s/%s)" % (F.name, G.name), objs, mors, identity, comp)
    proj_a = fc.FinFunctor("pr1", cat, A, {okey[k]: k[0] for k in okey},
                           {mid: u for (o1, o2, u, v), mid in mkey.items()})
    proj_b = fc.FinFunctor("pr2", cat, B, {okey[k]: k[1] for k in okey},
                           {mid: v for (o1, o2, u, v), mid in mkey.items()})
    return cat, proj_a, proj_b, okey, mkey


def reference_twisted_arrow(I, variant):
    if variant == "tw":
        objs = [m.id for m in I.morphisms]
        mors, mkey, identity = [], {}, {}
        for nu in I.morphisms:
            for nu2 in I.morphisms:
                for a in I.hom(nu.dom, nu2.dom):
                    for b in I.hom(nu2.cod, nu.cod):
                        if I.comp(b, I.comp(nu2.id, a)) == nu.id:
                            mid = "(%s|%s):%s->%s" % (a, b, nu.id, nu2.id)
                            mkey[(nu.id, nu2.id, a, b)] = mid
                            mors.append(fc.Mor(mid, nu.id, nu2.id))
                            if nu.id == nu2.id and I.is_identity(a) and I.is_identity(b):
                                identity[nu.id] = mid
        comp = {}
        for (o1, o2, a, b), m1 in mkey.items():
            for (p1, p2, a2, b2), m2 in mkey.items():
                if p1 == o2:
                    comp[(m2, m1)] = mkey[(o1, p2, I.comp(a2, a), I.comp(b, b2))]
        cat = fc.FinCat("tw(%s)" % I.name, objs, mors, identity, comp)
        pi1 = fc.FinFunctor("pi1", cat, I, {m.id: I.dom(m.id) for m in I.morphisms},
                            {mid: a for (o1, o2, a, b), mid in mkey.items()})
        pi3 = fc.FinFunctor("pi3", cat, I.opposite(),
                            {m.id: I.cod(m.id) for m in I.morphisms},
                            {mid: b for (o1, o2, a, b), mid in mkey.items()})
        return cat, pi1, pi3, None
    pairs = [(f.id, g.id) for f in I.morphisms for g in I.morphisms
             if I.cod(f.id) == I.dom(g.id)]
    okey = {p: "(%s,%s)" % p for p in pairs}
    objs = [okey[p] for p in pairs]
    mors, mkey, identity = [], {}, {}
    for (f1, f2) in pairs:
        for (g1, g2) in pairs:
            for a in I.hom(I.dom(f1), I.dom(g1)):
                for b in I.hom(I.cod(g1), I.cod(f1)):
                    if I.comp(b, I.comp(g1, a)) != f1:
                        continue
                    for c in I.hom(I.cod(f2), I.cod(g2)):
                        if I.comp(c, I.comp(f2, b)) == g2:
                            mid = "(%s|%s|%s):%s->%s" % (a, b, c, okey[(f1, f2)], okey[(g1, g2)])
                            mkey[((f1, f2), (g1, g2), a, b, c)] = mid
                            mors.append(fc.Mor(mid, okey[(f1, f2)], okey[(g1, g2)]))
                            if (f1, f2) == (g1, g2) and I.is_identity(a) \
                                    and I.is_identity(b) and I.is_identity(c):
                                identity[okey[(f1, f2)]] = mid
    comp = {}
    for (o1, o2, a, b, c), m1 in mkey.items():
        for (p1, p2, a2, b2, c2), m2 in mkey.items():
            if p1 == o2:
                comp[(m2, m1)] = mkey[(o1, p2, I.comp(a2, a), I.comp(b, b2), I.comp(c2, c))]
    cat = fc.FinCat("twc(%s)" % I.name, objs, mors, identity, comp)
    pi1 = fc.FinFunctor("pi1", cat, I, {okey[p]: I.dom(p[0]) for p in pairs},
                        {mid: k[2] for k, mid in mkey.items()})
    pi3 = fc.FinFunctor("pi3", cat, I, {okey[p]: I.cod(p[1]) for p in pairs},
                        {mid: k[4] for k, mid in mkey.items()})
    mu = fc.NatTransf(pi1, pi3, {okey[(f, g)]: I.comp(g, f) for (f, g) in pairs})
    return cat, pi1, pi3, mu


def reference_grothendieck_construction(F):
    A = F.base
    objs, okey = [], {}
    for a in A.objects:
        for i in F.ob[a].shape.objects:
            oid = "(%s|%s)" % (a, i)
            okey[(a, i)] = oid
            objs.append(oid)
    mors, mkey, identity = [], {}, {}
    for a in A.objects:
        for m in A.out(a):
            a2 = A.cod(m)
            am = F.mo[m].shape_map
            for i in F.ob[a].shape.objects:
                for g in F.ob[a2].shape.out(am.ob(i)):
                    mid = "(%s|%s):%s->%s" % (m, g, okey[(a, i)],
                                              okey[(a2, F.ob[a2].shape.cod(g))])
                    mkey[(a, i, m, g)] = mid
                    mors.append(fc.Mor(mid, okey[(a, i)],
                                       okey[(a2, F.ob[a2].shape.cod(g))]))
                    if m == A.id_of(a) and g == F.ob[a].shape.id_of(i):
                        identity[okey[(a, i)]] = mid
    comp = {}
    for (a, i, m, g), mid in mkey.items():
        a2 = A.cod(m)
        i2 = F.ob[a2].shape.cod(g)
        for m2 in A.out(a2):
            a3 = A.cod(m2)
            am2 = F.mo[m2].shape_map
            for g2 in F.ob[a3].shape.out(am2.ob(i2)):
                mid2 = mkey[(a2, i2, m2, g2)]
                mm = A.comp(m2, m)
                gg = F.ob[a3].shape.comp(g2, am2.mo(g))
                comp[(mid2, mid)] = mkey[(a, i, mm, gg)]
    shape = fc.FinCat("int(%s)" % F.name, objs, mors, identity, comp)
    scat = F.ob[A.objects[0]].scat
    lab_ob = {okey[(a, i)]: F.ob[a].labels.ob(i) for (a, i) in okey}
    lab_mo = {}
    for (a, i, m, g), mid in mkey.items():
        a2 = A.cod(m)
        lab_mo[mid] = scat.comp(F.ob[a2].labels.mo(g), F.mo[m].label_transf[i])
    labels = fc.FinFunctor("lbl", shape, scat, lab_ob, lab_mo)
    dia = dg.DiaObj(shape, labels, "int(%s)" % F.name)
    proj = fc.FinFunctor("proj", shape, A, {okey[(a, i)]: a for (a, i) in okey},
                         {mid: k[2] for k, mid in mkey.items()})
    incl = {}
    for a in A.objects:
        Ia = F.ob[a].shape
        incl[a] = dg.DiaMor(
            F.ob[a], dia,
            fc.FinFunctor("inc_%s" % a, Ia, shape,
                          {i: okey[(a, i)] for i in Ia.objects},
                          {m.id: mkey[(a, m.dom, A.id_of(a), m.id)] for m in Ia.morphisms}),
            {i: scat.id_of(F.ob[a].labels.ob(i)) for i in Ia.objects},
            "iota_%s" % a)
    return dia, proj, incl


def reference_localized_as_fincat(lc_):
    c = lc_.base
    mors, identity, mid = [], {}, {}
    for (x, y), reps in sorted(lc_.homs.items()):
        for r in reps:
            i = "[%s|%s]:%s->%s" % (r.f, r.w, x, y)
            mid[(x, y, r)] = i
            mors.append(fc.Mor(i, x, y))
    for x in c.objects:
        identity[x] = mid[(x, x, lc_.loc[c.id_of(x)])]
    comp = {}
    for (x, y), reps1 in lc_.homs.items():
        for (y2, t), reps2 in lc_.homs.items():
            if y2 != y:
                continue
            for r1 in reps1:
                for r2 in reps2:
                    comp[(mid[(y, t, r2)], mid[(x, y, r1)])] = \
                        mid[(x, t, lc_.comp_table[(r2, r1)])]
    return fc.FinCat("%s[W^-1]" % c.name, c.objects, mors, identity, comp).validate()


# ---------------------------------------------------------------------------
# field-by-field comparison


def assert_same_cat(got, ref):
    assert got.validate() is got
    assert (got.name, got.objects, got.morphisms) == (ref.name, ref.objects, ref.morphisms)
    assert list(got.identity.items()) == list(ref.identity.items())
    assert got.compose_table == ref.compose_table


def assert_same_functor(got, ref):
    assert got.validate() is got
    assert (got.name, got.source.name, got.target.name) == \
        (ref.name, ref.source.name, ref.target.name)
    assert list(got.object_map.items()) == list(ref.object_map.items())
    assert list(got.morphism_map.items()) == list(ref.morphism_map.items())


def assert_same_comma(got, ref):
    assert_same_cat(got[0], ref[0])
    for g, r in zip(got[1:-2], ref[1:-2]):
        assert_same_functor(g, r)
    assert list(got[-2].items()) == list(ref[-2].items())
    assert list(got[-1].items()) == list(ref[-1].items())


def cyclic_group(order):
    ids = ["g%d" % i for i in range(order)]
    return fc.FinCat("Z/%d" % order, ["*"], [fc.Mor(i, "*", "*") for i in ids],
                     {"*": "g0"},
                     {(ids[a], ids[b]): ids[(a + b) % order]
                      for a in range(order) for b in range(order)}).validate()


FIXTURE_POSETS = {
    "fence": fx.fence_poset, "cone": fx.cone_poset, "span": fx.span_shape,
    "xi3": lambda: fx.xi_zigzag(3), "chain2": lambda: fc.chain_category(2),
    "discrete": lambda: fc.discrete_category("D", ["x", "y"]),
    "pseudocircle": lambda: PS.cat,
}


def categories():
    """The fixture posets, random posets 0-7, Z/2 and some of their products."""
    cats = {name: make() for name, make in FIXTURE_POSETS.items()}
    cats.update(("random%d" % s, rg.random_poset(random.Random(s), 4))
                for s in range(8))
    cats["Z2"] = cyclic_group(2)
    for a, b in (("fence", "Z2"), ("Z2", "chain2"), ("pseudocircle", "discrete"),
                 ("random1", "random2")):
        cats["%sx%s" % (a, b)] = fc.product_category(cats[a], cats[b])
    return cats


CATS = categories()


@pytest.mark.parametrize("name", list(FIXTURE_POSETS) + ["random%d" % s for s in range(8)])
def test_poset_category_matches_reference(name):
    c = CATS[name]
    leq = lambda a, b: bool(c.hom(a, b))  # noqa: E731
    if name == "pseudocircle":
        got = fx.subset_lattice("pseudocircle", fx.PSEUDOCIRCLE_OPENS)
    else:
        got = fc.poset_category(c.name, c.objects, leq)
    assert_same_cat(got, reference_poset_category(c.name, c.objects, leq))
    assert_same_cat(c, got)


@pytest.mark.parametrize("pair", [("fence", "Z2"), ("Z2", "chain2"),
                                  ("pseudocircle", "discrete"), ("random1", "random2"),
                                  ("Z2", "Z2"), ("cone", "span")])
def test_product_category_matches_reference(pair):
    c, d = CATS[pair[0]], CATS[pair[1]]
    assert_same_cat(fc.product_category(c, d), reference_product_category(c, d))


@pytest.mark.parametrize("name", list(CATS))
def test_slices_and_commas_match_reference(name):
    c = CATS[name]
    ident = fc.FinFunctor.identity(c)
    for j in c.objects:
        pt = fc.const_functor_at(c, j)
        cat, _, proj, okey, mkey = reference_comma_category(pt, ident)
        assert_same_comma(fc.slice_under(j, ident), (cat, proj, okey, mkey))
        cat, proj, _, okey, mkey = reference_comma_category(ident, pt)
        assert_same_comma(fc.slice_over(ident, j), (cat, proj, okey, mkey))
    arrows = fc.comma_category(ident, ident)
    assert_same_comma(arrows, reference_comma_category(ident, ident))
    # a comma of two functors that are not identities: dom, cod : C^2 -> C
    _, dom, cod, _, _ = arrows
    if len(arrows[0].objects) < 10:
        assert_same_comma(fc.comma_category(dom, cod), reference_comma_category(dom, cod))


@pytest.mark.parametrize("variant", ["tw", "twc"])
@pytest.mark.parametrize("name", list(CATS))
def test_twisted_arrow_matches_reference(name, variant):
    c = CATS[name]
    got, ref = fc.twisted_arrow(c, variant), reference_twisted_arrow(c, variant)
    assert_same_cat(got[0], ref[0])
    assert_same_functor(got[1], ref[1])
    assert_same_functor(got[2], ref[2])
    if variant == "twc":
        assert got[3].validate().components == ref[3].components
    else:
        assert got[3] is None


def assert_same_diamor(got, ref):
    assert got.validate() is got
    assert (got.src, got.tgt.name, got.name) == (ref.src, ref.tgt.name, ref.name)
    assert_same_functor(got.shape_map, ref.shape_map)
    assert list(got.label_transf.items()) == list(ref.label_transf.items())


@pytest.mark.parametrize("seed", range(6))
def test_grothendieck_construction_matches_reference(seed):
    F = rg.random_dia_functor(random.Random(seed), PS, 3, 2)
    (dia, proj, incl), (rdia, rproj, rincl) = \
        dg.grothendieck_construction(F), reference_grothendieck_construction(F)
    assert dia.validate() is dia and dia.name == rdia.name
    assert_same_cat(dia.shape, rdia.shape)
    assert_same_functor(dia.labels, rdia.labels)
    assert_same_functor(proj, rproj)
    assert list(incl) == list(rincl)
    for a in incl:
        assert_same_diamor(incl[a], rincl[a])


@pytest.mark.parametrize("case", ["chain2-all", "span-identities"])
def test_localized_as_fincat_matches_reference(case):
    c = fc.chain_category(2) if case == "chain2-all" else fx.span_shape()
    w = ({m.id for m in c.morphisms} if case == "chain2-all"
         else {c.id_of(x) for x in c.objects})
    lc_ = fr.localize_fractions(c, w)
    assert_same_cat(fr.localized_as_fincat(lc_), reference_localized_as_fincat(lc_))
