"""Categories of elements built by `fincat.elements` against the code they
replaced.

`reference_t_delta_op`, `reference_gadget_fiber` and `reference_hom_diagram`
keep the earlier hand-written constructions, each with its own object,
morphism, identity and composition loops (`reference_int_simpset` lives in
`test_homology_pipeline.py`).  The builder must give the same ids, the same
identities and composition table, insertion order included, and the same
key maps.
"""

import random

import pytest

from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import homotopy as ht
from diacats import randgen as rg
from diacats import simplicial as sp
from diacats.site import Site

from test_homotopy import gadget_fiber
from test_nerve_engine import cyclic_group

PS = fx.pseudocircle_site()
Z3 = Site(cyclic_group(3))


def reference_t_delta_op(trunc):
    objs = ["[%d]" % n for n in range(trunc + 1)]
    mors, identity, mid = [], {}, {}
    for n in range(trunc + 1):
        for m in range(trunc + 1):
            for g in sp.all_monotone(m, n):
                i = "o(%d->%d|%s)" % (n, m, ",".join(map(str, g)))
                mid[(n, m, g)] = i
                mors.append(fc.Mor(i, "[%d]" % n, "[%d]" % m))
                if n == m and g == sp.mt_id(n):
                    identity["[%d]" % n] = i
    comp = {}
    for (n, m, g), i1 in mid.items():
        for (m2, r, h), i2 in mid.items():
            if m2 == m:
                comp[(i2, i1)] = mid[(n, r, sp.mt_comp(g, h))]
    cat = fc.FinCat("DeltaOp<=%d" % trunc, objs, mors, identity, comp)
    cat.op_key = mid
    return cat


def reference_gadget_fiber(n, m, trunc):
    objs, okey2 = [], {}
    for k in range(trunc + 1):
        for g in sp.all_monotone(k, n):
            for h in sp.all_monotone(k, m):
                oid = "f(%s|%s)" % (",".join(map(str, g)), ",".join(map(str, h)))
                okey2[(g, h)] = oid
                objs.append(oid)
    mors, mkey2, identity = [], {}, {}
    for (g, h), oid in okey2.items():
        k = len(g) - 1
        for r in range(trunc + 1):
            for w in sp.all_monotone(r, k):
                tgt = (sp.mt_comp(g, w), sp.mt_comp(h, w))
                mid = "w(%s):%s" % (",".join(map(str, w)), oid)
                mkey2[(g, h, w)] = mid
                mors.append(fc.Mor(mid, oid, okey2[tgt]))
                if r == k and w == sp.mt_id(k):
                    identity[oid] = mid
    comp = {}
    for (g, h, w), mid in mkey2.items():
        k2 = len(w) - 1
        g2, h2 = sp.mt_comp(g, w), sp.mt_comp(h, w)
        for r in range(trunc + 1):
            for w2 in sp.all_monotone(r, k2):
                comp[(mkey2[(g2, h2, w2)], mid)] = mkey2[(g, h, sp.mt_comp(w, w2))]
    return fc.FinCat("gadget(%d,%d)" % (n, m), objs, mors, identity, comp)


def reference_hom_diagram(cat, x, d):
    scat = d.scat

    def homs(s):
        return [(m, None, m) for m in cat.hom(x, s)]

    objs, okey = [], {}
    for i in d.shape.objects:
        for tag, comp, h in homs(d.labels.ob(i)):
            oid = "(%s|%s)" % (i, tag)
            okey[(i, tag)] = (oid, comp, h)
            objs.append(oid)
    mors, mkey, identity = [], {}, {}
    for (i, tag), (oid, comp, h) in okey.items():
        for phi in d.shape.out(i):
            i2 = d.shape.cod(phi)
            h2 = scat.comp(d.labels.mo(phi), h)
            tag2 = ("%d:%s" % (comp, h2)) if comp is not None else h2
            oid2 = okey[(i2, tag2)][0]
            mid = "(%s):%s->%s" % (phi, oid, oid2)
            mkey[(i, tag, phi)] = mid
            mors.append(fc.Mor(mid, oid, oid2))
            if phi == d.shape.id_of(i):
                identity[oid] = mid
    comp_table = {}
    for (i, tag, phi), mid in mkey.items():
        i2 = d.shape.cod(phi)
        oid, comp, h = okey[(i, tag)]
        h2 = scat.comp(d.labels.mo(phi), h)
        tag2 = ("%d:%s" % (comp, h2)) if comp is not None else h2
        for phi2 in d.shape.out(i2):
            comp_table[(mkey[(i2, tag2, phi2)], mid)] = mkey[(i, tag, d.shape.comp(phi2, phi))]
    cat_el = fc.FinCat("Hom(%s,%s)" % (x, d.name), objs, mors, identity, comp_table)
    proj = fc.FinFunctor("proj", cat_el, d.shape,
                         {okey[k][0]: k[0] for k in okey},
                         {mid: k[2] for k, mid in mkey.items()})
    return cat_el, proj, okey, mkey


def assert_same_category(cat, ref):
    assert cat.name == ref.name
    assert cat.objects == ref.objects
    assert cat.morphisms == ref.morphisms
    assert list(cat.identity.items()) == list(ref.identity.items())
    assert list(cat.compose_table.items()) == list(ref.compose_table.items())


@pytest.mark.parametrize("trunc", range(5))
def test_t_delta_op_matches_reference(trunc):
    cat, ref = ht.t_delta_op(trunc), reference_t_delta_op(trunc)
    assert_same_category(cat, ref)
    assert list(cat.op_key.items()) == list(ref.op_key.items())


@pytest.mark.parametrize("trunc", [2, 3])
def test_gadget_fiber_matches_reference(trunc):
    for n in range(3):
        for m in range(3):
            assert_same_category(gadget_fiber(n, m, trunc)[0],
                                 reference_gadget_fiber(n, m, trunc))


def hom_diagram_inputs():
    """(site, x, d): each object of the pseudocircle, a poset whose Hom sets
    hold one arrow at most, against random diagrams, then diagrams over
    Z/3, whose Hom fibers hold three arrows each."""
    for seed in range(20):
        d = rg.random_diaobj(random.Random(seed), PS, 4)
        for x in PS.cat.objects:
            yield PS, x, d
    c1 = fc.chain_category(1)
    shift = fc.FinFunctor("S", c1, Z3.cat, {i: "*" for i in c1.objects},
                          {m.id: "g0" if c1.is_identity(m.id) else "g1"
                           for m in c1.morphisms})
    yield Z3, "*", dg.DiaObj(c1, shift, "shift")
    for seed in range(3):
        yield Z3, "*", rg.random_diaobj(random.Random(seed), Z3, 4)


def test_hom_diagram_matches_reference():
    for site, x, d in hom_diagram_inputs():
        el, proj = dg.hom_diagram(site, x, d)
        ref, rproj, rokey, rmkey = reference_hom_diagram(site.cat, x, d)
        assert_same_category(el, ref)
        assert proj.object_map == rproj.object_map
        assert proj.morphism_map == rproj.morphism_map
        assert list(el.hom_okey.items()) == [(k, v[0]) for k, v in rokey.items()]
        assert list(el.hom_mkey.items()) == list(rmkey.items())
