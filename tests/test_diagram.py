import pytest

from diacats import algtop as at
from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import localizer as lc
from diacats import simplicial as sp
from diacats.errors import ObjectNotInTarget
from diacats.site import Site

PS = fx.pseudocircle_site()
TS = fx.terminal_site()


def labeled_fence():
    fence = fx.fence_poset()
    lbls = {"a": "{a}", "b": "{b}", "U": "{a,b,c}", "V": "{a,b,d}"}
    lab = fc.FinFunctor("S", fence, PS.cat, lbls,
                        {m.id: "%s<=%s" % (lbls[m.dom], lbls[m.cod])
                         for m in fence.morphisms}).validate()
    return dg.DiaObj(fence, lab, "fd").validate()


def homotopy_related(a, b):
    """a and b fall in one class of `lc.homotopy_classes` over a universe
    of every diagram morphism parallel to them."""
    u = lc.DiagramUniverse(Site(a.src.scat))
    for m in dg.all_dia_mors(a.src, a.tgt):
        u.add_morphism(m)
    ia, ib = u.lookup(a), u.lookup(b)
    return any(ia in c and ib in c for c in lc.homotopy_classes(u).values())


def test_comma_fiber_identity_second_leg():
    d = labeled_fence()
    cfp, p1, p2 = dg.comma_fiber_product(dg.DiaMor.identity(d),
                                         dg.DiaMor.identity(d))
    for obj in [cfp, p1, p2]:
        obj.validate()
    # shape is the arrow category of the fence
    assert len(cfp.shape.objects) == len(d.shape.morphisms)
    # the nerve of the comma is weakly equivalent to the nerve of d
    nv1 = dg.nerve(cfp, 3)
    nv2 = dg.nerve(d, 3)
    h1, h2 = at.homology(nv1.uset), at.homology(nv2.uset)
    assert h1.betti == h2.betti


def test_comma_l3_test_object_label_is_meet():
    # w x_{/(K,U)} (k, U_{i,k}) with one-object second factor
    d = labeled_fence()
    k_dia = dg.point_dia(PS.cat, "{a,b,c,d}")
    collapse = dg.DiaMor(
        d, k_dia,
        fc.FinFunctor("!", d.shape, k_dia.shape,
                      {x: "*" for x in d.shape.objects},
                      {m.id: "id_*" for m in d.shape.morphisms}),
        {x: "%s<={a,b,c,d}" % d.labels.ob(x) for x in d.shape.objects}).validate()
    probe = dg.DiaMor(
        dg.point_dia(PS.cat, "{a,b,d}"), k_dia,
        fc.FinFunctor("k", fc.terminal_category(), k_dia.shape,
                      {"*": "*"}, {"id_*": "id_*"}),
        {"*": "{a,b,d}<={a,b,c,d}"}).validate()
    cfp, p1, p2 = dg.comma_fiber_product(collapse, probe)
    for obj in [cfp, p1, p2]:
        obj.validate()
    labels = {cfp.labels.ob(o) for o in cfp.shape.objects}
    # each label is the meet of the fence label with {a,b,d}
    assert labels == {"{a}", "{b}", "{a,b}", "{a,b,d}"}


def test_comma_one_object_over_top_is_meet():
    u = dg.point_dia(PS.cat, "{a,b,c}")
    v = dg.point_dia(PS.cat, "{a,b,d}")
    top = dg.point_dia(PS.cat, "{a,b,c,d}")
    pu = dg.DiaMor(u, top, fc.FinFunctor.identity(u.shape),
                   {"*": "{a,b,c}<={a,b,c,d}"}).validate()
    pv = dg.DiaMor(v, top, fc.FinFunctor.identity(v.shape),
                   {"*": "{a,b,d}<={a,b,c,d}"}).validate()
    cfp, _, _ = dg.comma_fiber_product(pu, pv)
    assert [cfp.labels.ob(o) for o in cfp.shape.objects] == ["{a,b}"]


def test_grothendieck_constant_functor():
    A = fx.fence_poset()
    pt = dg.point_dia(TS.cat, "*").validate()
    F = dg.DiaFunctor(A, {a: pt for a in A.objects},
                      {m.id: dg.DiaMor.identity(pt) for m in A.morphisms}).validate()
    gro, proj, incl = dg.grothendieck_construction(F)
    for obj in [gro, proj, *incl.values()]:
        obj.validate()
    iso = fc.find_isomorphism(gro.shape, A)
    assert iso is not None
    ok, _ = fc.is_opfibration(proj)
    assert ok


def test_grothendieck_span_and_homotopy_related():
    pt = dg.point_dia(TS.cat, "*")
    c1 = fc.chain_category(1)
    d1 = dg.DiaObj(c1, fc.FinFunctor.constant(c1, TS.cat, "*"), "d1").validate()
    f = dg.all_dia_mors(pt, d1)[0]
    g = dg.all_dia_mors(pt, d1)[1]
    F = dg.span_diafunctor(f, g).validate()
    gro, proj, incl = dg.grothendieck_construction(F)
    for obj in [gro, proj, *incl.values()]:
        obj.validate()
    assert fc.is_opfibration(proj)[0]
    # iota_1 f and iota_3 g agree up to zig-zags of 2-morphisms through iota_2
    m1 = f.then(incl["b"])
    m2 = g.then(incl["c"])
    assert homotopy_related(m1, m2)


def test_grothendieck_fiber_example():
    pt = dg.point_dia(TS.cat, "*")
    c1 = fc.chain_category(1)
    d1 = dg.DiaObj(c1, fc.FinFunctor.constant(c1, TS.cat, "*"), "d1").validate()
    base = fc.chain_category(1)
    F = dg.DiaFunctor(base, {"0": pt, "1": d1},
                      {base.id_of("0"): dg.DiaMor.identity(pt),
                       base.id_of("1"): dg.DiaMor.identity(d1),
                       "0<=1": dg.all_dia_mors(pt, d1)[0]}).validate()
    gro, proj, _ = dg.grothendieck_construction(F)
    assert len(gro.shape.objects) == 3
    assert fc.is_opfibration(proj)[0]
    fib, _ = fc.fiber(proj, "1")
    assert fc.find_isomorphism(fib, c1) is not None


def test_homotopy_related_trivial_and_negative():
    d = labeled_fence()
    m = dg.DiaMor.identity(d)
    assert homotopy_related(m, m)
    disc = fc.discrete_category("2", ["x", "y"])
    dd = dg.DiaObj(disc, fc.FinFunctor.constant(disc, TS.cat, "*")).validate()
    pt = dg.point_dia(TS.cat, "*")
    ms = dg.all_dia_mors(pt, dd)
    assert len(ms) == 2 and not homotopy_related(ms[0], ms[1])


def test_nerve_label_rule():
    c1 = fc.chain_category(1)
    lab = fc.FinFunctor("S", c1, PS.cat,
                        {"0": "{a}", "1": "{a,b}"},
                        {"0<=0": PS.cat.id_of("{a}"),
                         "1<=1": PS.cat.id_of("{a,b}"),
                         "0<=1": "{a}<={a,b}"}).validate()
    d = dg.DiaObj(c1, lab).validate()
    nv = dg.nerve(d, 2)
    edge = nv.levels[1][0]
    assert nv.label[edge] == "{a}"             # S(alpha(0))
    assert nv.part[(edge, 0)] == "{a}<={a,b}"  # d_0 moves the carrier
    assert PS.cat.is_identity(nv.part[(edge, 1)])


def test_nerve_split_decomposition_against_chain_enumeration():
    d = labeled_fence()
    nv = dg.nerve(d, 3)
    shape = d.shape
    for n in range(4):
        chains = [c for c in _all_chains(shape, n)]
        assert len(nv.full_level(n)) == len(chains)


def _all_chains(cat, n):
    chains = [[(x,)] for x in cat.objects]
    out = [(x,) for x in cat.objects] if n == 0 else []
    level = [((x,), x) for x in cat.objects]
    for k in range(n):
        nxt = []
        for (tup, tail) in level:
            for m in cat.out(tail):
                nxt.append((tup + (m,), cat.cod(m)))
        level = nxt
    return [t for (t, _) in level] if n > 0 else out


def test_hom_diagram_examples():
    # X terminal-in-lattice with constant-top labels gives the shape itself
    fence = fx.fence_poset()
    d = dg.DiaObj(fence, fc.FinFunctor.constant(fence, PS.cat, "{a,b,c,d}")).validate()
    el, proj = dg.hom_diagram(PS, "{a}", d)
    proj.validate()
    assert fc.find_isomorphism(el, fence) is not None
    assert fc.is_opfibration(proj)[0]
    # empty homs give the empty category
    d2 = dg.DiaObj(fence, fc.FinFunctor.constant(fence, PS.cat, "{a}")).validate()
    el2, _ = dg.hom_diagram(PS, "{a,b,c,d}", d2)
    assert len(el2.objects) == 0
    # fiber of the projection is the discrete hom-set
    el3, proj3 = dg.hom_diagram(PS, "{a}", labeled_fence())
    for i in ("a", "U"):
        fib, _ = fc.fiber(proj3, i)
        assert all(fib.is_identity(m.id) for m in fib.morphisms)


def test_hom_refuses_an_x_not_in_the_site():
    """An empty Hom answer means no arrows, not a bad input: an x that is
    not an object of the site is refused."""
    d = labeled_fence()
    with pytest.raises(ObjectNotInTarget, match="'bogus'"):
        dg.hom_diagram(PS, "bogus", d)
    with pytest.raises(ObjectNotInTarget, match="'bogus'"):
        sp.hom_into(PS, "bogus", dg.nerve(d, 2))


def test_dia2mor_compatibility_enforced():
    pt = dg.point_dia(TS.cat, "*")
    c1 = fc.chain_category(1)
    d1 = dg.DiaObj(c1, fc.FinFunctor.constant(c1, TS.cat, "*")).validate()
    m0, m1 = dg.all_dia_mors(pt, d1)
    cells = dg.two_morphisms(m0, m1)
    assert len(cells) == 1
    assert not dg.two_morphisms(m1, m0)
