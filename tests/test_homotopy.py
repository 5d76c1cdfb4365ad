import random

import pytest

from diacats import algtop as at
from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import homotopy as ht
from diacats import randgen as rg
from diacats import simplicial as sp
from diacats.errors import BudgetExceeded, InvalidFunctor
from diacats.site import Site

PS = fx.pseudocircle_site()
TS = fx.terminal_site()


def test_int_amalg_counts_and_opfibration():
    c1 = fc.chain_category(1)
    d1 = dg.DiaObj(c1, fc.FinFunctor.constant(c1, TS.cat, "*")).validate()
    ia = ht.int_amalg(dg.nerve(d1, 2))
    ia.dia.validate()
    ia.proj.validate()
    assert len(ia.dia.shape.objects) == 2 + 3 + 4
    assert fc.is_opfibration(ia.proj)[0]
    const = sp.constant_split(TS.cat, "*", 2)
    ia0 = ht.int_amalg(const)
    tshape = ht.t_delta_op(2)
    assert fc.find_isomorphism(ia0.dia.shape, tshape) is not None


def test_counit_is_pure_diagram_type_and_natural_on_collapse():
    pt = dg.point_dia(PS.cat, "{a}")
    counit, ia = ht.counit_to_diagram(pt, 2)
    counit.validate()
    assert counit.is_pure_diagram_type()
    assert set(counit.shape_map.object_map.values()) == {"*"}


def counit_naturality_check(m: dg.DiaMor, trunc: int) -> bool:
    """Naturality of the counit in the diagram: for m : d -> d', the square
    through the element categories of the nerves commutes on the nose."""
    counit_src, ia_src = ht.counit_to_diagram(m.src, trunc)
    counit_tgt, ia_tgt = ht.counit_to_diagram(m.tgt, trunc)
    nm = dg.nerve_mor(m, trunc)
    # int applied to N(m): an element (n, v) maps to (n, N(m)(v))
    omap, mmap = {}, {}
    for oid, (n, v) in ia_src.index.items():
        omap[oid] = ia_tgt.okey[(n, nm.map_value(v))]
    for (n, v, g), mid in ia_src.mkey.items():
        mmap[mid] = ia_tgt.mkey[(n, nm.map_value(v), g)]
    shape_map = fc.FinFunctor("intN(m)", ia_src.dia.shape, ia_tgt.dia.shape,
                              omap, mmap).validate()
    int_m = dg.DiaMor(ia_src.dia, ia_tgt.dia, shape_map,
                      {oid: m.label_transf[counit_src.shape_map.ob(oid)]
                       for oid in ia_src.dia.shape.objects}).validate()
    lhs = int_m.then(counit_tgt)
    rhs = counit_src.then(m)
    return lhs.key() == rhs.key()


def test_counit_naturality_in_the_diagram():
    rng = random.Random(12)
    done = 0
    while done < 3:
        d1 = rg.random_diaobj(rng, PS, 3)
        d2 = rg.random_diaobj(rng, PS, 3)
        m = rg.random_diamor(rng, d1, d2)
        if m is None:
            continue
        assert counit_naturality_check(m, 2)
        done += 1


def test_counit_fiber_check_fence():
    d = dg.DiaObj(fx.fence_poset(),
                  fc.FinFunctor.constant(fx.fence_poset(), TS.cat, "*")).validate()
    rep = ht.counit_fiber_check(d, 2)
    assert all(iso for (_, iso, _) in rep)
    assert all(init is not None for (_, _, init) in rep)


def test_comparison_to_simp_fixtures():
    for sset in [sp.delta_simpset(0, 2), sp.delta_simpset(1, 2),
                 sp.boundary_delta(2, 2)]:
        x = sp.as_split(TS.cat, sset, "*")
        cmp_mor, _ = ht.comparison_to_simp(x, 2, 2, budget=400_000)
        v = at.quasi_iso(cmp_mor.underlying())
        assert v.ok, (sset.name, v.detail)


def test_comparison_to_simp_random():
    rng = random.Random(2024)
    for i in range(4):
        x = rg.random_split_terminal(rng, 2, 6).validate()
        cmp_mor, _ = ht.comparison_to_simp(x, 2, 2, budget=400_000)
        cmp_mor.validate()
        assert at.quasi_iso(cmp_mor.underlying()).ok


def reference_comparison_loop(x, ia, nerve_ia):
    """The per-chain loop `comparison_to_simp` ran before each chain's walk
    was extended from its parent's and each application was memoized: the
    whole operator walk is composed and applied again for every chain.
    Returns (val, part, the (phi, v0) key of every chain)."""
    mor_op = {mid: g for (n, v, g), mid in ia.mkey.items()}
    val, part, keys = {}, {}, {}
    for lev, ids in enumerate(nerve_ia.levels):
        for sid in ids:
            start_oid, ms = nerve_ia.chain_of[sid]
            n0, v0 = ia.index[start_oid]
            phi = [0]
            comp = sp.mt_id(n0)
            for m in ms:
                comp = sp.mt_comp(comp, mor_op[m])
                phi.append(comp[0])
            phi = tuple(phi)
            w, p = x.apply_with_part(phi, v0)
            val[sid] = w
            part[sid] = p
            keys[sid] = (phi, v0)
    return val, part, keys


def reference_int_amalg(x, trunc):
    """`int_amalg`'s labels and projection as built before each part was
    read off the application in `int_simpset`: every operator is applied a
    second time through `apply_with_part`."""
    cat, okey, mkey = ht.int_simpset(x.uset, trunc)
    tshape = ht.t_delta_op(trunc)
    lab_ob = {oid: x.label[v[1]] for (n, v), oid in okey.items()}
    lab_mo = {}
    for (n, v, g), mid in mkey.items():
        _, p = x.apply_with_part(g, v)
        lab_mo[mid] = p
    labels = fc.FinFunctor("lbl", cat, x.scat, lab_ob, lab_mo)
    proj = fc.FinFunctor("proj", cat, tshape,
                         {oid: "[%d]" % n for (n, v), oid in okey.items()},
                         {mid: tshape.op_key[(n, len(g) - 1, g)]
                          for (n, v, g), mid in mkey.items()})
    return labels, proj


def companion_objects():
    """The 25 objects of the criterion 01 companion, in its draw order."""
    rng = random.Random(1)
    return [rg.random_split_terminal(rng, 3, 8) for _ in range(25)]


def has_nonidentity(scat, parts):
    return any(not scat.is_identity(p) for p in parts)


def shrinking_delta2():
    """Delta_2 over the pseudocircle with carriers that shrink as the
    dimension grows, so that every face part is a non-identity.  The
    objects of `random_split_over` move their carrier only along d_0,
    which the first-vertex comparison never walks."""
    d = sp.delta_simpset(2, 2)
    lab = {"(0)": "{a,b,c,d}", "(1)": "{a,b,c,d}", "(2)": "{a,b,c,d}",
           "(0,1)": "{a,b,c}", "(0,2)": "{a,b,d}", "(1,2)": "{a,b}", "(0,1,2)": "{a}"}
    part = {(s, i): "%s<=%s" % (lab[s], lab[nd]) for (s, i), (_, nd) in d.faces.items()}
    return sp.SplitSimpObj(PS.cat, d, lab, part, "shrinking").validate()


def comparison_pin_inputs():
    over = [rg.random_split_over(random.Random(s), PS, 2) for s in range(40)]
    assert any(has_nonidentity(x.scat, x.part.values()) for x in over)
    fixtures = [sp.as_split(TS.cat, sset, "*") for sset in
                [sp.delta_simpset(0, 2), sp.delta_simpset(1, 2), sp.boundary_delta(2, 2)]]
    return companion_objects() + over + fixtures + [shrinking_delta2()]


def test_comparison_to_simp_matches_reference_loop():
    nonidentity = 0
    for x in comparison_pin_inputs():
        cmp_mor, ia = ht.comparison_to_simp(x, 2, 2, budget=500_000)
        cmp_mor.validate()
        val, part, _ = reference_comparison_loop(x, ia, cmp_mor.src)
        assert cmp_mor.val == val
        assert cmp_mor.part == part
        nonidentity += has_nonidentity(x.scat, part.values())
    assert nonidentity > 0


def counting_apply_steps(monkeypatch):
    calls = []
    real = sp.SimpSet.apply_steps

    def counting(self, op, value):
        calls.append(op)
        return real(self, op, value)

    monkeypatch.setattr(sp.SimpSet, "apply_steps", counting)
    return calls


def test_comparison_to_simp_applies_once_per_key(monkeypatch):
    x = companion_objects()[0]
    calls = counting_apply_steps(monkeypatch)
    cmp_mor, ia = ht.comparison_to_simp(x, 2, 2, budget=500_000)
    made = len(calls)
    monkeypatch.undo()
    _, _, keys = reference_comparison_loop(x, ia, cmp_mor.src)
    assert made <= len(set(keys.values())) + len(ia.dia.shape.morphisms)
    assert made < len(keys)


@pytest.mark.parametrize("source", ["companion", "over", "nerve", "shrinking"])
def test_int_amalg_applies_each_operator_once(monkeypatch, source):
    if source == "companion":
        xs = companion_objects()[:5]
    elif source == "over":
        xs = [x for x in (rg.random_split_over(random.Random(s), PS, 2) for s in range(40))
              if has_nonidentity(x.scat, x.part.values())]
    elif source == "nerve":
        xs = [dg.nerve(rg.random_diaobj(random.Random(s), PS, 3), 2) for s in range(3)]
    else:
        xs = [shrinking_delta2()]
    for x in xs:
        calls = counting_apply_steps(monkeypatch)
        ia = ht.int_amalg(x)
        made = len(calls)
        monkeypatch.undo()
        assert made == len(ia.dia.shape.morphisms)
        labels, proj = reference_int_amalg(x, x.trunc)
        for got, ref in [(ia.dia.labels, labels), (ia.proj, proj)]:
            assert got.name == ref.name
            assert list(got.object_map.items()) == list(ref.object_map.items())
            assert list(got.morphism_map.items()) == list(ref.morphism_map.items())
            assert got.source.objects == ref.source.objects
            assert got.source.morphisms == ref.source.morphisms
            assert got.target.name == ref.target.name


def test_comparison_budget_guard():
    x = sp.as_split(TS.cat, sp.delta_simpset(1, 4), "*")
    with pytest.raises(BudgetExceeded):
        ht.comparison_to_simp(x, 4, 4, budget=10_000)


def test_forecast_matches_construction():
    x = sp.as_split(TS.cat, sp.delta_simpset(1, 2), "*")
    counts = ht.forecast_int_nerve(x, 2, 2)
    cmp_mor, ia = ht.comparison_to_simp(x, 2, 2, budget=400_000)
    assert [len(l) for l in cmp_mor.src.levels] == counts
    c = fc.chain_category(1)
    assert ht.forecast_nerve(c, 3) == [len(l) for l in
                                       sp.nerve_of_category(c, 3).levels]


def test_hocolim_point_shape_returns_x():
    circle = sp.as_split(TS.cat, sp.boundary_delta(2, 3), "*")
    xd = ht.constant_split_diagram(fc.terminal_category(), circle).validate()
    diag = ht.hocolim_bk(xd, 3)
    assert sp.split_isomorphic(diag, circle) is not None


def test_hocolim_interval_of_points_is_interval_nerve():
    c1 = fc.chain_category(1)
    x = sp.constant_split(TS.cat, "*", 3)
    diag = ht.hocolim_bk(ht.constant_split_diagram(c1, x), 3)
    nv = dg.nerve(dg.DiaObj(c1, fc.FinFunctor.constant(c1, TS.cat, "*")).validate(), 3)
    assert [len(l) for l in diag.levels] == [len(l) for l in nv.levels]
    assert at.homology(diag.uset).is_point()


def test_hocolim_final_object_collapse():
    # over a shape with a final object the hocolim is homology-isomorphic
    # to the value at the final object
    cone = fx.cone_poset()
    rng = random.Random(6)
    x = rg.random_split_terminal(rng, 2, 5)
    xd = ht.constant_split_diagram(cone, x)
    diag = ht.hocolim_bk(xd, 2)
    h1, h2 = at.homology(diag.uset), at.homology(x.uset)
    assert h1.betti == h2.betti and h1.torsion == h2.torsion


def test_derlocalizer_consistency_random():
    rng = random.Random(9)
    for _ in range(3):
        F = rg.random_dia_functor(rng, PS, 2, 2)
        gro, proj, _ = dg.grothendieck_construction(F)
        h1 = at.homology(dg.nerve(gro, 3).uset)
        diag = ht.hocolim_bk(dg.nerve_diagram(F, 3).validate(), 3)
        h2 = at.homology(diag.uset)
        assert h1.betti == h2.betti and h1.torsion == h2.torsion


def test_hocolim_nerve_check_trivial_and_pseudocircle():
    cat = PS.cat
    c1 = fc.chain_category(1)
    lbls = {"0": "{a,b,c}", "1": "{a,b,c,d}"}
    lab = fc.FinFunctor("F", c1, cat, lbls,
                        {m.id: "%s<=%s" % (lbls[m.dom], lbls[m.cod])
                         for m in c1.morphisms}).validate()
    d = dg.DiaObj(c1, lab).validate()
    f_parts = {i: "%s<={a,b,c,d}" % lbls[i] for i in c1.objects}
    # X = constant base object: both sides are the nerve
    xconst = sp.constant_split(cat, "{a,b,c,d}", 3)
    aug = {nd: cat.id_of("{a,b,c,d}") for l in xconst.levels for nd in l}
    bij, lhs, rhs = ht.hocolim_nerve_check(PS, d, f_parts, xconst, aug, 3)
    assert bij is not None
    lhs.validate()
    rhs.validate()
    nv = dg.nerve(d, 3)
    assert [len(l) for l in lhs.levels] == [len(l) for l in nv.levels]
    # X = a proper open
    x2 = sp.constant_split(cat, "{a,b,d}", 3)
    aug2 = {nd: "{a,b,d}<={a,b,c,d}" for l in x2.levels for nd in l}
    bij2, _, _ = ht.hocolim_nerve_check(PS, d, f_parts, x2, aug2, 3)
    assert bij2 is not None


def test_holim_point_shape_is_value():
    d1 = sp.delta_simpset(1, 2)
    pt = fc.terminal_category()
    X = fc.StrictFunctor(pt, {"*": d1}, {"id_*": sp.SimpMap.identity(d1)}, "X").validate()
    h = ht.holim_end(X, 2).validate()
    assert [len(l) for l in h.levels] == [len(l) for l in d1.levels]


def test_holim_constant_point():
    d0 = sp.delta_simpset(0, 2)
    c1 = fc.chain_category(1)
    X = fc.StrictFunctor(c1, {"0": d0, "1": d0},
                         {m.id: sp.SimpMap.identity(d0) for m in c1.morphisms}, "X").validate()
    h = ht.holim_end(X, 2).validate()
    # a single family per level, degenerate above 0
    assert [len(l) for l in h.levels] == [1, 0, 0]


def test_holim_discrete_product():
    d1 = sp.delta_simpset(1, 2)
    d0 = sp.delta_simpset(0, 2)
    disc = fc.discrete_category("2", ["l", "r"])
    X = fc.StrictFunctor(disc, {"l": d1, "r": d0},
                         {disc.id_of("l"): sp.SimpMap.identity(d1),
                          disc.id_of("r"): sp.SimpMap.identity(d0)}, "X").validate()
    h = ht.holim_end(X, 2)
    prod, _, _, _ = sp.simpset_product(d1, d0)
    assert [len(l) for l in h.levels] == [len(l) for l in prod.levels]


def gadget_fiber(n, m, trunc):
    """The fiber of int(diag B) -> int(B) under (Delta_n, Delta_m, top):
    objects the pairs of operators (g : [k] -> [n], h : [k] -> [m]),
    morphisms w acting by precomposition.  Returns (category,
    okey[(k, (g, h))], mkey[(k, (g, h), w)])."""
    out, comp, ident, text = ht._delta_op_tables(trunc)
    pairs = [(k, [(g, h) for g in sp.all_monotone(k, n) for h in sp.all_monotone(k, m)])
             for k in out]
    return fc.elements(
        "gadget(%d,%d)" % (n, m), pairs, out,
        lambda w, gh: (sp.mt_comp(gh[0], w), sp.mt_comp(gh[1], w)), comp, ident,
        lambda k, gh: "f(%s|%s)" % (text[gh[0]], text[gh[1]]),
        lambda k, w, src, tgt: "w(%s):%s" % (text[w], src))


def gadget_comma_iso(n, m, trunc):
    """The comma fiber of the diagonal inclusion at a nondegenerate top
    bisimplex against the element category of Delta_n x Delta_m: the
    canonical comparison from :func:`gadget_fiber` onto the element
    category of the product must be an isomorphism.
    """
    dn, dm = sp.delta_simpset(n, trunc), sp.delta_simpset(m, trunc)
    prod, canon, ids, elem_of = sp.simpset_product(dn, dm)
    el, okey, mkey = ht.int_simpset(prod, trunc)
    top_n, top_m = dn.nd_value(dn.levels[n][0]), dm.nd_value(dm.levels[m][0])
    fiber, okey2, mkey2 = gadget_fiber(n, m, trunc)
    val = {(k, (g, h)): canon[(k, (dn.apply(g, top_n), dm.apply(h, top_m)))]
           for k, (g, h) in okey2}
    omap = {oid: okey[(k, val[(k, gh)])] for (k, gh), oid in okey2.items()}
    mmap = {mid: mkey[(k, val[(k, gh)], w)] for (k, gh, w), mid in mkey2.items()}
    return fc.verify_isomorphism(fc.FinFunctor("cmp", fiber, el, omap, mmap))


def test_gadget_comma_iso():
    for n in range(2):
        for m in range(2):
            assert gadget_comma_iso(n, m, 2)


def test_pointwise_int_random():
    rng = random.Random(77)
    for _ in range(4):
        x = rg.random_split_over(rng, PS, 2)
        probe = rng.choice(list(PS.cat.objects))
        ok, err = ht.check_pointwise_int(PS, probe, x, 2)
        assert ok, err


def test_pointwise_int_validates_comparison_once(monkeypatch):
    x = rg.random_split_over(random.Random(77), PS, 2)
    real = fc.FinFunctor.validate
    calls = []

    def counting(self):
        if self.name == "cmp":
            calls.append(self)
        return real(self)

    monkeypatch.setattr(fc.FinFunctor, "validate", counting)
    assert ht.check_pointwise_int(PS, "{a}", x, 2) == (True, None)
    assert len(calls) == 1

    def broken(self):
        if self.name == "cmp":
            raise InvalidFunctor("comparison breaks composition")
        return real(self)

    monkeypatch.setattr(fc.FinFunctor, "validate", broken)
    assert ht.check_pointwise_int(PS, "{a}", x, 2) == (
        False, "comparison breaks composition")


def test_pointwise_nerve_random():
    rng = random.Random(78)
    for _ in range(4):
        d = rg.random_diaobj(rng, PS, 4)
        probe = rng.choice(list(PS.cat.objects))
        assert ht.check_pointwise_nerve(PS, probe, d, 3)


def test_pointwise_checks_accept_bars_in_site_ids():
    """Site objects named `a|1 < b|2`: the checks must not parse simplex ids."""
    cat = fc.poset_category("bars", ["a|1", "b|2"], lambda a, b: a <= b)
    site = Site(cat)
    c1 = fc.chain_category(1)
    d = dg.DiaObj(c1, fc.FinFunctor("S", c1, cat, {"0": "a|1", "1": "b|2"},
                                    {"0<=0": "a|1<=a|1", "1<=1": "b|2<=b|2",
                                     "0<=1": "a|1<=b|2"})).validate()
    for x in cat.objects:
        assert ht.check_pointwise_int(site, x, dg.nerve(d, 2), 2) == (True, None)
        assert ht.check_pointwise_nerve(site, x, d, 3)


def test_lemma_pointwise_int_via_hom_invariant():
    # Hom(s, int_amalg(X)) computed as a diagram equals the element
    # category of hom_into(s, X) -- the displayed instance of the lemma
    x = dg.nerve(dg.DiaObj(fx.fence_poset(),
                           fc.FinFunctor("S", fx.fence_poset(), PS.cat,
                                         {"a": "{a}", "b": "{b}",
                                          "U": "{a,b,c}", "V": "{a,b,d}"},
                                         {m.id: "%s<=%s" % (
                                             {"a": "{a}", "b": "{b}",
                                              "U": "{a,b,c}", "V": "{a,b,d}"}[m.dom],
                                             {"a": "{a}", "b": "{b}",
                                              "U": "{a,b,c}", "V": "{a,b,d}"}[m.cod])
                                          for m in fx.fence_poset().morphisms}).validate()).validate(), 2)
    ok, err = ht.check_pointwise_int(PS, "{a}", x, 2)
    assert ok, err
