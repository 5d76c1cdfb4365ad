import pytest

from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import simplicial as sp
from diacats.errors import NonAssociative, ObjectNotInTarget


def fence():
    return fx.fence_poset()


def test_validate_terminal():
    c = fc.validate_category({
        "objects": ["*"],
        "morphisms": [{"id": "i", "dom": "*", "cod": "*"}],
        "identities": {"*": "i"},
        "compose": [["i", "i", "i"]],
    })
    assert len(c.objects) == 1 and len(c.morphisms) == 1


def test_validate_chain_has_three_morphisms():
    c = fc.chain_category(1)
    assert len(c.morphisms) == 3
    assert c.comp("1<=1", "0<=1") == "0<=1"


def test_validate_rejects_nonassociative():
    # a one-object "category" with a broken table on one triple
    raw = {
        "objects": ["x"],
        "morphisms": [{"id": "e", "dom": "x", "cod": "x"},
                      {"id": "a", "dom": "x", "cod": "x"},
                      {"id": "b", "dom": "x", "cod": "x"}],
        "identities": {"x": "e"},
        "compose": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"],
                    ["e", "b", "b"], ["b", "e", "b"],
                    ["a", "a", "b"], ["a", "b", "e"], ["b", "a", "e"],
                    ["b", "b", "b"]],
    }
    with pytest.raises(NonAssociative):
        fc.validate_category(raw)


def test_comma_of_identities_is_arrow_category():
    c = fc.chain_category(1)
    cat, p, q, okey, mkey = fc.comma_category(
        fc.FinFunctor.identity(c), fc.FinFunctor.identity(c))
    assert len(cat.objects) == len(c.morphisms)


def test_slice_under_identity_has_initial():
    j = "U"
    cat, proj, okey, mkey = fc.slice_under(j, fc.FinFunctor.identity(fence()))
    assert fc.detect_extremal(cat)["initial"] == okey[("*", "U", "U<=U")]


def test_slice_under_inclusion():
    c = fc.chain_category(1)
    pt = fc.terminal_category()
    incl = fc.FinFunctor("i", pt, c, {"*": "1"}, {"id_*": c.id_of("1")}).validate()
    cat, proj, okey, mkey = fc.slice_under("0", incl)
    assert len(cat.objects) == 1    # the single object (0 -> 1)


def test_slice_under_empty_functor():
    empty = fc.poset_category("E", [], lambda a, b: True)
    c = fc.chain_category(1)
    alpha = fc.FinFunctor("e", empty, c, {}, {}).validate()
    cat, proj, okey, mkey = fc.slice_under("0", alpha)
    assert len(cat.objects) == 0


def test_slice_requires_object():
    with pytest.raises(ObjectNotInTarget):
        fc.slice_under("zz", fc.FinFunctor.identity(fence()))


def test_detect_extremal():
    c = fc.chain_category(1)
    assert fc.detect_extremal(c) == {"initial": "0", "final": "1"}
    d2 = fc.discrete_category("2", ["x", "y"])
    assert fc.detect_extremal(d2) == {"initial": None, "final": None}
    assert fc.detect_extremal(fence()) == {"initial": None, "final": None}


def test_opfibration_identity_and_inclusion():
    c = fc.chain_category(1)
    assert fc.is_opfibration(fc.FinFunctor.identity(c))[0]
    pt = fc.terminal_category()
    incl = fc.FinFunctor("i", pt, c, {"*": "0"}, {"id_*": c.id_of("0")}).validate()
    ok, witness = fc.is_opfibration(incl)
    assert not ok and witness == ("*", "0<=1")


def test_fiber_of_projection():
    c = fc.chain_category(1)
    d = fc.discrete_category("2", ["x", "y"])
    prod = fc.product_category(d, c)
    proj = fc.FinFunctor("p", prod, c,
                         {o: o.split(",")[1][:-1] for o in prod.objects},
                         {m.id: m.id.split(",")[1][:-1] for m in prod.morphisms}).validate()
    fib, incl = fc.fiber(proj, "1")
    assert sorted(fib.objects) == ["(x,1)", "(y,1)"]


def test_twisted_arrow_counts():
    pt = fc.terminal_category()
    tw, p1, p3, _ = fc.twisted_arrow(pt, "tw")
    assert len(tw.objects) == 1
    c = fc.chain_category(1)
    tw1, q1, q3, _ = fc.twisted_arrow(c, "tw")
    assert len(tw1.objects) == 3
    twc, r1, r3, mu = fc.twisted_arrow(c, "twc")
    assert len(twc.objects) == 4
    mu.validate()


def test_adjunction_inclusion_collapse():
    c = fc.chain_category(1)
    pt = fc.terminal_category()
    # include the final object; collapse is its left adjoint
    r = fc.FinFunctor("R", pt, c, {"*": "1"}, {"id_*": c.id_of("1")}).validate()
    l = fc.FinFunctor("L", c, pt, {"0": "*", "1": "*"},
                      {m.id: "id_*" for m in c.morphisms}).validate()
    unit = fc.NatTransf(fc.FinFunctor.identity(c), l.then(r),
                        {"0": "0<=1", "1": "1<=1"}).validate()
    counit = fc.NatTransf(r.then(l), fc.FinFunctor.identity(pt),
                          {"*": "id_*"}).validate()
    ok, fail = fc.check_adjunction(fc.AdjunctionWitness(l, r, unit, counit))
    assert ok, fail


def idempotent_monoid():
    """One object and {1, e} with e e = e: e o h = e for both h."""
    comp = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    return fc.FinCat("idem", ["*"], [fc.Mor("1", "*", "*"), fc.Mor("e", "*", "*")],
                     {"*": "1"}, comp).validate()


def cyclic_group(n):
    els = ["g%d" % k for k in range(n)]
    return fc.FinCat("Z%d" % n, ["o"], [fc.Mor(g, "o", "o") for g in els], {"o": "g0"},
                     {(els[a], els[b]): els[(a + b) % n]
                      for a in range(n) for b in range(n)}).validate()


def walking_iso():
    m = fc.Mor
    return fc.FinCat("Iso", ["a", "b"],
                     [m("1a", "a", "a"), m("1b", "b", "b"), m("f", "a", "b"), m("g", "b", "a")],
                     {"a": "1a", "b": "1b"},
                     {("1a", "1a"): "1a", ("1b", "1b"): "1b", ("f", "1a"): "f",
                      ("1b", "f"): "f", ("g", "1b"): "g", ("1a", "g"): "g",
                      ("g", "f"): "1a", ("f", "g"): "1b"}).validate()


def with_terminal(c):
    """c with a new terminal object T."""
    mors = list(c.morphisms) + [fc.Mor("1T", "T", "T")]
    mors += [fc.Mor("%s>T" % x, x, "T") for x in c.objects]
    comp = dict(c.compose_table)
    comp[("1T", "1T")] = "1T"
    for m in c.morphisms:
        comp[("%s>T" % m.cod, m.id)] = "%s>T" % m.dom
    for x in c.objects:
        comp[("1T", "%s>T" % x)] = "%s>T" % x
    return fc.FinCat(c.name + "+T", list(c.objects) + ["T"], mors,
                     dict(c.identity, T="1T"), comp).validate()


def with_initial(c):
    """c with a new initial object T."""
    op = with_terminal(c.opposite()).opposite()
    return fc.FinCat(c.name + "+I", op.objects, op.morphisms, op.identity,
                     op.compose_table).validate()


def test_factor_needs_exactly_one_map():
    c = idempotent_monoid()
    assert fc.factor(c, "*", "*", [("1", "e")]) == "e"
    assert fc.factor(c, "*", "*", [("e", "e")]) is None   # 1 and e both fit
    assert fc.factor(c, "*", "*", [("e", "1")]) is None   # nothing fits
    assert fc.factor(c, "*", "*", []) is None             # no constraint: two maps
    assert fc.factor(fc.chain_category(1), "0", "1", []) == "0<=1"
    assert fc.factor(fc.chain_category(1), "1", "0", []) is None


def brute_left_adjoint(s):
    """The first (p, unit) of the exhaustive search over all functors and
    natural transformations that completes to an adjunction p -| s."""
    I, J = s.source, s.target
    for p in fc.all_functors(J, I):
        for unit in fc.all_nat_transfs(fc.FinFunctor.identity(J), p.then(s)):
            for counit in fc.all_nat_transfs(s.then(p), fc.FinFunctor.identity(I)):
                if fc.check_adjunction(fc.AdjunctionWitness(p, s, unit, counit))[0]:
                    return p, unit
    return None


SMALL_CATS = [cyclic_group(2), cyclic_group(3), walking_iso(), idempotent_monoid(),
              fc.chain_category(0), fc.chain_category(1),
              with_terminal(cyclic_group(2)), with_initial(cyclic_group(2)),
              with_terminal(walking_iso()), with_initial(walking_iso()),
              with_terminal(fc.discrete_category("D2", ["p", "q"])),
              fc.product_category(cyclic_group(2), fc.chain_category(1))]


def test_left_adjoint_matches_exhaustive_search():
    """Over every functor among small categories with isomorphisms,
    idempotents and extremal objects: Mac Lane's criterion finds a left
    adjoint exactly when the exhaustive search does, and each (p, unit)
    completes to an adjunction with a counit that passes the triangles."""
    found = differ = 0
    for I in SMALL_CATS:
        for J in SMALL_CATS:
            for s in fc.all_functors(I, J):
                ref, got = brute_left_adjoint(s), fc.left_adjoint(s)
                assert (ref is None) == (got is None), (I.name, J.name, s.morphism_map)
                if got is None:
                    continue
                p, unit = got
                assert p.name == "F"
                p.validate()
                unit.validate()
                assert any(fc.check_adjunction(fc.AdjunctionWitness(p, s, unit, c))[0]
                           for c in fc.all_nat_transfs(s.then(p), fc.FinFunctor.identity(I)))
                found += 1
                differ += (p.key(), unit.components) != (ref[0].key(), ref[1].components)
    # left adjoints are unique only up to isomorphism: one automorphism of
    # Z2x[1] gets another (equally valid) choice than the exhaustive order
    assert (found, differ) == (130, 1)


def test_left_adjoint_takes_the_first_initial_object():
    """s = id on Z/2: both (o, g0) and (o, g1) are initial in o / s; the
    unit is read off the first."""
    z2 = cyclic_group(2)
    p, unit = fc.left_adjoint(fc.FinFunctor.identity(z2))
    assert unit.components == {"o": "g0"}
    assert p.morphism_map == {"g0": "g0", "g1": "g1"}
    incl = fc.FinFunctor("R", fc.terminal_category(), fc.chain_category(1),
                         {"*": "0"}, {"id_*": "0<=0"}).validate()
    assert fc.left_adjoint(incl) is None   # 1 / incl is empty


def test_left_adjoint_builds_no_comma_category(monkeypatch):
    """The slices j / s are read from hom-sets, not built."""
    calls = []
    real = fc.comma_category
    monkeypatch.setattr(fc, "comma_category", lambda *a: calls.append(a) or real(*a))
    for s in fc.all_functors(SMALL_CATS[-1], SMALL_CATS[-2]):
        fc.left_adjoint(s)
    assert fc.left_adjoint(fc.FinFunctor.identity(SMALL_CATS[-1])) is not None
    assert calls == []


def test_adjunction_identity_and_broken():
    c = fc.chain_category(1)
    idf = fc.FinFunctor.identity(c)
    idn = fc.NatTransf(idf, idf, {x: c.id_of(x) for x in c.objects}).validate()
    ok, _ = fc.check_adjunction(fc.AdjunctionWitness(idf, idf, idn, idn))
    assert ok
    # a non-identity "unit" breaks the triangles
    bad_unit = fc.NatTransf(idf, idf, {"0": "0<=1", "1": "1<=1"})
    with pytest.raises(Exception):
        bad_unit.validate()  # not even well-typed: 0 -> id(0) must end at 0


def test_limits_pseudocircle_meets():
    ps = fx.pseudocircle_site()
    c = ps.cat
    res = fc.pullback(c, "{a}<={a,b,c,d}", "{b}<={a,b,c,d}")
    assert res is not None and res[0] == "{}"
    res2 = fc.pullback(c, "{a,b,c}<={a,b,c,d}", "{a,b,d}<={a,b,c,d}")
    assert res2[0] == "{a,b}"


def test_limits_product_with_terminal():
    c = fx.cone_poset()
    res = fc.product(c, "T", "a")
    assert res is not None and res[0] == "a"


def test_limits_absent_in_fence():
    assert fc.product(fence(), "U", "V") is None


def test_limit_unique_up_to_unique_iso():
    ps = fx.pseudocircle_site()
    c = ps.cat
    D = fc.FinFunctor("D", fc.discrete_category("2", ["l", "r"]), c,
                      {"l": "{a,b,c}", "r": "{a,b,d}"},
                      {"l<=l": c.id_of("{a,b,c}"), "r<=r": c.id_of("{a,b,d}")})
    apex, legs = fc.limit_cone(D.validate())
    assert apex == "{a,b}"
    # all universal cones are isomorphic via a unique comparison
    cones = fc._cones(D)
    for apex2, legs2 in cones:
        u = [h for h in c.hom(apex2, apex)
             if all(c.comp(legs[j], h) == legs2[j] for j in ("l", "r"))]
        assert len(u) == 1


def test_nerve_counts():
    n = sp.nerve_of_category(fc.terminal_category(), 3)
    assert [len(l) for l in n.levels] == [1, 0, 0, 0]
    n1 = sp.nerve_of_category(fc.chain_category(1), 3)
    assert [len(l) for l in n1.levels] == [2, 1, 0, 0]
    nf = sp.nerve_of_category(fence(), 4)
    assert [len(l) for l in nf.levels] == [4, 4, 0, 0, 0]


def test_iso_search_on_relabeled_copy():
    f1 = fence()
    f2 = fc.poset_category("fence2", ["p", "q", "R", "S"],
                           lambda x, y: x == y or (x in "pq" and y in "RS"))
    iso = fc.find_isomorphism(f1, f2)
    assert iso is not None and fc.verify_isomorphism(iso)
    assert fc.find_isomorphism(f1, fc.chain_category(3)) is None


def test_associativity_exhaustion_holds_everywhere():
    for c in (fence(), fc.chain_category(2), fx.pseudocircle_site().cat):
        assert fc.validate_report(c) == []


def test_dot_export_mentions_generators():
    s = fc.to_dot(fc.chain_category(1))
    assert '"0" -> "1"' in s


def test_partition_tests_no_pair_already_joined():
    """Four related items: each join is tested once, a pair already in one
    class never; the classes keep the item order, under the last root."""
    tested = []

    def related(a, b):
        tested.append((a, b))
        return True

    assert fc.partition([0, 1, 2, 3], related) == {3: [0, 1, 2, 3]}
    assert tested == [(0, 1), (0, 2), (0, 3)]
    assert fc.partition("abc", lambda a, b: False) == {"a": ["a"], "b": ["b"], "c": ["c"]}
    assert list(fc.partition("abc", related, [("c", "a")]).items()) \
        == [("a", ["a", "c"]), ("b", ["b"])]
