import random

import pytest

from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import site as st
from diacats.errors import LimitAbsent


def reference_refined_by_some_cover(site, y, family):
    """The former loop of `st._refined_by_some_cover`, with its flag."""
    cat = site.cat
    for cov in site.families_of(y):
        good = True
        for w in cov:
            if not any(any(cat.comp(m, h) == w for h in cat.hom(cat.dom(w), d))
                       for d, m in family):
                good = False
                break
        if good:
            return True
    return False


def test_pretopology_valid_fixtures():
    assert st.validate_pretopology(fx.pseudocircle_site()) == []
    assert st.validate_pretopology(fx.sierpinski_site()) == []
    assert st.validate_pretopology(fx.terminal_site()) == []


def test_pretopology_bad_cover_reported():
    ps = fx.pseudocircle_site()
    bad = st.Site(ps.cat, {"{a,b,c,d}": [["{}<={a,b,c,d}"]]})
    assert st.validate_pretopology(bad)


def test_coprod_pullback_meets():
    ps = fx.pseudocircle_site()
    x, u, v = "{a,b,c,d}", "{a,b,c}", "{a,b,d}"
    f = st.CoprodMor(st.CoprodObj.of(u), st.CoprodObj.of(x), (0,),
                     ("%s<=%s" % (u, x),))
    g = st.CoprodMor(st.CoprodObj.of(v), st.CoprodObj.of(x), (0,),
                     ("%s<=%s" % (v, x),))
    obj, pf, pg = st.coprod_pullback(ps, f, g)
    assert obj.components == ("{a,b}",)


def test_coprod_pullback_identity_and_four_components():
    ps = fx.pseudocircle_site()
    x = "{a,b,c,d}"
    idm = st.coprod_identity(ps.cat, st.CoprodObj.of(x))
    obj, _, _ = st.coprod_pullback(ps, idm, idm)
    assert obj.components == (x,)
    two = st.CoprodMor(st.CoprodObj.of(x, x), st.CoprodObj.of(x), (0, 0),
                       (ps.cat.id_of(x), ps.cat.id_of(x)))
    obj2, pf, pg = st.coprod_pullback(ps, two, two)
    assert obj2.components == (x, x, x, x)
    # symmetry up to the canonical component-reindexing isomorphism
    obj3, _, _ = st.coprod_pullback(ps, two, idm)
    obj4, _, _ = st.coprod_pullback(ps, idm, two)
    assert st.coprod_iso(ps.cat, obj3, obj4) is not None


def test_coprod_pullback_absent_pair_named():
    fence = fx.fence_poset()
    site = st.trivial_site(fence)
    f = st.CoprodMor(st.CoprodObj.of("a"), st.CoprodObj.of("U"), (0,), ("a<=U",))
    g = st.CoprodMor(st.CoprodObj.of("b"), st.CoprodObj.of("U"), (0,), ("b<=U",))
    with pytest.raises(LimitAbsent):
        st.coprod_pullback(site, f, g)


def test_hom_set_partition_and_extensivity():
    ps = fx.pseudocircle_site()
    a = st.CoprodObj.of("{a}", "{b}")
    hs = st.hom_set(ps, "{a}", a)
    assert hs == [(0, "{a}<={a}")]
    assert st.hom_set(ps, "{a,b,c,d}", st.CoprodObj.of("{a,b,c,d}")) == \
        [(0, ps.cat.id_of("{a,b,c,d}"))]
    assert st.hom_set(ps, "{a}", st.CoprodObj.of()) == []
    # Hom(x, A u B) = Hom(x, A) u Hom(x, B)
    b = st.CoprodObj.of("{a,b,c}")
    ab = st.CoprodObj.of(*(a.components + b.components))
    lhs = st.hom_set(ps, "{a}", ab)
    rhs = st.hom_set(ps, "{a}", a) + [(i + len(a), m)
                                      for (i, m) in st.hom_set(ps, "{a}", b)]
    assert lhs == rhs


def test_span_compose_identity_and_meet():
    ps = fx.pseudocircle_site()
    x, u, v = "{a,b,c,d}", "{a,b,c}", "{a,b,d}"
    s = st.Span("%s<=%s" % (u, x), "%s<=%s" % (u, x))
    comp = st.span_compose(ps, s, st.span_identity(ps, x))
    assert st.spans_isomorphic(ps, comp, s)
    s2 = st.Span("%s<=%s" % (v, x), "%s<=%s" % (v, x))
    m = st.span_compose(ps, s, s2)
    assert ps.cat.dom(m.left) == "{a,b}"


def test_span_compose_associative_up_to_iso():
    ps = fx.pseudocircle_site()
    x, u, v, w = "{a,b,c,d}", "{a,b,c}", "{a,b,d}", "{a,b}"
    s1 = st.Span("%s<=%s" % (u, x), "%s<=%s" % (u, x))
    s2 = st.Span("%s<=%s" % (v, x), "%s<=%s" % (v, x))
    s3 = st.Span("%s<=%s" % (w, x), "%s<=%s" % (w, x))
    left = st.span_compose(ps, st.span_compose(ps, s1, s2), s3)
    right = st.span_compose(ps, s1, st.span_compose(ps, s2, s3))
    assert st.spans_isomorphic(ps, left, right)


def test_coprod_iso_strict_vs_isomorphism():
    ps = fx.pseudocircle_site()
    a = st.CoprodObj.of("{a}", "{b}")
    b = st.CoprodObj.of("{b}", "{a}")
    assert a != b
    assert st.coprod_iso(ps.cat, a, b) is not None
    assert st.coprod_iso(ps.cat, a, st.CoprodObj.of("{a}")) is None


def test_extensive_injection_marker():
    ps = fx.pseudocircle_site()
    a = st.CoprodObj.of("{a}")
    ab = st.CoprodObj.of("{a}", "{b}")
    inj = st.CoprodMor.injection(ps.cat, a, ab, (0,))
    inj.validate(ps.cat)
    assert inj.split_injection


def test_refined_by_some_cover_matches_reference(monkeypatch):
    """Every call the pretopology check makes on the bundled sites (and on a
    bad cover), and random families into each object, against the former
    loop."""
    calls = []
    real = st._refined_by_some_cover

    def recording(site, y, family):
        calls.append((site, y, list(family)))
        return real(site, y, family)

    monkeypatch.setattr(st, "_refined_by_some_cover", recording)
    ps = fx.pseudocircle_site()
    sites = [fx.terminal_site(), fx.sierpinski_site(), ps,
             st.Site(ps.cat, {"{a,b,c,d}": [["{}<={a,b,c,d}"]]})]
    for site in sites:
        st.validate_pretopology(site)
    rng = random.Random(6)
    for site in sites[:3]:
        cat = site.cat
        for y in cat.objects:
            into = cat.into(y)
            for _ in range(6):
                calls.append((site, y, [(cat.dom(m), m) for m in into if rng.random() < 0.4]))
    results = [real(*call) for call in calls]
    assert results == [reference_refined_by_some_cover(*call) for call in calls]
    assert set(results) == {True, False}
