import random

from diacats import fixtures as fx
from diacats import site as st


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
