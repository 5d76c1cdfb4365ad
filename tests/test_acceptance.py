"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 11 ask for homology verdicts of nerves of element categories
in degrees whose nondegenerate chain counts grow like the truncated
operator-monoid size raised to the degree; the exact forecasts (printed on
failure) place them around 10^14 and beyond, so those two criteria are run
as stated, fail honestly with the forecast, and are accompanied by
feasible-scale companions that verify the same statements in the degree
range a desk actually reaches.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.
"""

import random
import time

import pytest

from diacats import algtop as at
from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import fractions as fr
from diacats import homotopy as ht
from diacats import localizer as lc
from diacats import randgen as rg
from diacats import simplicial as sp
from diacats.errors import BudgetExceeded

from test_fractions import is_iso

TS = fx.terminal_site()
PS = fx.pseudocircle_site()


def report(n, ok, msg=""):
    print("[criterion %02d] %s %s" % (n, "PASS" if ok else "FAIL", msg))
    assert ok, msg


# -- criterion 1: the nerve-of-elements comparison ---------------------------


def test_criterion_01_theoremback_as_stated():
    """25 pseudo-random split objects over the terminal site, <= 8
    nondegenerate simplices, D = 6: comparison passes quasi_iso through
    degree 4 within 60 s."""
    rng = random.Random(1)
    t0 = time.time()
    xs = [rg.random_split_terminal(rng, 6, 8) for _ in range(25)]
    # a degree-4 verdict via the mapping cone needs the nerve of the
    # element category through level 5
    worst = max(sum(ht.forecast_int_nerve(x, 6, 5)) for x in xs)
    budget_chains = 10_000_000  # far beyond what 60 s allows, to be generous
    if worst > budget_chains:
        report(1, False,
               "infeasible as stated: the smallest instance already needs "
               "about %.2e nondegenerate chains through nerve level 5 "
               "(10^14+ is typical; forecast is exact); no 60 s budget can "
               "materialize the mapping cone. See the feasible-scale "
               "companion, which verifies the same map through degree 1 "
               "for all 25 objects." % worst)
    for x in xs:
        cmp_mor, _ = ht.comparison_to_simp(x, 5, 6, budget=budget_chains)
        v = at.quasi_iso(cmp_mor.underlying())
        assert v.ok and v.valid_range >= 4
    report(1, time.time() - t0 < 60, "ran over budget")


def test_criterion_01_companion_feasible_scale():
    """The same 25-object protocol at the deepest feasible truncation:
    element category through level 2, nerve through level 2, mapping-cone
    verdict through degree 1.  Runtime stays inside the stated 60 s."""
    rng = random.Random(1)
    t0 = time.time()
    for i in range(25):
        x = rg.random_split_terminal(rng, 3, 8)
        cmp_mor, _ = ht.comparison_to_simp(x, 2, 2, budget=500_000)
        v = at.quasi_iso(cmp_mor.underlying())
        assert v.ok, (i, v.detail)
        assert v.valid_range >= 1
    dt = time.time() - t0
    report(1, dt < 60, "companion (degree <= 1): 25/25 quasi-iso in %.1fs" % dt)


# -- criterion 2: the counit comma fibers ------------------------------------


def test_criterion_02_propfwd():
    """15 random diagrams over the pseudocircle site, |I| <= 4: every comma
    fiber of the counit is isomorphic to the element category of the slice
    nerve and the slice carries an initial object.  Exact."""
    rng = random.Random(2)
    t0 = time.time()
    total = 0
    for i in range(15):
        d = rg.random_diaobj(rng, PS, 4)
        rep = ht.counit_fiber_check(d, 3)
        for (obj, iso, init) in rep:
            assert iso, (i, obj)
            assert init is not None, (i, obj)
            total += 1
    report(2, True, "%d comma fibers, all isomorphic with initial-object "
                    "certificates (%.1fs)" % (total, time.time() - t0))


# -- criterion 3: Grothendieck construction vs hocolim -----------------------


def test_criterion_03_derlocalizer():
    """10 random strict diagram functors, |I| <= 3: integral homology of
    the nerve of the Grothendieck construction equals the homology of the
    Bousfield-Kan hocolim of the nerves, in degrees <= 3.  Exact."""
    rng = random.Random(3)
    t0 = time.time()
    sizes = [1, 2, 2, 2, 3, 3, 3, 3, 2, 3]
    for i, want in enumerate(sizes):
        F = rg.random_dia_functor(rng, PS, want, 2)
        while len(F.base.objects) != want:
            F = rg.random_dia_functor(rng, PS, want, 2)
        gro, proj, _ = dg.grothendieck_construction(F)
        assert fc.is_opfibration(proj)[0]
        h1 = at.homology(dg.nerve(gro, 4).uset)
        diag = ht.hocolim_bk(dg.nerve_diagram(F, 4), 4)
        h2 = at.homology(diag.uset)
        assert h1.valid_range >= 3 and h2.valid_range >= 3
        assert h1.betti == h2.betti and h1.torsion == h2.torsion, (i,)
    report(3, True, "10/10 agree through degree 3, base sizes %s (%.1fs)"
           % (sizes, time.time() - t0))


# -- criterion 4: the pointwise lemmas ----------------------------------------


def test_criterion_04_pointwise_lemmas():
    """20 random instances of each pointwise lemma over the pseudocircle
    site.  Exact isomorphism / equality."""
    rng = random.Random(4)
    t0 = time.time()
    objs = list(PS.cat.objects)
    for i in range(20):
        x = rng.choice(objs)
        s_obj = rg.random_split_over(rng, PS, 2)
        ok, err = ht.check_pointwise_int(PS, x, s_obj, 2)
        assert ok, (i, err)
    for i in range(20):
        x = rng.choice(objs)
        d = rg.random_diaobj(rng, PS, 4)
        assert ht.check_pointwise_nerve(PS, x, d, 3), (i,)
    report(4, True, "20+20 exact instances (%.1fs)" % (time.time() - t0))


# -- criterion 5: hocolim against the nerve -----------------------------------


def test_criterion_05_hocolim_nerve():
    """10 instances of the base-change formula over poset sites: exact
    split-object isomorphism."""
    rng = random.Random(5)
    t0 = time.time()
    done = 0
    for site in (PS, fx.sierpinski_site()):
        cat = site.cat
        tops = [x for x in cat.objects
                if all(cat.hom(y, x) for y in cat.objects)]
        s = tops[0]
        while done < (5 if site is PS else 10):
            d = rg.random_diaobj(rng, site, 3)
            f_parts = {i: cat.hom(d.labels.ob(i), s)[0] for i in d.shape.objects}
            xlab = rng.choice(list(cat.objects))
            x = sp.constant_split(cat, xlab, 3)
            aug = {nd: cat.hom(xlab, s)[0] for l in x.levels for nd in l}
            bij, lhs, rhs = ht.hocolim_nerve_check(site, d, f_parts, x, aug, 3)
            assert bij is not None, (site.cat.name, d.name)
            done += 1
    report(5, True, "10/10 exact split isomorphisms (%.1fs)" % (time.time() - t0))


# -- criterion 6: nerve homology fixtures -------------------------------------


def test_criterion_06_nerve_homology_fixtures():
    """Fence poset: H0 = Z, H1 = Z.  Shapes with a final object: point
    homology.  Exact."""
    h = at.homology(sp.nerve_of_category(fx.fence_poset(), 4))
    assert h.degree(0) == (1, []) and h.degree(1) == (1, [])
    assert h.degree(2) == (0, []) and h.degree(3) == (0, [])
    for cat in (fx.cone_poset(), fc.chain_category(2),
                fx.pseudocircle_site().cat):
        assert at.homology(sp.nerve_of_category(cat, 4)).is_point()
    report(6, True, "fence = circle; final-object shapes = point")


# -- criterion 7: Cech fixtures ------------------------------------------------


def test_criterion_07_cech_fixtures():
    """cech_cover({id}) is a levelwise isomorphism; cech_cover({X, X})
    gives Hom(X, U_.) the nerve of the pair groupoid, with point homology
    through degree 4.  Exact in range."""
    x = "{a,b,c,d}"
    u1, aug1 = sp.cech_cover(PS, [PS.cat.id_of(x)], 6)
    for n in range(7):
        lvl = u1.full_level(n)
        assert len(lvl) == 1
        assert is_iso(PS.cat, aug1.map_value_part(lvl[0])[1])
    u2, aug2 = sp.cech_cover(TS, ["id_*", "id_*"], 6)
    assert [len(u2.full_level(n)) for n in range(7)] == [2 ** (n + 1)
                                                         for n in range(7)]
    h = sp.hom_into(TS, "*", u2)
    hs = at.homology(h)
    assert hs.valid_range >= 4 and hs.is_point()
    report(7, True, "identity cover iso; pair cover = contractible pair "
                    "groupoid through degree %d" % hs.valid_range)


# -- criterion 8: smallest-localizer soundness ---------------------------------


def test_criterion_08_localizer_soundness():
    """Empty-seeded closure over every diagram shape with |I| <= 3 over the
    terminal site (commas resolved up to isomorphism, refinement bound 2):
    all members pass the nerve quasi-isomorphism check, and every
    final-object collapse is admitted.  Budget: 5 minutes."""
    t0 = time.time()
    u = lc.poset_universe(TS, 3)
    w = lc.closure_fixpoint(lc.MorClass(), u, trunc=3, refine_bound=2)
    bad = lc.nerve_soundness_report(w, u, 4)
    assert not bad, bad
    viol, missing = lc.check_L2(w, u)
    assert not viol and not missing
    assert not lc.check_ws(w, u)
    assert not lc.replay_provenance(w, u)
    dt = time.time() - t0
    assert dt < 300, "over the 5 minute budget: %.0fs" % dt
    report(8, True, "%d members admitted over %d morphisms, all sound; "
                    "every collapse present (%.0fs)"
                    % (len(w.members), len(u.morphisms), dt))


# -- criterion 9: the appendix suite -------------------------------------------


def test_criterion_09_appendix_suite():
    """Fractions on [1] with W = {ids, f}; then five span diagrams whose
    shared leg is admitted by the closure force the third inclusion in."""
    c1 = fc.chain_category(1)
    w = {"0<=0", "1<=1", "0<=1"}
    ok, _, fail = fr.check_left_fractions(c1, w)
    assert ok, fail
    lc_ = fr.localize_fractions(c1, w)
    assert all(len(v) == 1 for v in lc_.homs.values())
    sat = fr.saturation(c1, w)
    assert sat == {"0<=0", "0<=1", "1<=1"}
    assert not fr.check_two_out_of_six(sat, c1)
    assert not fr.check_retract_closed(sat, c1)

    pt = dg.point_dia(TS.cat, "*", "pt")
    interval = dg.DiaObj(fc.chain_category(1),
                         fc.FinFunctor.constant(fc.chain_category(1), TS.cat, "*"),
                         "I1").validate()
    vshape = fc.poset_category("V", ["a", "b", "c"],
                               lambda p, q: p == q or (p == "a" and q in "bc"))
    vdia = dg.DiaObj(vshape, fc.FinFunctor.constant(vshape, TS.cat, "*"),
                     "V").validate()
    spans = []
    for y in (interval, pt, vdia, interval, vdia):
        z = pt
        wd = pt if len(spans) % 2 == 0 else interval
        f = dg.all_dia_mors(y, z)[0]
        g = dg.all_dia_mors(y, wd)[0]
        spans.append((y, z, wd, f, g))
    checked = 0
    for (y, z, wd, f, g) in spans:
        F = dg.span_diafunctor(f, g)
        gro, proj, incl = dg.grothendieck_construction(F)
        u = lc.universe_from(TS, [y, z, wd, gro], all_mors=True)
        cls = lc.closure_fixpoint(lc.MorClass(), u)
        assert u.lookup(f) in cls.members, "f not admitted"
        iota3 = u.lookup(incl["b"])
        assert iota3 is not None and iota3 in cls.members, "iota_3 not admitted"
        assert not lc.nerve_soundness_report(cls, u, 3)
        checked += 1
    report(9, True, "[1]-localization exact; iota_3 admitted in %d/5 spans"
           % checked)


# -- criterion 10: Smith normal form -------------------------------------------


def test_criterion_10_snf_oracle():
    """200 random integer matrices up to 5x5, entries in [-9, 9]: invariant
    factors match the brute-force k-minor gcd oracle.  Budget: 10 s."""
    rng = random.Random(10)
    t0 = time.time()
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        factors, rank = at.snf(mat)
        assert factors == at.minor_gcd_invariants(mat)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
    dt = time.time() - t0
    assert dt < 10
    report(10, True, "200/200 match the minor-gcd oracle (%.1fs)" % dt)


# -- criterion 11: the square-of-simplices gadget -------------------------------


def test_criterion_11_gadget_as_stated():
    """For n, m <= 2 the element category of Delta_n x Delta_m has point
    homology through degree 3."""
    # degree-3 homology of the nerve needs chains through level 4; the
    # forecast only uses level counts, so it never builds the category
    prod, _, _, _ = sp.simpset_product(sp.delta_simpset(2, 4),
                                       sp.delta_simpset(2, 4))
    counts = ht.forecast_int_nerve(prod, 4, 4)
    if counts[4] > 10_000_000:
        report(11, False,
               "infeasible as stated: the (2,2) element category at "
               "truncation 4 has %d objects and its nerve needs %.2e "
               "nondegenerate 4-chains for a degree-3 verdict (the forecast "
               "is exact). See the feasible-scale companion (degree <= 1, "
               "all n, m <= 2)." % (counts[0], counts[4]))
    for n in range(3):
        for m in range(3):
            prod, _, _, _ = sp.simpset_product(sp.delta_simpset(n, 4),
                                               sp.delta_simpset(m, 4))
            el, _, _ = ht.int_simpset(prod, 4)
            h = at.homology(sp.nerve_of_category(el, 4))
            assert h.valid_range >= 3 and h.is_point()
    report(11, True, "")


def test_criterion_11_companion_feasible_scale():
    """Point homology of the element categories through degree 1 (element
    categories and nerves truncated at 2), for every n, m <= 2."""
    t0 = time.time()
    for n in range(3):
        for m in range(3):
            prod, _, _, _ = sp.simpset_product(sp.delta_simpset(n, 2),
                                               sp.delta_simpset(m, 2))
            el, _, _ = ht.int_simpset(prod, 2)
            h = at.homology(sp.nerve_of_category(el, 2))
            assert h.valid_range >= 1 and h.is_point(), (n, m)
    report(11, True, "companion (degree <= 1): all 9 element categories "
                     "are homology points (%.0fs)" % (time.time() - t0))
