import itertools
import random

import pytest

from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import fractions as fr
from diacats import randgen as rg
from diacats.errors import FractionsFailed


def reference_check_left_fractions(c, w):
    """The former loops of `fr.check_left_fractions`: flags, breaks and
    scans of all morphisms filtered by domain."""
    w = set(w)
    witnesses = {}
    for wm in sorted(w):
        y, z = c.dom(wm), c.cod(wm)
        for g in c.morphisms:
            if g.dom != y:
                continue
            found = None
            for x in c.objects:
                for cap_f in c.hom(g.cod, x):
                    if cap_f not in w:
                        continue
                    for cap_g in c.hom(z, x):
                        if c.comp(cap_f, g.id) == c.comp(cap_g, wm):
                            found = (cap_f, cap_g)
                            break
                    if found:
                        break
                if found:
                    break
            if found is None:
                return False, witnesses, ("square", wm, g.id)
            witnesses[("square", wm, g.id)] = found
    for h in sorted(w):
        y, z = c.dom(h), c.cod(h)
        for f in c.morphisms:
            if f.dom != z:
                continue
            for g in c.hom(z, f.cod):
                if g == f.id:
                    continue
                if c.comp(f.id, h) != c.comp(g, h):
                    continue
                found = None
                for rho in c.morphisms:
                    if rho.dom != f.cod or rho.id not in w:
                        continue
                    if c.comp(rho.id, f.id) == c.comp(rho.id, g):
                        found = rho.id
                        break
                if found is None:
                    return False, witnesses, ("coequalize", h, f.id, g)
                witnesses[("coequalize", h, f.id, g)] = found
    return True, witnesses, None


def is_iso(c, mid):
    """The inverse of the morphism mid of c, or None."""
    m = c.mor(mid)
    for inv in c.hom(m.cod, m.dom):
        if c.comp(inv, mid) == c.id_of(m.dom) and c.comp(mid, inv) == c.id_of(m.cod):
            return inv
    return None


def walking_iso():
    return fc.FinCat(
        "wiso", ["x", "y"],
        [fc.Mor("ix", "x", "x"), fc.Mor("iy", "y", "y"),
         fc.Mor("u", "x", "y"), fc.Mor("v", "y", "x")],
        {"x": "ix", "y": "iy"},
        {("ix", "ix"): "ix", ("iy", "iy"): "iy",
         ("u", "ix"): "u", ("iy", "u"): "u",
         ("v", "iy"): "v", ("ix", "v"): "v",
         ("v", "u"): "ix", ("u", "v"): "iy"}).validate()


def walking_retract():
    """r o i = id on x, with e = i o r idempotent on y."""
    return fc.FinCat(
        "retract", ["x", "y"],
        [fc.Mor("ix", "x", "x"), fc.Mor("iy", "y", "y"),
         fc.Mor("i", "x", "y"), fc.Mor("r", "y", "x"), fc.Mor("e", "y", "y")],
        {"x": "ix", "y": "iy"},
        {("ix", "ix"): "ix", ("iy", "iy"): "iy",
         ("i", "ix"): "i", ("iy", "i"): "i",
         ("r", "iy"): "r", ("ix", "r"): "r",
         ("r", "i"): "ix", ("i", "r"): "e",
         ("e", "iy"): "e", ("iy", "e"): "e",
         ("e", "e"): "e", ("e", "i"): "i", ("r", "e"): "r"}).validate()


def test_isos_always_pass_fractions():
    for c in (fc.chain_category(2), fx.fence_poset(), fx.span_shape()):
        isos = {m.id for m in c.morphisms if is_iso(c, m.id)}
        ok, _, fail = fr.check_left_fractions(c, isos)
        assert ok, fail


def test_interval_localization_collapses():
    c = fc.chain_category(1)
    w = {c.id_of("0"), c.id_of("1"), "0<=1"}
    ok, _, _ = fr.check_left_fractions(c, w)
    assert ok
    lc_ = fr.localize_fractions(c, w)
    assert all(len(v) == 1 for v in lc_.homs.values())
    assert fr.saturation(c, w) == {"0<=0", "0<=1", "1<=1"}


def test_localize_identities_gives_back_c():
    c = fx.span_shape()
    w = {c.id_of(x) for x in c.objects}
    lc_ = fr.localize_fractions(c, w)
    loc_cat = fr.localized_as_fincat(lc_)
    assert fc.find_isomorphism(loc_cat, c) is not None


def test_localize_at_isos_is_canonically_c():
    c = walking_iso()
    isos = {m.id for m in c.morphisms}
    lc_ = fr.localize_fractions(c, isos)
    assert fc.find_isomorphism(fr.localized_as_fincat(lc_), c) is not None


def test_saturation_contains_w_and_idempotent():
    rng = random.Random(5)
    c = fc.chain_category(2)
    w = {c.id_of(str(i)) for i in range(3)} | {"0<=1"}
    sat = fr.saturation(c, w)
    assert w <= sat
    assert fr.saturation(c, sat) == sat
    assert not fr.check_two_out_of_six(sat, c)
    assert not fr.check_retract_closed(sat, c)


def test_fractions_failure_reported_for_span_leg():
    c = fx.span_shape()
    w = {c.id_of(x) for x in c.objects} | {"a<=b"}
    ok, _, fail = fr.check_left_fractions(c, w)
    assert not ok and fail[0] == "square"
    with pytest.raises(FractionsFailed):
        fr.localize_fractions(c, w)


def test_two_out_of_six_violation_witness():
    c = fc.chain_category(3)
    w = {c.id_of(str(i)) for i in range(4)} | {"0<=2", "1<=3"}
    v = fr.check_two_out_of_six(w, c)
    assert v and v[0][:3] == ("0<=1", "1<=2", "2<=3")


def test_retract_closure_violation_witness():
    c = walking_retract()
    # ix is a retract of e; with e in W but ix... ix is an identity, so
    # exercise the reverse: e is in W when the class is closed; make a class
    # where iy is in W but e (a retract of iy? no) -- use f=ix retract of g=e
    w = {"e", "iy", "ix"}
    assert not [v for v in fr.check_retract_closed(w, c) if v[0] == "ix"]
    w2 = {"e"}
    viol = fr.check_retract_closed(w2, c)
    assert any(v[0] == "ix" and v[1] == "e" for v in viol)


def test_check_left_fractions_matches_reference():
    """Same verdict, witnesses and first failure as the former loops, on the
    classes above, every subset of W on small categories with idempotents
    and isomorphisms, random W on random posets and on the bundled sites."""
    cases = [(fc.chain_category(1), {"0<=0", "1<=1", "0<=1"}),
             (fc.chain_category(3), {"0<=0", "1<=1", "2<=2", "3<=3", "0<=2", "1<=3"})]
    for c in (fc.chain_category(2), fx.fence_poset(), fx.span_shape()):
        cases.append((c, {m.id for m in c.morphisms if is_iso(c, m.id)}))
        cases.append((c, {c.id_of(x) for x in c.objects} | {"a<=b"} & set(c._mor_by_id)))
    for c in (walking_iso(), walking_retract()):
        ids = [m.id for m in c.morphisms]
        cases += [(c, set(sub)) for k in range(len(ids) + 1)
                  for sub in itertools.combinations(ids, k)]
    rng = random.Random(4)
    cats = [rg.random_poset(rng, 4, "P%d" % k) for k in range(30)]
    cats += [s.cat for s in (fx.terminal_site(), fx.sierpinski_site(), fx.pseudocircle_site())]
    for c in cats:
        for _ in range(8):
            cases.append((c, {m.id for m in c.morphisms if rng.random() < 0.6}))
    verdicts = set()
    for c, w in cases:
        got = fr.check_left_fractions(c, w)
        assert got == reference_check_left_fractions(c, w), (c, sorted(w))
        verdicts.add(got[0] or got[2][0])
    assert verdicts == {True, "square", "coequalize"}
