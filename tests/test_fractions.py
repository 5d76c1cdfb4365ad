import random

import pytest

from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import fractions as fr
from diacats.errors import FractionsFailed


def test_isos_always_pass_fractions():
    for c in (fc.chain_category(2), fx.fence_poset(), fx.span_shape()):
        isos = {m.id for m in c.morphisms if c.is_iso(m.id)}
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
    # a category with a non-identity iso: the walking isomorphism
    c = fc.FinCat(
        "wiso", ["x", "y"],
        [fc.Mor("ix", "x", "x"), fc.Mor("iy", "y", "y"),
         fc.Mor("u", "x", "y"), fc.Mor("v", "y", "x")],
        {"x": "ix", "y": "iy"},
        {("ix", "ix"): "ix", ("iy", "iy"): "iy",
         ("u", "ix"): "u", ("iy", "u"): "u",
         ("v", "iy"): "v", ("ix", "v"): "v",
         ("v", "u"): "ix", ("u", "v"): "iy"}).validate()
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
    # the walking retract: r o i = id on x, with e = i o r idempotent on y
    c = fc.FinCat(
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
    # ix is a retract of e; with e in W but ix... ix is an identity, so
    # exercise the reverse: e is in W when the class is closed; make a class
    # where iy is in W but e (a retract of iy? no) -- use f=ix retract of g=e
    w = {"e", "iy", "ix"}
    assert not [v for v in fr.check_retract_closed(w, c) if v[0] == "ix"]
    w2 = {"e"}
    viol = fr.check_retract_closed(w2, c)
    assert any(v[0] == "ix" and v[1] == "e" for v in viol)
