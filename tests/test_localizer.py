import random

import pytest

from diacats import algtop as at
from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import localizer as lc
from diacats import randgen as rg

TS = fx.terminal_site()
PS = fx.pseudocircle_site()


def small_universe():
    return lc.poset_universe(TS, 2)


def test_universe_builder_closed_and_dedup():
    u = small_universe()
    u.validate()
    for oid, d in u.objects.items():
        d.validate()
    for (g, f), h in u.comp.items():
        assert h in u.morphisms
    # adding an existing diagram twice dedups
    d = u.objects["D1"]
    assert u.add_object(d) == "D1"


def test_check_ws_on_iso_class_and_all():
    u = small_universe()
    isos = set()
    for mid, um in u.morphisms.items():
        inv = [nid for nid, num in u.morphisms.items()
               if num.src == um.tgt and num.tgt == um.src
               and u.comp.get((nid, mid)) in u.identity.values()
               and u.comp.get((mid, nid)) in u.identity.values()]
        if inv:
            isos.add(mid)
    assert not lc.check_ws(lc.MorClass(isos), u)
    assert not lc.check_ws(lc.MorClass(set(u.morphisms)), u)


def test_check_ws_detects_two_out_of_three_gap():
    u = small_universe()
    # identities only, with a non-identity iso present (the swap on D2)
    w = lc.MorClass(set(u.identity.values()))
    viol = lc.check_ws(w, u)
    assert any(v[0] == "WS3" for v in viol) or any(v[0] == "WS2" for v in viol)


def test_check_l2_reports_missing_membership():
    u = small_universe()
    w = lc.MorClass(set())
    viol, missing = lc.check_L2(w, u)
    assert viol and not missing


def test_closure_small_universe_exact():
    u = small_universe()
    w = lc.closure_fixpoint(lc.MorClass(), u)
    # soundness: exactly the nerve quasi-isomorphisms in this tiny universe
    assert not lc.nerve_soundness_report(w, u, 3)
    good = {mid for mid in u.morphisms
            if at.quasi_iso(dg.nerve_mor(u.morphisms[mid].mor, 3).underlying()).ok}
    assert w.members == good


def test_closure_monotone_idempotent():
    u = small_universe()
    w0 = lc.closure_fixpoint(lc.MorClass(), u)
    seeded = lc.MorClass(set(list(sorted(u.morphisms))[:3]))
    for mid in seeded.members:
        seeded.provenance[mid] = ("SEED",)
    w1 = lc.closure_fixpoint(seeded, u)
    assert seeded.members <= w1.members
    assert w0.members <= w1.members or not (w0.members <= seeded.members)
    w2 = lc.closure_fixpoint(w1, u)
    assert w2.members == w1.members


def test_closure_provenance_replays():
    u = small_universe()
    w = lc.closure_fixpoint(lc.MorClass(), u)
    assert not lc.replay_provenance(w, u)


def test_seeded_non_equivalence_flags_seed_not_engine():
    u = small_universe()
    # seed with a genuine non-equivalence: the collapse D2 -> P1 direction
    bad = None
    for mid, um in u.morphisms.items():
        if not at.quasi_iso(dg.nerve_mor(um.mor, 3).underlying()).ok:
            bad = mid
            break
    seeded = lc.MorClass({bad}, {bad: ("SEED",)})
    w = lc.closure_fixpoint(seeded, u)
    report = lc.nerve_soundness_report(w, u, 3)
    assert bad in report
    assert all(m in w.members for m in report)


def test_check_l3_degenerate_point_instance():
    # K = point with the identity cover: comma membership forces w
    u = small_universe()
    w = lc.closure_fixpoint(lc.MorClass(), u)
    viol, skipped = lc.check_L3(w, u)
    assert not viol


def test_check_l4_fibration_variant():
    u = small_universe()
    w = lc.closure_fixpoint(lc.MorClass(), u)
    assert not lc.check_L4(w, u)
    # removing an L4-admitted member produces a violation
    l4 = [mid for (mid, how, certs) in lc.l4_instances(u)]
    w2 = lc.MorClass(set(w.members) - {l4[0]})
    assert lc.check_L4(w2, u)


def test_l3_pseudocircle_split_cover_instance():
    # over the pseudocircle: a triangle over (pt, X) with the {U, V} cover;
    # the induced comma morphisms resolve and trigger (L3)
    cat = PS.cat
    x = "{a,b,c,d}"
    top = dg.point_dia(cat, x)
    u_dia = dg.point_dia(cat, "{a,b,c}")
    universe = lc.DiagramUniverse(PS)
    universe.add_object(top)
    universe.add_object(u_dia)
    for m in dg.all_dia_mors(u_dia, top):
        universe.add_morphism(m)
    for m in dg.all_dia_mors(u_dia, u_dia):
        universe.add_morphism(m)
    for m in dg.all_dia_mors(top, top):
        universe.add_morphism(m)
    # the comma test objects U x_X U_i for the {U,V} cover of X
    w_mor = dg.all_dia_mors(u_dia, top)[0]
    p2 = dg.DiaMor.identity(top)
    for member in ["{a,b,c}<=%s" % x, "{a,b,d}<=%s" % x]:
        probe = dg.point_dia(cat, cat.dom(member))
        q = dg.DiaMor(probe, top, fc.FinFunctor("k", probe.shape, top.shape,
                                                {"*": "*"}, {"id_*": "id_*"}),
                      {"*": member}).validate()
        induced, _ = dg.induced_comma_map(w_mor, w_mor, p2, q)
        induced.validate()
        universe.add_object(induced.src)
        universe.add_object(induced.tgt)
        universe.add_morphism(induced)
    universe.close_composition()
    instances, skipped = lc.l3_instances(universe)
    assert any(wid == universe.lookup(w_mor) for (wid, _, _) in instances)


def test_lemma_pushout_w_instance():
    # a span of diagrams with f a final-object collapse: the closure admits
    # iota_3 : W -> int X
    c1 = fc.chain_category(1)
    y = dg.DiaObj(c1, fc.FinFunctor.constant(c1, TS.cat, "*"), "Y").validate()
    z = dg.point_dia(TS.cat, "*", "Z")
    w_dia = dg.point_dia(TS.cat, "*", "W")
    f = [m for m in dg.all_dia_mors(y, z)][0]
    g = [m for m in dg.all_dia_mors(y, w_dia)][0]
    F = dg.span_diafunctor(f, g)
    gro, proj, incl = dg.grothendieck_construction(F)
    universe = lc.universe_from(TS, [y, z, w_dia, gro], all_mors=True).validate()
    cls = lc.closure_fixpoint(lc.MorClass(), universe)
    assert universe.lookup(f) in cls.members
    iota3 = universe.lookup(incl["b"])
    assert iota3 is not None and iota3 in cls.members
    assert not lc.nerve_soundness_report(cls, universe, 3)


def test_cover_families_refinement_bound():
    fams1 = lc.cover_families(PS, "{a,b,c,d}", 1)
    fams2 = lc.cover_families(PS, "{a,b,c,d}", 2)
    assert len(fams2) >= len(fams1)
