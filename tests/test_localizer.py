import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from diacats import algtop as at
from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import jsonio as io
from diacats import localizer as lc
from diacats import randgen as rg
from diacats import simplicial as sp
from diacats.errors import LimitAbsent, TargetMismatch
from test_search import relabeled, transformation_monoid

TS = fx.terminal_site()
PS = fx.pseudocircle_site()


def small_universe():
    return lc.poset_universe(TS, 2)


def poset_subuniverse():
    """Constant diagrams on P1, C2 and V: some comma products have no
    isomorphic copy in it, so some triangles are skipped."""
    shapes = {c.name: c for c in lc.poset_shapes(3)}
    return lc.universe_from(TS, [
        dg.DiaObj(shapes[n], fc.FinFunctor.constant(shapes[n], TS.cat, "*"), n)
        for n in ("P1", "C2", "V")], all_mors=True)


def constant_dia(shape, name):
    return dg.DiaObj(shape, fc.FinFunctor.constant(shape, TS.cat, "*"), name)


def span_universe(k=0):
    """Criterion 09's span universe k: pt <- Y -> W with (Y, W) = (I1, pt),
    (pt, I1), (V, pt), (I1, I1), (V, pt) for k = 0..4, its Grothendieck
    construction and every diagram morphism among them."""
    pt = dg.point_dia(TS.cat, "*", "pt")
    i1 = constant_dia(fc.chain_category(1), "I1")
    v = constant_dia(fc.poset_category("V", ["a", "b", "c"],
                                       lambda p, q: p == q or (p == "a" and q in "bc")), "V")
    y, w = [(i1, pt), (pt, i1), (v, pt), (i1, i1), (v, pt)][k]
    f = dg.all_dia_mors(y, pt)[0]
    g = dg.all_dia_mors(y, w)[0]
    gro, _, _ = dg.grothendieck_construction(dg.span_diafunctor(f, g))
    return lc.universe_from(TS, [y, pt, w, gro], all_mors=True)


def pseudocircle_universe():
    """Point diagrams on X = {a,b,c,d}, its cover U, V and their meet, and
    U <= X on the shape [1], over the pseudocircle: every comma label is a
    meet, and the legs of a label to p.src and to the probe differ, which
    the terminal site cannot show."""
    c1 = fc.chain_category(1)
    u_le_x = dg.DiaObj(c1, fc.FinFunctor(
        "lbl", c1, PS.cat, {"0": "{a,b,c}", "1": "{a,b,c,d}"},
        {c1.id_of("0"): PS.cat.id_of("{a,b,c}"),
         c1.id_of("1"): PS.cat.id_of("{a,b,c,d}"),
         "0<=1": "{a,b,c}<={a,b,c,d}"}), "U<=X")
    points = [dg.point_dia(PS.cat, x, x)
              for x in ("{a,b,c,d}", "{a,b,c}", "{a,b,d}", "{a,b}")]
    return lc.universe_from(PS, points + [u_le_x], all_mors=True)


def bench_poset_universe():
    """The poset universe of the benchmark's `closure` workload."""
    shapes = {c.name: c for c in lc.poset_shapes(3)}
    return lc.universe_from(TS, [constant_dia(shapes[n], n)
                                 for n in ("E0", "P1", "C2", "D2", "C3", "V")],
                            all_mors=True)


def nonposet_universe():
    """Constant diagrams on the walking isomorphism a <-> b, on Z/2 and on
    the walking isomorphism with a terminal object t: shapes with
    non-identity automorphisms and isomorphic objects, where a left
    adjoint is unique only up to isomorphism."""
    m = fc.Mor
    iso_mors = [m("1a", "a", "a"), m("1b", "b", "b"), m("f", "a", "b"), m("g", "b", "a")]
    iso_comp = {("1a", "1a"): "1a", ("1b", "1b"): "1b", ("f", "1a"): "f", ("1b", "f"): "f",
                ("g", "1b"): "g", ("1a", "g"): "g", ("g", "f"): "1a", ("f", "g"): "1b"}
    iso = fc.FinCat("Iso", ["a", "b"], iso_mors, {"a": "1a", "b": "1b"}, iso_comp)
    z2 = fc.FinCat("Z2", ["o"], [m("e", "o", "o"), m("x", "o", "o")], {"o": "e"},
                   {("e", "e"): "e", ("e", "x"): "x", ("x", "e"): "x", ("x", "x"): "e"})
    isot = fc.FinCat(
        "IsoT", ["a", "b", "t"],
        iso_mors + [m("1t", "t", "t"), m("at", "a", "t"), m("bt", "b", "t")],
        {"a": "1a", "b": "1b", "t": "1t"},
        {**iso_comp, ("1t", "1t"): "1t", ("at", "1a"): "at", ("1t", "at"): "at",
         ("bt", "1b"): "bt", ("1t", "bt"): "bt", ("bt", "f"): "at", ("at", "g"): "bt"})
    return lc.universe_from(TS, [constant_dia(c.validate(), c.name) for c in (iso, z2, isot)],
                            all_mors=True)


def d2_labelled(a, b):
    """The discrete shape D2 over the pseudocircle, object x labelled a and
    object y labelled b."""
    shape = next(s for s in lc.poset_shapes(2) if s.name == "D2")
    return dg.DiaObj(shape, fc.FinFunctor(
        "lbl", shape, PS.cat, {"x": a, "y": b},
        {shape.id_of("x"): PS.cat.id_of(a), shape.id_of("y"): PS.cat.id_of(b)}))


def reference_induced_comma_map(w, comma1, comma2):
    """The earlier `dg.induced_comma_map`: a dict per map, the label search
    in comma key order, a FinFunctor and a DiaMor."""
    c1, c1_p, c1_q = comma1
    c2, c2_p, c2_q = comma2
    scat = w.src.scat
    omap, mmap, lt = {}, {}, {}
    for (i, e, phi), oid in c1.comma_okey.items():
        tgt_key = (w.shape_map.ob(i), e, phi)
        oid2 = c2.comma_okey[tgt_key]
        omap[oid] = oid2
        want_s = scat.comp(w.label_transf[i], c1_p.label_transf[oid])
        want_t = c1_q.label_transf[oid]
        cands = [h for h in scat.hom(c1.labels.ob(oid), c2.labels.ob(oid2))
                 if scat.comp(c2_p.label_transf[oid2], h) == want_s
                 and scat.comp(c2_q.label_transf[oid2], h) == want_t]
        if len(cands) != 1:
            raise LimitAbsent("no unique induced comma label at %r" % oid)
        lt[oid] = cands[0]
    for (o1, o2, u, v), mid in c1.comma_mkey.items():
        mmap[mid] = c2.comma_mkey[(omap[o1], omap[o2], w.shape_map.mo(u), v)]
    shape_map = fc.FinFunctor("w_k", c1.shape, c2.shape, omap, mmap)
    return dg.DiaMor(c1, c2, shape_map, lt, "induced")


def reference_comma_mid(u, translator, w, p1, p2, k, member):
    probe = dg.point_dia(u.site.cat, u.site.cat.dom(member))
    q = dg.DiaMor(probe, p1.tgt,
                  fc.FinFunctor("k", probe.shape, p1.tgt.shape,
                                {"*": k}, {"id_*": p1.tgt.shape.id_of(k)}),
                  {"*": member})
    try:
        induced = reference_induced_comma_map(w, dg.comma_fiber_product(p1, q),
                                              dg.comma_fiber_product(p2, q))
    except (LimitAbsent, TargetMismatch):
        return None
    return translator.translate_mor(induced)


def reference_l3_instances(u, refine_bound=2):
    """l3_instances recomputed per triangle and member: both comma
    products, the induced map and its translation, nothing shared."""
    translator = lc.ShapeTranslator(u)
    instances, skipped = [], []
    for wid, wm in u.morphisms.items():
        for p2id, p2m in u.morphisms.items():
            if p2m.src != wm.tgt:
                continue
            p1 = u.morphisms[u.comp[(p2id, wid)]].mor
            d3 = p2m.mor.tgt
            per_k = []
            for k in d3.shape.objects:
                fam_entries = []
                for fam in lc.cover_families(u.site, d3.labels.ob(k), refine_bound):
                    mids = [reference_comma_mid(u, translator, wm.mor, p1,
                                                p2m.mor, k, member)
                            for member in fam]
                    if None not in mids:
                        fam_entries.append((fam, mids))
                if not fam_entries:
                    skipped.append((wid, p2id))
                    break
                per_k.append((k, fam_entries))
            else:
                instances.append((wid, p2id, per_k))
    return instances, skipped


def test_poset_shapes_refuse_an_uncovered_size():
    """Sizes 0-3 list 1, 1, 2 and 5 new shapes; size 4 is not tabulated and
    raises, naming the largest covered size, rather than answer the <= 3
    list."""
    assert [len(lc.poset_shapes(n)) for n in range(4)] == [1, 2, 4, 9]
    assert [c.name for c in lc.poset_shapes(3)][:4] == ["E0", "P1", "C2", "D2"]
    with pytest.raises(ValueError, match="up to 3 elements"):
        lc.poset_shapes(4)
    with pytest.raises(ValueError, match="up to 3 elements"):
        lc.poset_universe(TS, 4)


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


def test_universe_validate_rejects_tampered_composite():
    """The triangles of `l3_instances` come from `u.comp` unchecked, so
    `validate` must catch a comp entry that names the wrong morphism."""
    u = small_universe()
    for (g, f), h in u.comp.items():
        ends = (u.morphisms[h].src, u.morphisms[h].tgt)
        parallel = [k for k, m in u.morphisms.items()
                    if k != h and (m.src, m.tgt) == ends]
        if parallel:
            break
    assert parallel
    u.validate()
    u.comp[(g, f)] = parallel[0]
    with pytest.raises(TargetMismatch, match="is not their composite"):
        u.validate()


def test_universe_validate_rejects_tampered_endpoint_id():
    """The morphism index keys by endpoint ids, so `validate` must catch a
    morphism whose recorded id is not its diagram's."""
    u = small_universe()
    mid, um = next((mid, um) for mid, um in u.morphisms.items()
                   if um.src != um.tgt)
    u.validate()
    um.src = um.tgt
    with pytest.raises(TargetMismatch, match="endpoint ids"):
        u.validate()


@pytest.mark.parametrize("make", [lambda: lc.poset_universe(TS, 3), span_universe],
                         ids=["criterion_08", "span"])
def test_morphism_index_matches_structural_keys(make):
    """`lookup` agrees with a dict keyed by `DiaMor.key` on every morphism,
    and misses a changed label part, a changed shape map and an endpoint
    outside the universe."""
    u = make()
    by_key = {um.mor.key(): mid for mid, um in u.morphisms.items()}
    assert len(by_key) == len(u.morphisms)
    c4 = fc.chain_category(4)
    outside = dg.DiaObj(c4, fc.FinFunctor.constant(c4, TS.cat, "*"), "C4")
    assert u.lookup_object(outside) is None
    for mid, um in u.morphisms.items():
        m = um.mor
        assert u.lookup(m) == by_key[m.key()] == mid
        if not m.src.shape.objects:
            continue
        x = m.src.shape.objects[0]
        omap = dict(m.shape_map.object_map, **{x: "elsewhere"})
        perturbed = [
            dg.DiaMor(m.src, m.tgt, m.shape_map, dict(m.label_transf, **{x: "other"})),
            dg.DiaMor(m.src, m.tgt, fc.FinFunctor("a", m.src.shape, m.tgt.shape,
                                                  omap, m.shape_map.morphism_map),
                      m.label_transf),
            dg.DiaMor(outside, m.tgt, m.shape_map, m.label_transf)]
        for p in perturbed:
            assert p.key() not in by_key
            assert u.lookup(p) is None


def reference_homotopy_classes(u):
    """The earlier `homotopy_classes`: it searches for 2-morphisms between
    every parallel pair, even one already in a single class."""
    parent = {mid: mid for mid in u.morphisms}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    groups = {}
    for mid, um in u.morphisms.items():
        groups.setdefault((um.src, um.tgt), []).append(mid)
    for (s, t), mids in groups.items():
        for a, b in itertools.combinations(mids, 2):
            ma, mb = u.morphisms[a].mor, u.morphisms[b].mor
            if dg.two_morphisms(ma, mb) or dg.two_morphisms(mb, ma):
                parent[find(a)] = find(b)
    classes = {}
    for mid in u.morphisms:
        classes.setdefault(find(mid), []).append(mid)
    return classes


@pytest.mark.parametrize("make", [lambda: lc.poset_universe(TS, 3), span_universe],
                         ids=["criterion_08", "span"])
def test_homotopy_classes_match_reference(make):
    u = make()
    assert (list(lc.homotopy_classes(u).items())
            == list(reference_homotopy_classes(u).items()))


def test_l3_keys_no_induced_map(monkeypatch):
    """Induced comma maps resolve through the translations of their
    endpoints: `DiaObj.key` runs at most once per comma product built and
    once per universe object, never per induced map."""
    u = span_universe()
    keys, commas = Counter(), Counter()
    real_key, real_comma = dg.DiaObj.key, dg.comma_fiber_product

    def counting_key(d):
        keys["key"] += 1
        return real_key(d)

    def counting_comma(p, q):
        commas["comma"] += 1
        return real_comma(p, q)

    monkeypatch.setattr(dg.DiaObj, "key", counting_key)
    monkeypatch.setattr(dg, "comma_fiber_product", counting_comma)
    instances, _ = lc.l3_instances(u)
    induced = sum(len(mids) for (_, _, per_k) in instances
                  for (_, fams) in per_k for (_, mids) in fams)
    assert induced > commas["comma"] + len(u.objects)
    assert keys["key"] <= commas["comma"] + len(u.objects)


def test_translate_finds_label_respecting_isomorphism():
    """The first shape isomorphism D2 -> D2 is the identity, which breaks
    the labels; the swap respects them and must be found."""
    u = lc.DiagramUniverse(PS)
    oid = u.add_object(d2_labelled("{b}", "{a}"))
    d = d2_labelled("{a}", "{b}")
    assert fc.find_isomorphism(d.shape, u.objects[oid].shape).object_map \
        == {"x": "x", "y": "y"}
    found, iso = lc.ShapeTranslator(u).translate(d)
    assert found == oid
    assert iso.object_map == {"x": "y", "y": "x"}
    assert lc.ShapeTranslator(u).translate(d2_labelled("{a}", "{a}")) is None


def test_translate_finds_a_relabelled_non_thin_copy():
    """A constant diagram on a 5-element monoid translates onto the universe
    object on its relabelled copy."""
    c = transformation_monoid(3, [(2, 2, 2), (1, 1, 0)])
    u = lc.DiagramUniverse(TS)
    oid = u.add_object(constant_dia(relabeled(c, random.Random(1)), "copy"))
    found, iso = lc.ShapeTranslator(u).translate(constant_dia(c, "M"))
    assert found == oid
    assert fc.verify_isomorphism(iso) and iso.target is u.objects[oid].shape


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


@pytest.mark.parametrize("rule", ["WS1", "WS2-compose", "WS2-right", "WS2-left",
                                  "WS3", "WS3-section", "L2", "L3", "L4", "HTP",
                                  "ADJ", "ADJ-partner"])
def test_replay_provenance_rejects_forged_instances(rule):
    """A forged record whose premises are members but whose instance does
    not hold in the universe (identities in place of the real factors, an
    object whose collapse is another morphism, a triangle with no family
    named, a partner that is not the member's) is reported.  The closure
    no longer writes "ADJ" records (L4 admits those morphisms first), so
    that case is a record naming a rule the tables do not have."""
    u = small_universe()
    w = lc.closure_fixpoint(lc.MorClass(), u)
    assert not lc.replay_provenance(w, u)
    mid = next(m for m in sorted(w.members) if u.morphisms[m].src != u.morphisms[m].tgt)
    tgt = u.morphisms[mid].tgt
    id_src, id_tgt = u.identity[u.morphisms[mid].src], u.identity[tgt]
    assert {id_src, id_tgt} <= w.members
    forged = w.copy()
    forged.provenance[mid] = (rule,) + {
        "WS1": (), "WS2-compose": (id_src, id_src), "WS2-right": (id_src, id_src),
        "WS2-left": (id_tgt, id_tgt), "WS3": (id_src, id_src),
        "WS3-section": (id_tgt, id_tgt), "L2": (tgt,), "L3": (id_tgt, ()),
        "L4": ("fibers", ()), "HTP": (id_src,), "ADJ": ("no such functor",),
        "ADJ-partner": (id_src,)}[rule]
    assert lc.replay_provenance(forged, u) == [mid]


def test_replay_rejects_a_record_that_uses_its_own_member():
    """m6 = id o m6, and both are members, but m6 is not a member before its
    own record: every rule's premises must be recorded earlier."""
    u = lc.poset_universe(fx.terminal_site(), 2)
    w = lc.closure_fixpoint(lc.MorClass(), u)
    assert "m6" in w.members and lc.replay_provenance(w, u) == []
    forged = w.copy()
    forged.provenance["m6"] = ("WS2-compose", "m6", u.identity[u.morphisms["m6"].tgt])
    assert lc.replay_provenance(forged, u) == ["m6"]


@pytest.mark.parametrize("record", [(), ("WS1", "m0"), ("HTP",), ("L3", "m0", [["x"]]),
                                    ("NO-SUCH-RULE",)])
def test_replay_provenance_reports_malformed_records(record):
    """A record with no rule, fields of another rule's shape or an unknown
    rule is reported, not raised."""
    u = small_universe()
    forged = lc.closure_fixpoint(lc.MorClass(), u)
    mid = sorted(forged.members)[0]
    forged.provenance[mid] = record
    assert lc.replay_provenance(forged, u) == [mid]


def test_replay_reads_the_closure_tables(monkeypatch):
    """A closure and its copy carry the instance tables they were derived
    from: replay builds no comma product, certificate or left adjoint."""
    u = span_universe()
    w = lc.closure_fixpoint(lc.MorClass(), u)
    for name in ("l3_instances", "l4_instances", "adjunction_instances"):
        monkeypatch.setattr(lc, name, None)
    assert lc.replay_provenance(w, u) == lc.replay_provenance(w.copy(), u) == []


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
        induced = dg.induced_comma_map(w_mor, dg.comma_fiber_product(w_mor, q),
                                       dg.comma_fiber_product(p2, q))
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


@pytest.mark.parametrize("make", [poset_subuniverse, span_universe,
                                  pseudocircle_universe])
def test_l3_instances_match_per_triangle_reference(make):
    u = make()
    instances, skipped = lc.l3_instances(u)
    assert instances and skipped
    assert (instances, skipped) == reference_l3_instances(u)


@pytest.mark.parametrize("make", [poset_subuniverse, span_universe,
                                  pseudocircle_universe])
def test_closure_matches_reference_l3(make, monkeypatch):
    """The closure, resolving L3 on demand, admits, records (order
    included) and skips what the frozen closure does on the frozen
    per-triangle L3 table: unseeded, seeded with the first three morphisms
    and, on the pseudocircle, seeded with each morphism alone (two of which
    admit by L3 through the {U, V} cover)."""
    u = make()
    seeds = [lc.MorClass(), seeded_with_first_three(u)]
    if make is pseudocircle_universe:
        seeds += [lc.MorClass({mid}, {mid: ("SEED",)}) for mid in u.morphisms]
    got = [lc.closure_fixpoint(seed, u) for seed in seeds]
    table = reference_l3_instances(u)
    monkeypatch.setattr(lc, "l3_instances", lambda u: table)
    for seed, w in zip(seeds, got):
        ref = reference_closure_fixpoint(seed, u)
        assert list(w.provenance.items()) == list(ref.provenance.items())
        assert w.members == ref.members and w.skipped_l3 == ref.skipped_l3
        assert lc.replay_provenance(w, u) == []
    if make is pseudocircle_universe:
        assert sum(why[0] == "L3" for w in got for why in w.provenance.values()) == 2


def test_l3_resolves_only_open_triangles(monkeypatch):
    """Criterion 08's unseeded closure resolves w_k only for triangles whose
    conclusion is not a member, up to the first failing family: 38,450
    induced maps where the full table needs 87,186.  The first read of
    `skipped_l3` resolves the rest from the same caches; a second read
    resolves nothing."""
    u = lc.poset_universe(TS, 3)
    real, calls = dg.induced_rows, Counter()

    def counting(*args):
        calls["induced"] += 1
        return real(*args)

    monkeypatch.setattr(dg, "induced_rows", counting)
    w = lc.closure_fixpoint(lc.MorClass(), u)
    assert calls["induced"] == 38450
    assert w.skipped_l3 == [] and calls["induced"] == 87186
    assert w.skipped_l3 == [] and calls["induced"] == 87186


def reference_l3_records(instances, members):
    """The L3 derivations the eager table gives for a fixed class."""
    out = []
    for wid, p2id, per_k in instances:
        if wid in members:
            continue
        chosen = []
        for k, entries in per_k:
            fam = next((fam for fam, mids in entries if set(mids) <= members), None)
            if fam is None:
                break
            chosen.append((k, tuple(fam)))
        else:
            out.append((wid, ("L3", p2id, tuple(chosen))))
    return out


@pytest.mark.parametrize("make", [pseudocircle_universe, poset_subuniverse],
                         ids=["pseudocircle", "poset_sub"])
def test_derive_retries_a_failed_l3_triangle(make):
    """One rule table, two calls of `_derive`: a triangle missing one comma
    id in the first is admitted in the second, once that id is a member,
    with the record the eager table gives; the rest match it too."""
    u = make()
    instances, _ = lc.l3_instances(u)
    rules = {"L3": lc.L3Triangles(u)}
    wid, p2id, premises = next(
        (wid, p2id, sorted(ids)) for wid, p2id, per_k in instances
        for ids in [{x for _, entries in per_k for x in entries[-1][1]}]
        if len(ids) > 1 and wid not in ids)
    admitted = []
    for members in (set(premises[:-1]), set(premises)):
        got = [(mid, why) for mid, why, _ in lc._derive(lc.MorClass(members), rules)]
        assert got == reference_l3_records(instances, members)
        admitted.append((wid, p2id) in {(mid, why[1]) for mid, why in got})
    assert admitted == [False, True]


def test_replay_rejects_tampered_l3_records(monkeypatch):
    """An honest L3 record through the pseudocircle's {U, V} cover replays;
    its family swapped for the other family of that k (whose comma map is
    the member itself), a k dropped, or a comma id taken out of the members
    is each reported, from the resolver's caches: no comma is built."""
    u = pseudocircle_universe()
    for seed in u.morphisms:
        w = lc.closure_fixpoint(lc.MorClass({seed}, {seed: ("SEED",)}), u)
        l3 = [(mid, why) for mid, why in w.provenance.items() if why[0] == "L3"]
        if l3:
            break
    mid, (_, p2id, chosen) = l3[0]
    k, fam = chosen[0]
    fams = dict(w.rules["L3"].covers(p2id))[k]
    other = next(tuple(f) for f in fams if tuple(f) != fam)
    calls = Counter()
    monkeypatch.setattr(dg, "comma_fiber_product", lambda *args: calls.update(["comma"]))
    assert lc.replay_provenance(w, u) == []
    swapped, dropped, removed = w.copy(), w.copy(), w.copy()
    swapped.provenance[mid] = ("L3", p2id, ((k, other),) + chosen[1:])
    dropped.provenance[mid] = ("L3", p2id, chosen[1:])
    removed.members.discard(w.rules["L3"].resolve(mid, p2id, k, fam[-1]))
    assert lc.replay_provenance(swapped, u) == [mid]
    assert lc.replay_provenance(dropped, u) == [mid]
    assert mid in lc.replay_provenance(removed, u)
    assert calls == Counter()


def test_l3_builds_each_comma_once(monkeypatch):
    u = span_universe()
    real = dg.comma_fiber_product
    calls = Counter()

    def counting(p, q):
        calls[(u.lookup(p), q.shape_map.ob("*"), q.label_transf["*"])] += 1
        return real(p, q)

    monkeypatch.setattr(dg, "comma_fiber_product", counting)
    lc.l3_instances(u)
    assert calls and max(calls.values()) == 1


def reference_adjunction_instances(u):
    """`lc.adjunction_instances` as it was before `fc.left_adjoint`: the
    first (p, unit, counit) in the order of `fc.all_functors` and
    `fc.all_nat_transfs` that passes `fc.check_adjunction` and gives a
    valid partner."""
    out = []
    functors = {}
    for mid, um in u.morphisms.items():
        m = um.mor
        if not m.is_pure_diagram_type():
            continue
        s = m.shape_map
        I, J = s.source, s.target
        if (J, I) not in functors:
            functors[(J, I)] = fc.all_functors(J, I)
        for p in functors[(J, I)]:
            for unit in fc.all_nat_transfs(fc.FinFunctor.identity(J), p.then(s)):
                for counit in fc.all_nat_transfs(s.then(p), fc.FinFunctor.identity(I)):
                    w = fc.AdjunctionWitness(p, s, unit, counit)
                    ok, _ = fc.check_adjunction(w)
                    if not ok:
                        continue
                    T = m.tgt.labels
                    partner = dg.DiaMor(
                        m.tgt, m.src, p,
                        {j: T.mo(unit.at(j)) for j in J.objects}, "padj")
                    try:
                        partner.validate()
                    except Exception:
                        continue
                    pid = u.lookup(partner)
                    out.append((mid, pid, p.name))
                    break
                else:
                    continue
                break
            else:
                continue
            break
    return out


ADJ_UNIVERSES = {
    "crit08": lambda: lc.poset_universe(TS, 3),
    **{"span%d" % k: (lambda k=k: span_universe(k)) for k in range(5)},
    "bench_posets": bench_poset_universe,
    "pseudocircle": pseudocircle_universe,
    "small": small_universe,
    "poset_sub": poset_subuniverse,
    "nonposet": nonposet_universe,
}


@pytest.mark.parametrize("name", sorted(ADJ_UNIVERSES))
def test_adjunction_instances_match_reference(name):
    """Same instances and partners as the exhaustive search; every partner
    is a valid diagram morphism and every (p, unit) completes to an
    adjunction that passes the triangle identities."""
    u = ADJ_UNIVERSES[name]()
    got = lc.adjunction_instances(u)
    assert got and got == reference_adjunction_instances(u)
    for mid, pid, _ in got:
        m = u.morphisms[mid].mor
        s = m.shape_map
        p, unit = fc.left_adjoint(s)
        partner = dg.DiaMor(m.tgt, m.src, p, {j: m.tgt.labels.mo(unit.at(j))
                                              for j in s.target.objects}, "padj")
        partner.validate()
        assert pid == u.lookup(partner)
        assert any(fc.check_adjunction(fc.AdjunctionWitness(p, s, unit, c))[0]
                   for c in fc.all_nat_transfs(s.then(p), fc.FinFunctor.identity(s.source)))


@pytest.mark.parametrize("name", sorted(ADJ_UNIVERSES))
def test_right_adjoints_are_l4_slice_instances(name):
    """Mac Lane's criterion (CWM, Thm IV.1.2): s is a right adjoint exactly
    when every slice under s has an initial object.  So every ADJ instance
    is an L4 "slices" instance with only `InitialObject` certificates, L4
    admits it before ADJ is tried, and no closure records "ADJ".  The
    closure carries its `l4_instances` and `adjunction_instances` tables."""
    w = lc.closure_fixpoint(lc.MorClass(), ADJ_UNIVERSES[name]())
    assert "ADJ" not in {why[0] for why in w.provenance.values()}
    l4 = {mid: (how, certs) for mid, how, certs in w.rules["L4"]}
    for mid, _, _ in w.rules["ADJ"]:
        how, certs = l4[mid]
        assert how == "slices" and all(kind == "InitialObject" for _, kind in certs), mid


def test_adjunction_instances_enumerate_no_functors(monkeypatch):
    u = span_universe()
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("all_functors", "all_nat_transfs"):
        monkeypatch.setattr(fc, name, counting(name, getattr(fc, name)))
    assert lc.adjunction_instances(u)
    assert calls == Counter()


def test_pseudocircle_universe_resolves_split_covers():
    """The pseudocircle cases of the reference tests above reach the
    {U, V} cover, where a label map swapping its legs would be lost."""
    instances, _ = lc.l3_instances(pseudocircle_universe())
    assert any(len(fam) > 1 for (_, _, per_k) in instances
               for (_, fams) in per_k for (fam, _) in fams)


def idempotent_monoid():
    """One object and the monoid {1, e} with e e = e: e o h = e for both h,
    so a label search can have two candidates."""
    comp = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    return fc.FinCat("idem", ["*"], [fc.Mor("1", "*", "*"), fc.Mor("e", "*", "*")],
                     {"*": "1"}, comp).validate()


@pytest.mark.parametrize("legs2, leg_t, found", [
    (("1", "1"), "e", "e"),     # one candidate
    (("1", "1"), "1", None),    # h = e and h = 1: none
    (("e", "e"), "e", None),    # e o 1 = e o e: two
], ids=["one", "none", "two"])
def test_induced_rows_needs_exactly_one_label(legs2, leg_t, found):
    """One object row each way, w with label part e: the induced label h
    must satisfy leg_s2 h = e and leg_t2 h = leg_t, and any count of
    candidates other than one gives None."""
    cat = idempotent_monoid()
    pt = dg.point_dia(cat, "*")
    w = dg.DiaMor(pt, pt, fc.FinFunctor.identity(pt.shape), {"*": "e"})
    key = ("*", "*", "1")
    rows1 = ([("a", key, "*", "1", leg_t)], {key: 0}, [], {})
    rows2 = ([("b", key, "*") + legs2], {key: 0}, [], {})
    got = dg.induced_rows(w, rows1, rows2)
    assert got == (None if found is None else ((("a", "b"),), (), (("a", found),)))


def test_induced_comma_map_raises_without_a_label():
    """Commas over different probes have no induced map: the wrapper
    raises `LimitAbsent` where the kernel gives None."""
    cat, x = PS.cat, "{a,b,c,d}"
    top, u_dia = dg.point_dia(cat, x), dg.point_dia(cat, "{a,b,c}")
    w = dg.all_dia_mors(u_dia, top)[0]

    def probe(member):
        pt = dg.point_dia(cat, cat.dom(member))
        return dg.DiaMor(pt, top, fc.FinFunctor.identity(pt.shape), {"*": member})

    c1 = dg.comma_fiber_product(w, probe("{a,b,c}<=%s" % x))
    c2 = dg.comma_fiber_product(dg.DiaMor.identity(top), probe("{a,b,d}<=%s" % x))
    with pytest.raises(LimitAbsent):
        dg.induced_comma_map(w, c1, c2)


def test_l3_builds_no_functor_per_induced_map(monkeypatch):
    """Induced comma maps resolve from the rows of their cached commas:
    `induced_comma_map` never runs, and every FinFunctor is built while a
    comma is built and translated, none per induced map."""
    u = span_universe()
    calls, building = Counter(), []
    real_init, real_comma = fc.FinFunctor.__init__, lc._translated_comma
    real_induced = dg.induced_comma_map

    def counting_init(self, *args, **kwargs):
        calls["inside" if building else "outside"] += 1
        real_init(self, *args, **kwargs)

    def counting_comma(*args):
        calls["commas"] += 1
        building.append(True)
        try:
            return real_comma(*args)
        finally:
            building.pop()

    def counting_induced(*args):
        calls["induced"] += 1
        return real_induced(*args)

    monkeypatch.setattr(fc.FinFunctor, "__init__", counting_init)
    monkeypatch.setattr(lc, "_translated_comma", counting_comma)
    monkeypatch.setattr(dg, "induced_comma_map", counting_induced)
    instances, _ = lc.l3_instances(u)
    assert instances and calls["commas"] and calls["inside"]
    assert calls["induced"] == calls["outside"] == 0


# ---------------------------------------------------------------------------
# frozen copies of the closure and the checks as each wrote its own rules


def reference_closure_fixpoint(seed, u):
    """The earlier `lc.closure_fixpoint`: WS1, L4, L2 and ADJ admitted
    once, then WS2, WS3, L3 and HTP until no change."""
    w = seed.copy()
    translator = lc.ShapeTranslator(u)
    ws1, ws2, ws3 = lc.ws_instances(u)
    l2s = lc.l2_instances(u, translator)
    l3s, l3_skipped = lc.l3_instances(u)
    l4s = lc.l4_instances(u)
    classes = lc.homotopy_classes(u)
    adjs = lc.adjunction_instances(u)

    for mid in ws1:
        w.admit(mid, ("WS1",))
    for (mid, how, certs) in l4s:
        w.admit(mid, ("L4", how, tuple(certs)))
    for (oid, mid) in l2s:
        if mid is not None:
            w.admit(mid, ("L2", oid))
    for (mid, pid, pname) in adjs:
        w.admit(mid, ("ADJ", pname))
        if pid is not None:
            w.admit(pid, ("ADJ-partner", mid))

    changed = True
    while changed:
        changed = False
        for (f, g, h) in ws2:
            inw = (f in w.members, g in w.members, h in w.members)
            if inw == (True, True, False):
                changed |= w.admit(h, ("WS2-compose", f, g))
            elif inw == (True, False, True):
                changed |= w.admit(g, ("WS2-right", f, h))
            elif inw == (False, True, True):
                changed |= w.admit(f, ("WS2-left", g, h))
        for (p, s, sp_) in ws3:
            if sp_ in w.members:
                changed |= w.admit(p, ("WS3", s, sp_))
                changed |= w.admit(s, ("WS3-section", p, sp_))
        for (wid, p2id, per_k) in l3s:
            if wid in w.members:
                continue
            good = True
            chosen = []
            for (k, fam_entries) in per_k:
                pick = None
                for fam, mids in fam_entries:
                    if all(m in w.members for m in mids):
                        pick = (k, tuple(fam))
                        break
                if pick is None:
                    good = False
                    break
                chosen.append(pick)
            if good:
                changed |= w.admit(wid, ("L3", p2id, tuple(chosen)))
        for root, mids in classes.items():
            if any(m in w.members for m in mids):
                rep = next(m for m in mids if m in w.members)
                for m in mids:
                    if m not in w.members:
                        changed |= w.admit(m, ("HTP", rep))
    w.skipped_l3 = l3_skipped
    return w


def reference_check_ws(w, u):
    ws1, ws2, ws3 = lc.ws_instances(u)
    violations = []
    for mid in ws1:
        if mid not in w.members:
            violations.append(("WS1", mid))
    for (f, g, h) in ws2:
        known = (f in w.members) + (g in w.members) + (h in w.members)
        if known == 2:
            for x in (f, g, h):
                if x not in w.members:
                    violations.append(("WS2", f, g, h, x))
    for (p, s, sp_) in ws3:
        if sp_ in w.members and p not in w.members:
            violations.append(("WS3", p, s))
    return violations


def reference_check_L2(w, u):
    violations, missing = [], []
    for oid, mid in lc.l2_instances(u):
        if mid is None:
            missing.append(("MissingCollapseMorphism", oid))
        elif mid not in w.members:
            violations.append(("L2", oid, mid))
    return violations, missing


def reference_check_L3(w, u):
    instances, skipped = lc.l3_instances(u)
    violations = []
    for (wid, p2id, per_k) in instances:
        if wid in w.members:
            continue
        triggered = True
        for (k, fam_entries) in per_k:
            if not any(all(m in w.members for m in mids)
                       for fam, mids in fam_entries):
                triggered = False
                break
        if triggered:
            violations.append(("L3", wid, p2id))
    return violations, skipped


def reference_check_L4(w, u):
    violations = []
    for (mid, how, certs) in lc.l4_instances(u):
        if mid not in w.members:
            violations.append(("L4", mid, how, certs))
    return violations


def reference_checks(w, u):
    return (reference_check_ws(w, u), reference_check_L2(w, u), reference_check_L3(w, u),
            reference_check_L4(w, u))


def checks(w, u):
    return lc.check_ws(w, u), lc.check_L2(w, u), lc.check_L3(w, u), lc.check_L4(w, u)


def seeded_with_first_three(u):
    seed = lc.MorClass(set(list(u.morphisms)[:3]))
    seed.provenance = {mid: ("SEED",) for mid in list(u.morphisms)[:3]}
    return seed


@pytest.mark.parametrize("name", sorted(ADJ_UNIVERSES))
def test_derivations_match_reference(name, monkeypatch):
    """The closure admits, and the checks report, what the frozen copies
    did, order included; honest closures replay to [].  Each L3 and L4
    table is built once and read by both sides; crit 08 runs the unseeded
    closure and one check pass."""
    u = ADJ_UNIVERSES[name]()
    for table in ("l3_instances", "l4_instances"):
        real, memo = getattr(lc, table), {}

        def once(u, *args, real=real, memo=memo):
            if args not in memo:
                memo[args] = real(u, *args)
            return memo[args]

        monkeypatch.setattr(lc, table, once)
    w, ref = lc.closure_fixpoint(lc.MorClass(), u), reference_closure_fixpoint(lc.MorClass(), u)
    assert list(w.provenance.items()) == list(ref.provenance.items())
    assert w.members == ref.members and w.skipped_l3 == ref.skipped_l3
    assert lc.replay_provenance(w, u) == []
    classes = [w]
    if name != "crit08":
        seeded = lc.closure_fixpoint(seeded_with_first_three(u), u)
        ref = reference_closure_fixpoint(seeded_with_first_three(u), u)
        assert list(seeded.provenance.items()) == list(ref.provenance.items())
        assert seeded.members == ref.members and seeded.skipped_l3 == ref.skipped_l3
        assert lc.replay_provenance(seeded, u) == []
        classes += [lc.MorClass(), lc.MorClass(set(u.identity.values())),
                    lc.MorClass(set(sorted(w.members)[::2])),
                    lc.MorClass(set(list(u.morphisms)[::3]))]
    for c in classes:
        assert checks(c, u) == reference_checks(c, u)


@pytest.mark.parametrize("make", [pseudocircle_universe, span_universe],
                         ids=["pseudocircle", "span"])
def test_localizer_cli_independent_of_hash_seed(make, tmp_path):
    """`localizer-closure` and `localizer-check` print the same bytes, on
    stdout and stderr, under every string hash seed."""
    ufile = tmp_path / "u.json"
    ufile.write_text(io.dumps(io.encode_universe(make())))
    src = os.path.dirname(os.path.dirname(os.path.abspath(lc.__file__)))
    for command in ("localizer-closure", "localizer-check"):
        outs = set()
        for seed in range(3):
            proc = subprocess.run(
                [sys.executable, "-m", "diacats.cli", command, "--universe", str(ufile)],
                capture_output=True, env=dict(os.environ, PYTHONHASHSEED=str(seed),
                                              PYTHONPATH=src))
            assert proc.returncode == (0 if command == "localizer-closure" else 1)
            outs.add((proc.stdout, proc.stderr))
        assert len(outs) == 1


def reference_nerve_soundness_report(w, u, trunc):
    """The former loop: both endpoint nerves rebuilt for every member."""
    return [mid for mid in sorted(w.members)
            if not at.quasi_iso(dg.nerve_mor(u.morphisms[mid].mor, trunc).underlying()).ok]


@pytest.mark.parametrize("name", sorted(ADJ_UNIVERSES))
def test_nerve_soundness_report_builds_each_nerve_once(name, monkeypatch):
    """Over every morphism of the universe, the same offending ids as the
    former loop, from one labelled nerve per universe object in use."""
    u = ADJ_UNIVERSES[name]()
    w = lc.MorClass(set(u.morphisms))
    ref = reference_nerve_soundness_report(w, u, 3)
    calls = []
    real = sp.nerve_labeled
    monkeypatch.setattr(sp, "nerve_labeled", lambda *a: calls.append(a) or real(*a))
    assert lc.nerve_soundness_report(w, u, 3) == ref
    used = {oid for um in u.morphisms.values() for oid in (um.src, um.tgt)}
    assert len(calls) == len(used) <= len(u.objects)
