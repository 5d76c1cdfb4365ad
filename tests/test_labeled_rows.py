"""Labelled nerves and the first-vertex comparison read the nerve's rows.

`nerve_labeled` returns a split object whose `label` and `part` are
written on first read, each chain taking its carrier and first arrow from
its parent; `chain_of` is the nerve's own, written when read.
`comparison_to_simp` walks the integer parents and composes by table
reads, so it builds none of these views and calls no `mt_comp`.  A later
first read must still give the eager construction's values in its order.

`FinCat` builds its hom, out and in indexes on the first query that reads
one; the homology pipeline reads none of them.
"""

import random

import pytest

from diacats import algtop as at
from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import homotopy as ht
from diacats import randgen as rg
from diacats import simplicial as sp

from test_homology_pipeline import gadget_bases, torsion_bases
from test_homotopy import comparison_pin_inputs, companion_objects, has_nonidentity
from test_nerve_engine import reference_nerve
from test_validation_boundary import case_nerve_labeled

PS = fx.pseudocircle_site()
TS = fx.terminal_site()


def reference_nerve_labeled(c, labels, trunc):
    """The labels and parts `nerve_labeled` wrote eagerly, through the
    nerve's `chain_of`, before they were written on first read."""
    scat = labels.target
    uset = sp.nerve_of_category(c, trunc)
    label, part = {}, {}
    for lev, ids in enumerate(uset.levels):
        for sid in ids:
            x0, ms = uset.chain_of[sid]
            label[sid] = labels.ob(x0)
            for i in range(lev + 1 if lev else 0):
                part[(sid, i)] = scat.id_of(label[sid]) if i else labels.mo(ms[0])
    return label, part


def assert_matches_reference(nv, d, trunc, validate=True):
    """Read `label` and `part` of the labelled nerve nv of d and compare
    them, in order, with the eager loop; returns the reference parts."""
    label, part = reference_nerve_labeled(d.shape, d.labels, trunc)
    assert list(nv.label.items()) == list(label.items())
    assert list(nv.part.items()) == list(part.items())
    if validate:
        nv.validate()
    ref = sp.SplitSimpObj(d.labels.target, reference_nerve(d.shape, trunc), label, part)
    assert sp.split_equal(nv, ref)
    assert list(nv.chain_of.items()) == list(ref.uset.chain_of.items())
    return part


def nonidentity_d0(scat, part):
    return has_nonidentity(scat, [p for (_, i), p in part.items() if i == 0])


def test_comparison_reads_no_label_part_or_chain_of():
    # validate() takes about 0.15 s on one of these nerves: every sixth runs it
    for n, x in enumerate(comparison_pin_inputs()):
        cmp_mor, ia = ht.comparison_to_simp(x, 2, 2, budget=500_000)
        assert at.quasi_iso(cmp_mor.underlying()).ok
        nv = cmp_mor.src
        assert isinstance(nv, dg.LabeledNerve)
        assert "label" not in vars(nv) and "part" not in vars(nv)
        assert "chain_of" not in vars(nv.uset) and "faces" not in vars(nv.uset)
        assert_matches_reference(nv, ia.dia, 2, validate=n % 6 == 0)


def test_random_diagram_nerves_match_reference():
    scat, found = PS.cat, 0
    for seed in range(40):
        d = rg.random_diaobj(random.Random(seed), PS, 4)
        nv = dg.nerve(d, 3)
        label, part = reference_nerve_labeled(d.shape, d.labels, 3)
        if not nonidentity_d0(scat, part):
            continue
        found += 1
        assert_matches_reference(nv, d, 3)
        assert nv.label is nv.label and nv.part is nv.part
    assert found >= 5


@pytest.mark.parametrize("seed", range(5))
def test_case_nerve_labeled_matches_reference(seed):
    nv, = case_nerve_labeled(random.Random(seed))
    # the diagram case_nerve_labeled draws, drawn again from the same seed
    d = rg.random_diaobj(random.Random(seed), PS, 4)
    assert_matches_reference(nv, d, 3)


def test_truncation_zero_nerve():
    d = rg.random_diaobj(random.Random(0), PS, 4)
    nv = dg.nerve(d, 0)
    label, part = reference_nerve_labeled(d.shape, d.labels, 0)
    assert list(nv.label.items()) == list(label.items())
    assert nv.part == part == {}


def test_comparison_walk_calls_no_mt_comp(monkeypatch):
    x = companion_objects()[0]
    want, _ = ht.comparison_to_simp(x, 2, 2, budget=500_000)

    def refuse(outer, inner):
        raise AssertionError("mt_comp called")

    monkeypatch.setattr(sp, "mt_comp", refuse)
    got, _ = ht.comparison_to_simp(x, 2, 2, budget=500_000)
    monkeypatch.undo()
    assert list(got.val.items()) == list(want.val.items())
    assert list(got.part.items()) == list(want.part.items())


def test_comparison_clamps_int_trunc_like_int_amalg():
    x = sp.as_split(TS.cat, sp.delta_simpset(1, 2), "*")
    got, ia = ht.comparison_to_simp(x, 2, 3)
    want, _ = ht.comparison_to_simp(x, 2, 2)
    assert ia.trunc == ht.int_amalg(x, 3).trunc == 2
    assert list(got.val.items()) == list(want.val.items())
    assert list(got.part.items()) == list(want.part.items())
    assert got.src.uset.level_sizes() == ht.forecast_int_nerve(x, 2, 2)


def test_comparison_of_the_empty_object():
    x = sp.as_split(TS.cat, sp.SimpSet(2, [[], [], []], {}, "E"), "*")
    cmp_mor, _ = ht.comparison_to_simp(x, 2, 2)
    assert cmp_mor.val == cmp_mor.part == {}
    assert cmp_mor.src.label == cmp_mor.src.part == {}


# --- FinCat indexes ------------------------------------------------------


def eager_indexes(cat):
    """hom, out and in as the constructor built them eagerly."""
    hom, out, into = {}, {}, {}
    for m in cat.morphisms:
        hom.setdefault((m.dom, m.cod), []).append(m.id)
        out.setdefault(m.dom, []).append(m.id)
        into.setdefault(m.cod, []).append(m.id)
    return [{k: tuple(ids) for k, ids in index.items()} for index in (hom, out, into)]


def index_cases():
    bases = {**gadget_bases(), **torsion_bases()}
    cats = [ht.int_simpset(base, 2)[0] for base in bases.values()]
    cats += [fx.terminal_site().cat, fx.sierpinski_site().cat, fx.pseudocircle_site().cat,
             fx.fence_poset(), fx.cone_poset(), fx.xi_zigzag(3), fx.span_shape(),
             ht.t_delta_op(2), fc.chain_category(3)]
    return cats


def test_lazy_indexes_equal_eager_build():
    for cat in index_cases():
        assert (cat._hom, cat._out, cat._in) == (None, None, None)
        hom, out, into = eager_indexes(cat)
        assert all(cat.hom(x, y) == hom.get((x, y), ())
                   for x in cat.objects for y in cat.objects)
        assert all(cat.out(x) == out.get(x, ()) and cat.into(x) == into.get(x, ())
                   for x in cat.objects)
        assert (cat._hom, cat._out, cat._in) == (hom, out, into)


def test_homology_pipeline_builds_no_index():
    for base in {**gadget_bases(), **torsion_bases()}.values():
        el, _, _ = ht.int_simpset(base, 2)
        assert at.homology(sp.nerve_of_category(el, 2)).valid_range >= 1
        assert (el._hom, el._out, el._in) == (None, None, None)
