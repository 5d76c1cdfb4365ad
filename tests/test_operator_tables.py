"""Simplicial operators act by table reads.

`SimpSet.apply` reads e o op, factored as mono o e1, off a table shared
by every simplicial set; the face of the simplex under the mono, with the
stored faces walked through, off the set's own `face_table`; and the
composite of the two epis off the shared table again.  `reference_apply_steps` keeps the earlier
walk, which did the same in tuple arithmetic on every call.  Both must
agree, steps and face parts included, on every operator into a level <=
trunc from a domain <= trunc + 1, applied to every value of that level.
Malformed sets must fail `validate` with the same message as under the
reference, and an operator that does not apply is refused by name.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from diacats import algtop as at
from diacats import fixtures as fx
from diacats import homotopy as ht
from diacats import randgen as rg
from diacats import simplicial as sp
from diacats.errors import InvalidSimplicial

from test_element_composition import gadget_and_torsion_bases
from test_homology_pipeline import rp2
from test_simplicial import PART_SEEDS

TS = fx.terminal_site()
PS = fx.pseudocircle_site()


def reference_apply_steps(x, op, value):
    epi, nd = value
    if len(op) == 0:
        raise InvalidSimplicial("empty operator")
    e, mono = sp.epi_mono_factor(sp.mt_comp(epi, op))
    steps = []
    m = x.level_of[nd]
    while mono != sp.mt_id(m):
        # peel off the largest vertex the mono misses via its face
        missing = max(j for j in range(m + 1) if j not in mono)
        steps.append((nd, missing))
        epi, nd = x.faces[(nd, missing)]
        mono = tuple(v if v < missing else v - 1 for v in mono)
        e2, mono = sp.epi_mono_factor(sp.mt_comp(epi, mono))
        e = sp.mt_comp(e2, e)
        m = x.level_of[nd]
    return (e, nd), steps


def reference_apply(x, op, value):
    return reference_apply_steps(x, op, value)[0]


def reference_apply_with_part(x, op, value):
    w, steps = reference_apply_steps(x.uset, op, value)
    p = x.scat.id_of(x.label[value[1]])
    for step in steps:
        p = x.scat.comp(x.part[step], p)
    return w, p


def assert_apply_matches(x):
    """Every operator into a level <= trunc, from a domain <= trunc + 1, on
    every value of that level; `x` is a SimpSet or a split object.
    Returns the number of applications that walked a stored face."""
    uset = getattr(x, "uset", x)
    walked = 0
    for n in range(uset.trunc + 1):
        values = uset.full_level(n)
        for k in range(uset.trunc + 2):
            for op in sp.all_monotone(k, n):
                for v in values:
                    w, steps = reference_apply_steps(uset, op, v)
                    assert uset.apply_steps(op, v) == (w, tuple(steps))
                    assert uset.apply(op, v) == w
                    if x is not uset:
                        assert x.apply_with_part(op, v) == reference_apply_with_part(x, op, v)
                    walked += bool(steps)
    return walked


@pytest.mark.parametrize("index", range(8))
def test_apply_matches_reference_on_bench_bases(index):
    base = gadget_and_torsion_bases(2)[index]
    assert (assert_apply_matches(base) > 0) == (sum(base.level_sizes()) > 1)


@pytest.mark.parametrize("seed", PART_SEEDS)
def test_apply_with_part_matches_reference(seed):
    x = rg.random_split_over(random.Random(seed), PS, trunc=3)
    assert assert_apply_matches(x) > 0


@settings(max_examples=40, deadline=None)
@given(hst.integers(0, 2 ** 32), hst.integers(1, 3), hst.integers(1, 8), hst.booleans())
def test_apply_matches_reference_on_random_simpsets(seed, trunc, size, per_position):
    x = rg.random_simpset(random.Random(seed), trunc, size, per_position=per_position)
    assert_apply_matches(x)
    assert_apply_matches(sp.as_split(TS.cat, x, "*"))


def has_torsion(seed):
    x = rg.random_simpset(random.Random(seed), 2, 8, per_position=True)
    return bool(at.homology(x).torsion.get(1))


TORSION_SEEDS = [seed for seed in range(200) if has_torsion(seed)]


def test_per_position_draws_reach_torsion():
    """The shared-order draws never reach torsion in these seeds; the
    per-position draws do, in 4 of 200."""
    assert not any(at.homology(rg.random_simpset(random.Random(seed), 2, 8)).torsion.get(1)
                   for seed in range(200))
    assert len(TORSION_SEEDS) == 4


@pytest.mark.parametrize("seed", TORSION_SEEDS)
def test_apply_matches_reference_on_torsion_draws(seed):
    x = rg.random_simpset(random.Random(seed), 2, 8, per_position=True)
    assert assert_apply_matches(x) > 0


@pytest.mark.parametrize("op", [(1, 0), (2,), (0, 2), (-1, 0), ()])
def test_apply_refuses_an_operator_that_does_not_apply(op):
    d = sp.delta_simpset(1, 1)
    v = d.nd_value("(0,1)")
    x = sp.as_split(TS.cat, d, "*")
    for call in (d.apply, d.apply_steps, x.apply_with_part):
        with pytest.raises(InvalidSimplicial, match=re.escape(repr(op))):
            call(op, v)


def malformed_sets():
    """The face swap of test_simplicial, and every set made from Delta_2,
    the boundary of Delta_2 or RP^2 by changing one stored face to another
    value of its level."""
    d2 = sp.delta_simpset(2, 3)
    bad_faces = dict(d2.faces)
    bad_faces[("(0,1,2)", 0)] = (sp.mt_id(1), "(0,1)")
    yield sp.SimpSet(3, d2.levels, bad_faces)
    for x in [sp.delta_simpset(2, 2), sp.boundary_delta(2, 2), rp2()]:
        for (s, i), v in x.faces.items():
            for w in x.full_level(x.level_of[s] - 1):
                if w != v:
                    yield sp.SimpSet(x.trunc, x.levels, {**x.faces, (s, i): w})


def validation_message(x):
    try:
        x.validate()
    except InvalidSimplicial as exc:
        return str(exc)
    return None


def test_malformed_sets_fail_validate_as_under_the_reference(monkeypatch):
    got = [validation_message(x) for x in malformed_sets()]
    monkeypatch.setattr(sp.SimpSet, "apply", reference_apply)
    assert got == [validation_message(x) for x in malformed_sets()]
    assert got[0] == "simplicial identity fails at '(0,1,2)' (i=0,j=1)"
    assert sum(m is not None for m in got) > 20


def test_int_simpset_reads_tables_only(monkeypatch):
    """Once the shared operator tables hold the operators in use, the
    element categories of fresh copies of the bench bases are built by
    table reads alone: no composite and no factorization is computed."""
    warm = [ht.int_simpset(base, 2) for base in gadget_and_torsion_bases(2)]
    fresh = gadget_and_torsion_bases(2)

    def forbidden(*args):
        raise AssertionError("operator arithmetic outside the tables")

    monkeypatch.setattr(sp, "mt_comp", forbidden)
    monkeypatch.setattr(sp, "epi_mono_factor", forbidden)
    for base, (cat, okey, mkey) in zip(fresh, warm):
        base.face_table.clear()  # filled by validate, for RP^2
        got, got_okey, got_mkey = ht.int_simpset(base, 2)
        assert base.face_table
        assert got.objects == cat.objects and got.morphisms == cat.morphisms
        assert got_okey == okey and got_mkey == mkey
