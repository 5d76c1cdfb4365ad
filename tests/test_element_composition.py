"""Categories of elements compose through their base.

`fincat.elements` stores no composition table: its category answers
(g, f) from the base table and the key maps, through an
`ElementComposition`.  `reference_elements` keeps the earlier builder,
which handed the arrows to `keyed_category` and stored every composable
pair.  The mapping must list the same items in the same order, have the
same length and give the same answers to `in` and `[]`; a pair whose base
arrows compose but whose elements do not meet is absent from both.

The nerve reads the composite ranks of an element category off its base;
it must give the same chains, face rows and arrows as the nerve of the
same category with its table written out as a plain dict.
"""

import contextlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from diacats import diagram as dg
from diacats import fincat as fc
from diacats import homotopy as ht
from diacats import randgen as rg
from diacats import simplicial as sp

from test_elements import hom_diagram_inputs, PS
from test_homology_pipeline import rp2, torsion_bases
from test_homotopy import gadget_fiber
from test_nerve_engine import cyclic_group


def reference_elements(name, fibers, out, act, comp, identity, ofmt, mfmt):
    okey = {(c, x): ofmt(c, x) for c, xs in fibers for x in xs}
    base_of = {oid: c for (c, _), oid in okey.items()}
    arrows, mkey = [], {}
    for (c, x), oid in okey.items():
        for f, c2 in out[c]:
            oid2 = okey[(c2, act(f, x))]
            mid = mkey[(c, x, f)] = mfmt(c, f, oid, oid2)
            arrows.append((oid, oid2, (f,), mid))
    cat = fc.keyed_category(name, list(okey.values()), arrows,
                            lambda g, f: (comp[(g[0], f[0])],),
                            lambda oid: (identity[base_of[oid]],))[0]
    return cat, okey, mkey


@contextlib.contextmanager
def with_references():
    """Inside the block every `fincat.elements` call also builds the
    reference; yields the list of (category, reference) pairs."""
    built, real = [], fc.elements

    def both(*args):
        got = real(*args)
        built.append((got[0], reference_elements(*args)[0]))
        return got

    fc.elements = both
    try:
        yield built
    finally:
        fc.elements = real


def assert_same_table(cat, ref):
    """Same morphisms, identities, items (in order), length and answers;
    returns the number of pairs checked absent whose base arrows compose
    but whose elements do not meet."""
    table, rtable = cat.compose_table, ref.compose_table
    assert isinstance(table, fc.ElementComposition)
    assert cat.morphisms == ref.morphisms
    assert list(cat.identity.items()) == list(ref.identity.items())
    assert len(table) == len(rtable)
    assert all(a == b for a, b in itertools.zip_longest(table.items(), rtable.items()))
    assert all(pair in table and table[pair] == h for pair, h in rtable.items())
    # objects by base object, read off the key of an arrow out of each
    over = table.over
    fiber = {}
    for mids in table.out_of.values():
        (c, _, _), src, _ = over[mids[0]]
        fiber.setdefault(c, []).append(src)
    absent = 0
    for f, ((_, _, phi), _, tgt) in over.items():
        b = over[table.out_of[tgt][0]][0][0]
        other = next((o for o in fiber[b] if o != tgt), None)
        for g in table.out_of.get(other, ()):
            pair = (g, f)
            assert table.comp.get((over[g][0][2], phi)) is not None
            assert pair not in table and pair not in rtable
            with pytest.raises(KeyError):
                table[pair]
            absent += 1
    return absent


def assert_same_nerve(cat, trunc):
    plain = fc.FinCat(cat.name, cat.objects, cat.morphisms, cat.identity,
                      dict(cat.compose_table))
    a, b = sp.nerve_of_category(cat, trunc), sp.nerve_of_category(plain, trunc)
    assert a.levels == b.levels
    assert a.rows == b.rows
    assert a.arrows == b.arrows
    return a


def gadget_and_torsion_bases(trunc):
    bases = [sp.simpset_product(sp.delta_simpset(n, trunc), sp.delta_simpset(m, trunc))[0]
             for n, m in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]]
    return bases + list(torsion_bases().values())


def cyclic_action(order, points):
    """The element category of Z/order acting on Z/points by addition:
    composites of non-identity arrows hit identities."""
    z = cyclic_group(order)
    shift = {m.id: int(m.id[1:]) for m in z.morphisms}
    return fc.elements("Z%d|Z%d" % (order, points), [("*", list(range(points)))],
                       {"*": [(m.id, "*") for m in z.morphisms]},
                       lambda g, x: (x + shift[g]) % points,
                       z.compose_table, z.identity,
                       lambda c, x: "p%d" % x, lambda c, g, src, tgt: "%s@%s" % (g, src))[0]


@pytest.mark.parametrize("trunc", [1, 2, 3])
def test_table_matches_keyed_category_on_bench_bases(trunc):
    with with_references() as built:
        for base in gadget_and_torsion_bases(trunc):
            ht.int_simpset(base, trunc)
        ht.t_delta_op(trunc)
    assert len(built) == 9
    assert sum(assert_same_table(cat, ref) for cat, ref in built) > 0


def test_table_matches_keyed_category_on_gadget_fibers_and_int_amalg():
    with with_references() as built:
        for n, m in itertools.product(range(3), repeat=2):
            gadget_fiber(n, m, 2)
        ht.int_amalg(sp.cech_cover(PS, PS.covers["{a,b,c,d}"][0], 2)[0])
    assert len(built) == 11  # int_amalg also builds its shape, t_delta_op
    assert sum(assert_same_table(cat, ref) for cat, ref in built) > 0


def test_table_matches_keyed_category_on_hom_diagrams():
    with with_references() as built:
        for site, x, d in hom_diagram_inputs():
            dg.hom_diagram(site, x, d)
    assert sum(assert_same_table(cat, ref) for cat, ref in built) > 0


def test_table_matches_keyed_category_with_isomorphisms():
    cat = cyclic_action(4, 2)
    with with_references() as built:
        cyclic_action(4, 2)
    assert_same_table(*built[0])
    assert cat.validate() is cat


@settings(max_examples=40, deadline=None)
@given(hst.integers(0, 2 ** 32), hst.integers(1, 3), hst.integers(1, 8))
def test_table_and_nerve_on_random_simpsets(seed, trunc, size):
    x = rg.random_simpset(random.Random(seed), trunc, size)
    with with_references() as built:
        el = ht.int_simpset(x, trunc)[0]
    assert_same_table(*built[0])
    assert_same_nerve(el, 2)


@pytest.mark.parametrize("trunc", [2, 3])
def test_nerve_reads_ranks_off_the_base(trunc):
    for base in gadget_and_torsion_bases(2):
        assert_same_nerve(ht.int_simpset(base, 2)[0], trunc)
    for n, m in [(1, 1), (1, 2)]:
        assert_same_nerve(gadget_fiber(n, m, 2)[0], trunc)
    for site, x, d in list(hom_diagram_inputs())[::7]:
        assert_same_nerve(dg.hom_diagram(site, x, d)[0], trunc)


def test_nerve_reads_identity_composites_off_the_base():
    """Over Z/4 some composites of two non-identity arrows are identities,
    so the rows mark degenerate faces, as the per-pair path does."""
    for order, points in [(2, 2), (3, 3), (4, 2), (4, 4)]:
        nerve = assert_same_nerve(cyclic_action(order, points), 4)
        assert any(r < 0 for row in nerve.face_rows(2) for r in row)


def test_delta_op_tables_are_shared_and_unchanged():
    """The Delta^op tables are computed once per truncation; building every
    category over them leaves them as a fresh computation gives them."""
    for trunc in range(2, 4):
        tables = ht._delta_op_tables(trunc)
        ht.t_delta_op(trunc)
        el = ht.int_simpset(rp2(3), trunc)[0]
        gadget_fiber(1, 2, trunc)
        ht.int_amalg(sp.cech_cover(PS, PS.covers["{a,b,c,d}"][0], 3)[0], trunc)
        sp.nerve_of_category(el, 2)
        assert ht._delta_op_tables(trunc) is tables
        assert el.compose_table.comp is tables[1]
        assert tables == ht._delta_op_tables.__wrapped__(trunc)
        with pytest.raises(TypeError):
            tables[1][next(iter(tables[1]))] = None


def test_deep_element_category_builds_without_a_table():
    """ROADMAP item 3: the (2,2) element category at truncation 4, whose
    table has 24,116,401 entries, builds in seconds because none is
    stored."""
    d2 = sp.delta_simpset(2, 4)
    prod = sp.simpset_product(d2, d2)[0]
    start = time.perf_counter()
    el = ht.int_simpset(prod, 4)[0]
    elapsed = time.perf_counter() - start
    assert (len(el.objects), len(el.morphisms)) == (811, 145_081)
    assert len(el.compose_table) == 24_116_401
    assert elapsed < 5, elapsed
