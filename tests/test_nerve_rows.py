"""A nerve's boundary matrices come from the face rows of its integer chains.

`nerve_of_category` finds each chain's face rows from its parent's, and
writes the string ids `levels` and the string-keyed `faces` and
`chain_of` only when they are read.
The differential test compares the rows-built boundaries with those of a
plain `SimpSet` built from the same nerve's materialized faces; the
laziness pin checks that homology reads none of these views, and
that a later first read still gives the earlier construction's values in
its order.
"""

import random

import pytest

from diacats import algtop as at
from diacats import fincat as fc
from diacats import fractions as fr
from diacats import homotopy as ht
from diacats import randgen as rg
from diacats import simplicial as sp

from test_nerve_engine import cyclic_group, reference_nerve


def categories_with_isomorphisms():
    """Inner composites of their chains hit identities, so chains have
    degenerate faces at every level from 2 on."""
    c = fc.chain_category(2)
    localized = fr.localized_as_fincat(
        fr.localize_fractions(c, {m.id for m in c.morphisms}))
    return [localized, cyclic_group(3), cyclic_group(4)]


def assert_rows_match_faces(cat, trunc):
    """Compare both ways of writing the boundaries; returns the number of
    degenerate faces the rows mark."""
    nerve = sp.nerve_of_category(cat, trunc)
    rows = [nerve.face_rows(k) for k in range(1, trunc + 1)]
    built = at.chain_complex(nerve)
    plain = sp.SimpSet(trunc, nerve.levels, nerve.faces, nerve.name)
    assert [plain.face_rows(k) for k in range(1, trunc + 1)] == [
        [tuple(r if r >= 0 else -1 for r in row) for row in lev] for lev in rows]
    ref = at.chain_complex(plain)
    assert built.ranks == ref.ranks
    assert built.rows == ref.rows
    return sum(r < 0 for lev in rows for row in lev for r in row)


@pytest.mark.parametrize("seed", range(10))
def test_rows_match_faces_on_random_posets(seed):
    assert assert_rows_match_faces(rg.random_poset(random.Random(seed), 5), 4) == 0


@pytest.mark.parametrize("seed", range(3))
def test_rows_match_faces_on_element_categories(seed):
    el, _, _ = ht.int_simpset(rg.random_simpset(random.Random(seed), 2, 4), 2)
    assert assert_rows_match_faces(el, 3) > 0


def test_rows_match_faces_with_isomorphisms():
    for cat in categories_with_isomorphisms():
        assert assert_rows_match_faces(cat, 4) > 0


def test_homology_builds_neither_faces_nor_chain_of():
    prod = sp.simpset_product(sp.delta_simpset(1, 2), sp.delta_simpset(1, 2))[0]
    el, _, _ = ht.int_simpset(prod, 2)
    for cat, trunc in [(el, 2)] + [(c, 3) for c in categories_with_isomorphisms()]:
        nerve = sp.nerve_of_category(cat, trunc)
        assert at.homology(nerve).valid_range == trunc - 1
        assert "faces" not in vars(nerve) and "chain_of" not in vars(nerve)
        assert "levels" not in vars(nerve) and "level_of" not in vars(nerve)
        ref = reference_nerve(cat, trunc)
        assert nerve.levels == ref.levels
        assert list(nerve.chain_of.items()) == list(ref.chain_of.items())
        assert "faces" not in vars(nerve)
        assert list(nerve.faces.items()) == list(ref.faces.items())
        assert nerve.faces is nerve.faces and nerve.chain_of is nerve.chain_of
