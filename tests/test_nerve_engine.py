"""The integer-indexed nerve engine against the string-chain construction it
replaced.

`reference_nerve` and `reference_chain_image` keep the earlier code: chains
as (start object, tuple of morphism ids), one face at a time through
`reference_face_value`, and the identity-stripping loop that `nerve_mor`
ran per chain.  The engine must give the same `levels`, the same `faces`
in the same insertion order and the same `chain_of`.
"""

import hashlib
import random

import pytest

from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import fractions as fr
from diacats import homotopy as ht
from diacats import randgen as rg
from diacats import simplicial as sp

PS = fx.pseudocircle_site()


def reference_chains(c, trunc):
    levels = [[(x, ()) for x in c.objects]]
    for k in range(1, trunc + 1):
        lev = []
        for (x0, ms) in levels[k - 1]:
            tail = c.cod(ms[-1]) if ms else x0
            for m in c.out(tail):
                if not c.is_identity(m):
                    lev.append((x0, ms + (m,)))
        levels.append(lev)
    return levels


def reference_face_value(c, chain, i):
    x0, ms = chain
    k = len(ms)
    if i == 0:
        new = (c.cod(ms[0]), ms[1:])
    elif i == k:
        new = (x0, ms[:-1])
    else:
        new = (x0, ms[:i - 1] + (c.comp(ms[i], ms[i - 1]),) + ms[i + 1:])
    y0, l = new
    stripped = tuple(m for m in l if not c.is_identity(m))
    epi = [0]
    v = 0
    for m in l:
        if not c.is_identity(m):
            v += 1
        epi.append(v)
    return tuple(epi), (y0, stripped)


def reference_nerve(c, trunc):
    chains = reference_chains(c, trunc)
    levels = [[sp.chain_id(ch) for ch in lev] for lev in chains]
    id_of = {ch: sid for lev, ids in zip(chains, levels)
             for ch, sid in zip(lev, ids)}
    faces = {}
    for k in range(1, trunc + 1):
        for ch, sid in zip(chains[k], levels[k]):
            for i in range(k + 1):
                e, nd = reference_face_value(c, ch, i)
                faces[(sid, i)] = (e, id_of[nd])
    sset = sp.SimpSet(trunc, levels, faces, "N(%s)" % c.name)
    sset.chain_of = {sid: ch for ch, sid in id_of.items()}
    return sset


def reference_chain_image(functor, chain):
    x0, ms = chain
    c2 = functor.target
    mapped = [functor.mo(x) for x in ms]
    stripped = tuple(x for x in mapped if not c2.is_identity(x))
    epi = [0]
    v = 0
    for x in mapped:
        if not c2.is_identity(x):
            v += 1
        epi.append(v)
    return tuple(epi), sp.chain_id((functor.ob(x0), stripped))


def assert_same_nerve(c, trunc):
    new, ref = sp.nerve_of_category(c, trunc), reference_nerve(c, trunc)
    assert new.levels == ref.levels
    assert list(new.faces.items()) == list(ref.faces.items())
    assert list(new.chain_of.items()) == list(ref.chain_of.items())


def digest(n):
    h = hashlib.sha256()
    for part in (n.levels, list(n.faces.items()), list(n.chain_of.items())):
        h.update(repr(part).encode())
    return h.hexdigest()


def cyclic_group(order):
    """Z/order as a one-object category: every non-identity arrow is an
    isomorphism and some composites of two of them are the identity."""
    ids = ["g%d" % i for i in range(order)]
    return fc.FinCat("Z/%d" % order, ["*"], [fc.Mor(i, "*", "*") for i in ids],
                     {"*": "g0"},
                     {(ids[a], ids[b]): ids[(a + b) % order]
                      for a in range(order) for b in range(order)}).validate()


@pytest.mark.parametrize("seed", range(20))
def test_nerve_matches_reference_on_random_posets(seed):
    assert_same_nerve(rg.random_poset(random.Random(seed), 5), 4)


@pytest.mark.parametrize("trunc", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_nerve_matches_reference_on_element_categories(seed, trunc):
    rng = random.Random(seed)
    el, _, _ = ht.int_simpset(rg.random_simpset(rng, 2, 4), 2)
    assert_same_nerve(el, trunc)


def test_nerve_matches_reference_with_isomorphisms():
    c = fc.chain_category(2)
    localized = fr.localized_as_fincat(
        fr.localize_fractions(c, {m.id for m in c.morphisms}))
    assert sum(1 for m in localized.morphisms
               if not localized.is_identity(m.id)) == 6
    for cat in (localized, cyclic_group(3), cyclic_group(4)):
        assert_same_nerve(cat, 4)


def test_nerve_of_delta1_x_delta2_elements_at_truncation_3():
    """124,608 3-chains; the digest was recorded with `reference_nerve`
    (the earlier construction), which takes about three times as long."""
    prod = sp.simpset_product(sp.delta_simpset(1, 3), sp.delta_simpset(2, 3))[0]
    el, _, _ = ht.int_simpset(prod, 2)
    n = sp.nerve_of_category(el, 3)
    assert [len(l) for l in n.levels] == [64, 876, 10452, 124608]
    assert digest(n) == ("5f8e2db6fa0b7215161e46854f8dc92b"
                         "d69dba382f31c989f8c6d2c0b36c5db6")


def test_chain_image_matches_reference():
    """Diagram morphisms as `nerve_mor` sees them, and the projection of an
    element category onto the truncated simplex-opposite shape, which sends
    many arrows of long chains to identities."""
    rng = random.Random(6)
    functors = []
    for _ in range(8):
        m = None
        while m is None:
            m = rg.random_diamor(rng, rg.random_diaobj(rng, PS, 4),
                                 rg.random_diaobj(rng, PS, 3))
        functors.append(m.shape_map)
    functors.append(ht.int_amalg(rg.random_split_over(rng, PS, 2)).proj)
    kept, stripped = set(), 0
    for f in functors:
        for chain in sp.nerve_of_category(f.source, 3).chain_of.values():
            epi, cid = sp.chain_image(f, chain)
            assert (epi, cid) == reference_chain_image(f, chain)
            kept.add(epi[-1])
            stripped += epi[-1] < len(chain[1])
    assert stripped and kept == {0, 1, 2, 3}
