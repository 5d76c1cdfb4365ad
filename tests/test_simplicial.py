import math
import random
import re

import pytest

from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import jsonio as io
from diacats import randgen as rg
from diacats import simplicial as sp
from diacats.errors import InvalidSimplicial, NonSplitMorphism
from diacats.site import Site


TS = fx.terminal_site()
PS = fx.pseudocircle_site()


def nondeg_counts(x):
    return [len(l) for l in x.levels]


def test_simplicial_identities_checked():
    d2 = sp.delta_simpset(2, 3)
    bad_faces = dict(d2.faces)
    bad_faces[("(0,1,2)", 0)] = (sp.mt_id(1), "(0,1)")
    with pytest.raises(InvalidSimplicial):
        sp.SimpSet(3, d2.levels, bad_faces).validate()


@pytest.mark.parametrize("levels, faces", [
    ([["v", "v"]], {}),
    ([["v", "w"], ["v"]], {("v", 0): ((0,), "w"), ("v", 1): ((0,), "w")}),
])
def test_duplicate_simplex_id_rejected_by_validate(levels, faces):
    """An id listed twice, in one level or in two: `level_of` is built on
    first read, and validate reads it even when there are no faces."""
    with pytest.raises(InvalidSimplicial, match="duplicate simplex id 'v'"):
        sp.SimpSet(len(levels) - 1, levels, faces).validate()


def parallel_pair():
    """Two parallel arrows f, g : a -> b."""
    return fc.FinCat(
        "pair", ["a", "b"],
        [fc.Mor("ia", "a", "a"), fc.Mor("ib", "b", "b"),
         fc.Mor("f", "a", "b"), fc.Mor("g", "a", "b")],
        {"a": "ia", "b": "ib"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib", ("f", "ia"): "f", ("ib", "f"): "f",
         ("g", "ia"): "g", ("ib", "g"): "g"}).validate()


def delta2_over_pair(top_parts):
    """Delta_2 with its top simplex over a and every other simplex over b;
    the top simplex has the parts `top_parts` on d_0, d_1, d_2 and every
    edge identity parts."""
    d2 = sp.delta_simpset(2, 2)
    top = "(0,1,2)"
    label = {s: "a" if s == top else "b" for l in d2.levels for s in l}
    part = {(s, i): top_parts[i] if s == top else "ib"
            for s in d2.levels[1] + d2.levels[2] for i in range(d2.level_of[s] + 1)}
    return sp.SplitSimpObj(parallel_pair(), d2, label, part)


def test_split_identity_checks_the_parts_of_both_face_walks():
    """d_0 d_1 = d_0 d_0 on the top simplex composes f on one side and g
    on the other: validate rejects it, directly and through the decoder."""
    bad = delta2_over_pair(["g", "f", "f"])
    msg = "split identity fails at '(0,1,2)' (i=0,j=1)"
    with pytest.raises(InvalidSimplicial, match=re.escape(msg)):
        bad.validate()
    with pytest.raises(InvalidSimplicial, match=re.escape(msg)):
        io.decode_split(io.encode_split(bad), Site(bad.scat))
    good = delta2_over_pair(["f", "f", "f"])
    assert good.validate() is good
    assert sp.split_equal(io.decode_split(io.encode_split(good), Site(good.scat)), good)


def test_full_level_counts():
    rng = random.Random(7)
    for _ in range(5):
        x = rg.random_split_terminal(rng, 3, 6)
        nd = nondeg_counts(x)
        for n in range(4):
            expected = sum(math.comb(n, m) * nd[m] for m in range(n + 1))
            assert len(x.full_level(n)) == expected


def test_full_level_examples():
    const = sp.constant_split(TS.cat, "*", 3).validate()
    assert len(const.full_level(2)) == 1
    c1 = fc.chain_category(1)
    nv = sp.nerve_labeled(c1, fc.FinFunctor.constant(c1, TS.cat, "*"), 3).validate()
    assert len(nv.full_level(1)) == 3


def test_tensor_unit_and_coproduct():
    rng = random.Random(3)
    x = rg.random_split_terminal(rng, 2, 5)
    tx = sp.tensor(sp.delta_simpset(0, 2), x)
    assert sp.split_isomorphic(tx, x) is not None
    y = rg.random_split_terminal(rng, 2, 4)
    both = sp.coproduct_split([x, y])
    t_both = sp.tensor(sp.delta_simpset(1, 2), both)
    t_sep = sp.coproduct_split([sp.tensor(sp.delta_simpset(1, 2), x),
                                sp.tensor(sp.delta_simpset(1, 2), y)])
    assert sp.split_isomorphic(t_both, t_sep) is not None
    for obj in [tx, both, t_both, t_sep]:
        obj.validate()


def test_tensor_of_interval_with_constant():
    c = sp.constant_split(TS.cat, "*", 3)
    t = sp.tensor(sp.delta_simpset(1, 3), c)
    assert nondeg_counts(t) == [2, 1, 0, 0]


def test_tensor_circle_has_h1():
    from diacats import algtop as at
    c = sp.constant_split(TS.cat, "*", 3)
    t = sp.tensor(sp.boundary_delta(2, 3), c).validate()
    h = at.homology(t.uset)
    assert h.degree(0) == (1, []) and h.degree(1) == (1, [])


def test_diagonal_of_external_product_counts():
    # N(I) x N(J), the diagonal of N(I) [x] N(J), has the simplex counts of
    # N(I x J)
    c1 = fc.chain_category(1)
    fence = fx.fence_poset()
    for a, b in [(c1, c1), (c1, fence)]:
        na = sp.nerve_of_category(a, 3)
        nb = sp.nerve_of_category(b, 3)
        diag = sp.simpset_product(na, nb)[0]
        prod_cat = fc.product_category(a, b)
        npc = sp.nerve_of_category(prod_cat, 3)
        assert nondeg_counts(diag) == nondeg_counts(npc)


def test_diagonal_homology_matches_product_nerve():
    from diacats import algtop as at
    c1 = fc.chain_category(1)
    fence = fx.fence_poset()
    na = sp.nerve_of_category(fence, 3)
    nb = sp.nerve_of_category(c1, 3)
    diag = sp.simpset_product(na, nb)[0]
    h1 = at.homology(diag)
    h2 = at.homology(sp.nerve_of_category(fc.product_category(fence, c1), 3))
    assert h1.betti == h2.betti and h1.torsion == h2.torsion


def test_cech_identity_cover_levelwise_iso():
    x = "{a,b,c,d}"
    u, aug = sp.cech_cover(PS, [PS.cat.id_of(x)], 4)
    for n in range(5):
        assert len(u.full_level(n)) == 1
        assert aug.map_value(u.full_level(n)[0])[1] is not None


def test_cech_pair_cover_counts():
    u, aug = sp.cech_cover(TS, ["id_*", "id_*"], 5)
    aug.validate()
    u.validate()
    for n in range(6):
        assert len(u.full_level(n)) == 2 ** (n + 1)
    assert nondeg_counts(u) == [2] * 6


def test_cech_pseudocircle_level_one_meets():
    x, u_, v_ = "{a,b,c,d}", "{a,b,c}", "{a,b,d}"
    u, aug = sp.cech_cover(PS, ["%s<=%s" % (u_, x), "%s<=%s" % (v_, x)], 3)
    aug.validate()
    u.validate()
    # in tuple-lex order (0,0),(0,1),(1,0),(1,1): U, U^V, V^U, V
    by_tuple = {}
    for val in u.full_level(1):
        epi, nd = val
        t = tuple(int(i) for i in nd[2:-1].split(","))
        full_t = tuple(t[epi[i]] for i in range(2))
        by_tuple[full_t] = u.label[nd]
    assert [by_tuple[t] for t in [(0, 0), (0, 1), (1, 0), (1, 1)]] == \
        [u_, "{a,b}", "{a,b}", v_]


def test_cech_rejects_non_mono_leg():
    # a two-object category with a non-mono map onto a point
    raw = {
        "objects": ["x", "y"],
        "morphisms": [{"id": "ix", "dom": "x", "cod": "x"},
                      {"id": "iy", "dom": "y", "cod": "y"},
                      {"id": "f", "dom": "x", "cod": "y"},
                      {"id": "g", "dom": "x", "cod": "y"},
                      {"id": "p", "dom": "y", "cod": "y2"}],
        "identities": {"x": "ix", "y": "iy"},
    }
    # simpler: parallel pair then collapse makes p non-mono; build directly
    c = fc.FinCat(
        "nm", ["x", "y", "z"],
        [fc.Mor("ix", "x", "x"), fc.Mor("iy", "y", "y"), fc.Mor("iz", "z", "z"),
         fc.Mor("f", "x", "y"), fc.Mor("g", "x", "y"), fc.Mor("p", "y", "z"),
         fc.Mor("pf", "x", "z")],
        {"x": "ix", "y": "iy", "z": "iz"},
        {("ix", "ix"): "ix", ("iy", "iy"): "iy", ("iz", "iz"): "iz",
         ("f", "ix"): "f", ("iy", "f"): "f",
         ("g", "ix"): "g", ("iy", "g"): "g",
         ("p", "iy"): "p", ("iz", "p"): "p",
         ("p", "f"): "pf", ("p", "g"): "pf",
         ("pf", "ix"): "pf", ("iz", "pf"): "pf"}).validate()
    with pytest.raises(NonSplitMorphism):
        sp.cech_cover(Site(c), ["p"], 2)


def test_prism_inclusion_counts_and_split():
    for n, e in [(0, 0), (0, 1), (1, 0), (2, 1)]:
        m = sp.prism_inclusion(n, e, TS.cat, "*", 3).validate()
        assert m.is_levelwise_split()
        horn, prod, _ = sp.prism_horn(n, e, 3)
        horn.validate()
        prod.validate()
        # oracle: levels of the tensor match the simplicial sets themselves
        for k in range(4):
            assert len(m.src.full_level(k)) == len(horn.full_level(k))
            assert len(m.tgt.full_level(k)) == len(prod.full_level(k))
    m0 = sp.prism_inclusion(0, 0, TS.cat, "*", 3)
    assert nondeg_counts(m0.src) == [1, 0, 0, 0]
    assert nondeg_counts(m0.tgt) == [2, 1, 0, 0]
    # the collapse of an edge onto a vertex is not levelwise split
    c = sp.constant_split(TS.cat, "*", 2)
    edge = sp.tensor(sp.delta_simpset(1, 2), c)
    vertex = sp.tensor(sp.delta_simpset(0, 2), c)
    collapse = sp.SplitMor(edge, vertex,
                           {s: vertex.full_level(edge.uset.level_of[s])[0]
                            for l in edge.levels for s in l},
                           {s: "id_*" for l in edge.levels for s in l}).validate()
    assert not collapse.is_levelwise_split()


def test_prism_horn_against_product_oracle():
    # |Lambda_e(Dn x D1)_k| = |Dn_k|(full) + |dDn_k||D1_k| - |dDn_k| ... use
    # the union formula via inclusion-exclusion on full levels
    for n, e in [(1, 0), (2, 0)]:
        horn, prod, _ = sp.prism_horn(n, e, 3)
        dn = sp.delta_simpset(n, 3)
        bdn = sp.boundary_delta(n, 3)
        d1 = sp.delta_simpset(1, 3)
        for k in range(4):
            a = len(dn.full_level(k))           # Dn x {e}
            b = len(bdn.full_level(k)) * len(d1.full_level(k))
            both = len(bdn.full_level(k))       # dDn x {e}
            assert len(horn.full_level(k)) == a + b - both


def test_hom_into_examples():
    top = sp.constant_split(PS.cat, "{a,b,c,d}", 3)
    h = sp.hom_into(PS, "{a}", top)
    assert [len(l) for l in h.levels] == [1, 0, 0, 0]
    # Hom({a}, Cech({U,V})) is the nerve of the members containing a
    x, u_, v_ = "{a,b,c,d}", "{a,b,c}", "{a,b,d}"
    u, _ = sp.cech_cover(PS, ["%s<=%s" % (u_, x), "%s<=%s" % (v_, x)], 3)
    h2 = sp.hom_into(PS, "{a}", u).validate()
    assert [len(l) for l in h2.levels] == [2, 2, 2, 2]
    from diacats import algtop as at
    assert at.homology(h2).is_point()
    empty = sp.hom_into(PS, "{a,b,c,d}", sp.constant_split(PS.cat, "{a}", 2))
    assert [len(l) for l in empty.levels] == [0, 0, 0]


def test_split_validation_catches_bad_part():
    c1 = fc.chain_category(1)
    lab = fc.FinFunctor("S", c1, PS.cat,
                        {"0": "{a}", "1": "{a,b}"},
                        {"0<=0": PS.cat.id_of("{a}"), "1<=1": PS.cat.id_of("{a,b}"),
                         "0<=1": "{a}<={a,b}"}).validate()
    nv = sp.nerve_labeled(c1, lab, 2)
    bad_part = dict(nv.part)
    edge = nv.levels[1][0]
    bad_part[(edge, 0)] = PS.cat.id_of("{a}")
    with pytest.raises(InvalidSimplicial):
        sp.SplitSimpObj(PS.cat, nv.uset, nv.label, bad_part).validate()


def has_non_identity_part(seed):
    x = rg.random_split_over(random.Random(seed), PS, trunc=3)
    return any(not x.scat.is_identity(p) for p in x.part.values())


PART_SEEDS = [seed for seed in range(40) if has_non_identity_part(seed)]


def test_enough_seeds_have_non_identity_parts():
    assert len(PART_SEEDS) >= 3


@pytest.mark.parametrize("seed", PART_SEEDS)
def test_apply_with_part_composes(seed):
    # (a o b)^* v = b^*(a^* v): apply a first, then b, composing the parts;
    # the seeds in 0-39 whose objects have non-identity face parts
    x = rg.random_split_over(random.Random(seed), PS, trunc=3)
    for n in range(x.trunc + 1):
        for v in x.full_level(n):
            for k in range(x.trunc + 1):
                for a in sp.all_monotone(k, n):
                    w1, p1 = x.apply_with_part(a, v)
                    for r in range(x.trunc + 1):
                        for b in sp.all_monotone(r, k):
                            w, p = x.apply_with_part(sp.mt_comp(a, b), v)
                            w2, p2 = x.apply_with_part(b, w1)
                            assert (w, p) == (w2, x.scat.comp(p2, p1))
                            assert w == x.uset.apply(sp.mt_comp(a, b), v)
