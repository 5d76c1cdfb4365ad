"""The homology pipeline (element category -> nerve -> chain complex -> SNF)
against the code it replaced.

`reference_chain_complex` keeps the earlier two-pass loop (a fresh identity
epi per face, a second dict to drop zeros) that wrote each boundary matrix
by columns, `reference_cone` the mapping cone of `quasi_iso` written by
columns, `reference_homology` the elimination of each boundary matrix by
its columns with no clearing across degrees, and `reference_int_simpset`
the earlier element-category builder that applied every operator twice.
The pipeline's rows must be the transposed reference columns, and it must
give equal summaries and the same element category, insertion order
included.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from diacats import algtop as at
from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import homotopy as ht
from diacats import randgen as rg
from diacats import simplicial as sp
from diacats.errors import InvalidSimplicial

from test_nerve_rows import categories_with_isomorphisms

TRUNC = 2
PS = fx.pseudocircle_site()


def reference_chain_complex(x):
    index = [dict((s, i) for i, s in enumerate(l)) for l in x.levels]
    boundaries = [[]]
    for k in range(1, x.trunc + 1):
        cols = []
        for s in x.levels[k]:
            col = {}
            for i in range(k + 1):
                epi, nd = x.faces[(s, i)]
                if epi == sp.mt_id(k - 1):
                    r = index[k - 1][nd]
                    col[r] = col.get(r, 0) + (-1) ** i
            cols.append({r: v for r, v in col.items() if v})
        boundaries.append(cols)
    return boundaries


def reference_cone(f):
    """The ranks and columns of the mapping cone of f: cone_k is C_{k-1}(X)
    then C_k(Y), and d(x, y) = (-dx, f x + dy)."""
    tindex = [dict((s, i) for i, s in enumerate(l)) for l in f.tgt.levels]
    fmap = [[{tindex[k][nd]: 1} if epi == sp.mt_id(k) else {}
             for epi, nd in (f.val[s] for s in f.src.levels[k])]
            for k in range(min(f.src.trunc, f.tgt.trunc) + 1)]
    bx, by = reference_chain_complex(f.src), reference_chain_complex(f.tgt)
    rx, ry = [len(l) for l in f.src.levels], [len(l) for l in f.tgt.levels]
    trunc = min(f.src.trunc + 1, f.tgt.trunc)
    ranks, boundaries = [ry[0]], [[]]
    for k in range(1, trunc + 1):
        ranks.append(rx[k - 1] + ry[k])
        yoff = rx[k - 2] if k >= 2 else 0
        cols = []
        for j in range(rx[k - 1]):
            col = {}
            if k >= 2:
                for r, v in bx[k - 1][j].items():
                    col[r] = -v
            for r, v in fmap[k - 1][j].items():
                col[yoff + r] = col.get(yoff + r, 0) + v
            cols.append({r: v for r, v in col.items() if v})
        for j in range(ry[k]):
            cols.append({yoff + r: v for r, v in by[k][j].items()})
        boundaries.append(cols)
    return ranks, boundaries


def transpose(cols, nrows):
    rows = [{} for _ in range(nrows)]
    for j, c in enumerate(cols):
        for r, v in c.items():
            rows[r][j] = v
    return rows


def transposed(ranks, boundaries):
    """Per degree, the rows of the reference columns."""
    return [[]] + [transpose(boundaries[k], ranks[k - 1]) for k in range(1, len(boundaries))]


def reference_homology(cc):
    """Betti numbers and torsion from the SNF of each boundary matrix's
    columns (the boundary side)."""
    snfs = [([], 0)] + [at.snf_sparse(transpose(cc.rows[k], cc.ranks[k]))
                        for k in range(1, cc.trunc + 1)] + [([], 0)]
    betti, torsion = {}, {}
    maxdeg = cc.trunc - 1
    for k in range(maxdeg + 1):
        betti[k] = cc.ranks[k] - snfs[k][1] - snfs[k + 1][1]
        torsion[k] = [d for d in snfs[k + 1][0] if d > 1]
    return at.HomologySummary(maxdeg, betti, torsion)


def reference_int_simpset(k, trunc=None, name=None):
    trunc = k.trunc if trunc is None else min(trunc, k.trunc)
    objs, okey = [], {}
    for n in range(trunc + 1):
        for v in k.full_level(n):
            oid = "e(%d|%s|%s)" % (n, ",".join(map(str, v[0])), v[1])
            okey[(n, v)] = oid
            objs.append(oid)
    mors, mkey, identity = [], {}, {}
    for (n, v), oid in okey.items():
        for m in range(trunc + 1):
            for g in sp.all_monotone(m, n):
                w = k.apply(g, v)
                oid2 = okey[(m, w)]
                mid = "g(%s|%s->%s)" % (",".join(map(str, g)), oid, oid2)
                mkey[(n, v, g)] = mid
                mors.append(fc.Mor(mid, oid, oid2))
                if m == n and g == sp.mt_id(n):
                    identity[oid] = mid
    comp = {}
    for (n, v, g), mid in mkey.items():
        m = len(g) - 1
        w = k.apply(g, v)
        for r in range(trunc + 1):
            for h in sp.all_monotone(r, m):
                comp[(mkey[(m, w, h)], mid)] = mkey[(n, v, sp.mt_comp(g, h))]
    cat = fc.FinCat(name or ("int(%s)" % k.name), objs, mors, identity, comp)
    return cat, okey, mkey


def rp2(trunc=TRUNC):
    """RP^2 with one vertex v, one edge a and one triangle s:
    d0 s = d2 s = a and d1 s = s0 v."""
    v, a = ((0,), "v"), ((0, 1), "a")
    faces = {("a", 0): v, ("a", 1): v,
             ("s", 0): a, ("s", 1): ((0, 0), "v"), ("s", 2): a}
    levels = [["v"], ["a"], ["s"]] + [[] for _ in range(trunc - 2)]
    return sp.SimpSet(trunc, levels, faces, "RP2").validate()


def torsion_bases():
    p = rp2()
    return {"RP2": p,
            "RP2xD1": sp.simpset_product(p, sp.delta_simpset(1, TRUNC))[0],
            "RP2xRP2": sp.simpset_product(p, p)[0]}


def gadget_bases():
    return {"D%dxD%d" % (n, m): sp.simpset_product(sp.delta_simpset(n, TRUNC),
                                                   sp.delta_simpset(m, TRUNC))[0]
            for n, m in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]}


# --- chain_complex ----------------------------------------------------------


def assert_same_boundaries(x):
    cc = at.chain_complex(x)
    assert cc.rows == transposed(cc.ranks, reference_chain_complex(x))


@pytest.mark.parametrize("seed", range(12))
def test_chain_complex_matches_reference_on_random_simpsets(seed):
    rng = random.Random(seed)
    assert_same_boundaries(rg.random_simpset(rng, rng.randint(1, 3), 8))


@pytest.mark.parametrize("seed", range(12))
def test_chain_complex_matches_reference_on_poset_nerves(seed):
    assert_same_boundaries(sp.nerve_of_category(rg.random_poset(random.Random(seed), 5), 4))


def test_chain_complex_rp2_entry_is_two():
    x = rp2()
    assert_same_boundaries(x)
    assert at.chain_complex(x).rows[2] == transpose([{0: 2}], 1)


def test_chain_complex_drops_cancelling_faces():
    """A 2-simplex s with d0 s = d1 s = e and d2 s = f, a loop at x: the
    entries of e cancel and must be absent, not stored as 0."""
    faces = {("e", 0): ((0,), "y"), ("e", 1): ((0,), "x"),
             ("f", 0): ((0,), "x"), ("f", 1): ((0,), "x"),
             ("s", 0): ((0, 1), "e"), ("s", 1): ((0, 1), "e"),
             ("s", 2): ((0, 1), "f")}
    x = sp.SimpSet(2, [["x", "y"], ["e", "f"], ["s"]], faces, "cancel").validate()
    assert_same_boundaries(x)
    assert at.chain_complex(x).rows[2] == transpose([{1: 1}], 2)


def test_validate_rejects_a_flipped_entry_of_d2():
    """dd = 0 is checked row by row: one sign flipped in d_2 of the nerve
    of [2] breaks it."""
    cc = at.chain_complex(sp.nerve_of_category(fc.chain_category(2), 2)).validate()
    row = next(row for row in cc.rows[2] if row)
    j = next(iter(row))
    row[j] = -row[j]
    with pytest.raises(InvalidSimplicial, match="dd != 0 in degree 2"):
        cc.validate()


# --- the coboundary ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(hst.integers(1, 6).flatmap(lambda nrows: hst.lists(
    hst.lists(hst.sampled_from([0, 0, 1, -1, 2, -2, 3]),
              min_size=nrows, max_size=nrows),
    min_size=1, max_size=8)))
def test_snf_of_transpose_matches_minor_oracle(dense_cols):
    nrows = len(dense_cols[0])
    cols = [{i: v for i, v in enumerate(c) if v} for c in dense_cols]
    dense_rows = [[c[i] for c in dense_cols] for i in range(nrows)]
    factors, rank = at.snf_sparse(cols)
    assert at.snf_sparse(transpose(cols, nrows)) == (factors, rank)
    assert factors == at.minor_gcd_invariants(dense_rows)
    assert rank == len(factors)


def complexes_handed_over(monkeypatch, run):
    """Every complex that `run()` hands to `homology_of_complex`."""
    seen, real = [], at.homology_of_complex

    def record(cc):
        seen.append(cc)
        return real(cc)

    monkeypatch.setattr(at, "homology_of_complex", record)
    run()
    monkeypatch.setattr(at, "homology_of_complex", real)
    assert seen
    return seen


def assert_boundary_side_agrees(complexes):
    for cc in complexes:
        assert repr(at.homology_of_complex(cc)) == repr(reference_homology(cc))


@pytest.mark.parametrize("label", ["RP2", "RP2xD1", "RP2xRP2"])
def test_homology_matches_boundary_side_on_torsion_bases(label):
    base = torsion_bases()[label]
    for x in (base, sp.nerve_of_category(ht.int_simpset(base, TRUNC)[0], TRUNC)):
        assert_boundary_side_agrees([at.chain_complex(x)])


def test_homology_hands_the_stored_rows_to_snf(monkeypatch):
    """`homology` eliminates the chain complex's own row lists, with no
    transposed copy, and `snf_sparse` leaves them unmodified.  Each degree
    skips exactly the rows the degree below claimed."""
    complexes, seen, clearing = [], [], []
    real_chain_complex, real_snf = at.chain_complex, at.snf_sparse

    def chain_complex(x):
        complexes.append(real_chain_complex(x))
        return complexes[-1]

    def snf_sparse(rows, skip=(), claimed=None):
        seen.append((rows, copy.deepcopy(rows)))
        clearing.append((set(skip), claimed))
        return real_snf(rows, skip, claimed)

    monkeypatch.setattr(at, "chain_complex", chain_complex)
    monkeypatch.setattr(at, "snf_sparse", snf_sparse)
    nerve = sp.nerve_of_category(ht.int_simpset(rp2(), TRUNC)[0], TRUNC)
    assert repr(at.homology(nerve)) == GOLDEN["RP2"][1]
    [cc] = complexes
    assert [id(rows) for rows, _ in seen] == [id(rows) for rows in cc.rows[1:]]
    assert all(rows == before for rows, before in seen)
    skips = [skip for skip, _ in clearing]
    claims = [claimed for _, claimed in clearing]
    assert skips == [set()] + claims[:-1]
    assert all(claims)


def cone_maps():
    rng = random.Random(3)
    d = sp.delta_simpset(3, 3)
    maps = [sp.inclusion_map(sp.boundary_delta(2, 4), sp.delta_simpset(2, 4)),
            sp.inclusion_map(sp.subcomplex(d, [d.levels[2][0]]), d)]
    maps += [sp.SimpMap.identity(rp2()), sp.SimpMap.identity(torsion_bases()["RP2xRP2"])]
    for _ in range(3):
        maps.append(sp.SimpMap.identity(rg.random_simpset(rng, 3, 8)))
    while len(maps) < 10:
        m = rg.random_diamor(rng, rg.random_diaobj(rng, PS, 3), rg.random_diaobj(rng, PS, 3))
        if m is not None:
            maps.append(dg.nerve_mor(m, 3).underlying())
    return maps


def collapsed_circle():
    """The boundary of Delta_2 sent to a point: f's one degree-0 row holds
    all three vertices, no edge has a nondegenerate image, and H_1 = Z is
    lost."""
    src, tgt = sp.boundary_delta(2, 3), sp.delta_simpset(0, 3)
    return sp.SimpMap(src, tgt, {s: ((0,) * (k + 1), tgt.levels[0][0])
                                 for k, l in enumerate(src.levels) for s in l})


def test_homology_matches_boundary_side_on_quasi_iso_cones(monkeypatch):
    maps = cone_maps()
    cones = complexes_handed_over(monkeypatch, lambda: [at.quasi_iso(f) for f in maps])
    assert len(cones) == len(maps)
    assert_boundary_side_agrees(cones)


def test_cone_rows_are_the_transposed_reference_cone(monkeypatch):
    maps = cone_maps() + [collapsed_circle().validate()]
    verdicts = []
    cones = complexes_handed_over(monkeypatch,
                                  lambda: verdicts.extend(at.quasi_iso(f) for f in maps))
    assert not verdicts[-1]
    assert len(cones) == len(maps)
    for f, cc in zip(maps, cones):
        ranks, boundaries = reference_cone(f)
        assert cc.ranks == ranks
        assert cc.rows == transposed(ranks, boundaries)


# --- clearing ---------------------------------------------------------------
#
# `homology_of_complex` skips, in each degree's rows, the columns the degree
# below claimed as +-1 pivots; `reference_homology` eliminates every column
# of every boundary matrix.


@pytest.mark.parametrize("label", ["D0xD0", "D0xD1", "D0xD2", "D1xD1", "D1xD2"])
def test_homology_matches_boundary_side_on_gadget_bases(label):
    base = gadget_bases()[label]
    for x in (base, sp.nerve_of_category(ht.int_simpset(base, TRUNC)[0], TRUNC)):
        assert_boundary_side_agrees([at.chain_complex(x)])


def test_homology_matches_boundary_side_on_nerve_rows_inputs():
    """The categories of test_nerve_rows at their nerve levels."""
    cats = [(rg.random_poset(random.Random(seed), 5), 4) for seed in range(10)]
    cats += [(ht.int_simpset(rg.random_simpset(random.Random(seed), 2, 4), 2)[0], 3)
             for seed in range(3)]
    cats += [(cat, 4) for cat in categories_with_isomorphisms()]
    assert_boundary_side_agrees([at.chain_complex(sp.nerve_of_category(cat, trunc))
                                 for cat, trunc in cats])


def criterion_01_companion():
    rng = random.Random(1)
    for _ in range(25):
        x = rg.random_split_terminal(rng, 3, 8)
        at.quasi_iso(ht.comparison_to_simp(x, 2, 2, budget=500_000)[0].underlying())


def criterion_03():
    rng = random.Random(3)
    for want in [1, 2, 2, 2, 3, 3, 3, 3, 2, 3]:
        F = rg.random_dia_functor(rng, PS, want, 2)
        while len(F.base.objects) != want:
            F = rg.random_dia_functor(rng, PS, want, 2)
        at.homology(dg.nerve(dg.grothendieck_construction(F)[0], 4).uset)
        at.homology(ht.hocolim_bk(dg.nerve_diagram(F, 4), 4).uset)


def criterion_06():
    for cat in (fx.fence_poset(), fx.cone_poset(), fc.chain_category(2), PS.cat):
        at.homology(sp.nerve_of_category(cat, 4))


def criterion_07():
    ts = fx.terminal_site()
    at.homology(sp.hom_into(ts, "*", sp.cech_cover(ts, ["id_*", "id_*"], 6)[0]))


def criterion_11_companion():
    for n in range(3):
        for m in range(3):
            prod = sp.simpset_product(sp.delta_simpset(n, 2), sp.delta_simpset(m, 2))[0]
            at.homology(sp.nerve_of_category(ht.int_simpset(prod, 2)[0], 2))


@pytest.mark.parametrize("run", [criterion_01_companion, criterion_03, criterion_06,
                                 criterion_07, criterion_11_companion],
                         ids=lambda run: run.__name__)
def test_homology_matches_boundary_side_on_acceptance_inputs(monkeypatch, run):
    """The homology and quasi-iso calls of the acceptance criteria that
    reach a verdict, with their inputs."""
    assert_boundary_side_agrees(complexes_handed_over(monkeypatch, run))


@settings(max_examples=100, deadline=None)
@given(hst.integers(0, 2 ** 32), hst.integers(3, 4), hst.integers(2, 8))
def test_homology_matches_boundary_side_on_random_simpsets(seed, trunc, size):
    """Random simplicial sets, and their products with RP^2, which have
    torsion in H_1 below the top degree and so non-unit pivots that must
    not clear."""
    x = rg.random_simpset(random.Random(seed), trunc, size)
    y = sp.simpset_product(x, rp2(trunc))[0]
    assert at.homology(y).torsion[1]
    assert_boundary_side_agrees([at.chain_complex(x), at.chain_complex(y)])


def test_non_unit_pivots_clear_nothing():
    """The circle (the boundary of Delta_2) times RP^2 at truncation 3:
    H_2 = H_1(S^1) (x) H_1(RP^2) = Z/2 by Kunneth.  Reducing degree 2 meets
    a pivot 2; skipping that 2-simplex's column in degree 3 as well would
    lose a generator of im d_3 and report H_2 = Z/2 + Z/2."""
    x = sp.simpset_product(sp.boundary_delta(2, 3), rp2(3))[0]
    cc = at.chain_complex(x)
    assert 2 in at.snf_sparse(cc.rows[2])[0]
    h = at.homology_of_complex(cc)
    assert repr(h) == "Homology(<=2: H0=Z^1, H1=Z^1+Z/2, H2=Z^0+Z/2)"
    assert repr(h) == repr(reference_homology(cc))


# --- int_simpset ------------------------------------------------------------


def assert_same_elements(base):
    cat, okey, mkey = ht.int_simpset(base, TRUNC)
    ref, rokey, rmkey = reference_int_simpset(base, TRUNC)
    assert cat.objects == ref.objects
    assert cat.morphisms == ref.morphisms
    assert list(cat.identity.items()) == list(ref.identity.items())
    assert list(cat.compose_table.items()) == list(ref.compose_table.items())
    assert list(okey.items()) == list(rokey.items())
    assert list(mkey.items()) == list(rmkey.items())


@pytest.mark.parametrize("label", ["D0xD0", "D0xD1", "D0xD2", "D1xD1", "D1xD2"])
def test_int_simpset_matches_reference_on_gadget_bases(label):
    assert_same_elements(gadget_bases()[label])


@pytest.mark.parametrize("label", ["RP2", "RP2xD1", "RP2xRP2"])
def test_int_simpset_matches_reference_on_torsion_bases(label):
    assert_same_elements(torsion_bases()[label])


@pytest.mark.parametrize("seed", range(10))
def test_int_simpset_matches_reference_on_random_carriers(seed):
    assert_same_elements(rg.random_split_terminal(random.Random(seed), 3, 8).uset)


# --- the benchmark's homology instances -------------------------------------

GOLDEN = {
    "D0xD0": ([3, 28, 334], "Homology(<=1: H0=Z^1, H1=Z^0)"),
    "D0xD1": ([9, 100, 1192], "Homology(<=1: H0=Z^1, H1=Z^0)"),
    "D0xD2": ([19, 234, 2790], "Homology(<=1: H0=Z^1, H1=Z^0)"),
    "D1xD1": ([29, 368, 4388], "Homology(<=1: H0=Z^1, H1=Z^0)"),
    "D1xD2": ([64, 876, 10452], "Homology(<=1: H0=Z^1, H1=Z^0)"),
    "RP2": ([7, 90, 1074], "Homology(<=1: H0=Z^1, H1=Z^0+Z/2)"),
    "RP2xD1": ([24, 340, 4060], "Homology(<=1: H0=Z^1, H1=Z^0+Z/2)"),
    "RP2xRP2": ([21, 322, 3850], "Homology(<=1: H0=Z^1, H1=Z^0+Z/2+Z/2)"),
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_element_nerve_homology_golden(label):
    """Delta_n x Delta_m (n <= m <= 2, not (2, 2)) and the RP^2 bases at
    truncation 2: element category, its nerve and the nerve's homology."""
    base = {**gadget_bases(), **torsion_bases()}[label]
    nerve = sp.nerve_of_category(ht.int_simpset(base, TRUNC)[0], TRUNC)
    assert ([len(l) for l in nerve.levels], repr(at.homology(nerve))) == GOLDEN[label]
