import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from diacats import algtop as at
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import homotopy as ht
from diacats import simplicial as sp


def test_snf_fixtures():
    assert at.snf([[2, 4], [6, 8]]) == ([2, 4], 2)
    assert at.snf([[0, 0], [0, 0]]) == ([], 0)
    assert at.snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ([1, 1, 1], 3)
    # the residual column must be cleared on the claimed row above its low
    assert at.snf([[2, 0], [3, 1]]) == ([1, 2], 2)


@settings(max_examples=60, deadline=None)
@given(hst.lists(hst.lists(hst.integers(-9, 9), min_size=1, max_size=4),
                 min_size=1, max_size=4).filter(
                     lambda m: len({len(r) for r in m}) == 1))
def test_snf_matches_minor_gcd_oracle(m):
    factors, rank = at.snf(m)
    assert factors == at.minor_gcd_invariants(m)


@settings(max_examples=150, deadline=None)
@given(hst.integers(1, 10).flatmap(lambda nrows: hst.lists(
    hst.lists(hst.sampled_from([0, 0, 0, 1, -1, 2, -2, 3]),
              min_size=nrows, max_size=nrows),
    min_size=1, max_size=14)))
def test_snf_sparse_matches_exact_loop(dense_cols):
    """The unit phase plus residual agrees with general pivoting alone on
    matrices too large for the k-minor oracle."""
    cols = [{i: v for i, v in enumerate(c) if v} for c in dense_cols]
    before = [dict(c) for c in cols]
    assert at.snf_sparse(cols) == at._snf_exact(cols)
    assert cols == before



def reference_snf_exact(columns):
    """The residual elimination as it stood before the plain Euclidean
    step, frozen: least-|v| pivots with least fill-in, a row index kept in
    sync, and an early exit on a lone unit."""
    cols = {ci: dict(c) for ci, c in enumerate(columns) if c}
    rows = {}
    for ci, c in cols.items():
        for r in c:
            rows.setdefault(r, set()).add(ci)
    factors = []

    def entry_add(ci, r, v):
        c = cols.setdefault(ci, {})
        nv = c.get(r, 0) + v
        if nv:
            c[r] = nv
            rows.setdefault(r, set()).add(ci)
        elif r in c:
            del c[r]
            rows[r].discard(ci)
            if not rows[r]:
                del rows[r]

    while cols:
        pivot, best = None, None
        for ci, c in cols.items():
            for r, v in c.items():
                score = (abs(v), (len(rows[r]) - 1) * (len(c) - 1))
                if best is None or score < best:
                    best, pivot = score, (ci, r)
            if best is not None and best == (1, 0):
                break
        ci, r = pivot
        v = cols[ci][r]
        progress = False
        for cj in list(rows[r]):
            if cj == ci:
                continue
            w = cols[cj][r]
            q = w // v
            if q:
                for rr, vv in list(cols[ci].items()):
                    entry_add(cj, rr, -q * vv)
            if cols.get(cj, {}).get(r, 0) != 0:
                progress = True
        for cj in [c for c in list(cols) if not cols[c]]:
            del cols[cj]
        if progress:
            continue
        bad = [rr for rr in cols[ci] if rr != r and cols[ci][rr] % v != 0]
        if bad:
            for rr in bad:
                cols[ci][rr] %= v
                if cols[ci][rr] == 0:
                    del cols[ci][rr]
                    rows[rr].discard(ci)
                    if not rows[rr]:
                        del rows[rr]
            continue
        for rr in list(cols[ci]):
            rows[rr].discard(ci)
            if not rows[rr]:
                del rows[rr]
        del cols[ci]
        factors.append(abs(v))
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if factors[j] % factors[i] != 0:
                g = math.gcd(factors[i], factors[j])
                factors[i], factors[j] = g, factors[i] * factors[j] // g
    factors.sort()
    return factors, len(factors)


@hst.composite
def sparse_matrices(draw):
    """Up to 25 x 25, entries in +-{1, 2, 3, 4, 6}, density from about 5%
    to full: as columns of {row: value} dicts."""
    nrows, ncols = draw(hst.integers(1, 25)), draw(hst.integers(1, 25))
    zeros = draw(hst.sampled_from([0, 5, 20, 60, 190]))
    pool = [0] * zeros + [1, -1, 2, -2, 3, -3, 4, -4, 6, -6]
    column = hst.lists(hst.sampled_from(pool), min_size=nrows, max_size=nrows)
    return [{r: v for r, v in enumerate(c) if v}
            for c in draw(hst.lists(column, min_size=ncols, max_size=ncols))]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_snf_matches_the_frozen_reference(cols):
    """The Euclidean residual step, alone and behind the unit phase, gives
    the frozen reference's factors and rank on matrices beyond the k-minor
    oracle, and modifies no input."""
    before = [dict(c) for c in cols]
    expected = reference_snf_exact(cols)
    assert at._snf_exact(cols) == expected
    assert at.snf_sparse(cols) == expected
    assert cols == before

# The boundary of Delta_3, a 2-sphere: vertices 0..3, edges 01 02 03 12 13
# 23 and triangles 012 013 023 123, in that order, with d[abc] = bc - ac + ab.
# The rows of d_1 (one per vertex) and of d_2 (one per edge), as
# `ChainComplex.rows` holds them.
SPHERE_D1 = [{0: -1, 1: -1, 2: -1}, {0: 1, 3: -1, 4: -1},
             {1: 1, 3: 1, 5: -1}, {2: 1, 4: 1, 5: 1}]
SPHERE_D2 = [{0: 1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: -1},
             {0: 1, 3: 1}, {1: 1, 3: -1}, {2: 1, 3: 1}]


def test_snf_sparse_claims_the_rows_of_its_unit_pivots():
    """Vertices 0, 1 and 2 end at -1 on the edges 03, 13 and 23; vertex 3
    reduces to zero.  In the second matrix the middle column ends at -1
    only after reduction, and the pivots 3 and 2 claim nothing."""
    claimed = set()
    assert at.snf_sparse(SPHERE_D1, claimed=claimed) == ([1, 1, 1], 3)
    assert claimed == {2, 4, 5}
    claimed = set()
    assert at.snf_sparse([{0: 1}, {0: 1, 1: -1}, {1: 2, 2: 3}],
                         claimed=claimed) == ([1, 1, 3], 3)
    assert claimed == {0, 1}
    claimed = set()
    assert at.snf_sparse([{0: 2}], claimed=claimed) == ([2], 1)
    assert claimed == set()


def test_snf_sparse_skipping_the_claimed_columns_keeps_the_result():
    """Degree 2 of the sphere skips the edges degree 1 claimed: the same
    factors and rank, from three columns instead of six.  An empty degree 3
    makes H_2 = Z a verdict of the complex."""
    cc = at.ChainComplex(3, [4, 6, 4, 0],
                         [[], SPHERE_D1, SPHERE_D2, [{} for _ in range(4)]]).validate()
    claimed = set()
    at.snf_sparse(cc.rows[1], claimed=claimed)
    again = set()
    assert at.snf_sparse(cc.rows[2], skip=claimed, claimed=again) == ([1, 1, 1], 3)
    assert at.snf_sparse(cc.rows[2]) == ([1, 1, 1], 3)
    assert again == {1, 2, 3}
    assert repr(at.homology_of_complex(cc)) == \
        "Homology(<=2: H0=Z^1, H1=Z^0, H2=Z^1)"


def test_snf_divisibility_chain():
    rng = random.Random(1)
    for _ in range(40):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        factors, _ = at.snf(m)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_homology_torsion():
    # RP^2 with one vertex v, one edge a and one triangle s:
    # d0 s = d2 s = a and d1 s = s0 v
    v, a = ((0,), "v"), ((0, 1), "a")
    faces = {("a", 0): v, ("a", 1): v,
             ("s", 0): a, ("s", 1): ((0, 0), "v"), ("s", 2): a}
    rp2 = sp.SimpSet(3, [["v"], ["a"], ["s"]], faces, "RP2").validate()
    h = at.homology(rp2)
    assert h.degree(0) == (1, []) and h.degree(1) == (0, [2])
    assert h.degree(2) == (0, [])
    # Kuenneth: H1 = Z/2 + Z/2 and H2 = Z/2 (x) Z/2
    h2 = at.homology(sp.simpset_product(rp2, rp2)[0])
    assert h2.degree(1) == (0, [2, 2]) and h2.degree(2) == (0, [2])


def test_chain_complex_fixtures():
    d0 = sp.delta_simpset(0, 2)
    cc = at.chain_complex(d0)
    assert cc.ranks[0] == 1 and cc.rows[1] == [{}]
    bd2 = sp.boundary_delta(2, 2)
    cc2 = at.chain_complex(bd2)
    assert cc2.ranks[:2] == [3, 3]
    for j in range(3):
        assert sorted(row[j] for row in cc2.rows[1] if j in row) == [-1, 1]
    # dd = 0 on the fence nerve (validated by construction)
    at.chain_complex(sp.nerve_of_category(fx.fence_poset(), 3)).validate()


def test_homology_fixtures():
    h = at.homology(sp.nerve_of_category(fx.cone_poset(), 4))
    assert h.is_point()
    h2 = at.homology(sp.nerve_of_category(fx.fence_poset(), 4))
    assert h2.degree(0) == (1, []) and h2.degree(1) == (1, [])
    c = sp.constant_split(fx.terminal_site().cat, "*", 3)
    circle = sp.tensor(sp.boundary_delta(2, 3), c)
    h3 = at.homology(circle.uset)
    assert h3.degree(1) == (1, [])
    assert at.pi0(sp.nerve_of_category(fx.fence_poset(), 2)) == 1
    assert at.pi0(sp.nerve_of_category(fc.discrete_category("3", list("abc")), 2)) == 3


def test_homology_valid_range_enforced():
    h = at.homology(sp.delta_simpset(1, 2))
    with pytest.raises(Exception):
        h.degree(5)


def test_quasi_iso_fixtures():
    d2 = sp.delta_simpset(2, 4)
    bd2 = sp.boundary_delta(2, 4)
    assert at.quasi_iso(sp.SimpMap.identity(d2).validate()).ok
    assert not at.quasi_iso(sp.inclusion_map(bd2, d2)).ok
    # collapse of a contractible nerve onto the point
    cone = sp.nerve_of_category(fx.cone_poset(), 3)
    pt = sp.delta_simpset(0, 3)
    vals = {s: ((0,) * (cone.level_of[s] + 1), "(0)")
            for l in cone.levels for s in l}
    collapse = sp.SimpMap(cone, pt, vals).validate()
    assert at.quasi_iso(collapse).ok


def test_quasi_iso_two_out_of_three_on_verdicts():
    c1 = fc.chain_category(1)
    n1 = sp.nerve_of_category(c1, 3)
    pt = sp.delta_simpset(0, 3)
    vals = {s: ((0,) * (n1.level_of[s] + 1), "(0)") for l in n1.levels for s in l}
    f = sp.SimpMap(n1, pt, vals).validate()
    g = sp.SimpMap.identity(pt)
    comp = sp.SimpMap(n1, pt, {s: g.map_value(f.val[s]) for s in f.val}).validate()
    assert at.quasi_iso(f).ok and at.quasi_iso(g).ok and at.quasi_iso(comp).ok


def test_contractibility_certificates():
    assert at.contractibility_certificate(fc.chain_category(2)).kind == "InitialObject"
    sl, _, okey, _ = fc.slice_under("a", fc.FinFunctor.identity(fx.fence_poset()))
    assert at.contractibility_certificate(sl).kind == "InitialObject"
    assert at.contractibility_certificate(fx.xi_zigzag(2)).kind == "InitialObject"
    for n in (3, 4, 5):
        cert = at.contractibility_certificate(fx.xi_zigzag(n))
        assert cert.kind == "AdjunctionChain"
    assert at.contractibility_certificate(fx.fence_poset()) is None


def test_adjunction_chain_implies_collapse_quasi_iso():
    zig = fx.xi_zigzag(3)
    cert = at.contractibility_certificate(zig)
    assert cert.kind == "AdjunctionChain"
    n = sp.nerve_of_category(zig, 3)
    pt = sp.delta_simpset(0, 3)
    vals = {s: ((0,) * (n.level_of[s] + 1), "(0)") for l in n.levels for s in l}
    assert at.quasi_iso(sp.SimpMap(n, pt, vals).validate()).ok


def reference_deletable(cat, objs, x):
    """`at._deletable` as it was before `fc.factor`: two hand-written
    lift searches, the reflection one on cat itself."""
    rest = [y for y in objs if y != x]
    if not rest:
        return None
    for d in rest:
        for eps in cat.hom(d, x):
            ok = True
            for d2 in rest:
                for h in cat.hom(d2, x):
                    lifts = [u for u in cat.hom(d2, d) if cat.comp(eps, u) == h]
                    if len(lifts) != 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return ("coreflection", d, eps)
    for d in rest:
        for eta in cat.hom(x, d):
            ok = True
            for d2 in rest:
                for h in cat.hom(x, d2):
                    lifts = [u for u in cat.hom(d, d2) if cat.comp(u, eta) == h]
                    if len(lifts) != 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return ("reflection", d, eta)
    return None


def test_deletable_matches_reference():
    """Every object of random posets (seeds 0-59), the zig-zags, the fence,
    and the element category of Delta1 x Delta1 at truncation 1, in the
    full category and with its first object removed."""
    from diacats import randgen as rg
    prod = sp.simpset_product(sp.delta_simpset(1, 1), sp.delta_simpset(1, 1))[0]
    cats = [rg.random_poset(random.Random(s), 5) for s in range(60)]
    cats += [fx.xi_zigzag(n) for n in range(1, 5)] + [fx.fence_poset(), fx.cone_poset(),
                                                     ht.int_simpset(prod, 1)[0]]
    kinds = set()
    for cat in cats:
        op = cat.opposite()
        for objs in (list(cat.objects), list(cat.objects[1:])):
            for x in objs:
                got = at._deletable(cat, op, objs, x)
                assert got == reference_deletable(cat, objs, x), (cat.name, objs, x)
                kinds.add(got and got[0])
    assert kinds == {None, "coreflection", "reflection"}


def test_point_homology_alone_gets_no_certificate():
    """Every certificate is sufficient: point homology, which is only
    necessary, earns none."""
    assert at.contractibility_certificate(fx.cone_poset()).kind == "FinalObject"
    # the element category of Delta1 x Delta1 has no extremal object and no
    # deletion chain, though its nerve has point homology through degree 1
    prod = sp.simpset_product(sp.delta_simpset(1, 2), sp.delta_simpset(1, 2))[0]
    cat, _, _ = ht.int_simpset(prod, 2)
    assert at.homology(sp.nerve_of_category(cat, 2)).is_point()
    assert at.contractibility_certificate(cat) is None
