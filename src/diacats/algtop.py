"""Integer homology of truncated simplicial sets via Smith normal form,
quasi-isomorphism tests via mapping cones, and contractibility certificates.

All arithmetic is exact big-integer; homology verdicts always carry the
degree range in which the truncated computation is trustworthy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import fincat as fc
from . import simplicial as sp
from .errors import InvalidSimplicial


# ---------------------------------------------------------------------------
# Smith normal form (sparse, exact)


def snf(matrix):
    """Exact integer Smith normal form of a matrix given as a list of rows.

    Returns (invariant_factors, rank) as :func:`snf_sparse`, run on the rows
    as sparse vectors: the transpose has the same invariant factors.  The
    input is not modified.
    """
    return snf_sparse([{j: v for j, v in enumerate(map(int, row)) if v} for row in matrix])


def snf_sparse(columns, skip=(), claimed=None):
    """Exact integer Smith normal form of a sparse matrix.

    `columns` is a list of {row: value} dicts; the input is not modified.
    Returns (invariant_factors, rank): the nonzero diagonal entries
    d_1 | d_2 | ... (all positive) and their count.  The column indices in
    `skip` are left out; the rows claimed by +-1 pivots are added to
    `claimed` when a set is passed.  Elimination runs in two phases:

    1. Unit phase.  The columns are reduced left to right by their lowest
       row against earlier columns whose lowest entry is +-1, as in the
       persistent-homology column reduction; a column that ends with a +-1
       lowest entry claims that row.
    2. Residual phase.  Every other nonzero column is cleared on all
       claimed rows, not only below its lowest row.  What is left is the
       Schur complement of the claimed block, which is triangular with a
       +-1 diagonal and so unimodular; :func:`_snf_exact` eliminates it.

    The result is exact: a 1 per claimed row, followed by the residual's
    invariant factors.  Boundary matrices of nerves have almost only unit
    pivots, so the residual is small.

    Clearing (the "twist" of Chen and Kerber, "Persistent homology
    computation with a twist", EuroCG 2011; Bauer, Kerber and Reininghaus,
    "Clear and compress", 2014).  Run on the rows of d_k, i.e. on the
    coboundary d_k^T, a +-1 pivot at row j ends a reduced column that is
    an integer cocycle c = +-e_j + (terms at rows below j).  Since
    d_{k+1}^T d_k^T = (d_k d_{k+1})^T = 0, column j of d_{k+1}^T is an
    integer combination of the columns of lower index, so skipping it
    changes neither the rank nor the invariant factors.  A residual pivot
    v with |v| > 1 makes only v times that column such a combination, a
    rational one, so residual rows are never claimed: skipping their
    columns could change the torsion.
    """
    pivots = {}  # claimed row -> reduced column whose lowest entry is +-1
    residual = []
    for ci, c in enumerate(columns):
        if ci in skip:
            continue
        col = dict(c)
        while col:
            low = max(col)
            p = pivots.get(low)
            if p is None:
                if abs(col[low]) == 1:
                    pivots[low] = col
                else:
                    residual.append(col)
                break
            _add_multiple(col, -col[low] * p[low], p)
    order = sorted(pivots, reverse=True) if residual else ()
    for col in residual:
        # a pivot column has no row above its claimed one, so one pass over
        # the claimed rows from the highest down never refills a cleared one
        for r in order:
            if r in col:
                p = pivots[r]
                _add_multiple(col, -col[r] * p[r], p)
    if claimed is not None:
        claimed.update(pivots)
    factors, rank = _snf_exact(residual)
    return [1] * len(pivots) + factors, len(pivots) + rank


def _add_multiple(col, q, other):
    """col += q * other, in place, dropping entries that become zero."""
    for r, v in other.items():
        nv = col.get(r, 0) + q * v
        if nv:
            col[r] = nv
        else:
            del col[r]


def _snf_exact(columns):
    """Invariant factors of a sparse integer matrix by Euclidean steps.

    The residual phase of :func:`snf_sparse`; the input is not modified.
    Each step takes an entry v of least absolute value, at row r of column
    c.  Column operations leave every other column its remainder mod v at
    row r.  Once row r is clear elsewhere, row operations, which then touch
    column c only, leave column c its remainder mod v.  A nonzero remainder
    is a smaller pivot for the next step; v is retired with its row and
    column once it stands alone.  The retired pivots are then brought into
    a divisibility chain by gcd/lcm.
    """
    cols = [dict(c) for c in columns if c]
    factors = []
    while cols:
        _, ci, r = min((abs(v), ci, r) for ci, c in enumerate(cols) for r, v in c.items())
        col = cols[ci]
        v = col[r]
        for other in cols:
            if other is not col and r in other:
                # |other[r]| >= |v|, so the quotient is never 0
                _add_multiple(other, -(other[r] // v), col)
        if not any(r in other for other in cols if other is not col):
            for rr in [rr for rr in col if rr != r]:
                col[rr] %= v
                if not col[rr]:
                    del col[rr]
            if len(col) == 1:
                factors.append(abs(v))
                col.clear()
        cols = [c for c in cols if c]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if factors[j] % factors[i] != 0:
                g = math.gcd(factors[i], factors[j])
                factors[i], factors[j] = g, factors[i] * factors[j] // g
    factors.sort()
    return factors, len(factors)


# ---------------------------------------------------------------------------
# chain complexes


@dataclass
class ChainComplex:
    """Normalized chain complex of a truncated simplicial set: per degree k
    the count of nondegenerate k-simplices and the boundary matrix from
    degree k, stored by rows: `rows[k][r]` is {k-simplex j: coefficient}
    for the r-th (k-1)-simplex."""

    trunc: int
    ranks: list
    rows: list

    def boundary_dense(self, k):
        return [[row.get(j, 0) for j in range(self.ranks[k])] for row in self.rows[k]]

    def validate(self):
        for k in range(2, self.trunc + 1):
            for row in self.rows[k - 1]:
                acc = {}
                for r, v in row.items():
                    for j, w in self.rows[k][r].items():
                        acc[j] = acc.get(j, 0) + v * w
                if any(acc.values()):
                    raise InvalidSimplicial("dd != 0 in degree %d" % k)
        return self


def chain_complex(x: sp.SimpSet) -> ChainComplex:
    """Normalized complex on nondegenerate simplices, written from the face
    rows: degenerate faces contribute zero, signs alternate."""
    rows, sizes = [[]], x.level_sizes()
    for k in range(1, x.trunc + 1):
        level = [{} for _ in range(sizes[k - 1])]
        for j, faces in enumerate(x.face_rows(k)):
            sign = 1
            for r in faces:
                if r >= 0:
                    row = level[r]
                    v = row.get(j, 0) + sign
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                sign = -sign
        rows.append(level)
    return ChainComplex(x.trunc, sizes, rows)


@dataclass
class HomologySummary:
    """Per-degree betti numbers and torsion coefficients, up to the degree
    where truncation keeps them trustworthy."""

    valid_range: int
    betti: dict
    torsion: dict

    def degree(self, k):
        if k > self.valid_range:
            raise InvalidSimplicial("degree %d beyond valid range %d" % (k, self.valid_range))
        return self.betti.get(k, 0), self.torsion.get(k, [])

    def is_point(self):
        if self.betti.get(0) != 1 or self.torsion.get(0):
            return False
        return all(self.betti.get(k, 0) == 0 and not self.torsion.get(k)
                   for k in range(1, self.valid_range + 1))

    def __repr__(self):
        parts = []
        for k in range(self.valid_range + 1):
            b = self.betti.get(k, 0)
            t = self.torsion.get(k, [])
            parts.append("H%d=Z^%d%s" % (k, b, ("+" + "+".join("Z/%d" % d for d in t)) if t else ""))
        return "Homology(<=%d: %s)" % (self.valid_range, ", ".join(parts))


def homology_of_complex(cc: ChainComplex) -> HomologySummary:
    """Betti numbers and torsion from the SNF of each boundary matrix's
    rows, i.e. of the coboundary d_k^T, which has the same invariant
    factors and rank; a nerve's d_k has far more columns than rows.

    The degrees are reduced in increasing order, and each skips the
    columns of the k-simplices the degree below claimed as +-1 pivots
    (clearing, see :func:`snf_sparse`): their reduced columns are integer
    cocycles, so those columns are integer combinations of the others.
    Non-unit pivots claim nothing.  H_k needs the boundaries of degree
    k + 1, so the summary is valid through degree trunc - 1."""
    maxdeg = cc.trunc - 1
    snfs, claimed = {}, set()
    for k in range(1, cc.trunc + 1):
        skip, claimed = claimed, set()
        snfs[k] = snf_sparse(cc.rows[k], skip, claimed)
    betti, torsion = {}, {}
    for k in range(maxdeg + 1):
        _, rk = snfs.get(k, ([], 0))
        fk1, rk1 = snfs.get(k + 1, ([], 0))
        betti[k] = cc.ranks[k] - rk - rk1
        torsion[k] = [d for d in fk1 if d > 1]
    return HomologySummary(maxdeg, betti, torsion)


def homology(x: sp.SimpSet) -> HomologySummary:
    """Integral homology, valid in degrees <= trunc - 1."""
    return homology_of_complex(chain_complex(x))


def pi0(x: sp.SimpSet) -> int:
    """Connected components via the 1-skeleton."""
    edges = x.levels[1] if x.trunc >= 1 else []
    return len(fc.partition(x.levels[0], lambda a, b: True,
                            [(x.faces[(e, 0)][1], x.faces[(e, 1)][1]) for e in edges]))


# ---------------------------------------------------------------------------
# quasi-isomorphism via the mapping cone


def chain_map(f: sp.SimpMap):
    """Induced map of normalized complexes, by rows: per target k-simplex,
    the source k-simplices sent onto it; degenerate images map to 0."""
    rows = []
    for k in range(min(f.src.trunc, f.tgt.trunc) + 1):
        flat = sp.mt_id(k)
        level = {t: {} for t in f.tgt.levels[k]}
        for j, s in enumerate(f.src.levels[k]):
            epi, nd = f.val[s]
            if epi == flat:
                level[nd][j] = 1
        rows.append(list(level.values()))
    return rows


@dataclass
class QuasiIsoVerdict:
    ok: bool
    valid_range: int
    detail: str

    def __bool__(self):
        return self.ok


def quasi_iso(f: sp.SimpMap) -> QuasiIsoVerdict:
    """Mapping-cone acyclicity test.

    cone_k = C_{k-1}(X) + C_k(Y) with d(x, y) = (-dx, f x + dy); over Z
    with free chain groups, acyclicity of the cone through degree r is
    equivalent to f inducing isomorphisms H_k(X) -> H_k(Y) for k < r and
    a surjection at r.  The verdict is valid for degrees <= trunc - 2.
    """
    ccx = chain_complex(f.src)
    ccy = chain_complex(f.tgt)
    fmap = chain_map(f)
    # the cone can be built one degree above the source truncation when the
    # target is truncated deeper: cone_k only needs C_{k-1} of the source
    trunc = min(f.src.trunc + 1, f.tgt.trunc)
    cone_ranks, cone_rows = [ccy.ranks[0]], [[]]
    # basis of cone_k: C_{k-1}(X) first, then C_k(Y).  A row of d_k is a
    # simplex of C_{k-2}(X), giving -d_X, or of C_{k-1}(Y), giving f and
    # then d_Y shifted past C_{k-1}(X); the two column ranges are disjoint.
    for k in range(1, trunc + 1):
        xoff = ccx.ranks[k - 1]
        cone_ranks.append(xoff + ccy.ranks[k])
        rows = [{j: -v for j, v in row.items()} for row in ccx.rows[k - 1]]
        rows += [{**image, **{xoff + j: v for j, v in dy.items()}}
                 for image, dy in zip(fmap[k - 1], ccy.rows[k])]
        cone_rows.append(rows)
    cone = ChainComplex(trunc, cone_ranks, cone_rows)
    hs = homology_of_complex(cone)
    bad = [k for k in range(trunc) if hs.betti.get(k, 0) != 0 or hs.torsion.get(k)]
    vr = trunc - 2
    if bad:
        return QuasiIsoVerdict(False, vr, "cone homology nonzero in degrees %s" % bad)
    return QuasiIsoVerdict(True, vr, "cone acyclic through degree %d" % (trunc - 1))


# ---------------------------------------------------------------------------
# contractibility certificates


@dataclass
class ContractCert:
    kind: str          # InitialObject | FinalObject | AdjunctionChain
    payload: object


def _deletable(cat: fc.FinCat, op: fc.FinCat, objs, x):
    """Can x be deleted from the full subcategory on objs by an adjunction?

    True when the inclusion of objs - {x} admits a right adjoint
    (a coreflection of x) or a left adjoint (a reflection of x, which is a
    coreflection in op = cat^op).  Hom-sets among `objs` agree with the
    ambient category, so the ambient hom data is used directly.
    """
    rest = [y for y in objs if y != x]
    if not rest:
        return None
    for kind, c in (("coreflection", cat), ("reflection", op)):
        # d with eps: d -> x such that eps o - : Hom(d', d) ~ Hom(d', x)
        for d in rest:
            for eps in c.hom(d, x):
                if all(fc.factor(c, d2, d, [(eps, h)]) is not None
                       for d2 in rest for h in c.hom(d2, x)):
                    return (kind, d, eps)
    return None


def contractibility_certificate(cat: fc.FinCat):
    """Try, in order: initial object, final object, and a greedy chain of
    extremal-object deletions realizing adjunctions down to the point.
    Each is sufficient for the nerve to be contractible.

    Returns a ContractCert or None (Unknown).
    """
    if not cat.objects:
        return None
    ext = fc.detect_extremal(cat)
    if ext["initial"] is not None:
        return ContractCert("InitialObject", ext["initial"])
    if ext["final"] is not None:
        return ContractCert("FinalObject", ext["final"])
    objs = list(cat.objects)
    op = cat.opposite()
    chain = []
    while len(objs) > 1:
        step = None
        for x in sorted(objs):
            w = _deletable(cat, op, objs, x)
            if w is not None:
                step = (x, w)
                break
        if step is None:
            break
        chain.append(step)
        objs.remove(step[0])
    if len(objs) == 1 and len(cat.hom(objs[0], objs[0])) == 1:
        return ContractCert("AdjunctionChain", chain)
    return None


# ---------------------------------------------------------------------------
# brute-force oracle for SNF testing


def minor_gcd_invariants(matrix):
    """Invariant factors via d_k = gcd of k x k minors (brute force)."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                g = math.gcd(g, _det([[matrix[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            sub = [row[:j] + row[j + 1:] for row in a[1:]]
            total += ((-1) ** j) * a[0][j] * _det(sub)
    return total
