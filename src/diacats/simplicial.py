"""Truncated simplicial sets and split simplicial objects in the free
coproduct completion of a finite category.

A simplex value is a pair (epi, nd): the nondegenerate simplex `nd` it
collapses onto, together with the order-preserving surjection `epi`
(stored as the tuple of its images).  Every level reconstructs as

    X_n  =  X_{n,nd}  u  u_{[n] ->> [m], n != m}  X_{m,nd}

and all structure maps are derived from the stored face data of the
nondegenerate simplices.  Degeneracies never move labels, so a split
object only stores a label per nondegenerate simplex and a label part
per (simplex, face index).

A construction given by its full levels and elementary face and
degeneracy maps (standard simplices, products, Cech objects, Hom into a
split object, and the Bousfield-Kan diagonal in :mod:`homotopy`) goes
through :func:`from_full_levels`, and :func:`with_labels` attaches
carriers and face parts.
"""

from __future__ import annotations

import functools
import itertools

from .errors import (
    InvalidSimplicial,
    LimitAbsent,
    NonSplitMorphism,
    ObjectNotInTarget,
    TruncationExceeded,
)
from . import fincat as fc


# ---------------------------------------------------------------------------
# monotone map utilities ([k] -> [n] stored as the tuple of images)


def mt_id(n):
    return tuple(range(n + 1))


def mt_comp(outer, inner):
    """outer o inner, both monotone tuples."""
    return tuple(outer[i] for i in inner)


def mt_delta(i, n):
    """delta_i : [n-1] -> [n], skipping i."""
    return tuple(j if j < i else j + 1 for j in range(n))


def mt_sigma(j, n):
    """sigma_j : [n+1] -> [n], hitting j twice."""
    return tuple(x if x <= j else x - 1 for x in range(n + 2))


def mt_is_epi(u):
    """Is u an order-preserving surjection onto [max(u)]: it starts at 0
    and every step goes up by 0 or 1."""
    return bool(u) and u[0] == 0 and all(b - a in (0, 1) for a, b in zip(u, u[1:]))


def _identity_ops(k):
    """(j, i, delta_i, delta_{j-1}) at level k - 1 for each i < j <= k, in
    the order the validators check d_i d_j = d_{j-1} d_i."""
    return [(j, i, mt_delta(i, k - 1), mt_delta(j - 1, k - 1))
            for j in range(1, k + 1) for i in range(j)]


def epi_mono_factor(u):
    """u = mono o epi with epi an ordered surjection, mono an injection."""
    image = sorted(set(u))
    rank = {v: i for i, v in enumerate(image)}
    return tuple(rank[v] for v in u), tuple(image)


def collapse_runs(seq):
    """(epi, runs) of a sequence: `runs` keeps one entry per maximal run of
    equal adjacent entries, and epi[q] is the run that entry q falls in."""
    epi, runs = [], []
    for t in seq:
        if not runs or runs[-1] != t:
            runs.append(t)
        epi.append(len(runs) - 1)
    return tuple(epi), tuple(runs)


def all_epis(n, m):
    """All order-preserving surjections [n] ->> [m], lexicographic."""
    if m > n or m < 0:
        return []
    out = []
    # tuples of length n+1 over 0..m, start 0, end m, steps in {0, 1}
    for steps in itertools.combinations(range(1, n + 1), m):
        t, v = [0], 0
        for i in range(1, n + 1):
            if i in steps:
                v += 1
            t.append(v)
        out.append(tuple(t))
    return out


def all_monotone(k, n):
    """All order-preserving maps [k] -> [n]."""
    return [t for t in itertools.combinations_with_replacement(range(n + 1), k + 1)]


@functools.cache
def _factored(op, e):
    """e o op as (epi, mono), tabulated on first use; it refuses an op that
    does not apply.  For epis op and e, e o op is its own epi part."""
    if not op or op[0] < 0 or op[-1] >= len(e) or any(a > b for a, b in zip(op, op[1:])):
        raise InvalidSimplicial("operator %r does not apply at level %d" % (op, len(e) - 1))
    return epi_mono_factor(mt_comp(e, op))


@functools.cache
def _peeled(mono, m):
    """(i, mono') with mono = delta_i o mono', i the largest vertex missed."""
    missing = max(set(range(m + 1)).difference(mono))
    return missing, tuple(x if x < missing else x - 1 for x in mono)


# ---------------------------------------------------------------------------
# plain truncated simplicial sets


class SimpSet:
    """Truncated simplicial set, stored by nondegenerate simplices.

    `levels[k]` lists nondegenerate simplex ids (globally unique strings);
    `faces[(s, i)]` is the value of d_i(s) as a pair (epi, nd);
    `level_of[s]`, built on first read, is the level of s;
    `face_table[(mono, s)]`, filled per entry on first read, is the face
    of s under a mono as (epi, nd, steps) (see :meth:`apply_steps`).
    """

    def __init__(self, trunc, levels, faces, name="X"):
        self.trunc, self.name, self.face_table = trunc, name, {}
        self.levels = [tuple(l) for l in levels]
        while len(self.levels) < trunc + 1:
            self.levels.append(())
        self.faces = dict(faces)

    @functools.cached_property
    def level_of(self):
        level_of = {}
        for k, ids in enumerate(self.levels):
            for s in ids:
                if s in level_of:
                    raise InvalidSimplicial("duplicate simplex id %r" % s)
                level_of[s] = k
        return level_of

    def nd_value(self, s):
        return (mt_id(self.level_of[s]), s)

    def value_level(self, v):
        return len(v[0]) - 1

    def apply(self, op, value):
        """Apply the operator op : [k] -> [n] to a value of level n."""
        return self.apply_steps(op, value)[0]

    def apply_steps(self, op, value):
        """Apply op to value, returning (result, steps): `steps` lists the
        stored faces (simplex, face index) walked through, in order.  By
        three table reads: e o op = mono o e1, the face table gives
        mono* nd = (e2, nd2), and the result is (e2 o e1, nd2)."""
        e, nd = value
        e1, mono = _factored(op, e)
        try:
            e2, nd2, steps = self.face_table[(mono, nd)]
        except KeyError:
            e2, nd2, steps = self.face_table[(mono, nd)] = self._walk(mono, nd)
        return (_factored(e1, e2)[0], nd2), steps

    def _walk(self, mono, nd):
        """The face table's entry at (mono, nd): peel off the largest missed
        vertex through the stored face until the mono is an identity."""
        m, steps, epi = self.level_of[nd], [], mt_id(len(mono) - 1)
        while len(mono) <= m:
            missing, mono = _peeled(mono, m)
            steps.append((nd, missing))
            e, nd = self.faces[(nd, missing)]
            e2, mono = _factored(mono, e)
            epi = _factored(epi, e2)[0]
            m = self.level_of[nd]
        return epi, nd, tuple(steps)

    def face_rows(self, k):
        """Per k-simplex, the index of each face d_i in level k-1, or a
        negative number where d_i is degenerate."""
        row = {s: i for i, s in enumerate(self.levels[k - 1])}
        flat = mt_id(k - 1)
        return [tuple(row[nd] if epi == flat else -1
                      for epi, nd in (self.faces[(s, i)] for i in range(k + 1)))
                for s in self.levels[k]]

    def full_level(self, n):
        """Every simplex of level n as a value, canonically ordered."""
        if n > self.trunc:
            raise TruncationExceeded("level %d beyond truncation %d" % (n, self.trunc))
        out = []
        for m in range(n + 1):
            for e in all_epis(n, m):
                for nd in self.levels[m]:
                    out.append((e, nd))
        return out

    def level_sizes(self):
        return [len(l) for l in self.levels]

    def validate(self):
        if self.trunc < 0 or len(self.levels) > self.trunc + 1:
            raise InvalidSimplicial("%d levels do not fit truncation %d"
                                    % (len(self.levels), self.trunc))
        level_of = self.level_of
        for (s, i), v in self.faces.items():
            k = level_of[s]
            if not (0 <= i <= k) or k == 0:
                raise InvalidSimplicial("face index %d invalid at %r" % (i, s))
            epi, nd = v
            if len(epi) != k or nd not in level_of:
                raise InvalidSimplicial("malformed face value at (%r,%d)" % (s, i))
            if not mt_is_epi(epi) or max(epi) != level_of[nd]:
                raise InvalidSimplicial("face value epi malformed at (%r,%d)" % (s, i))
        for k in range(1, self.trunc + 1):
            for s in self.levels[k]:
                for i in range(k + 1):
                    if (s, i) not in self.faces:
                        raise InvalidSimplicial("missing face (%r,%d)" % (s, i))
        # d_i d_j = d_{j-1} d_i  (i < j)
        for k in range(2, self.trunc + 1):
            ops = _identity_ops(k)
            for s in self.levels[k]:
                for j, i, di, dj in ops:
                    if self.apply(di, self.faces[(s, j)]) != self.apply(dj, self.faces[(s, i)]):
                        raise InvalidSimplicial(
                            "simplicial identity fails at %r (i=%d,j=%d)" % (s, i, j))
        return self

    def key(self):
        """Equal for literally equal sets: the truncation, the ids of each
        level and the faces."""
        return (self.trunc, tuple(tuple(sorted(l)) for l in self.levels),
                tuple(sorted(self.faces.items())))

    def __repr__(self):
        return "SimpSet(%s: %s)" % (self.name, self.level_sizes())


# ---------------------------------------------------------------------------
# split simplicial objects


class SplitSimpObj:
    """Split simplicial object over the site category `scat`.

    On top of the underlying SimpSet: `label[nd]` is the carrier object,
    `part[(nd, i)]` the morphism label(nd) -> label(face nd) of d_i.
    """

    def __init__(self, scat: fc.FinCat, uset: SimpSet, label, part, name="X"):
        self.scat = scat
        self.uset = uset
        self.label = dict(label)
        self.part = dict(part)
        self.name = name

    @property
    def trunc(self):
        return self.uset.trunc

    @property
    def levels(self):
        return self.uset.levels

    def nd_value(self, s):
        return self.uset.nd_value(s)

    def apply(self, op, value):
        return self.uset.apply(op, value)

    def apply_with_part(self, op, value):
        """Apply op, returning (value, part : label(value) -> label(result))."""
        w, steps = self.uset.apply_steps(op, value)
        p = self.scat.id_of(self.label[value[1]])
        for step in steps:
            p = self.scat.comp(self.part[step], p)
        return w, p

    def full_level(self, n):
        return self.uset.full_level(n)

    def validate(self):
        self.uset.validate()
        for k, ids in enumerate(self.levels):
            for s in ids:
                if self.label.get(s) not in self.scat.objects:
                    raise InvalidSimplicial("missing label at %r" % s)
                for i in range(k + 1 if k else 0):
                    p = self.part.get((s, i))
                    if p is None:
                        raise InvalidSimplicial("missing part at (%r,%d)" % (s, i))
                    tgt = self.label[self.uset.faces[(s, i)][1]]
                    m = self.scat.mor(p)
                    if m.dom != self.label[s] or m.cod != tgt:
                        raise InvalidSimplicial("part endpoints wrong at (%r,%d)" % (s, i))
        # identity d_i d_j = d_{j-1} d_i also on label parts (the values
        # agree: the underlying set passed): each side composes a stored
        # face part with the part of the walk from that face
        faces, comp = self.uset.faces, self.scat.comp
        for k in range(2, self.trunc + 1):
            ops = _identity_ops(k)
            for s in self.levels[k]:
                for j, i, di, dj in ops:
                    pa = self.apply_with_part(di, faces[(s, j)])[1]
                    pb = self.apply_with_part(dj, faces[(s, i)])[1]
                    if comp(pa, self.part[(s, j)]) != comp(pb, self.part[(s, i)]):
                        raise InvalidSimplicial(
                            "split identity fails at %r (i=%d,j=%d)" % (s, i, j))
        return self

    def key(self):
        return (self.uset.key(), tuple(sorted(self.label.items())),
                tuple(sorted(self.part.items())))

    def __repr__(self):
        return "SplitSimpObj(%s: %s)" % (self.name, self.uset.level_sizes())


# ---------------------------------------------------------------------------
# morphisms


class SimpMap:
    """Simplicial map between truncated simplicial sets: the value of every
    nondegenerate simplex of the source."""

    def __init__(self, src: SimpSet, tgt: SimpSet, val, name="f"):
        self.src = src
        self.tgt = tgt
        self.val = dict(val)
        self.name = name

    def map_value(self, v):
        epi, nd = v
        return self.tgt.apply(epi, self.val[nd])

    def validate(self):
        for k, ids in enumerate(self.src.levels):
            for s in ids:
                w = self.val.get(s)
                if w is None or self.tgt.value_level(w) != k:
                    raise InvalidSimplicial("map misses simplex %r" % s)
                for i in range(k + 1 if k else 0):
                    a = self.tgt.apply(mt_delta(i, k), w)
                    b = self.map_value(self.src.faces[(s, i)])
                    if a != b:
                        raise InvalidSimplicial("map not simplicial at (%r,%d)" % (s, i))
        return self

    def key(self):
        return self.src.key(), self.tgt.key(), tuple(sorted(self.val.items()))

    @staticmethod
    def identity(x: SimpSet):
        return SimpMap(x, x, {s: x.nd_value(s) for l in x.levels for s in l}, "id")

    def then(self, other: "SimpMap") -> "SimpMap":
        return SimpMap(self.src, other.tgt,
                       {s: other.map_value(self.val[s]) for l in self.src.levels for s in l},
                       "%s;%s" % (self.name, other.name))


class SplitMor:
    """Morphism of split simplicial objects: per nondegenerate simplex a
    target value plus the label part label_src(nd) -> label_tgt(value)."""

    def __init__(self, src: SplitSimpObj, tgt: SplitSimpObj, val, part, name="f"):
        self.src = src
        self.tgt = tgt
        self.val = dict(val)
        self.part = dict(part)
        self.name = name

    def map_value(self, v):
        epi, nd = v
        return self.tgt.apply(epi, self.val[nd])

    def map_value_part(self, v):
        epi, nd = v
        return self.tgt.apply(epi, self.val[nd]), self.part[nd]

    def underlying(self) -> SimpMap:
        return SimpMap(self.src.uset, self.tgt.uset, self.val, self.name)

    def validate(self):
        scat = self.src.scat
        for k, ids in enumerate(self.src.levels):
            for s in ids:
                w = self.val.get(s)
                p = self.part.get(s)
                if w is None or p is None or self.tgt.uset.value_level(w) != k:
                    raise InvalidSimplicial("split map misses simplex %r" % s)
                m = scat.mor(p)
                if m.dom != self.src.label[s] or m.cod != self.tgt.label[w[1]]:
                    raise InvalidSimplicial("split map part endpoints wrong at %r" % s)
                for i in range(k + 1 if k else 0):
                    a, pa = self.tgt.apply_with_part(mt_delta(i, k), w)
                    pa_tot = scat.comp(pa, p)
                    vv = self.src.uset.faces[(s, i)]
                    q = self.src.part[(s, i)]
                    b, pb = self.map_value_part(vv)
                    pb_tot = scat.comp(pb, q)
                    if a != b or pa_tot != pb_tot:
                        raise InvalidSimplicial("split map not simplicial at (%r,%d)" % (s, i))
        return self

    def key(self):
        return (self.src.key(), self.tgt.key(), tuple(sorted(self.val.items())),
                tuple(sorted(self.part.items())))

    def is_levelwise_split(self):
        """True when every level map is a coproduct injection after
        reconstruction (injective with identity parts)."""
        for s in self.part:
            if not self.src.scat.is_identity(self.part[s]):
                return False
        for n in range(self.src.trunc + 1):
            seen = set()
            for v in self.src.full_level(n):
                w = self.map_value(v)
                if w in seen:
                    return False
                seen.add(w)
        return True

    @staticmethod
    def identity(x: SplitSimpObj):
        return SplitMor(x, x, {s: x.nd_value(s) for l in x.levels for s in l},
                        {s: x.scat.id_of(x.label[s]) for l in x.levels for s in l},
                        "id")

    def then(self, other: "SplitMor") -> "SplitMor":
        scat = self.src.scat
        val, part = {}, {}
        for l in self.src.levels:
            for s in l:
                w, p = other.map_value_part(self.val[s])
                val[s] = w
                part[s] = scat.comp(p, self.part[s])
        return SplitMor(self.src, other.tgt, val, part,
                        "%s;%s" % (self.name, other.name))


# ---------------------------------------------------------------------------
# generic constructors from full-level presentations


def from_full_levels(trunc, levels, face_fn, degen_fn, id_fn=None, name="X"):
    """Build a SimpSet from full levels and elementary structure maps.

    `levels[n]` lists hashable elements; `face_fn(n, i, e)` and
    `degen_fn(n, j, e)` give d_i e (level n-1) and s_j e (level n+1).
    """
    canon = {}
    nd_levels = [[] for _ in range(trunc + 1)]
    ids = {}

    def default_id(n, e):
        return "%s[%d]#%d" % (name, n, len(nd_levels[n]))

    id_fn = id_fn or default_id
    for n in range(trunc + 1):
        marks = {}
        if n > 0:
            for j in range(n):
                for y in levels[n - 1]:
                    marks.setdefault(degen_fn(n - 1, j, y), (j, y))
        for e in levels[n]:
            if e in marks:
                j, y = marks[e]
                ey, ndy = canon[(n - 1, y)]
                canon[(n, e)] = (mt_comp(ey, mt_sigma(j, n - 1)), ndy)
            else:
                sid = id_fn(n, e)
                ids[(n, e)] = sid
                nd_levels[n].append(sid)
                canon[(n, e)] = (mt_id(n), sid)
    faces = {}
    for n in range(1, trunc + 1):
        for e in levels[n]:
            if (n, e) in ids:
                for i in range(n + 1):
                    faces[(ids[(n, e)], i)] = canon[(n - 1, face_fn(n, i, e))]
    sset = SimpSet(trunc, nd_levels, faces, name)
    elem_of = {v: k for k, v in ids.items()}
    return sset, canon, ids, elem_of


def with_labels(scat, built, label_fn, part_fn):
    """Label a :func:`from_full_levels` result as a split object over scat:
    `label_fn(e)` gives the carrier of each nondegenerate element and
    `part_fn(n, i, e)` the part of its face d_i.  Degeneracies must
    preserve labels."""
    sset, canon, ids, elem_of = built
    label, part = {}, {}
    for (n, e), sid in ids.items():
        label[sid] = label_fn(e)
        for i in range(n + 1 if n else 0):
            part[(sid, i)] = part_fn(n, i, e)
    obj = SplitSimpObj(scat, sset, label, part, sset.name)
    return obj, canon, ids, elem_of


# ---------------------------------------------------------------------------
# standard simplicial sets


def delta_value(verts):
    """The value of Delta_n on a monotone vertex sequence: the collapse onto
    the nondegenerate simplex of its distinct vertices, whose id is the
    vertex tuple written as "(0,1,2)"."""
    epi, runs = collapse_runs(verts)
    return epi, "(%s)" % ",".join(map(str, runs))


def delta_vertices(v):
    """The vertex sequence of a Delta_n value; inverse to :func:`delta_value`."""
    epi, nd = v
    verts = tuple(int(t) for t in nd.strip("()").split(","))
    return tuple(verts[i] for i in epi)


def delta_simpset(n, trunc, name=None):
    """Standard simplex Delta_n, truncated: level k is every monotone
    [k] -> [n], the strictly increasing ones nondegenerate with the ids of
    :func:`delta_value`."""
    return from_full_levels(
        trunc, [all_monotone(k, n) for k in range(trunc + 1)],
        lambda k, i, t: t[:i] + t[i + 1:], lambda k, j, t: t[:j + 1] + t[j:],
        lambda k, t: delta_value(t)[1], name or ("D%d" % n))[0]


def boundary_delta(n, trunc, name=None):
    """The boundary of Delta_n (all proper faces)."""
    full = delta_simpset(n, trunc, name or ("dD%d" % n))
    top = delta_value(range(n + 1))[1]
    return subcomplex(full, [s for l in full.levels for s in l if s != top],
                      name or ("dD%d" % n))


def subcomplex(x: SimpSet, keep_nds, name="A"):
    """Full subcomplex on a face-closed set of nondegenerate simplices."""
    keep = set(keep_nds)
    # close downward under faces
    changed = True
    while changed:
        changed = False
        for s in list(keep):
            k = x.level_of[s]
            for i in range(k + 1 if k else 0):
                nd = x.faces[(s, i)][1]
                if nd not in keep:
                    keep.add(nd)
                    changed = True
    levels = [[s for s in l if s in keep] for l in x.levels]
    faces = {(s, i): v for (s, i), v in x.faces.items() if s in keep}
    return SimpSet(x.trunc, levels, faces, name)


def inclusion_map(a: SimpSet, b: SimpSet) -> SimpMap:
    """Inclusion of a subcomplex whose simplex ids are shared with b."""
    return SimpMap(a, b, {s: b.nd_value(s) for l in a.levels for s in l}, "incl")


def simpset_product(a: SimpSet, b: SimpSet, name=None):
    """Product simplicial set, normalized (jointly nondegenerate pairs):
    level n is every pair of n-values, and each face and degeneracy acts on
    both coordinates.  Returns the :func:`from_full_levels` 4-tuple."""
    trunc = min(a.trunc, b.trunc)

    def act(op, e):
        return a.apply(op, e[0]), b.apply(op, e[1])

    return from_full_levels(
        trunc, [[(u, v) for u in a.full_level(n) for v in b.full_level(n)]
                for n in range(trunc + 1)],
        lambda n, i, e: act(mt_delta(i, n), e), lambda n, j, e: act(mt_sigma(j, n), e),
        None, name or ("%sx%s" % (a.name, b.name)))


def prism_horn(n, e, trunc):
    """Lambda_e(Delta_n x Delta_1) inside Delta_n x Delta_1.

    Returns (horn subcomplex, full product, product bookkeeping).
    """
    dn = delta_simpset(n, trunc)
    d1 = delta_simpset(1, trunc)
    prod, canon, ids, elem_of = simpset_product(dn, d1, "D%dxD1" % n)
    full_vertex_set = set(range(n + 1))
    keep = []
    for (lev, elem), sid in ids.items():
        u, v = elem
        if set(delta_vertices(v)) == {e} or set(delta_vertices(u)) != full_vertex_set:
            keep.append(sid)
    horn = subcomplex(prod, keep, "L%d(D%dxD1)" % (e, n))
    return horn, prod, (canon, ids, elem_of)


# ---------------------------------------------------------------------------
# constant objects, coproducts, tensor


def constant_split(scat: fc.FinCat, s: str, trunc: int, name=None) -> SplitSimpObj:
    name = name or ("c(%s)" % s)
    sid = "%s.v" % name
    sset = SimpSet(trunc, [[sid]] + [[] for _ in range(trunc)], {}, name)
    return SplitSimpObj(scat, sset, {sid: s}, {}, name)


def coproduct_split(parts, name="U"):
    """Disjoint union of split objects over the same site category."""
    scat = parts[0].scat
    trunc = parts[0].trunc
    levels = [[] for _ in range(trunc + 1)]
    faces, label, part = {}, {}, {}
    for idx, p in enumerate(parts):
        if p.trunc != trunc:
            raise TruncationExceeded("coproduct of mismatched truncations")
        pref = "%d:" % idx
        for k, ids in enumerate(p.levels):
            for s in ids:
                levels[k].append(pref + s)
                label[pref + s] = p.label[s]
        for (s, i), (e, nd) in p.uset.faces.items():
            faces[(pref + s, i)] = (e, pref + nd)
        for (s, i), q in p.part.items():
            part[(pref + s, i)] = q
    sset = SimpSet(trunc, levels, faces, name)
    return SplitSimpObj(scat, sset, label, part, name)


def as_split(scat: fc.FinCat, x: SimpSet, s: str, name=None) -> SplitSimpObj:
    """A plain simplicial set regarded as a split object with constant
    carrier s (all parts identities)."""
    label = {nd: s for l in x.levels for nd in l}
    part = {(nd, i): scat.id_of(s)
            for k, l in enumerate(x.levels) if k > 0 for nd in l for i in range(k + 1)}
    return SplitSimpObj(scat, x, label, part, name or x.name)


def tensor(k: SimpSet, x: SplitSimpObj, name=None) -> SplitSimpObj:
    """Levelwise (K tensor X)_n = a copy of X_n per n-simplex of K,
    normalized to jointly nondegenerate pairs.

    The result carries `nd_elem` (nondegenerate id -> (level, pair)) and
    `elem_canon` ((level, pair) -> value) for exact pair bookkeeping.
    """
    def part_fn(n, i, e):
        return x.apply_with_part(mt_delta(i, n), e[1])[1]

    obj, canon, ids, elem_of = with_labels(
        x.scat, simpset_product(k, x.uset, name or ("%s(x)%s" % (k.name, x.name))),
        lambda e: x.label[e[1][1]], part_fn)
    obj.nd_elem = elem_of
    obj.elem_canon = canon
    return obj


def tensor_value(kx: SplitSimpObj, u, w):
    """Canonical value of the pair (u, w) inside a tensor built by
    :func:`tensor`."""
    n = len(u[0]) - 1
    return kx.elem_canon[(n, (u, w))]


def prism_inclusion(n, e, scat, s, trunc):
    """Lambda_e(Delta_n x Delta_1) tensor s -> (Delta_n x Delta_1) tensor s:
    each pair goes to itself, with identity parts."""
    horn, prod, _ = prism_horn(n, e, trunc)
    xs = constant_split(scat, s, trunc)
    hx, px = tensor(horn, xs), tensor(prod, xs)
    val = {sid: tensor_value(px, *hx.nd_elem[sid][1]) for ids in hx.levels for sid in ids}
    return SplitMor(hx, px, val, {sid: scat.id_of(s) for sid in val}, "prism%d,%d" % (n, e))


# ---------------------------------------------------------------------------
# Cech covers


def cech_cover(site, family, trunc, name=None):
    """The Cech object of a covering family (list of morphism ids into a
    common single object X), with its augmentation to the constant X.

    Level n is the (n+1)-fold fiber power of u U^(i) over X, so level 0 is
    the coproduct itself: one simplex "U(i_0,...,i_n)" per index tuple,
    nondegenerate when no two adjacent indices agree.  A face drops an
    index, a degeneracy repeats one.  Requires every leg to be a monomorphism so that
    the canonical wide pullbacks give a genuinely split presentation.
    """
    cat = site.cat
    if not family:
        raise LimitAbsent("empty covering family")
    x = cat.cod(family[0])
    if any(cat.cod(m) != x for m in family):
        raise LimitAbsent("covering family legs must share their target")
    for m in family:
        if not cat.is_mono(m):
            raise NonSplitMorphism(
                "leg %r is not mono; the Cech object would not be split" % m)
    apexes = {}

    def apex_of(tset):
        legs = tuple(sorted(set(family[i] for i in tset)))
        if legs not in apexes:
            res = fc.wide_pullback(cat, list(legs), x)
            if res is None:
                raise LimitAbsent("missing wide pullback of %r" % (legs,))
            apexes[legs] = (res[0], dict(zip(legs, res[1])))
        return apexes[legs]

    def proj(tbig, tsmall):
        """Unique morphism apex(tbig) -> apex(tsmall) over the legs."""
        abig, legb = apex_of(tbig)
        asml, legs = apex_of(tsmall)
        if set(legb) == set(legs):
            return cat.id_of(abig)
        h = fc.factor(cat, abig, asml, [(legs[m], legb[m]) for m in legs])
        if h is None:
            raise LimitAbsent("no unique projection between fiber powers")
        return h

    r = range(len(family))
    built = from_full_levels(
        trunc, [list(itertools.product(r, repeat=n + 1)) for n in range(trunc + 1)],
        lambda n, i, t: t[:i] + t[i + 1:], lambda n, j, t: t[:j + 1] + t[j:],
        lambda n, t: "U(%s)" % ",".join(map(str, t)), name or "Cech")
    u, _, _, elem_of = with_labels(cat, built, lambda t: apex_of(t)[0],
                                   lambda n, i, t: proj(t, t[:i] + t[i + 1:]))
    target = constant_split(cat, x, trunc, "c(%s)" % x)
    vtx = target.levels[0][0]
    aug_val, aug_part = {}, {}
    for sid, (n, t) in elem_of.items():
        aug_val[sid] = ((0,) * (n + 1), vtx)
        leg = apex_of(t[:1])[1][family[t[0]]]
        aug_part[sid] = cat.comp(family[t[0]], cat.comp(leg, proj(t, t[:1])))
    return u, SplitMor(u, target, aug_val, aug_part, "aug")


# ---------------------------------------------------------------------------
# hom into a split object


def hom_into(site, x, y: SplitSimpObj, name=None) -> SimpSet:
    """Levelwise Hom(x, y_n), with the induced simplicial structure, for an
    object x of the site."""
    cat = site.cat
    if x not in cat.objects:
        raise ObjectNotInTarget("object %r not in %r" % (x, cat.name))
    trunc = y.trunc
    levels = []
    for n in range(trunc + 1):
        lev = []
        for v in y.full_level(n):
            for h in cat.hom(x, y.label[v[1]]):
                lev.append((v, h))
        levels.append(lev)

    def face_fn(n, i, e):
        v, h = e
        w, p = y.apply_with_part(mt_delta(i, n), v)
        return (w, cat.comp(p, h))

    def degen_fn(n, j, e):
        v, h = e
        return (y.apply(mt_sigma(j, n), v), h)

    def id_fn(n, e):
        return "h(%s|%s)" % (e[0][1], e[1])

    sset, canon, ids, elem_of = from_full_levels(
        trunc, levels, face_fn, degen_fn, id_fn,
        name or ("Hom(%s,%s)" % (x, y.name)))
    sset.elem_of = elem_of
    return sset


# ---------------------------------------------------------------------------
# nerves of finite categories


def chain_id(chain):
    x0, ms = chain
    return "c(%s)" % "|".join([str(x0)] + list(ms))


def chain_image(functor: fc.FinFunctor, chain):
    """The value of a nerve chain's image under the simplicial map a functor
    induces, as (epi, chain id): arrows sent to identities are dropped and
    the epi repeats the vertex before each."""
    x0, ms = chain
    target = functor.target
    epi, kept = [0], []
    for m in ms:
        fm = functor.mo(m)
        if not target.is_identity(fm):
            kept.append(fm)
        epi.append(len(kept))
    return tuple(epi), chain_id((functor.ob(x0), tuple(kept)))


class Nerve(SimpSet):
    """The nerve of a finite category, stored by the face rows of its
    integer chains.

    `face_rows(k)[j]` gives, for d_0 .. d_k of the j-th k-chain, the index
    of the face in level k-1, or ~r when the face is degenerate onto the
    r-th (k-2)-chain; its epi then repeats vertex i-1.  The last entry is
    the chain's parent, `arrows[k][j]` the number of its last arrow.  The
    string ids `levels` (each extends its parent's by one arrow), and so
    `level_of`, `faces` and `chain_of`, are written from the rows on first
    read, in level order."""

    def __init__(self, trunc, rows, arrows, mids, objects, name):
        self.trunc, self.name, self.face_table = trunc, name, {}
        self.rows, self.arrows, self.mids, self.objects = rows, arrows, mids, objects

    def face_rows(self, k):
        return self.rows[k]

    def level_sizes(self):
        return [len(self.objects)] + [len(r) for r in self.rows[1:]]

    @functools.cached_property
    def levels(self):
        levels = [tuple(chain_id((x, ())) for x in self.objects)]
        tails = [mid + ")" for mid in self.mids]
        for k in range(1, self.trunc + 1):
            stems = [sid[:-1] + "|" for sid in levels[-1]]
            levels.append(tuple([stems[row[-1]] + tails[m]
                                 for row, m in zip(self.rows[k], self.arrows[k])]))
        return levels

    @functools.cached_property
    def faces(self):
        faces = {}
        for k in range(1, self.trunc + 1):
            flat = tuple(range(k))
            degenerate = {i: flat[:i] + flat[i - 1:k - 1] for i in range(1, k)}
            below, two_below = self.levels[k - 1], self.levels[k - 2]
            for sid, row in zip(self.levels[k], self.rows[k]):
                for i, r in enumerate(row):
                    faces[(sid, i)] = ((flat, below[r]) if r >= 0
                                       else (degenerate[i], two_below[~r]))
        return faces

    @functools.cached_property
    def chain_of(self):
        chain_of = {sid: (x, ()) for sid, x in zip(self.levels[0], self.objects)}
        for k in range(1, self.trunc + 1):
            below = self.levels[k - 1]
            for sid, row, m in zip(self.levels[k], self.rows[k], self.arrows[k]):
                x0, ms = chain_of[below[row[-1]]]
                chain_of[sid] = (x0, ms + (self.mids[m],))
        return chain_of


def _ranked_out(sources, identities, steps):
    """Number each arrow by its place in `sources`, the list of the
    objects they leave.  Append each arrow not in `identities` to
    steps[its source], in order, and return rank[arrow], its place there.
    A nerve extends a chain along the steps of its last object, in order."""
    rank = {}
    for f, x in enumerate(sources):
        if f not in identities:
            rank[f] = len(steps[x])
            steps[x].append(f)
    return rank


def nerve_of_category(c: fc.FinCat, trunc: int, name=None) -> Nerve:
    """The nerve of a finite category, truncated.  Nondegenerate
    k-simplices are the chains of k composable non-identity morphisms,
    each extended along the non-identity out-arrows of its last object, so
    the children of a chain are consecutive and the q-th extends it by the
    q-th out-arrow.

    A chain ch.m of length k finds its face rows from its parent's: for
    i < k-1, d_i is d_i(ch) extended by m (a degenerate face stays
    degenerate, one level lower); d_{k-1} extends ch[:-1] by m o m_{k-1},
    or is degenerate onto ch[:-1] when that composite is an identity; d_k
    is ch.

    The ranks of those composites come from the composition table, one
    pair at a time, except in a category of elements: there the element
    over phi : b -> b' out of (b, x) has the rank of phi among b's
    out-arrows, so every element over phi shares the ranks read once off
    the base."""
    onum = {x: n for n, x in enumerate(c.objects)}
    mids = [m.id for m in c.morphisms]
    num = {mid: n for n, mid in enumerate(mids)}
    cod = [onum[m.cod] for m in c.morphisms]
    steps = [[] for _ in c.objects]
    rank = _ranked_out([onum[m.dom] for m in c.morphisms],
                       {num[i] for i in c.identity.values()}, steps)
    table = c.compose_table
    # after[f][q]: the rank of steps[cod f][q] o f among the out-arrows of
    # dom f, or -1 when that composite is an identity
    if trunc < 2:
        after = None
    elif isinstance(table, fc.ElementComposition):
        # the same ranks one level down, for the base arrows (b, phi, cod)
        out, comp = table.out, table.comp
        base = [(b, phi, y) for b, fs in out.items() for phi, y in fs]
        bnum = {(b, phi): n for n, (b, phi, _) in enumerate(base)}
        base_steps = {b: [] for b in out}
        base_rank = _ranked_out([b for b, _, _ in base],
                                {bnum[i] for i in table.identity.items()}, base_steps)
        base_after = [[base_rank.get(bnum[(b, comp[(base[g][1], phi)])], -1)
                       for g in base_steps[y]] for b, phi, y in base]
        keys = [table.over[mid][0] for mid in mids]
        after = [base_after[bnum[(b, phi)]] for b, _, phi in keys]
    else:
        after = [[rank.get(num[table[(mids[g], mids[f])]], -1) for g in steps[cod[f]]]
                 if f in rank else [] for f in range(len(mids))]
    rows, arrows, first = [[]], [[]], []
    for k in range(1, trunc + 1):
        lev, arr, starts = [], [], []
        for p in range(len(arrows[k - 1]) if k > 1 else len(c.objects)):
            starts.append(len(arr))
            if k == 1:
                kids = steps[p]
                faces = [[cod[m] for m in kids]]
            else:
                a, row = arrows[k - 1][p], rows[k - 1][p]
                kids, n = steps[cod[a]], len(steps[cod[a]])
                bases = [first[k - 2][r] if r >= 0 else ~first[k - 3][~r] for r in row[:-1]]
                faces = [range(b, b + n) if b >= 0 else range(b, b - n, -1) for b in bases]
                last = first[k - 2][row[-1]]
                faces.append([last + g if g >= 0 else ~row[-1] for g in after[a]])
            arr.extend(kids)
            lev.extend(zip(*faces, itertools.repeat(p, len(kids))))
        first.append(starts)
        rows.append(lev)
        arrows.append(arr)
    return Nerve(trunc, rows, arrows, mids, list(c.objects), name or ("N(%s)" % c.name))


def nerve_labeled(c: fc.FinCat, labels: fc.FinFunctor, trunc: int, name=None):
    """The nerve of (c, labels), its labels and parts written on first read."""
    from .diagram import LabeledNerve
    return LabeledNerve(labels, nerve_of_category(c, trunc, name), name or ("N(%s)" % c.name))


# ---------------------------------------------------------------------------
# split object isomorphism search


def split_isomorphic(a: SplitSimpObj, b: SplitSimpObj):
    """Search for a levelwise label-preserving isomorphism of split objects.

    Returns the per-simplex bijection or None.  Labels must match on the
    nose (site objects are compared by equality).
    """
    if a.trunc != b.trunc:
        return None
    if [len(l) for l in a.levels] != [len(l) for l in b.levels]:
        return None
    level = {s: k for k, l in enumerate(a.levels) for s in l}

    def options(s, bij):
        used = set(bij.values())
        return [t for t in b.levels[level[s]] if t not in used and a.label[s] == b.label[t]]

    def fits(s, bij):
        t = bij[s]
        for i in range(level[s] + 1) if level[s] else ():
            (e1, nd1), (e2, nd2) = a.uset.faces[(s, i)], b.uset.faces[(t, i)]
            if e1 != e2 or bij.get(nd1) != nd2 or a.part[(s, i)] != b.part[(t, i)]:
                return False
        return True

    bij = next(fc.backtrack(level, options, fits), None)
    return None if bij is None else dict(bij)
