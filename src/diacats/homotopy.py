"""The integration functor from split simplicial objects to diagrams, the
two comparison transformations between it and the nerve, Bousfield-Kan
homotopy colimits, and the end-formula homotopy limit.

Truncation discipline: the category of elements of a truncated object uses
the truncated simplex-opposite shape, and every homology verdict carries
the range in which it is trustworthy.  Nerves of element categories grow
exponentially with the truncation; the exact forecast helpers let callers
refuse infeasible computations instead of attempting them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType

from . import diagram as dg
from . import fincat as fc
from . import simplicial as sp
from .errors import BudgetExceeded, InvalidFunctor, LimitAbsent, TruncationExceeded
from .site import Site


# ---------------------------------------------------------------------------
# the truncated simplex-opposite shape


@functools.cache
def _delta_op_tables(trunc: int):
    """The truncated simplex-opposite shape as tables over levels 0..trunc:
    out[n] lists the operators g : [m] -> [n] as arrows (g, m) out of [n],
    comp[(h, g)] is the operator g o h, ident[n] the identity operator, and
    text[g] the printed operator.  Computed once per truncation and shared
    by every caller and by the element categories that compose through
    them, so they are read-only."""
    levels = range(trunc + 1)
    out = {n: tuple((g, m) for m in levels for g in sp.all_monotone(m, n)) for n in levels}
    comp = {(h, g): sp.mt_comp(g, h) for n in levels for g, m in out[n] for h, _ in out[m]}
    ident = {n: sp.mt_id(n) for n in levels}
    text = {g: ",".join(map(str, g)) for n in levels for g, _ in out[n]}
    return tuple(map(MappingProxyType, (out, comp, ident, text)))


def t_delta_op(trunc: int) -> fc.FinCat:
    """The opposite of the simplex category on [0]..[trunc]: a morphism
    [n] -> [m] is an operator, i.e. a monotone map [m] -> [n].  It is the
    category of elements of the terminal presheaf."""
    out, comp, ident, text = _delta_op_tables(trunc)
    cat, _, mkey = fc.elements(
        "DeltaOp<=%d" % trunc, [(n, [()]) for n in out], out, lambda g, x: x,
        comp, ident, lambda n, x: "[%d]" % n,
        lambda n, g, src, tgt: "o(%d->%d|%s)" % (n, len(g) - 1, text[g]))
    cat.op_key = {(n, len(g) - 1, g): mid for (n, _, g), mid in mkey.items()}
    return cat


# ---------------------------------------------------------------------------
# categories of elements


def int_simpset(k: sp.SimpSet, trunc=None, name=None):
    """Category of elements of a truncated simplicial set over the
    truncated simplex-opposite shape.

    Objects are (level, simplex value); a morphism (n, x) -> (m, g* x) is
    an operator g : [m] -> [n].  Returns (category, obj key map, mor key
    map); the projection to :func:`t_delta_op` is an opfibration.
    """
    trunc = k.trunc if trunc is None else min(trunc, k.trunc)
    return _int_elements(k, trunc, name or ("int(%s)" % k.name), k.apply)


def _int_elements(k: sp.SimpSet, trunc: int, name: str, act):
    """The element category of `int_simpset`, with `act(g, v)` = g* v."""
    out, comp, ident, text = _delta_op_tables(trunc)
    return fc.elements(
        name, [(n, k.full_level(n)) for n in out], out, act, comp, ident,
        lambda n, v: "e(%d|%s|%s)" % (n, text[v[0]], v[1]),
        lambda n, g, src, tgt: "g(%s|%s->%s)" % (text[g], src, tgt))


@dataclass
class IntAmalgResult:
    dia: dg.DiaObj
    proj: fc.FinFunctor          # opfibration to the truncated shape
    index: dict                  # object id -> (level, value)
    okey: dict
    mkey: dict
    source: sp.SplitSimpObj
    trunc: int


def int_amalg(x: sp.SplitSimpObj, trunc=None) -> IntAmalgResult:
    """The category of elements of a split simplicial object, labeled by
    the carrier of each element.  Each operator is applied once: the part
    of a morphism is read off the application that finds its target."""
    trunc = x.trunc if trunc is None else min(trunc, x.trunc)
    parts = {}

    def act(g, v):
        w, parts[(g, v)] = x.apply_with_part(g, v)
        return w

    cat, okey, mkey = _int_elements(x.uset, trunc, "int(%s)" % x.uset.name, act)
    tshape = t_delta_op(trunc)
    lab_ob = {oid: x.label[v[1]] for (n, v), oid in okey.items()}
    lab_mo = {mid: parts[(g, v)] for (n, v, g), mid in mkey.items()}
    labels = fc.FinFunctor("lbl", cat, x.scat, lab_ob, lab_mo)
    dia = dg.DiaObj(cat, labels, "int(%s)" % x.name)
    proj = fc.FinFunctor("proj", cat, tshape,
                         {oid: "[%d]" % n for (n, v), oid in okey.items()},
                         {mid: tshape.op_key[(n, len(g) - 1, g)]
                          for (n, v, g), mid in mkey.items()})
    return IntAmalgResult(dia, proj, {oid: k for k, oid in okey.items()},
                          okey, mkey, x, trunc)


# ---------------------------------------------------------------------------
# size forecasts (exact, computed without building anything)


def _chain_counts(weights, a, trunc):
    """weights . A^k . 1 for k = 0..trunc: chain counts by transfer matrix A."""
    vec = [1] * len(weights)
    counts = [sum(weights)]
    for _ in range(trunc):
        vec = [sum(x * y for x, y in zip(row, vec)) for row in a]
        counts.append(sum(w * y for w, y in zip(weights, vec)))
    return counts


def forecast_int_nerve(x: sp.SplitSimpObj, int_trunc: int, nerve_trunc: int):
    """Exact nondegenerate chain counts of the nerve of the category of
    elements of x, per level, without constructing it.

    Out-degrees in the element category depend only on the level, so the
    counts follow from a transfer matrix over levels."""
    size = int_trunc + 1
    a = [[len(sp.all_monotone(m, n)) - (1 if m == n else 0)
          for m in range(size)] for n in range(size)]
    return _chain_counts([len(x.full_level(n)) for n in range(size)], a, nerve_trunc)


def forecast_nerve(c: fc.FinCat, trunc: int):
    """Exact nondegenerate chain counts of the nerve of a finite category."""
    idx = {x: i for i, x in enumerate(c.objects)}
    a = [[0] * len(idx) for _ in idx]
    for mor in c.morphisms:
        if not c.is_identity(mor.id):
            a[idx[mor.dom]][idx[mor.cod]] += 1
    return _chain_counts([1] * len(idx), a, trunc)


# ---------------------------------------------------------------------------
# the counit to the diagram (first comparison)


def counit_to_diagram(d: dg.DiaObj, trunc: int):
    """The pure-diagram-type morphism int N(I,S) -> (I,S) sending a chain
    element to the first object of its chain."""
    nv = dg.nerve(d, trunc)
    ia = int_amalg(nv)
    shape = ia.dia.shape
    I = d.shape

    def chain_at(v):
        epi, nd = v
        return nv.chain_of[nd], epi

    omap, mmap = {}, {}
    for oid, (n, v) in ia.index.items():
        (x0, ms), epi = chain_at(v)
        omap[oid] = x0
    for (n, v, g), mid in ia.mkey.items():
        (x0, ms), epi = chain_at(v)
        p = epi[g[0]]
        if p == 0:
            mmap[mid] = I.id_of(x0)
        else:
            mmap[mid] = I.comp_path(list(ms[:p]))
    smap = fc.FinFunctor("counit", shape, I, omap, mmap)
    lt = {oid: d.scat.id_of(ia.dia.labels.ob(oid)) for oid in shape.objects}
    return dg.DiaMor(ia.dia, d, smap, lt, "counit"), ia


def counit_fiber_check(d: dg.DiaObj, trunc: int):
    """For every i: the comma fiber of the counit at i is isomorphic to the
    element category of the nerve of the slice i x_{/I} I, and the slice
    carries an initial object.

    Returns a report list of (i, iso verified, initial object).
    """
    counit, ia = counit_to_diagram(d, trunc)
    I = d.shape
    op_of = {mid: g for (n, v, g), mid in ia.mkey.items()}
    out = []
    for i in I.objects:
        fib, proj, okey_f, mkey_f = fc.slice_under(i, counit.shape_map)
        slice_cat, sproj, okey_s, mkey_s = fc.slice_under(i, fc.FinFunctor.identity(I))
        n_slice = sp.nerve_of_category(slice_cat, trunc)
        el, okey_e, mkey_e = int_simpset(n_slice, trunc)
        key_of_oid = {oid: k for k, oid in okey_f.items()}

        def lift_chain(chain, phi):
            """A chain in I starting at x0 with phi : i -> x0 lifts to the
            slice category uniquely."""
            x0, ms = chain
            cur, cur_x = phi, x0
            lifted = []
            for m in ms:
                nxt = I.comp(m, cur)
                o1 = okey_s[("*", cur_x, cur)]
                o2 = okey_s[("*", I.cod(m), nxt)]
                lifted.append(mkey_s[(o1, o2, "id_*", m)])
                cur, cur_x = nxt, I.cod(m)
            return (okey_s[("*", x0, phi)], tuple(lifted))

        def translate(oid, phi):
            n, v = ia.index[oid]
            epi, nd = v
            lifted = lift_chain(ia.source.chain_of[nd], phi)
            return n, (epi, sp.chain_id(lifted))

        omap, mmap = {}, {}
        for (_, oid, phi), fid in okey_f.items():
            n, tv = translate(oid, phi)
            omap[fid] = okey_e[(n, tv)]
        for (o1, o2, u, g), fmid in mkey_f.items():
            _, oid1, phi1 = key_of_oid[o1]
            n1, tv1 = translate(oid1, phi1)
            mmap[fmid] = mkey_e[(n1, tv1, op_of[g])]
        iso = fc.verify_isomorphism(fc.FinFunctor("cmp", fib, el, omap, mmap))
        ext = fc.detect_extremal(slice_cat)
        out.append((i, iso, ext["initial"]))
    return out


# ---------------------------------------------------------------------------
# the comparison to the simplicial object (second comparison)


def comparison_to_simp(x: sp.SplitSimpObj, nerve_trunc: int, int_trunc=None,
                       budget: int = 200_000):
    """The morphism N(int x) -> x given on a k-chain

        (n_0, xi) --g_1--> (n_1, ...) --g_2--> ... --g_k--> (n_k, ...)

    by pulling xi back along phi : [k] -> [n_0], phi(i) = (g_1...g_i)(0).

    This is the vertex-composition comparison of the chain presentation in
    which elements sit at the chain's first object (labels are carried
    there); it is the simplicial-opposite form of the classical
    last-vertex map, matching the orientation of the element category as
    an opfibration over the truncated simplex-opposite shape.

    The walk follows the nerve's integer rows: a chain takes xi from its
    parent (the last entry of its row) and extends the parent's composite
    and phi by one read of the shape's composition table.  Pulling back
    along phi runs once per distinct (phi, xi), however many chains share it.

    `int_trunc` is clamped to x's truncation, as in :func:`int_amalg`.
    `budget` bounds the total nondegenerate chain count; the exact
    forecast is consulted first, raising BudgetExceeded on overflow."""
    int_trunc = x.trunc if int_trunc is None else min(int_trunc, x.trunc)
    if nerve_trunc > x.trunc:
        raise TruncationExceeded("nerve truncation exceeds the object's")
    counts = forecast_int_nerve(x, int_trunc, nerve_trunc)
    if sum(counts) > budget:
        raise BudgetExceeded(
            "nerve of the element category needs %s nondegenerate chains "
            "(budget %d)" % (counts, budget))
    ia = int_amalg(x, int_trunc)
    nerve_ia = dg.nerve(ia.dia, nerve_trunc)
    ner, table = nerve_ia.uset, _delta_op_tables(int_trunc)[1]
    ops = list(map({mid: g for (n, v, g), mid in ia.mkey.items()}.get, ner.mids))
    start = [ia.index[oid] for oid in ner.objects]
    comps, xis = [sp.mt_id(n0) for n0, _ in start], [v0 for _, v0 in start]
    phis, keys = [(0,)] * len(comps), []
    for k in range(nerve_trunc + 1):
        if k:
            parents = [row[-1] for row in ner.rows[k]]
            xis = [xis[p] for p in parents]
            comps = [table[(ops[a], comps[p])] for p, a in zip(parents, ner.arrows[k])]
            phis = [phis[p] + (g[0],) for p, g in zip(parents, comps)]
        keys += zip(phis, xis)
    got = list(itertools.starmap(functools.cache(x.apply_with_part), keys))
    val = dict(zip(itertools.chain(*ner.levels), [w for w, _ in got]))
    part = dict(zip(itertools.chain(*ner.levels), [p for _, p in got]))
    return sp.SplitMor(nerve_ia, x, val, part, "firstvertex"), ia


# ---------------------------------------------------------------------------
# Bousfield-Kan homotopy colimit


def _first_arrow(nerve_set: sp.SimpSet, cat: fc.FinCat, value):
    """The first arrow of the chain a nerve value of level >= 1 stands for:
    the first stored arrow unless the degeneracy repeats the first object."""
    epi, nd = value
    x0, ms = nerve_set.chain_of[nd]
    return ms[0] if epi[1] else cat.id_of(x0)


def hocolim_bk(xd: fc.StrictFunctor, trunc: int) -> sp.SplitSimpObj:
    """The Bousfield-Kan homotopy colimit of a strict functor X into split
    objects: the diagonal of the bisimplicial object whose (n, m) part is
    one copy of X(i_0)_m per length-n chain i_0 -> ... -> i_n.  Level n
    pairs a chain value with an n-value of X at the chain's first object;
    d_i applies the nerve's face and then X's, d_0 transporting along the
    first arrow in between.  The part of d_i is X's face part composed
    with the transport part.

    The result carries `nd_elem` and `elem_canon` as :func:`sp.tensor` does.
    """
    cat = xd.base
    scat = xd.ob[cat.objects[0]].scat
    ner = sp.nerve_of_category(cat, trunc)

    def at_start(cv):
        return xd.ob[ner.chain_of[cv[1]][0]]

    def face(n, i, e):
        """(d_i e, its part)."""
        cv, v = e
        cv2 = ner.apply(sp.mt_delta(i, n), cv)
        p = None
        if i == 0:
            v, p = xd.mo[_first_arrow(ner, cat, cv)].map_value_part(v)
        w, q = at_start(cv2).apply_with_part(sp.mt_delta(i, n), v)
        return (cv2, w), q if p is None else scat.comp(q, p)

    def degen(n, j, e):
        cv, v = e
        return ner.apply(sp.mt_sigma(j, n), cv), at_start(cv).apply(sp.mt_sigma(j, n), v)

    levels = [[(cv, v) for cv in ner.full_level(n) for v in at_start(cv).full_level(n)]
              for n in range(trunc + 1)]
    built = sp.from_full_levels(trunc, levels, lambda n, i, e: face(n, i, e)[0], degen,
                                None, "hocolim(%s)" % xd.name)
    diag, canon, ids, elem_of = sp.with_labels(
        scat, built, lambda e: at_start(e[0]).label[e[1][1]],
        lambda n, i, e: face(n, i, e)[1])
    diag.nd_elem = elem_of
    diag.elem_canon = canon
    return diag


def constant_split_diagram(shape: fc.FinCat, x: sp.SplitSimpObj) -> fc.StrictFunctor:
    idm = sp.SplitMor.identity(x)
    return fc.StrictFunctor(shape, {a: x for a in shape.objects},
                            {m.id: idm for m in shape.morphisms}, "const")


# ---------------------------------------------------------------------------
# hocolim against the nerve (base-change form)


def fiber_product_split(site: Site, f_leg: str, x: sp.SplitSimpObj, aug,
                        name=None):
    """Levelwise fiber product of a fixed morphism f_leg : A -> s with a
    split object over s (augmentation `aug`: carrier morphism to s per
    nondegenerate simplex)."""
    cat = site.cat
    pb_cache = {}

    def apex(nd):
        if nd not in pb_cache:
            res = fc.pullback(cat, f_leg, aug[nd])
            if res is None:
                raise LimitAbsent("missing fiber product with %r" % nd)
            pb_cache[nd] = res
        return pb_cache[nd]

    label, part = {}, {}
    for lev, ids in enumerate(x.levels):
        for s in ids:
            label[s] = apex(s)[0]
            for i in range(lev + 1 if lev else 0):
                nd2 = x.uset.faces[(s, i)][1]
                a1, la1, lx1 = apex(s)
                a2, la2, lx2 = apex(nd2)
                part[(s, i)] = fc.factor(cat, a1, a2, [
                    (la2, la1), (lx2, cat.comp(x.part[(s, i)], lx1))])
                if part[(s, i)] is None:
                    raise LimitAbsent("no unique induced map between fiber products")
    obj = sp.SplitSimpObj(cat, x.uset, label, part,
                          name or ("%sx%s" % (f_leg, x.name)))
    obj.pb_legs = {s: pb_cache[s] for l in x.levels for s in l}
    return obj


def hocolim_nerve_check(site: Site, d: dg.DiaObj, f_parts: dict,
                        x: sp.SplitSimpObj, aug: dict, trunc: int):
    """Both sides of the base-change formula: the homotopy colimit of
    i |-> F(i) x_s X against N(I, F) x_s X levelwise; decides split-object
    isomorphism.

    `f_parts[i]` is the structure morphism F(i) -> s; `aug[nd]` the
    augmentation of x into the same s.  Returns (iso bijection or None,
    lhs, rhs).
    """
    cat = site.cat
    shape = d.shape
    obs, mos = {}, {}
    for i in shape.objects:
        obs[i] = fiber_product_split(site, f_parts[i], x, aug, "F(%s)xX" % i)
    for m in shape.morphisms:
        i, j = shape.dom(m.id), shape.cod(m.id)
        val, part = {}, {}
        for lev, ids in enumerate(x.levels):
            for nd in ids:
                val[nd] = (sp.mt_id(lev), nd)
                a1, la1, lx1 = obs[i].pb_legs[nd]
                a2, la2, lx2 = obs[j].pb_legs[nd]
                part[nd] = fc.factor(cat, a1, a2, [
                    (la2, cat.comp(d.labels.mo(m.id), la1)), (lx2, lx1)])
                if part[nd] is None:
                    raise LimitAbsent("no unique transport %r along %r" % (nd, m.id))
        mos[m.id] = sp.SplitMor(obs[i], obs[j], val, part, m.id)
    xd = fc.StrictFunctor(shape, obs, mos, "FxX")
    lhs = hocolim_bk(xd, trunc)

    # right-hand side: N(I, F) x_s X, levelwise jointly-nondegenerate pairs
    nv = dg.nerve(d, trunc)
    pb_cache = {}

    def apex2(cnd, xnd):
        key = (cnd, xnd)
        if key not in pb_cache:
            x0 = nv.chain_of[cnd][0]
            res = fc.pullback(cat, f_parts[x0], aug[xnd])
            if res is None:
                raise LimitAbsent("missing fiber product in the nerve side")
            pb_cache[key] = res
        return pb_cache[key]

    def label_fn(e):
        u, v = e
        return apex2(u[1], v[1])[0]

    def part_fn(n, i, e):
        u, v = e
        u2, pu = nv.apply_with_part(sp.mt_delta(i, n), u)
        v2, pv = x.apply_with_part(sp.mt_delta(i, n), v)
        a1, lf1, lx1 = apex2(u[1], v[1])
        a2, lf2, lx2 = apex2(u2[1], v2[1])
        h = fc.factor(cat, a1, a2, [(lf2, cat.comp(pu, lf1)), (lx2, cat.comp(pv, lx1))])
        if h is None:
            raise LimitAbsent("no unique face map on the nerve side")
        return h

    rhs = sp.with_labels(cat, sp.simpset_product(nv.uset, x.uset, "NxX"),
                         label_fn, part_fn)[0]
    bij = sp.split_isomorphic(lhs, rhs)
    return bij, lhs, rhs


# ---------------------------------------------------------------------------
# homotopy limit via the end formula


def simp_maps(a: sp.SimpSet, b: sp.SimpSet):
    """All simplicial maps a -> b, as :func:`fc.backtrack` finds them: a's
    nondegenerate simplices level by level, each trying b's values (epi,
    nd) in order and kept when its faces agree with the values set."""
    level = {s: k for k in range(a.trunc + 1) for s in a.levels[k]}

    def options(s, _):
        k = level[s]
        return [(e, nd) for m in range(k + 1) for e in sp.all_epis(k, m)
                for nd in b.levels[m]]

    def fits(s, val):
        k, w = level[s], val[s]
        for i in range(k + 1) if k else ():
            ev, nd = a.faces[(s, i)]
            img = b.apply(sp.mt_delta(i, k), w)
            if ev == sp.mt_id(k - 1):
                if val.get(nd) != img:
                    return False
            else:
                if b.apply(ev, val[nd]) != img:
                    return False
        return True

    return [sp.SimpMap(a, b, dict(v)) for v in fc.backtrack(level, options, fits)]


def holim_end(X: fc.StrictFunctor, trunc: int, name="holim"):
    """The end-formula homotopy limit of a strict functor X from I into
    simplicial sets:

        (holim X)_k = compatible families (phi_i) of simplicial maps
                      N(I x_{/I} i) x Delta_k -> X(i).

    Structural only: no fibrancy handling, no homotopy invariance claim.
    Raises TruncationExceeded when `trunc` exceeds a value's truncation.
    """
    shape, ob, mo = X.base, X.ob, X.mo
    for i in shape.objects:
        if ob[i].trunc < trunc:
            raise TruncationExceeded("level %d beyond truncation %d of %s(%s)"
                                     % (trunc, ob[i].trunc, X.name, i))
    slices, slice_nerves, prods = {}, {}, {}
    for i in shape.objects:
        sl, proj, okey, mkey = fc.slice_over(fc.FinFunctor.identity(shape), i)
        slices[i] = (sl, okey, mkey)
        slice_nerves[i] = sp.nerve_of_category(sl, trunc)
    slice_maps = {}
    for m in shape.morphisms:
        i, j = shape.dom(m.id), shape.cod(m.id)
        sl_i, okey_i, mkey_i = slices[i]
        sl_j, okey_j, mkey_j = slices[j]
        omap = {}
        mmap = {}
        for (x, _, phi), oid in okey_i.items():
            omap[oid] = okey_j[(x, "*", shape.comp(m.id, phi))]
        for (o1, o2, u, v), mid in mkey_i.items():
            mmap[mid] = mkey_j[(omap[o1], omap[o2], u, v)]
        slice_maps[m.id] = fc.FinFunctor("sl(%s)" % m.id, sl_i, sl_j, omap, mmap)

    for i in shape.objects:
        for k in range(trunc + 1):
            prods[(i, k)] = sp.simpset_product(slice_nerves[i],
                                               sp.delta_simpset(k, trunc))

    def mapping_elements(i, k):
        prod, canon, ids, elem_of = prods[(i, k)]
        return simp_maps(prod, ob[i])

    def family_key(fam):
        return tuple(sorted((i, tuple(sorted(f.val.items()))) for i, f in fam.items()))

    squares = fc.by_later_end(shape, [m.id for m in shape.morphisms
                                      if not shape.is_identity(m.id)])
    levels = []
    level_fams = []
    for k in range(trunc + 1):
        cands = {i: mapping_elements(i, k) for i in shape.objects}

        def fits(i, fam):
            return all(_end_square(shape, mo, slice_nerves, prods, slice_maps,
                                   fam, m, k, trunc) for m in squares[i])

        good = [dict(f) for f in fc.backtrack(shape.objects, lambda i, _: cands[i], fits)]
        level_fams.append(good)
        levels.append([family_key(f) for f in good])
    fam_by_key = [{family_key(f): f for f in lf} for lf in level_fams]

    def act(op, k, key):
        """Precompose a family with id x op for op : [m] -> [k]."""
        m = len(op) - 1
        fam = fam_by_key[k][key]
        out = {}
        for i in shape.objects:
            prod_m, canon_m, ids_m, elem_m = prods[(i, m)]
            prod_k, canon_k, ids_k, elem_k = prods[(i, k)]
            val = {}
            for lev in range(trunc + 1):
                for sid in prod_m.levels[lev]:
                    u, v = elem_m[sid][1]
                    # v is a Delta_m value; push into Delta_k along op
                    v2 = sp.delta_value(op[t] for t in sp.delta_vertices(v))
                    pair_val = canon_k[(lev, (u, v2))]
                    val[sid] = fam[i].map_value(pair_val)
            out[i] = sp.SimpMap(prod_m, ob[i], val)
        return family_key(out)

    def face_fn(n, i_, e):
        return act(sp.mt_delta(i_, n), n, e)

    def degen_fn(n, j, e):
        return act(sp.mt_sigma(j, n), n, e)

    sset, canon, ids, elem_of = sp.from_full_levels(
        trunc, levels, face_fn, degen_fn, None, name)
    return sset


def _end_square(shape, mo, slice_nerves, prods, slice_maps, fam, mid, k, trunc):
    i, j = shape.dom(mid), shape.cod(mid)
    prod_i, canon_i, ids_i, elem_i = prods[(i, k)]
    prod_j, canon_j, ids_j, elem_j = prods[(j, k)]
    sm = slice_maps[mid]
    ni = slice_nerves[i]
    for lev in range(trunc + 1):
        for sid in prod_i.levels[lev]:
            u, v = elem_i[sid][1]
            # route 1: map into X(i), then along X(mid)
            r1 = mo[mid].map_value(fam[i].map_value((sp.mt_id(lev), sid)))
            # route 2: push the N-coordinate along the slice map, then fam[j]
            epi, nd = u
            e2, cid = sp.chain_image(sm, ni.chain_of[nd])
            u2 = (sp.mt_comp(e2, epi), cid)
            r2 = fam[j].map_value(canon_j[(lev, (u2, v))])
            if r1 != r2:
                return False
    return True


# ---------------------------------------------------------------------------
# the pointwise lemmas


def check_pointwise_int(site: Site, x: str, s_obj: sp.SplitSimpObj, trunc: int):
    """Element category of Hom(x, S_.) against the Hom-diagram of the
    element category of S_.: the canonical comparison must be an
    isomorphism of finite categories."""
    h = sp.hom_into(site, x, s_obj)
    lhs, okey_l, mkey_l = int_simpset(h, trunc)
    ia = int_amalg(s_obj, trunc)
    rhs, proj = dg.hom_diagram(site, x, ia.dia)
    omap, mmap = {}, {}
    # a nondegenerate element of h is (value of s_obj, morphism)
    hdec = {sid: (e[0][1], e[1]) for sid, (n, e) in h.elem_of.items()}
    for (n, v), oid in okey_l.items():
        nd_s, hom = hdec[v[1]]
        omap[oid] = rhs.hom_okey[(ia.okey[(n, (v[0], nd_s))], hom)]
    for (n, v, g), mid in mkey_l.items():
        nd_s, hom = hdec[v[1]]
        s_val = (v[0], nd_s)
        mmap[mid] = rhs.hom_mkey[(ia.okey[(n, s_val)], hom, ia.mkey[(n, s_val, g)])]
    functor = fc.FinFunctor("cmp", lhs, rhs, omap, mmap)
    try:
        functor.validate()
    except InvalidFunctor as exc:
        return False, str(exc)
    return fc.is_bijective(functor), None


def check_pointwise_nerve(site: Site, x: str, d: dg.DiaObj, trunc: int):
    """Hom(x, N(I,S)) equals the nerve of the Hom-diagram, on the nose up
    to the canonical renaming of simplices."""
    cat = site.cat
    nv = dg.nerve(d, trunc)
    lhs = sp.hom_into(site, x, nv)
    el, proj = dg.hom_diagram(site, x, d)
    rhs = sp.nerve_of_category(el, trunc)
    rename = {}
    for sid, (n, ((_, nd_chain), hom)) in lhs.elem_of.items():
        x0, ms = nv.chain_of[nd_chain]
        cur, cur_x, el_ms = hom, x0, []
        for m in ms:
            el_ms.append(el.hom_mkey[(cur_x, cur, m)])
            cur, cur_x = cat.comp(d.labels.mo(m), cur), d.shape.cod(m)
        rename[sid] = sp.chain_id((el.hom_okey[(x0, hom)], tuple(el_ms)))
    if any(sorted(rename[s] for s in l1) != sorted(l2)
           for l1, l2 in zip(lhs.levels, rhs.levels)):
        return False
    for (sid, i), (epi, nd) in lhs.faces.items():
        if rhs.faces[(rename[sid], i)] != (epi, rename[nd]):
            return False
    return True
