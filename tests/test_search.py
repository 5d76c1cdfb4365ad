"""Every exhaustive search against the hand-written walk it replaced.

The `reference_*` functions are frozen copies of the searches as they were
before they went through `fincat.backtrack`: the recursive walks of
`all_functors`, `find_isomorphism`, `split_isomorphic`, `simp_maps` and
`_sample_boundary`, and the enumerate-then-validate loops of
`all_nat_transfs`, `all_dia_mors`, `two_morphisms`, `_cones` and
`holim_end`'s family product.  Each search must give the same values in the
same order, the same first witness and the same None.  The inputs are seeded
random posets, the bundled sites' categories, t_delta_op(1), a few
categories with non-identity isomorphisms and idempotents, random
pseudocircle diagrams, and random simplicial sets and split objects.
`find_isomorphism` is also checked against a brute-force oracle, a
bijective functor among those `all_functors` lists, on transformation
monoids, groups, products and labelled diagrams.
"""

import hashlib
import itertools
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
from diacats.errors import BudgetExceeded, EndpointMismatch, InvalidFunctor, InvalidNatTransf

PS = fx.pseudocircle_site()


# -- frozen references --------------------------------------------------------


def reference_all_functors(source, target):
    objs = list(source.objects)
    mors = [m for m in source.morphisms if not source.is_identity(m.id)]
    results = []
    for images in itertools.product(target.objects, repeat=len(objs)):
        omap = dict(zip(objs, images))
        mmap = {source.id_of(x): target.id_of(omap[x]) for x in objs}

        def extend(k):
            if k == len(mors):
                f = fc.FinFunctor("F", source, target, omap, dict(mmap))
                try:
                    f.validate()
                except InvalidFunctor:
                    return
                results.append(f)
                return
            m = mors[k]
            for im in target.hom(omap[m.dom], omap[m.cod]):
                mmap[m.id] = im
                ok = True
                for n in mors[:k] + [m]:
                    if n.cod == m.dom and (m.id, n.id) in source.compose_table:
                        c = source.comp(m.id, n.id)
                        if c in mmap and target.comp(mmap[m.id], mmap[n.id]) != mmap[c]:
                            ok = False
                            break
                    if m.cod == n.dom and (n.id, m.id) in source.compose_table:
                        c = source.comp(n.id, m.id)
                        if c in mmap and target.comp(mmap[n.id], mmap[m.id]) != mmap[c]:
                            ok = False
                            break
                if ok:
                    extend(k + 1)
                del mmap[m.id]

        extend(0)
    return results


def reference_all_nat_transfs(F, G):
    t = F.target
    xs = list(F.source.objects)
    choices = [t.hom(F.ob(x), G.ob(x)) for x in xs]
    out = []
    for combo in itertools.product(*choices):
        comps = dict(zip(xs, combo))
        try:
            out.append(fc.NatTransf(F, G, comps).validate())
        except (InvalidNatTransf, EndpointMismatch):
            pass
    return out


def reference_cones(D):
    J, C = D.source, D.target
    cones = []
    for apex in C.objects:
        legsets = [C.hom(apex, D.ob(j)) for j in J.objects]
        for combo in itertools.product(*legsets):
            legs = dict(zip(J.objects, combo))
            if all(C.comp(D.mo(m.id), legs[m.dom]) == legs[m.cod]
                   for m in J.morphisms):
                cones.append((apex, legs))
    return cones


def reference_find_isomorphism(c, d, max_nodes=2_000_000, labels=None):
    if len(c.objects) != len(d.objects) or len(c.morphisms) != len(d.morphisms):
        return None
    cc, dc = fc._wl_colors(c), fc._wl_colors(d)
    if labels is not None:
        F, G = labels
        cc = {x: (col, F.ob(x)) for x, col in cc.items()}
        dc = {y: (col, G.ob(y)) for y, col in dc.items()}
    if sorted(cc.values()) != sorted(dc.values()):
        return None
    cgroups = {}
    for x, col in cc.items():
        cgroups.setdefault(col, []).append(x)
    dgroups = {}
    for x, col in dc.items():
        dgroups.setdefault(col, []).append(x)
    if any(len(cgroups[k]) != len(dgroups.get(k, [])) for k in cgroups):
        return None
    xs = sorted(c.objects, key=lambda x: (len(cgroups[cc[x]]), cc[x], x))
    assignment = {}
    used = set()
    budget = [max_nodes]

    def feasible(x, y):
        for x2, y2 in assignment.items():
            if len(c.hom(x, x2)) != len(d.hom(y, y2)):
                return False
            if len(c.hom(x2, x)) != len(d.hom(y2, y)):
                return False
        return True

    def match_objects(k):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        if k == len(xs):
            return match_morphisms()
        x = xs[k]
        for y in dgroups[cc[x]]:
            if y in used or not feasible(x, y):
                continue
            assignment[x] = y
            used.add(y)
            res = match_objects(k + 1)
            if res is not None:
                return res
            del assignment[x]
            used.discard(y)
        return None

    def match_morphisms():
        homs = []
        for x in c.objects:
            for y in c.objects:
                hc = c.hom(x, y)
                hd = d.hom(assignment[x], assignment[y])
                if len(hc) != len(hd):
                    return None
                if hc:
                    homs.append((hc, hd))
        mmap = {}

        def consistent(f):
            m = c.mor(f)
            for g in list(mmap):
                n = c.mor(g)
                if n.cod == m.dom:
                    h = c.comp(f, g)
                    if h in mmap and d.comp(mmap[f], mmap[g]) != mmap[h]:
                        return False
                if m.cod == n.dom:
                    h = c.comp(g, f)
                    if h in mmap and d.comp(mmap[g], mmap[f]) != mmap[h]:
                        return False
            return True

        flat = [f for hc, hd in homs for f in hc]
        pool = {f: hd for hc, hd in homs for f in hc}

        def assign(k):
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            if k == len(flat):
                return dict(mmap)
            f = flat[k]
            m = c.mor(f)
            forced = None
            if c.is_identity(f):
                forced = d.id_of(assignment[m.dom])
            for g in ([forced] if forced else pool[f]):
                if g in mmap.values() or (labels is not None and G.mo(g) != F.mo(f)):
                    continue
                mmap[f] = g
                if consistent(f) and assign(k + 1) is not None:
                    return dict(mmap)
                del mmap[f]
            return None

        res = assign(0)
        if res is None:
            return None
        return fc.FinFunctor("iso", c, d, dict(assignment), res)

    out = match_objects(0)
    if out is not None:
        try:
            out.validate()
        except InvalidFunctor:
            return None
    return out


def reference_all_dia_mors(d1, d2):
    scat = d1.scat
    out = []
    for a in reference_all_functors(d1.shape, d2.shape):
        objs = list(d1.shape.objects)
        choices = [scat.hom(d1.labels.ob(i), d2.labels.ob(a.ob(i))) for i in objs]
        for combo in itertools.product(*choices):
            m = dg.DiaMor(d1, d2, a, dict(zip(objs, combo)))
            try:
                m.validate()
            except (InvalidNatTransf, InvalidFunctor):
                continue
            out.append(m)
    return out


def reference_two_morphisms(f, g):
    if f.src is not g.src or f.tgt is not g.tgt:
        return []
    out = []
    for mu in reference_all_nat_transfs(f.shape_map, g.shape_map):
        c = dg.Dia2Mor(f, g, mu)
        try:
            c.validate()
        except (InvalidNatTransf, EndpointMismatch):
            continue
        out.append(c)
    return out


def reference_simp_maps(a, b):
    nds = [(k, s) for k in range(a.trunc + 1) for s in a.levels[k]]
    out = []
    val = {}

    def fits(k, s, w):
        for i in range(k + 1):
            if k == 0:
                break
            ev, nd = a.faces[(s, i)]
            img = b.apply(sp.mt_delta(i, k), w)
            if ev == sp.mt_id(k - 1):
                if val.get(nd) != img:
                    return False
            else:
                if b.apply(ev, val[nd]) != img:
                    return False
        return True

    def bt(p):
        if p == len(nds):
            out.append(dict(val))
            return
        k, s = nds[p]
        for m in range(k + 1):
            for e in sp.all_epis(k, m):
                for nd in b.levels[m]:
                    w = (e, nd)
                    if fits(k, s, w):
                        val[s] = w
                        bt(p + 1)
                        del val[s]

    bt(0)
    return [sp.SimpMap(a, b, v) for v in out]


def reference_sample_boundary(rng, x, k):
    pool = x.full_level(k - 1)
    if not pool:
        return None
    order = list(pool)
    rng.shuffle(order)

    def compatible(vals):
        if k < 2:
            return True
        j = len(vals) - 1
        for i in range(j):
            a = x.apply(sp.mt_delta(i, k - 1), vals[j])
            b = x.apply(sp.mt_delta(j - 1, k - 1), vals[i])
            if a != b:
                return False
        return True

    vals = []

    def bt():
        if len(vals) == k + 1:
            return True
        for v in order:
            vals.append(v)
            if compatible(vals) and bt():
                return True
            vals.pop()
        return False

    if bt():
        return tuple(vals)
    return None


def reference_split_isomorphic(a, b):
    if a.trunc != b.trunc:
        return None
    if [len(l) for l in a.levels] != [len(l) for l in b.levels]:
        return None
    bij = {}

    def extend(k):
        if k > a.trunc:
            return True
        asims = list(a.levels[k])
        bsims = list(b.levels[k])

        def backtrack(idx, used):
            if idx == len(asims):
                return extend(k + 1)
            s = asims[idx]
            for t in bsims:
                if t in used or a.label[s] != b.label[t]:
                    continue
                ok = True
                for i in range(k + 1):
                    if k == 0:
                        break
                    (e1, nd1) = a.uset.faces[(s, i)]
                    (e2, nd2) = b.uset.faces[(t, i)]
                    if e1 != e2 or bij.get(nd1) != nd2 \
                            or a.part[(s, i)] != b.part[(t, i)]:
                        ok = False
                        break
                if ok:
                    bij[s] = t
                    used.add(t)
                    if backtrack(idx + 1, used):
                        return True
                    del bij[s]
                    used.discard(t)
            return False

        return backtrack(0, set())

    if extend(0):
        return dict(bij)
    return None


def reference_holim_families(shape, ob, mo, trunc):
    """The per-level compatible families of `holim_end`, by its former
    product-then-filter loop."""
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
        omap, mmap = {}, {}
        for (x, _, phi), oid in okey_i.items():
            omap[oid] = okey_j[(x, "*", shape.comp(m.id, phi))]
        for (o1, o2, u, v), mid in mkey_i.items():
            mmap[mid] = mkey_j[(omap[o1], omap[o2], u, v)]
        slice_maps[m.id] = fc.FinFunctor("sl(%s)" % m.id, sl_i, sl_j, omap, mmap)
    for i in shape.objects:
        for k in range(trunc + 1):
            prods[(i, k)] = sp.simpset_product(slice_nerves[i], sp.delta_simpset(k, trunc))
    out = []
    for k in range(trunc + 1):
        cands = {i: reference_simp_maps(prods[(i, k)][0], ob[i]) for i in shape.objects}
        fams = [{}]
        for i in shape.objects:
            fams = [dict(f, **{i: c}) for f in fams for c in cands[i]]
        good = []
        for fam in fams:
            if all(ht._end_square(shape, mo, slice_nerves, prods, slice_maps,
                                  fam, m.id, k, trunc)
                   for m in shape.morphisms if not shape.is_identity(m.id)):
                good.append(fam)
        out.append([tuple(sorted((i, tuple(sorted(f.val.items()))) for i, f in fam.items()))
                    for fam in good])
    return out


def reference_delta_value(vert):
    seen = []
    for t in vert:
        if not seen or seen[-1] != t:
            seen.append(t)
    epi = []
    c = 0
    for i, t in enumerate(vert):
        if i > 0 and t != vert[i - 1]:
            c += 1
        epi.append(c)
    return tuple(epi), tuple(seen)


def reference_cech_collapse(t2):
    n = len(t2)
    keep = [0]
    for q in range(1, n):
        if t2[q] != t2[q - 1]:
            keep.append(q)
    red = tuple(t2[q] for q in keep)
    epi, c = [], 0
    for q in range(n):
        if q in keep[1:]:
            c += 1
        epi.append(c)
    return tuple(epi), red


def reference_pi0(x):
    parent = {s: s for s in x.levels[0]}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in x.levels[1] if x.trunc >= 1 else []:
        a = find(x.faces[(e, 0)][1])
        b = find(x.faces[(e, 1)][1])
        if a != b:
            parent[a] = b
    return len({find(s) for s in x.levels[0]})


# -- inputs -------------------------------------------------------------------


def cyclic_group(n):
    els = ["g%d" % k for k in range(n)]
    return fc.FinCat("Z%d" % n, ["o"], [fc.Mor(g, "o", "o") for g in els], {"o": "g0"},
                     {(els[a], els[b]): els[(a + b) % n]
                      for a in range(n) for b in range(n)}).validate()


def walking_iso():
    m = fc.Mor
    return fc.FinCat("Iso", ["a", "b"],
                     [m("1a", "a", "a"), m("1b", "b", "b"), m("f", "a", "b"), m("g", "b", "a")],
                     {"a": "1a", "b": "1b"},
                     {("1a", "1a"): "1a", ("1b", "1b"): "1b", ("f", "1a"): "f",
                      ("1b", "f"): "f", ("g", "1b"): "g", ("1a", "g"): "g",
                      ("g", "f"): "1a", ("f", "g"): "1b"}).validate()


def relabeling(c, rng):
    """An isomorphism from c onto a copy with shuffled, renamed objects and
    morphisms."""
    objs = list(c.objects)
    rng.shuffle(objs)
    oname = {x: "o%d" % k for k, x in enumerate(objs)}
    mors = list(c.morphisms)
    rng.shuffle(mors)
    mname = {m.id: "m%d" % k for k, m in enumerate(mors)}
    copy = fc.FinCat(c.name + "'", [oname[x] for x in objs],
                     [fc.Mor(mname[m.id], oname[m.dom], oname[m.cod]) for m in mors],
                     {oname[x]: mname[i] for x, i in c.identity.items()},
                     {(mname[g], mname[f]): mname[h] for (g, f), h in c.compose_table.items()})
    return fc.FinFunctor("relabel", c, copy, oname, mname)


def relabeled(c, rng):
    """An isomorphic copy of c with shuffled, renamed objects and morphisms."""
    return relabeling(c, rng).target


def transformation_monoid(n, gens):
    """The monoid of self-maps of {0..n-1} generated by `gens` (tuples of
    images), as a one-object category; g o f is f applied first."""
    ident = tuple(range(n))
    els, frontier = [ident], [ident]
    while frontier:
        frontier = [b for b in dict.fromkeys(tuple(g[i] for i in a) for a in frontier
                                             for g in gens) if b not in els]
        els += frontier
    name = {e: "t" + "".join(map(str, e)) for e in els}
    return fc.FinCat("T%s" % "|".join(map(name.get, gens)), ["o"],
                     [fc.Mor(name[e], "o", "o") for e in els], {"o": name[ident]},
                     {(name[g], name[f]): name[tuple(g[i] for i in f)]
                      for g in els for f in els})


def small_categories():
    """Sources: every category here has at most 4 objects."""
    rng = random.Random(7)
    cats = [fc.terminal_category(), fx.sierpinski_site().cat, ht.t_delta_op(1),
            cyclic_group(3), walking_iso(), fx.span_shape(),
            fc.discrete_category("2", ["l", "r"])]
    return cats + [rg.random_poset(rng, 4, "P%d" % k) for k in range(6)]


def targets():
    return small_categories() + [PS.cat, fx.fence_poset()]


def functor_key(F):
    return list(F.object_map.items()), list(F.morphism_map.items())


def nat_key(n):
    return list(n.components.items())


def mor_key(m):
    return (m.shape_map.name, functor_key(m.shape_map), list(m.label_transf.items()))


# -- the pins -----------------------------------------------------------------


def test_all_functors_matches_reference():
    for c in small_categories():
        for d in targets():
            got, ref = fc.all_functors(c, d), reference_all_functors(c, d)
            assert [functor_key(F) for F in got] == [functor_key(F) for F in ref], (c, d)
            for F in got:
                F.validate()


def test_all_nat_transfs_and_cones_match_reference():
    pairs = 0
    for c in small_categories()[:8]:
        for d in targets():
            fs = fc.all_functors(c, d)
            if len(fs) > 12:
                fs = fs[::len(fs) // 12]
            for F in fs:
                for G in fs:
                    got, ref = fc.all_nat_transfs(F, G), reference_all_nat_transfs(F, G)
                    assert [nat_key(n) for n in got] == [nat_key(n) for n in ref]
                    for n in got:
                        n.validate()
                    pairs += bool(got)
                assert fc._cones(F) == reference_cones(F)
    assert pairs > 100


def test_all_nat_transfs_needs_shared_endpoints():
    c = fc.chain_category(1)
    F = fc.FinFunctor.identity(c)
    G = fc.FinFunctor.identity(fc.chain_category(1))
    assert fc.all_nat_transfs(F, G) == reference_all_nat_transfs(F, G) == []


def isomorphism_pairs():
    rng = random.Random(3)
    cats = targets()
    pairs = [(c, relabeled(c, rng)) for c in cats]
    pairs += [(c, d) for c in cats for d in cats]
    pairs += [(fx.subset_lattice("L", [set(), {"a"}, {"b"}, {"a", "b"}]),
               fc.product_category(fc.chain_category(1), fc.chain_category(1)))]
    return pairs


def test_find_isomorphism_matches_reference():
    found = 0
    for c, d in isomorphism_pairs():
        got, ref = fc.find_isomorphism(c, d), reference_find_isomorphism(c, d)
        assert (got and functor_key(got)) == (ref and functor_key(ref)), (c, d)
        found += got is not None
    assert found > 15


def test_find_isomorphism_with_labels_matches_reference():
    rng = random.Random(11)
    dias = [rg.random_diaobj(rng, PS, 3) for _ in range(12)]
    found = 0
    for d in dias:
        for e in dias:
            labels = (d.labels, e.labels)
            got = fc.find_isomorphism(d.shape, e.shape, labels=labels)
            ref = reference_find_isomorphism(d.shape, e.shape, labels=labels)
            assert (got and functor_key(got)) == (ref and functor_key(ref))
            found += got is not None
    assert found > len(dias)


def test_max_nodes_bounds_the_search():
    """A tiny bound raises where the default bound finds the isomorphism.
    Every bound either raises or finds the former search's witness, and the
    search, which no longer places the identities, finds it within no more
    nodes than the former one."""
    rng = random.Random(5)
    for c in (ht.t_delta_op(1), cyclic_group(3), fx.pseudocircle_site().cat):
        d = relabeled(c, rng)
        ref = reference_find_isomorphism(c, d)
        assert functor_key(fc.find_isomorphism(c, d)) == functor_key(ref)
        with pytest.raises(BudgetExceeded):
            fc.find_isomorphism(c, d, max_nodes=2)
        found = []
        for bound in range(40):
            try:
                got = fc.find_isomorphism(c, d, max_nodes=bound)
            except BudgetExceeded:
                continue
            assert functor_key(got) == functor_key(ref), (c, bound)
            found.append(bound)
        assert found
        assert reference_find_isomorphism(c, d, max_nodes=found[0] - 1) is None


def test_find_isomorphism_checks_each_composite_it_places():
    """The former search checked a composable pair only when one of its two
    factors was placed last, and answered None on this 5-element monoid of
    self-maps of {0, 1, 2}; all_functors finds exactly one isomorphism."""
    c = transformation_monoid(3, [(2, 2, 2), (1, 1, 0)])
    d = relabeled(c, random.Random(1))
    assert len(c.morphisms) == 5
    assert sum(fc.is_bijective(F) for F in fc.all_functors(c, d)) == 1
    for a, b in ((c, d), (d, c)):
        assert fc.verify_isomorphism(fc.find_isomorphism(a, b))


def brute_force_isomorphic(c, d, labels=None):
    """Some functor c -> d of all_functors is bijective and, with labels
    (F, G), satisfies G o iso = F."""
    if len(c.objects) != len(d.objects) or len(c.morphisms) != len(d.morphisms):
        return False
    return any(fc.is_bijective(iso) and (labels is None or
                                         iso.then(labels[1]).key() == labels[0].key())
               for iso in fc.all_functors(c, d))


def relabeled_dia(d, rng):
    """d on a relabelled copy of its shape, its labels carried along."""
    iso = relabeling(d.shape, rng)
    return dg.DiaObj(iso.target, fc.FinFunctor(
        "L", iso.target, d.scat, {iso.ob(x): d.labels.ob(x) for x in d.shape.objects},
        {iso.mo(m): d.labels.mo(m) for m in iso.morphism_map}))


T1 = ht.t_delta_op(1)
SHAPES = [T1, cyclic_group(2), cyclic_group(3), cyclic_group(4), walking_iso()]
SHAPES += [fc.product_category(c, fc.chain_category(1)) for c in SHAPES]
LABELLED = [dg.DiaObj(shape, F) for shape in SHAPES[:5] + [fc.chain_category(1)]
            for F in fc.all_functors(shape, T1)]


@hst.composite
def shape_pairs(draw):
    """Transformation monoids on 2-3 points and the shapes above; the second
    of the pair is often a relabelled copy of the first."""
    def shape():
        if draw(hst.booleans()):
            n = draw(hst.integers(2, 3))
            maps = hst.tuples(*[hst.integers(0, n - 1)] * n)
            return transformation_monoid(n, draw(hst.lists(maps, min_size=1, max_size=2)))
        return draw(hst.sampled_from(SHAPES))
    c = shape()
    rng = random.Random(draw(hst.integers(0, 2 ** 16)))
    return c, relabeled(c, rng) if draw(hst.booleans()) else shape()


@settings(max_examples=150, deadline=None)
@given(shape_pairs())
def test_find_isomorphism_agrees_with_brute_force(pair):
    c, d = pair
    got = fc.find_isomorphism(c, d)
    assert (got is not None) == brute_force_isomorphic(c, d)
    assert got is None or fc.verify_isomorphism(got)


@settings(max_examples=150, deadline=None)
@given(hst.sampled_from(LABELLED), hst.sampled_from(LABELLED), hst.booleans(),
       hst.integers(0, 2 ** 16))
def test_labelled_find_isomorphism_agrees_with_brute_force(d, e, relabel, seed):
    """Labels into t_delta_op(1), a site category with parallel arrows."""
    if relabel:
        e = relabeled_dia(d, random.Random(seed))
    labels = (d.labels, e.labels)
    got = fc.find_isomorphism(d.shape, e.shape, labels=labels)
    assert (got is not None) == brute_force_isomorphic(d.shape, e.shape, labels)
    assert got is None or (fc.verify_isomorphism(got)
                           and got.then(e.labels).key() == d.labels.key())


def test_all_dia_mors_and_two_morphisms_match_reference():
    rng = random.Random(2)
    dias = [rg.random_diaobj(rng, PS, 3) for _ in range(6)] + [dg.point_dia(PS.cat, "{a,b}")]
    two = 0
    for d1 in dias:
        for d2 in dias:
            got, ref = dg.all_dia_mors(d1, d2), reference_all_dia_mors(d1, d2)
            assert [mor_key(m) for m in got] == [mor_key(m) for m in ref]
            for m in got:
                m.validate()
            sample = got[:6]
            for f in sample:
                for g in sample:
                    mus = dg.two_morphisms(f, g)
                    assert [nat_key(c.mu) for c in mus] == \
                        [nat_key(c.mu) for c in reference_two_morphisms(f, g)]
                    for c in mus:
                        c.validate()
                    two += len(mus)
    assert two > 50


def test_dia_mors_over_a_site_with_parallel_arrows_match_reference():
    """Diagrams over t_delta_op(1) on shapes with idempotents and a group,
    so that label parts and 2-morphism components have several choices."""
    T = ht.t_delta_op(1)
    dias = []
    for shape in (T, cyclic_group(2), fc.chain_category(1), fc.terminal_category()):
        fs = fc.all_functors(shape, T)
        dias += [dg.DiaObj(shape, F) for F in fs[::max(1, len(fs) // 3)]]
    two = 0
    for d1 in dias:
        for d2 in dias:
            got, ref = dg.all_dia_mors(d1, d2), reference_all_dia_mors(d1, d2)
            assert [mor_key(m) for m in got] == [mor_key(m) for m in ref]
            for f in got[:5]:
                for g in got[:5]:
                    mus = dg.two_morphisms(f, g)
                    assert [nat_key(c.mu) for c in mus] == \
                        [nat_key(c.mu) for c in reference_two_morphisms(f, g)]
                    two += len(mus)
            for e in (d1, d2):
                labels = (d1.labels, e.labels)
                got = fc.find_isomorphism(d1.shape, e.shape, labels=labels)
                ref = reference_find_isomorphism(d1.shape, e.shape, labels=labels)
                assert (got and functor_key(got)) == (ref and functor_key(ref))
    assert two > 500


def test_simp_maps_matches_reference():
    xs = [rg.random_simpset(random.Random(seed), 2, 4) for seed in range(6)]
    xs += [sp.delta_simpset(1, 2), sp.boundary_delta(2, 2)]
    found = 0
    for a in xs:
        for b in xs:
            got, ref = ht.simp_maps(a, b), reference_simp_maps(a, b)
            assert [list(f.val.items()) for f in got] == [list(f.val.items()) for f in ref]
            found += len(got)
    assert found > 100


def test_sample_boundary_matches_reference():
    for seed in range(20):
        x = rg.random_simpset(random.Random(seed), 3, 6)
        for k in (1, 2, 3):
            for draw in range(3):
                got = rg._sample_boundary(random.Random(draw), x, k)
                assert got == reference_sample_boundary(random.Random(draw), x, k)


def test_random_objects_draw_as_before(monkeypatch):
    """The generators draw the same objects with the former boundary
    sampler, seeds 0-39."""
    def encode(seed):
        a = rg.random_simpset(random.Random(seed), 3, 8)
        b = rg.random_split_terminal(random.Random(seed), 3, 8)
        c = rg.random_split_over(random.Random(seed), PS, 2)
        return [(x.levels, sorted(x.faces.items())) for x in (a, b.uset, c.uset)] + \
            [sorted(b.label.items()), sorted(c.label.items()), sorted(c.part.items())]

    got = [encode(seed) for seed in range(40)]
    monkeypatch.setattr(rg, "_sample_boundary", reference_sample_boundary)
    assert got == [encode(seed) for seed in range(40)]


# sha256 of the draws below, taken with the generator search written out
# in `random_dia_functor` before it read `fincat.generators`
DIAGRAM_DRAWS = {
    "terminal": "2a68c3fbd7e32b4f9042cfceaa71e24e7a8a90641855f7c097f4c92c7a7052fe",
    "sierpinski": "219b349bd05aaed0ca075754f38fd41f81e38315ab6cd058536bc5c8ea4d9679",
    "pseudocircle": "0f215a231b65d83292fb2b598b78db2d8b32e60e4840606b9c853c66a44d2305",
}


@pytest.mark.parametrize("name", sorted(DIAGRAM_DRAWS))
def test_random_diagrams_draw_as_before(name):
    """`random_diaobj` then `random_dia_functor` from one generator, seeds
    0-59: the same diagrams, functors and morphisms as before."""
    def cat_key(c):
        return (c.name, c.objects, tuple((m.id, m.dom, m.cod) for m in c.morphisms),
                sorted(c.identity.items()), sorted(c.compose_table.items()))

    def dia_key(d):
        return (d.name, cat_key(d.shape), sorted(d.labels.object_map.items()),
                sorted(d.labels.morphism_map.items()))

    def functor_key(F):
        return (cat_key(F.base), [(a, dia_key(d)) for a, d in sorted(F.ob.items())],
                [(mid, sorted(m.shape_map.object_map.items()),
                  sorted(m.shape_map.morphism_map.items()), sorted(m.label_transf.items()))
                 for mid, m in sorted(F.mo.items())])

    site = {"terminal": fx.terminal_site, "sierpinski": fx.sierpinski_site,
            "pseudocircle": fx.pseudocircle_site}[name]()
    h = hashlib.sha256()
    for seed in range(60):
        rng = random.Random(seed)
        h.update(repr(dia_key(rg.random_diaobj(rng, site, 4))).encode())
        h.update(repr(functor_key(rg.random_dia_functor(rng, site))).encode())
    assert h.hexdigest() == DIAGRAM_DRAWS[name]


def test_split_isomorphic_matches_reference():
    rng = random.Random(9)
    xs = [rg.random_split_over(random.Random(seed), PS, 2) for seed in range(10)]
    xs += [rg.random_split_terminal(random.Random(seed), 2, 6) for seed in range(6)]
    found = 0
    for a in xs:
        for b in xs + [renamed_split(a, rng)]:
            got = sp.split_isomorphic(a, b)
            assert got == reference_split_isomorphic(a, b)
            found += got is not None
    assert found > len(xs)


def renamed_split(x, rng):
    """x with its simplices renamed and each level listed in shuffled order."""
    levels = [list(l) for l in x.levels]
    for l in levels:
        rng.shuffle(l)
    name = {s: "r%d" % k for k, s in enumerate(s for l in levels for s in l)}
    faces = {(name[s], i): (e, name[nd]) for (s, i), (e, nd) in x.uset.faces.items()}
    uset = sp.SimpSet(x.trunc, [[name[s] for s in l] for l in levels], faces, "r")
    return sp.SplitSimpObj(x.scat, uset, {name[s]: lab for s, lab in x.label.items()},
                           {(name[s], i): p for (s, i), p in x.part.items()}, "r")


HOLIM_CASES = {
    "point": lambda: (fc.terminal_category(), {"*": sp.delta_simpset(1, 2)},
                      {"id_*": sp.SimpMap.identity(sp.delta_simpset(1, 2))}),
    "chain": lambda: (fc.chain_category(1),
                      {"0": sp.delta_simpset(0, 2), "1": sp.delta_simpset(1, 2)}, None),
    "discrete": lambda: (fc.discrete_category("2", ["l", "r"]),
                         {"l": sp.delta_simpset(1, 2), "r": sp.delta_simpset(0, 2)}, None),
}


@pytest.mark.parametrize("case", sorted(HOLIM_CASES))
def test_holim_end_families_match_reference(case, monkeypatch):
    """The families `holim_end` lists per level, as it hands them to its
    last `from_full_levels` call, in the same order."""
    shape, ob, mo = HOLIM_CASES[case]()
    if mo is None:
        mo = {}
        for m in shape.morphisms:
            a, b = ob[shape.dom(m.id)], ob[shape.cod(m.id)]
            mo[m.id] = sp.SimpMap.identity(a) if shape.is_identity(m.id) \
                else ht.simp_maps(a, b)[-1]
    seen = []
    real = sp.from_full_levels

    def capture(trunc, levels, *args):
        seen.append(levels)
        return real(trunc, levels, *args)

    monkeypatch.setattr(sp, "from_full_levels", capture)
    ht.holim_end(shape, ob, mo, 2).validate()
    assert seen[-1] == reference_holim_families(shape, ob, mo, 2)
    assert any(len(level) > 1 for level in seen[-1])


def test_collapse_runs_matches_both_former_loops():
    for n in range(1, 6):
        for seq in itertools.product(range(3), repeat=n):
            got = sp.collapse_runs(seq)
            assert got == reference_delta_value(seq) == reference_cech_collapse(seq)


def test_pi0_matches_reference():
    xs = [rg.random_simpset(random.Random(seed), 2, 8) for seed in range(30)]
    xs += [sp.nerve_of_category(c, 2) for c in targets()]
    counts = [at.pi0(x) for x in xs]
    assert counts == [reference_pi0(x) for x in xs]
    assert len(set(counts)) > 1
