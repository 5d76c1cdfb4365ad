"""Levelwise products and the Bousfield-Kan diagonal against the code they
replaced.

`reference_simpset_product`, `reference_tensor` (with
`reference_from_full_levels_split`), `reference_nerve_side` and
`reference_hocolim_bk` keep the earlier constructions, each with its own
pair levels and face/degeneracy closures; `reference_hocolim_bk` keeps the
bisimplicial presentation the hocolim was once the diagonal of, as its
horizontal and vertical structure maps and parts.  The rebuilt ones must
give the same levels, faces, canonical values, ids, labels and parts,
insertion order included, and the same names.
"""

import random

import pytest

from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import homotopy as ht
from diacats import randgen as rg
from diacats import simplicial as sp
from diacats.errors import LimitAbsent

PS = fx.pseudocircle_site()


def reference_from_full_levels_split(scat, trunc, levels, face_fn, degen_fn,
                                     label_fn, part_fn, id_fn=None, name="X"):
    sset, canon, ids, elem_of = sp.from_full_levels(
        trunc, levels, face_fn, degen_fn, id_fn, name)
    label, part = {}, {}
    for (n, e), sid in ids.items():
        label[sid] = label_fn(e)
        for i in range(n + 1):
            if n == 0:
                break
            part[(sid, i)] = part_fn(n, i, e)
    obj = sp.SplitSimpObj(scat, sset, label, part, name)
    return obj, canon, ids, elem_of


def reference_simpset_product(a, b, name=None):
    trunc = min(a.trunc, b.trunc)
    levels = [[(u, v) for u in a.full_level(n) for v in b.full_level(n)]
              for n in range(trunc + 1)]

    def face_fn(n, i, e):
        return (a.apply(sp.mt_delta(i, n), e[0]), b.apply(sp.mt_delta(i, n), e[1]))

    def degen_fn(n, j, e):
        return (a.apply(sp.mt_sigma(j, n), e[0]), b.apply(sp.mt_sigma(j, n), e[1]))

    return sp.from_full_levels(trunc, levels, face_fn, degen_fn, None,
                               name or ("%sx%s" % (a.name, b.name)))


def reference_tensor(k, x, name=None):
    trunc = min(k.trunc, x.trunc)
    levels = [[(u, v) for u in k.full_level(n) for v in x.full_level(n)]
              for n in range(trunc + 1)]

    def face_fn(n, i, e):
        return (k.apply(sp.mt_delta(i, n), e[0]), x.apply(sp.mt_delta(i, n), e[1]))

    def degen_fn(n, j, e):
        return (k.apply(sp.mt_sigma(j, n), e[0]), x.apply(sp.mt_sigma(j, n), e[1]))

    def label_fn(e):
        return x.label[e[1][1]]

    def part_fn(n, i, e):
        _, p = x.apply_with_part(sp.mt_delta(i, n), e[1])
        return p

    obj, canon, ids, elem_of = reference_from_full_levels_split(
        x.scat, trunc, levels, face_fn, degen_fn, label_fn, part_fn, None,
        name or ("%s(x)%s" % (k.name, x.name)))
    obj.nd_elem = elem_of
    obj.elem_canon = canon
    return obj


def reference_nerve_side(site, d, f_parts, x, aug, trunc):
    """N(I, F) x_s X as `hocolim_nerve_check` built it."""
    cat = site.cat
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

    levels = [[(u, v) for u in nv.full_level(n) for v in x.full_level(n)]
              for n in range(trunc + 1)]

    def face_fn(n, i, e):
        u, v = e
        return (nv.apply(sp.mt_delta(i, n), u), x.apply(sp.mt_delta(i, n), v))

    def degen_fn(n, j, e):
        u, v = e
        return (nv.apply(sp.mt_sigma(j, n), u), x.apply(sp.mt_sigma(j, n), v))

    def label_fn(e):
        u, v = e
        return apex2(u[1], v[1])[0]

    def part_fn(n, i, e):
        u, v = e
        u2, pu = nv.apply_with_part(sp.mt_delta(i, n), u)
        v2, pv = x.apply_with_part(sp.mt_delta(i, n), v)
        a1, lf1, lx1 = apex2(u[1], v[1])
        a2, lf2, lx2 = apex2(u2[1], v2[1])
        want_f = cat.comp(pu, lf1)
        want_x = cat.comp(pv, lx1)
        cands = [h for h in cat.hom(a1, a2)
                 if cat.comp(lf2, h) == want_f and cat.comp(lx2, h) == want_x]
        if len(cands) != 1:
            raise LimitAbsent("no unique face map on the nerve side")
        return cands[0]

    return reference_from_full_levels_split(
        cat, trunc, levels, face_fn, degen_fn, label_fn, part_fn, None, "NxX")


def reference_hocolim_bk(xd, trunc):
    """The hocolim as the diagonal of the bisimplicial object whose (n, m)
    part is one copy of X(i_0)_m per length-n chain, with d_0 transporting
    along the first arrow."""
    cat = xd.shape
    scat = xd.ob[cat.objects[0]].scat
    ner = sp.nerve_of_category(cat, trunc)

    def chain_start(cv):
        epi, nd = cv
        return ner.chain_of[nd][0]

    def first_arrow(cv):
        epi, nd = cv
        x0, ms = ner.chain_of[nd]
        return ms[0] if epi[1] else cat.id_of(x0)

    def elems(n, m):
        return [(cv, v) for cv in ner.full_level(n)
                for v in xd.ob[chain_start(cv)].full_level(m)]

    def hface(n, m, i, e):
        cv, v = e
        cv2 = ner.apply(sp.mt_delta(i, n), cv)
        if i == 0:
            return (cv2, xd.mo[first_arrow(cv)].map_value(v))
        return (cv2, v)

    def hdegen(n, m, j, e):
        cv, v = e
        return (ner.apply(sp.mt_sigma(j, n), cv), v)

    def vface(n, m, j, e):
        cv, v = e
        return (cv, xd.ob[chain_start(cv)].apply(sp.mt_delta(j, m), v))

    def vdegen(n, m, j, e):
        cv, v = e
        return (cv, xd.ob[chain_start(cv)].apply(sp.mt_sigma(j, m), v))

    def label(e):
        cv, v = e
        return xd.ob[chain_start(cv)].label[v[1]]

    def hpart(n, m, i, e):
        cv, v = e
        if i == 0:
            return xd.mo[first_arrow(cv)].map_value_part(v)[1]
        return scat.id_of(label(e))

    def vpart(n, m, j, e):
        cv, v = e
        return xd.ob[chain_start(cv)].apply_with_part(sp.mt_delta(j, m), v)[1]

    # the diagonal: level n is the bidegree (n, n) part
    levels = [elems(n, n) for n in range(trunc + 1)]

    def face_fn(n, i, e):
        return vface(n - 1, n, i, hface(n, n, i, e))

    def degen_fn(n, j, e):
        return vdegen(n + 1, n, j, hdegen(n, n, j, e))

    def part_fn(n, i, e):
        p1 = hpart(n, n, i, e)
        e1 = hface(n, n, i, e)
        p2 = vpart(n - 1, n, i, e1)
        return scat.comp(p2, p1)

    return reference_from_full_levels_split(
        scat, trunc, levels, face_fn, degen_fn, label, part_fn, None,
        "hocolim(%s)" % xd.name)


def simpset_fields(x):
    return (x.name, x.trunc, x.levels, list(x.faces.items()), list(x.level_of.items()))


def split_fields(x):
    return (x.scat.name, x.name, simpset_fields(x.uset),
            list(x.label.items()), list(x.part.items()))


def bookkeeping(built):
    _, canon, ids, elem_of = built
    return list(canon.items()), list(ids.items()), list(elem_of.items())


def assert_same_product(built, ref):
    assert simpset_fields(built[0]) == simpset_fields(ref[0])
    assert bookkeeping(built) == bookkeeping(ref)


def assert_same_split(built, ref):
    assert split_fields(built[0]) == split_fields(ref[0])
    assert bookkeeping(built) == bookkeeping(ref)


def rp2(trunc):
    v, a = ((0,), "v"), ((0, 1), "a")
    faces = {("a", 0): v, ("a", 1): v,
             ("s", 0): a, ("s", 1): ((0, 0), "v"), ("s", 2): a}
    return sp.SimpSet(trunc, [["v"], ["a"], ["s"]], faces, "RP2").validate()


@pytest.mark.parametrize("n,m", [(n, m) for n in range(3) for m in range(3)])
def test_delta_products_match_reference(n, m):
    a, b = sp.delta_simpset(n, 3), sp.delta_simpset(m, 3)
    assert_same_product(sp.simpset_product(a, b), reference_simpset_product(a, b))
    assert_same_product(sp.simpset_product(a, b, "P"),
                        reference_simpset_product(a, b, "P"))


def test_rp2_square_matches_reference():
    p = rp2(3)
    assert_same_product(sp.simpset_product(p, p), reference_simpset_product(p, p))


@pytest.mark.parametrize("seed", range(10))
def test_tensors_match_reference(seed):
    rng = random.Random(seed)
    k = rg.random_simpset(rng, 2, max_nondeg=5)
    x = rg.random_split_over(rng, PS, 2)
    got, ref = sp.tensor(k, x), reference_tensor(k, x)
    assert split_fields(got) == split_fields(ref)
    assert list(got.nd_elem.items()) == list(ref.nd_elem.items())
    assert list(got.elem_canon.items()) == list(ref.elem_canon.items())


def criterion_05_instances():
    """The base-change instances of `test_criterion_05_hocolim_nerve`."""
    rng = random.Random(5)
    done = 0
    for site in (PS, fx.sierpinski_site()):
        cat = site.cat
        s = [x for x in cat.objects if all(cat.hom(y, x) for y in cat.objects)][0]
        while done < (5 if site is PS else 10):
            d = rg.random_diaobj(rng, site, 3)
            f_parts = {i: cat.hom(d.labels.ob(i), s)[0] for i in d.shape.objects}
            xlab = rng.choice(list(cat.objects))
            x = sp.constant_split(cat, xlab, 3)
            aug = {nd: cat.hom(xlab, s)[0] for l in x.levels for nd in l}
            yield site, d, s, f_parts, x, aug
            done += 1


def test_base_change_nerve_side_matches_reference():
    count = 0
    for site, d, _, f_parts, x, aug in criterion_05_instances():
        bij, lhs, rhs = ht.hocolim_nerve_check(site, d, f_parts, x, aug, 3)
        ref = reference_nerve_side(site, d, f_parts, x, aug, 3)
        assert split_fields(rhs) == split_fields(ref[0])
        assert bij is not None
        count += 1
    assert count == 10


def assert_same_hocolim(xd, trunc):
    diag, ref = ht.hocolim_bk(xd, trunc), reference_hocolim_bk(xd, trunc)
    assert split_fields(diag) == split_fields(ref[0])
    assert list(diag.nd_elem.items()) == list(ref[3].items())
    assert list(diag.elem_canon.items()) == list(ref[1].items())
    diag.validate()


@pytest.mark.parametrize("seed", range(6))
def test_labelled_diagonal_matches_reference(seed):
    """hocolim_bk of nerve diagrams, whose transport and face parts are
    both non-identities, against the earlier labelled diagonal."""
    rng = random.Random(seed)
    xd = dg.nerve_diagram(rg.random_dia_functor(rng, PS, max_base=2, max_shape=2), 2)
    assert_same_hocolim(xd, 2)


def test_constant_hocolims_match_reference():
    """Constant diagrams of a random split object, whose transports are
    identities, over the interval and the cone poset."""
    x = rg.random_split_over(random.Random(10), PS, 2)
    for shape in (fc.chain_category(1), fx.cone_poset()):
        assert_same_hocolim(ht.constant_split_diagram(shape, x), 2)
