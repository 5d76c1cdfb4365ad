"""Constructions that go through one builder, against the builders they
replaced.

The `reference_*` functions keep the earlier hand-written builders: the
element category with its own identity map and composition loop, the
standard simplex and the Cech object written out face by face, the pullback
over its own cospan diagram, and the prism inclusion with its own pair loop.
The single builders (`fincat.elements`, which composes through its base
by an `ElementComposition` and stores no table, `simplicial.from_full_levels`,
`fincat.wide_pullback`) and `simplicial.prism_inclusion` must give the same
ids in the same order, the same faces, labels, parts, identities and
composition tables, and the same key maps.
"""

import itertools
import random

import pytest

from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import homotopy as ht
from diacats import randgen as rg
from diacats import simplicial as sp
from diacats.errors import DomCodMismatch, LimitAbsent, NonSplitMorphism

from test_homotopy import gadget_fiber

PS = fx.pseudocircle_site()
TS = fx.terminal_site()


# -- the replaced builders ----------------------------------------------------


def reference_elements(name, fibers, out, act, comp, identity, ofmt, mfmt):
    objs, okey = [], {}
    for c, xs in fibers:
        for x in xs:
            oid = ofmt(c, x)
            okey[(c, x)] = oid
            objs.append(oid)
    mors, mkey, ident, targets = [], {}, {}, []
    for (c, x), oid in okey.items():
        for f, c2 in out[c]:
            x2 = act(f, x)
            oid2 = okey[(c2, x2)]
            mid = mfmt(c, f, oid, oid2)
            mkey[(c, x, f)] = mid
            mors.append(fc.Mor(mid, oid, oid2))
            targets.append((c2, x2))
        ident[oid] = mkey[(c, x, identity[c])]
    table = {}
    for ((c, x, f), mid), (c2, x2) in zip(mkey.items(), targets):
        for g, _ in out[c2]:
            table[(mkey[(c2, x2, g)], mid)] = mkey[(c, x, comp[(g, f)])]
    return fc.FinCat(name, objs, mors, ident, table), okey, mkey


def reference_delta_simpset(n, trunc, name=None):
    levels = [[] for _ in range(trunc + 1)]
    for k in range(min(n, trunc) + 1):
        levels[k] = ["(%s)" % ",".join(map(str, t))
                     for t in itertools.combinations(range(n + 1), k + 1)]
    faces = {}
    for k in range(1, min(n, trunc) + 1):
        for t in itertools.combinations(range(n + 1), k + 1):
            sid = "(%s)" % ",".join(map(str, t))
            for i in range(k + 1):
                sub = t[:i] + t[i + 1:]
                faces[(sid, i)] = (sp.mt_id(k - 1), "(%s)" % ",".join(map(str, sub)))
    return sp.SimpSet(trunc, levels, faces, name or ("D%d" % n))


def reference_cech_cover(site, family, trunc, name=None):
    cat = site.cat
    if not family:
        raise LimitAbsent("empty covering family")
    x = cat.cod(family[0])
    if any(cat.cod(m) != x for m in family):
        raise LimitAbsent("covering family legs must share their target")
    for m in family:
        if not cat.is_mono(m):
            raise NonSplitMorphism("leg %r is not mono" % m)
    apexes = {}

    def apex_of(tset):
        legs = tuple(sorted(set(family[i] for i in tset)))
        if legs not in apexes:
            res = fc.wide_pullback(cat, list(legs), x)
            apexes[legs] = (res[0], dict(zip(legs, res[1])))
        return apexes[legs]

    def proj(tbig, tsmall):
        abig, legb = apex_of(tbig)
        asml, legs = apex_of(tsmall)
        if set(legb) == set(legs):
            return cat.id_of(abig)
        return fc.factor(cat, abig, asml, [(legs[m], legb[m]) for m in legs])

    levels = [[] for _ in range(trunc + 1)]
    faces, label, part = {}, {}, {}
    tup_of = {}
    r = range(len(family))

    def tup_id(t):
        return "U(%s)" % ",".join(map(str, t))

    for n in range(trunc + 1):
        for t in itertools.product(r, repeat=n + 1):
            if any(t[i] == t[i + 1] for i in range(n)):
                continue
            sid = tup_id(t)
            tup_of[sid] = t
            levels[n].append(sid)
            label[sid] = apex_of(t)[0]
            for i in range(n + 1):
                if n == 0:
                    break
                epi, red = sp.collapse_runs(t[:i] + t[i + 1:])
                faces[(sid, i)] = (epi, tup_id(red))
                part[(sid, i)] = proj(t, red)
    sset = sp.SimpSet(trunc, levels, faces, name or "Cech")
    u = sp.SplitSimpObj(site.cat, sset, label, part, name or "Cech")
    u.tuple_of = tup_of
    target = sp.constant_split(cat, x, trunc, "c(%s)" % x)
    vtx = target.levels[0][0]
    aug_val, aug_part = {}, {}
    for n, ids in enumerate(u.levels):
        for sid in ids:
            aug_val[sid] = ((0,) * (n + 1), vtx)
            t = tup_of[sid]
            t0 = t[0]
            apx, legmap = apex_of((t0,))
            leg = legmap[family[t0]]
            aug_part[sid] = cat.comp(family[t0], cat.comp(leg, proj(t, (t0,))))
    return u, sp.SplitMor(u, target, aug_val, aug_part, "aug")


def reference_pullback(C, f, g):
    if C.cod(f) != C.cod(g):
        raise DomCodMismatch("pullback needs a cospan")
    J = fc.poset_category("cospan", ["l", "m", "r"],
                          lambda x, y: x == y or y == "m")
    D = fc.FinFunctor("D", J, C,
                      {"l": C.dom(f), "m": C.cod(f), "r": C.dom(g)},
                      {J.id_of("l"): C.id_of(C.dom(f)),
                       J.id_of("m"): C.id_of(C.cod(f)),
                       J.id_of("r"): C.id_of(C.dom(g)),
                       "l<=m": f, "r<=m": g})
    res = fc.limit_cone(D)
    if res is None:
        return None
    apex, legs = res
    return apex, legs["l"], legs["r"]


def reference_prism_inclusion(n, e, scat, s, trunc):
    horn, prod, _ = sp.prism_horn(n, e, trunc)
    xs = sp.constant_split(scat, s, trunc)
    hx = sp.tensor(horn, xs)
    px = sp.tensor(prod, xs)
    val, part = {}, {}
    for ids in hx.levels:
        for sid in ids:
            u, v = hx.nd_elem[sid][1]
            val[sid] = sp.tensor_value(px, u, v)
            part[sid] = scat.id_of(hx.label[sid])
    return sp.SplitMor(hx, px, val, part, "prism%d,%d" % (n, e))


# -- comparisons --------------------------------------------------------------


def cat_fields(c):
    return (c.name, c.objects, c.morphisms, list(c.identity.items()),
            list(c.compose_table.items()))


def simpset_fields(x):
    return (x.name, x.trunc, x.levels, list(x.faces.items()))


def split_fields(x):
    return (x.scat.name, x.name, simpset_fields(x.uset),
            list(x.label.items()), list(x.part.items()))


def mor_fields(f):
    return (f.name, split_fields(f.src), split_fields(f.tgt),
            list(f.val.items()), list(f.part.items()))


def elements_inputs():
    """Every caller of `fincat.elements`: the gadget bases of the benchmark
    at truncation 2 (and the two largest at 3), element categories of split
    objects, the simplex-opposite shape, a gadget fiber and Hom diagrams."""
    for n, m, t in [(0, 0, 2), (0, 1, 2), (0, 2, 2), (1, 1, 2), (1, 2, 2),
                    (1, 1, 3), (1, 2, 3)]:
        base = sp.simpset_product(sp.delta_simpset(n, t), sp.delta_simpset(m, t))[0]
        yield lambda b=base, t=t: ht.int_simpset(b, t)
    for seed in range(5):
        x = rg.random_split_over(random.Random(seed), PS, 2)
        yield lambda x=x: ht.int_amalg(x, 2)
    yield lambda: ht.t_delta_op(3)
    yield lambda: gadget_fiber(1, 2, 3)
    for seed in range(5):
        d = rg.random_diaobj(random.Random(seed), PS, 4)
        x = PS.cat.objects[seed % len(PS.cat.objects)]
        yield lambda x=x, d=d: dg.hom_diagram(PS, x, d)


def test_elements_match_reference(monkeypatch):
    """Each call the library makes is run by both builders on its own
    arguments; the operator actions are deterministic, so both see the
    same data."""
    builder, seen = fc.elements, []

    def both(*args):
        got, ref = builder(*args), reference_elements(*args)
        assert cat_fields(got[0]) == cat_fields(ref[0])
        assert list(got[1].items()) == list(ref[1].items())
        assert list(got[2].items()) == list(ref[2].items())
        seen.append(args[0])
        return got

    monkeypatch.setattr(fc, "elements", both)
    for run in elements_inputs():
        run()
    # int_amalg also builds t_delta_op
    assert len(seen) == 7 + 2 * 5 + 1 + 1 + 5


@pytest.mark.parametrize("n", range(4))
def test_delta_simpset_matches_reference(n):
    for t in range(5):
        assert simpset_fields(sp.delta_simpset(n, t)) == \
            simpset_fields(reference_delta_simpset(n, t))
        assert simpset_fields(sp.delta_simpset(n, t, "D")) == \
            simpset_fields(reference_delta_simpset(n, t, "D"))


U, V, X = "{a,b,c}", "{a,b,d}", "{a,b,c,d}"
CECH_FAMILIES = [
    [PS.cat.id_of(X)],
    ["%s<=%s" % (U, X), "%s<=%s" % (V, X)],
    ["%s<=%s" % (U, X), "%s<=%s" % (V, X), "{a,b}<=%s" % X],
    ["%s<=%s" % (U, X), "%s<=%s" % (U, X)],
    ["{a}<={a,b}", "{b}<={a,b}"],
]


def index_tuple(sid):
    """The index tuple of a Cech simplex from its id "U(i_0,...,i_n)"."""
    return tuple(int(i) for i in sid[2:-1].split(","))


@pytest.mark.parametrize("family", CECH_FAMILIES, ids=lambda f: "|".join(f))
def test_cech_cover_matches_reference(family):
    for t in range(5):
        u, aug = sp.cech_cover(PS, family, t)
        ru, raug = reference_cech_cover(PS, family, t)
        assert split_fields(u) == split_fields(ru)
        assert [(sid, index_tuple(sid)) for ids in u.levels for sid in ids] == \
            list(ru.tuple_of.items())
        assert mor_fields(aug) == mor_fields(raug)
        u.validate()
        aug.validate()


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


def pullback_categories():
    """Posets, groups with non-identity automorphisms, the walking
    isomorphism and their products with [1]: cospans whose pullbacks are
    unique only up to isomorphism, or missing."""
    rng = random.Random(3)
    z2, iso = cyclic_group(2), walking_iso()
    c1 = fc.chain_category(1)
    cats = [fc.terminal_category(), fc.discrete_category("2", ["l", "r"]),
            PS.cat, fx.sierpinski_site().cat, fx.fence_poset(), fx.cone_poset(),
            fx.xi_zigzag(3), fx.span_shape(), z2, cyclic_group(3), iso,
            fc.product_category(z2, c1), fc.product_category(iso, c1),
            fc.product_category(c1, iso), ht.t_delta_op(1)]
    cats += [fc.chain_category(n) for n in range(4)]
    return cats + [rg.random_poset(rng, 4, "P%d" % k) for k in range(10)]


def test_pullback_matches_reference():
    cats, count = pullback_categories(), 0
    assert len(cats) == 29
    for c in cats:
        for f, g in itertools.product(c.morphisms, repeat=2):
            if f.cod == g.cod:
                assert fc.pullback(c, f.id, g.id) == reference_pullback(c, f.id, g.id)
                count += 1
    assert count == 519
    with pytest.raises(DomCodMismatch):
        fc.pullback(PS.cat, "{a}<={a,b}", "{a}<={a}")


@pytest.mark.parametrize("scat,s", [(TS.cat, "*"), (PS.cat, X)])
def test_prism_inclusion_matches_reference(scat, s):
    for n in range(3):
        for e in range(2):
            assert mor_fields(sp.prism_inclusion(n, e, scat, s, 3)) == \
                mor_fields(reference_prism_inclusion(n, e, scat, s, 3))
