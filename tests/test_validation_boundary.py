"""The validation boundary.

Builders return objects that are correct by construction and do not
re-check them; `.validate()` runs where data enters (JSON decoders, CLI
loaders, `randgen`) and where its outcome is the result.  These tests hold
both halves: every builder's output validates on fixtures and seeded
random inputs, categories included, and the homology and comparison
pipelines never call the category, simplicial or chain-complex validators.
"""

import random

import pytest

from diacats import algtop as at
from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import homotopy as ht
from diacats import localizer as lc
from diacats import randgen as rg
from diacats import simplicial as sp

from test_homotopy import gadget_comma_iso

TS = fx.terminal_site()
PS = fx.pseudocircle_site()
TOP = "{a,b,c,d}"


def built(cls, fn, *args):
    """Run fn(*args); return its result and every cls instance it built."""
    made, init = [], cls.__init__

    def record(self, *a, **k):
        init(self, *a, **k)
        made.append(self)

    cls.__init__ = record
    try:
        return fn(*args), made
    finally:
        cls.__init__ = init


def some(sample):
    """First non-None value of a seeded sampler (it draws fresh each call)."""
    for _ in range(50):
        out = sample()
        if out is not None:
            return out
    raise AssertionError("sampler kept returning None")


def random_mor(rng, site, max_objects=3):
    return some(lambda: rg.random_diamor(rng, rg.random_diaobj(rng, site, max_objects),
                                         rg.random_diaobj(rng, site, max_objects)))


def collapse_to(d, top):
    """The morphism d -> point(top) with the unique label parts."""
    pt = dg.point_dia(d.scat, top)
    return dg.DiaMor(d, pt,
                     fc.FinFunctor("!", d.shape, pt.shape,
                                   {x: "*" for x in d.shape.objects},
                                   {m.id: "id_*" for m in d.shape.morphisms}),
                     {x: d.scat.hom(d.labels.ob(x), top)[0] for x in d.shape.objects})


def probe(cat, member, tgt):
    return dg.DiaMor(dg.point_dia(cat, cat.dom(member)), tgt,
                     fc.FinFunctor("k", fc.terminal_category(), tgt.shape,
                                   {"*": "*"}, {"id_*": "id_*"}),
                     {"*": member})


# --- categories from the internal builders ----------------------------------


def case_product_comma_fiber(rng):
    p, q = rg.random_poset(rng, 3), rg.random_poset(rng, 3)
    ident = fc.FinFunctor.identity(p)
    comma, pr1, pr2, _, _ = fc.comma_category(ident, ident)
    fib, incl = fc.fiber(pr1, rng.choice(p.objects))
    return [fc.product_category(p, q), comma, pr1, pr2, fib, incl]


def case_terminal_and_posets(rng):
    return [fc.terminal_category(),
            fc.chain_category(rng.randint(0, 3)), fx.fence_poset(), PS.cat]


def case_delta_op_and_elements(rng):
    el, _, _ = ht.int_simpset(rg.random_simpset(rng, 2, 4), 2)
    return [ht.t_delta_op(rng.randint(1, 3)), el]


def hom_functor_elements(p, x):
    """The category of elements of Hom(x, -) on a finite category p through
    `fincat.elements`, with its projection to p."""
    el, okey, mkey = fc.elements(
        "el", [(y, p.hom(x, y)) for y in p.objects],
        {y: [(f, p.cod(f)) for f in p.out(y)] for y in p.objects},
        p.comp, p.compose_table, p.identity,
        lambda y, h: "(%s|%s)" % (y, h), lambda y, f, src, tgt: "%s:%s" % (f, src))
    proj = fc.FinFunctor("proj", el, p, {oid: y for (y, h), oid in okey.items()},
                         {mid: f for (y, h, f), mid in mkey.items()})
    return el, proj


def case_elements_of_hom_functor(rng):
    p = rg.random_poset(rng, 4)
    return list(hom_functor_elements(p, rng.choice(p.objects)))


def case_gadget_fiber(rng):
    ok, cats = built(fc.FinCat, gadget_comma_iso, 0, rng.randint(0, 1), 2)
    assert ok
    fibers = [c for c in cats if c.name.startswith("gadget(")]
    assert len(fibers) == 1
    return fibers + [c for c in cats if c.name.startswith("int(")]


# --- nerves of random categories --------------------------------------------


def case_nerve_random_poset(rng):
    n = sp.nerve_of_category(rg.random_poset(rng, 4), 3)
    return [n, at.chain_complex(n)]


def case_nerve_element_category(rng):
    el, _, _ = ht.int_simpset(rg.random_simpset(rng, 2, 4), 2)
    n = sp.nerve_of_category(el, 2)
    return [n, at.chain_complex(n)]


def case_nerve_labeled(rng):
    return [dg.nerve(rg.random_diaobj(rng, PS, 4), 3)]


def case_nerve_mor_and_cone(rng):
    nm = dg.nerve_mor(random_mor(rng, PS), 3)
    d = sp.delta_simpset(rng.randint(2, 3), 3)
    incl = sp.inclusion_map(sp.subcomplex(d, [d.levels[2][0]]), d)
    out = [nm]
    for f in (nm.underlying(), incl):
        _, complexes = built(at.ChainComplex, at.quasi_iso, f)
        assert len(complexes) == 3      # source, target and the mapping cone
        out += complexes
    return out


# --- standard simplicial sets, products, subcomplexes -----------------------


def case_delta_subcomplex_inclusion(rng):
    d = sp.delta_simpset(3, 3)
    keep = rng.sample([s for l in d.levels for s in l], 3)
    sub = sp.subcomplex(d, keep)
    return [d, sp.boundary_delta(2, 3), sub, sp.inclusion_map(sub, d)]


def case_product_and_hom_into(rng):
    a = rg.random_simpset(rng, 2, 4)
    prod, _, _, _ = sp.simpset_product(a, sp.delta_simpset(1, 2))
    return [prod, sp.hom_into(PS, "{a}", rg.random_split_over(rng, PS, 2))]


# --- tensors, prisms and Cech covers ----------------------------------------


def case_tensor_coproduct_as_split(rng):
    k = rg.random_simpset(rng, 2, 4)
    x = rg.random_split_over(rng, PS, 2)
    c = sp.constant_split(PS.cat, rng.choice(PS.cat.objects), 2)
    return [sp.tensor(k, x), sp.as_split(PS.cat, k, TOP),
            sp.coproduct_split([x, c])]


def case_prism_inclusion(rng):
    return [sp.prism_inclusion(rng.randint(0, 2), rng.randint(0, 1), PS.cat, TOP, 3)]


def case_cech_cover(rng):
    legs = [m for x in PS.cat.objects for m in PS.cat.hom(x, TOP)]
    return list(sp.cech_cover(PS, rng.sample(legs, 2), 3))


# --- comma products, Grothendieck construction, diagram builders ------------


def case_comma_and_projections(rng):
    d = rg.random_diaobj(rng, PS, 3)
    p = collapse_to(d, TOP)
    return list(dg.comma_fiber_product(p, probe(PS.cat, "{a,b,d}<=" + TOP, p.tgt)))


def case_comma_random_shapes(rng):
    d3 = rg.random_diaobj(rng, TS, 3)
    p = some(lambda: rg.random_diamor(rng, rg.random_diaobj(rng, TS, 2), d3))
    q = some(lambda: rg.random_diamor(rng, rg.random_diaobj(rng, TS, 2), d3))
    return list(dg.comma_fiber_product(p, q))


def case_induced_comma_map(rng):
    w = random_mor(rng, PS)
    p2 = collapse_to(w.tgt, TOP)
    q = probe(PS.cat, rng.choice(["{a,b,c}", "{a,b,d}"]) + "<=" + TOP, p2.tgt)
    p1 = w.then(p2)
    induced = dg.induced_comma_map(w, dg.comma_fiber_product(p1, q),
                                   dg.comma_fiber_product(p2, q))
    return [induced, induced.src, induced.tgt]


def case_point_dia(rng):
    return [dg.point_dia(PS.cat, rng.choice(PS.cat.objects))]


def case_grothendieck_construction(rng):
    F = rg.random_dia_functor(rng, PS, 2, 2)
    gro, proj, incl = dg.grothendieck_construction(F)
    return [F, gro.shape, gro, proj, *incl.values(), dg.nerve_diagram(F, 2)]


def case_span_diafunctor(rng):
    y = rg.random_diaobj(rng, TS, 3)
    f = some(lambda: rg.random_diamor(rng, y, rg.random_diaobj(rng, TS, 2)))
    g = some(lambda: rg.random_diamor(rng, y, rg.random_diaobj(rng, TS, 2)))
    F = dg.span_diafunctor(f, g)
    gro, proj, incl = dg.grothendieck_construction(F)
    return [F, gro, proj, *incl.values()]


def case_hom_diagram(rng):
    el, proj = dg.hom_diagram(PS, rng.choice(PS.cat.objects), rg.random_diaobj(rng, PS, 4))
    return [el, proj]


def case_twisted_arrow(rng):
    p = rg.random_poset(rng, 3)
    tw, tw_pi1, tw_pi3, _ = fc.twisted_arrow(p, "tw")
    twc, pi1, pi3, mu = fc.twisted_arrow(p, "twc")
    return [tw, tw_pi1, tw_pi3, twc, pi1, pi3, mu]


# --- int_amalg, the counit and the homotopy (co)limits ----------------------


def case_int_amalg(rng):
    ia = ht.int_amalg(rg.random_split_over(rng, PS, 2))
    return [ia.dia, ia.proj]


def case_counit(rng):
    counit, ia = ht.counit_to_diagram(rg.random_diaobj(rng, PS, 3), 2)
    return [counit, ia.dia, ia.proj]


def case_comparison_to_simp(rng):
    cmp_mor, ia = ht.comparison_to_simp(rg.random_split_over(rng, PS, 2), 2, 2,
                                        budget=400_000)
    return [cmp_mor, ia.dia]


def case_split_diagrams(rng):
    x = rg.random_split_over(rng, PS, 2)
    fp = ht.fiber_product_split(PS, "{a,b,c}<=" + TOP, x,
                                {nd: x.scat.hom(x.label[nd], TOP)[0]
                                 for l in x.levels for nd in l})
    return [ht.constant_split_diagram(rg.random_poset(rng, 3), x), fp]


def case_hocolim_nerve_check(rng):
    d = rg.random_diaobj(rng, PS, 2)
    x = sp.constant_split(PS.cat, "{a,b,d}", 2)
    aug = {nd: "{a,b,d}<=" + TOP for l in x.levels for nd in l}
    f_parts = {i: PS.cat.hom(d.labels.ob(i), TOP)[0] for i in d.shape.objects}
    (_, lhs, rhs), xds = built(fc.StrictFunctor, ht.hocolim_nerve_check,
                               PS, d, f_parts, x, aug, 2)
    return [lhs, rhs, *xds]


def case_holim_end(rng):
    shape = rg.random_poset(rng, 3)
    d0 = sp.delta_simpset(0, 2)
    X = fc.StrictFunctor(shape, {a: d0 for a in shape.objects},
                         {m.id: sp.SimpMap.identity(d0) for m in shape.morphisms}, "X")
    h, functors = built(fc.FinFunctor, ht.holim_end, X, 2)
    slice_maps = [f for f in functors if f.name.startswith("sl(")]
    assert len(slice_maps) == len(shape.morphisms)
    return [X, h] + slice_maps


# --- localizer builders ------------------------------------------------------


def case_localizer_builders(rng):
    u = lc.poset_universe(TS, 2)
    v = lc.universe_from(PS, [rg.random_diaobj(rng, PS, 2) for _ in range(2)],
                         all_mors=True)
    collapses = [lc._final_collapse(d) for d in u.objects.values()]
    return [u, v, *u.objects.values(), *(c for c in collapses if c is not None)]


def case_l3_probes(rng):
    u = lc.poset_universe(TS, 2)
    _, made = built(dg.DiaMor, lc.l3_instances, u)
    probes = [m for m in made if m.name == "probe"]
    assert probes
    return probes


CASES = {name[len("case_"):]: fn for name, fn in sorted(globals().items())
         if name.startswith("case_")}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_builder_output_validates(case, seed):
    objs = CASES[case](random.Random(seed))
    assert objs
    for obj in objs:
        obj.validate()


@pytest.mark.parametrize("seed", range(10))
def test_elements_of_hom_functor(seed):
    """The coslice under x: one object per arrow x -> y, a discrete
    opfibration over the poset, with (x, id_x) initial."""
    rng = random.Random(seed)
    p = rg.random_poset(rng, 4)
    x = rng.choice(p.objects)
    el, proj = hom_functor_elements(p, x)
    assert fc.is_opfibration(proj)[0]
    assert el.objects == tuple("(%s|%s)" % (y, h) for y in p.objects for h in p.hom(x, y))
    start = "(%s|%s)" % (x, p.id_of(x))
    assert all(len(el.hom(start, o)) == 1 for o in el.objects)


def test_pipelines_never_call_validators(monkeypatch):
    def refuse(self):
        raise AssertionError("%s.validate called" % type(self).__name__)

    for cls in (fc.FinCat, sp.SimpSet, sp.SplitSimpObj, sp.SplitMor, at.ChainComplex):
        monkeypatch.setattr(cls, "validate", refuse)
    # element category -> nerve -> homology
    el, _, _ = ht.int_simpset(sp.delta_simpset(1, 2), 2)
    assert at.homology(sp.nerve_of_category(el, 3)).is_point()
    # comparison_to_simp -> quasi_iso
    x = sp.as_split(TS.cat, sp.boundary_delta(2, 2), "*")
    cmp_mor, _ = ht.comparison_to_simp(x, 2, 2, budget=400_000)
    assert at.quasi_iso(cmp_mor.underlying()).ok
