"""Bousfield-Kan homotopy colimits, the base-change comparison against the
nerve, and the end-formula homotopy limit.
"""

import random

from diacats import algtop as at
from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import homotopy as ht
from diacats import randgen as rg
from diacats import simplicial as sp

ts = fx.terminal_site()
ps = fx.pseudocircle_site()

# hocolim over the fence of the constant point recovers the fence nerve
fence = fx.fence_poset()
x = sp.constant_split(ts.cat, "*", 3)
diag = ht.hocolim_bk(ht.constant_split_diagram(fence, x), 3)
print("hocolim(fence, point):", diag)
print("H:", at.homology(diag.uset))

# the Grothendieck construction computes the same homotopy colimit
rng = random.Random(1)
F = rg.random_dia_functor(rng, ps, 2, 2)
gro, proj, _ = dg.grothendieck_construction(F)
h1 = at.homology(dg.nerve(gro, 3).uset)
h2 = at.homology(ht.hocolim_bk(dg.nerve_diagram(F, 3), 3).uset)
print("\nnerve of int F :", h1)
print("hocolim of N(F):", h2)

# base change against the nerve, levelwise over the site
c1 = fc.chain_category(1)
lbls = {"0": "{a,b,c}", "1": "{a,b,c,d}"}
lab = fc.FinFunctor("F", c1, ps.cat, lbls,
                    {m.id: "%s<=%s" % (lbls[m.dom], lbls[m.cod])
                     for m in c1.morphisms}).validate()
d = dg.DiaObj(c1, lab).validate()
xo = sp.constant_split(ps.cat, "{a,b,d}", 3)
aug = {nd: "{a,b,d}<={a,b,c,d}" for l in xo.levels for nd in l}
f_parts = {i: "%s<={a,b,c,d}" % lbls[i] for i in c1.objects}
bij, lhs, rhs = ht.hocolim_nerve_check(ps, d, f_parts, xo, aug, 3)
print("\nbase-change comparison iso:", bij is not None)
print("carriers on the left:", sorted(set(lhs.label.values())))

# the end-formula homotopy limit
d1 = sp.delta_simpset(1, 2)
d0 = sp.delta_simpset(0, 2)
disc = fc.discrete_category("2", ["l", "r"])
h = ht.holim_end(disc, {"l": d1, "r": d0},
                 {disc.id_of("l"): sp.SimpMap.identity(d1),
                  disc.id_of("r"): sp.SimpMap.identity(d0)}, 2)
print("\nholim over two points (a product):", h)
