"""Nerves, split simplicial objects and the integer homology oracle.

The fence poset nerve is a circle; the pseudocircle open lattice is
contractible (it has a top); a labeled nerve remembers its carriers.
"""

from diacats import algtop as at
from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import simplicial as sp

fence = fx.fence_poset()
nf = sp.nerve_of_category(fence, 4)
print("N(fence):", nf)
print("H(N(fence)):", at.homology(nf))
print("pi0:", at.pi0(nf))

ps = fx.pseudocircle_site()
print("\nH(N(pseudocircle lattice)):",
      at.homology(sp.nerve_of_category(ps.cat, 4)))

# a labeled nerve: carriers sit at the first object of each chain
lbls = {"a": "{a}", "b": "{b}", "U": "{a,b,c}", "V": "{a,b,d}"}
lab = fc.FinFunctor("S", fence, ps.cat, lbls,
                    {m.id: "%s<=%s" % (lbls[m.dom], lbls[m.cod])
                     for m in fence.morphisms}).validate()
d = dg.DiaObj(fence, lab, "fd").validate()
nv = dg.nerve(d, 3)
edge = nv.levels[1][0]
print("\nlabeled nerve edge", edge, "carrier:", nv.label[edge])
print("d0 part (moves the carrier):", nv.part[(edge, 0)])

# split reconstruction: every level decomposes over surjections
print("\nlevel 2 of N(fence, S) reconstructs as",
      len(nv.full_level(2)), "components")

# Smith normal form drives everything
print("\nsnf [[2,4],[6,8]] =", at.snf([[2, 4], [6, 8]]))
print("minor-gcd oracle   =", at.minor_gcd_invariants([[2, 4], [6, 8]]))

# quasi-isomorphism verdicts via the mapping cone
d2, bd2 = sp.delta_simpset(2, 4), sp.boundary_delta(2, 4)
print("\nboundary inclusion quasi-iso?",
      at.quasi_iso(sp.inclusion_map(bd2, d2)).detail)

# contractibility certificates
print("\ncert [2]:", at.contractibility_certificate(fc.chain_category(2)).kind)
print("cert Xi_4 zig-zag:", at.contractibility_certificate(fx.xi_zigzag(4)).kind)
print("cert fence:", at.contractibility_certificate(fence))
