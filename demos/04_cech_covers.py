"""Cech objects of covering families and their section complexes.

Over the pseudocircle open lattice the cover {U, V} of the whole space has
iterated fiber powers given by meets; probing with an open gives the nerve
of the cover members containing it.
"""

from diacats import algtop as at
from diacats import fixtures as fx
from diacats import simplicial as sp
from diacats.site import validate_pretopology

ps = fx.pseudocircle_site()
print("pretopology violations:", validate_pretopology(ps))

x, u_, v_ = "{a,b,c,d}", "{a,b,c}", "{a,b,d}"
u, aug = sp.cech_cover(ps, ["%s<=%s" % (u_, x), "%s<=%s" % (v_, x)], 4)
print("\nCech({U, V}) nondegenerate levels:", [len(l) for l in u.levels])
print("level-1 components:",
      [u.label[val[1]] for val in u.full_level(1)])

# sections over an open: Hom({a}, U_.) is the nerve of the members over a
h = sp.hom_into(ps, "{a}", u)
print("\nHom({a}, U_.):", [len(l) for l in h.levels])
print("H:", at.homology(h))

# the identity cover is levelwise trivial
u1, _ = sp.cech_cover(ps, [ps.cat.id_of(x)], 4)
print("\nCech({id}):", [len(u1.full_level(n)) for n in range(5)])

# a doubled identity cover gives the pair groupoid, which is contractible
ts = fx.terminal_site()
u2, _ = sp.cech_cover(ts, ["id_*", "id_*"], 6)
h2 = sp.hom_into(ts, "*", u2)
print("\npair groupoid H:", at.homology(h2))

# a prism horn inclusion tensored with the point: a levelwise split map
incl = sp.prism_inclusion(1, 0, ts.cat, "*", 3)
print("\nprism horn L0(D1xD1) (x) *:", incl.src, "->", incl.tgt)
print("levelwise split:", incl.is_levelwise_split())
