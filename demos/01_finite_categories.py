"""Finite categories and their exhaustive constructions.

Builds the bundled poset shapes, searches limits by brute force, inspects
slices and twisted-arrow categories, and runs the (op)fibration checker on
a Grothendieck projection.
"""

from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx

# the fence poset: a, b below U, V with no meets at the top
fence = fx.fence_poset()
print(fence)
print("extremal objects:", fc.detect_extremal(fence))
print("product(U, V):", fc.product(fence, "U", "V"))

# the pseudocircle open lattice has all meets
ps = fx.pseudocircle_site()
print("\n", ps.cat, sep="")
print("U ^ V =", fc.pullback(ps.cat, "{a,b,c}<={a,b,c,d}",
                             "{a,b,d}<={a,b,c,d}")[0])

# slices always have an initial object over the identity
sl, proj, okey, _ = fc.slice_under("a", fc.FinFunctor.identity(fence))
print("\nslice a/fence:", sl, "initial:", fc.detect_extremal(sl)["initial"])

# twisted arrows of the interval
tw, p1, p3, _ = fc.twisted_arrow(fc.chain_category(1), "tw")
print("\ntw([1]):", tw, "objects:", tw.objects)
twc, q1, q3, mu = fc.twisted_arrow(fc.chain_category(1), "twc")
print("twc([1]):", twc, "with mu at each composable pair")

# a Grothendieck construction and its opfibration certificate: F is a
# strict functor into diagrams, and validate checks that it sends
# identities to identities and composites to composites on the nose
ts = fx.terminal_site()
pt = dg.point_dia(ts.cat, "*")
c1 = fc.chain_category(1)
d1 = dg.DiaObj(c1, fc.FinFunctor.constant(c1, ts.cat, "*"))
F = fc.StrictFunctor(c1, {"0": pt, "1": d1},
                     {c1.id_of("0"): dg.DiaMor.identity(pt),
                      c1.id_of("1"): dg.DiaMor.identity(d1),
                      "0<=1": dg.all_dia_mors(pt, d1)[0]}, "F").validate()
gro, proj, incl = dg.grothendieck_construction(F)
print("\nint(F):", gro.shape.objects)
print("projection is an opfibration:", fc.is_opfibration(proj)[0])
print("\nDOT export of the fence:")
print(fc.to_dot(fence))
