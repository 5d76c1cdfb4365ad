"""Seeded pseudo-random instance generators for property suites: finite
posets, labeled diagrams over poset sites, split simplicial objects built
by simplex attachment, and strict diagram-valued functors.
"""

from __future__ import annotations

from . import diagram as dg
from . import fincat as fc
from . import simplicial as sp
from .errors import DiacatsError
from .site import Site


def random_poset(rng, max_objects=4, name=None):
    """A random poset: a random DAG of covers, transitively closed."""
    n = rng.randint(1, max_objects)
    objs = ["p%d" % i for i in range(n)]
    leq = {(a, a) for a in objs}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                leq.add((objs[i], objs[j]))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(leq):
            for (b2, c) in list(leq):
                if b2 == b and (a, c) not in leq:
                    leq.add((a, c))
                    changed = True
    return fc.poset_category(name or ("P%d" % rng.randint(0, 10 ** 6)),
                             objs, lambda a, b: (a, b) in leq).validate()


def random_diaobj(rng, site: Site, max_objects=4, name=None):
    """A random diagram over a poset site: random poset shape with a
    monotone labeling (rejection-sampled)."""
    cat = site.cat
    for _ in range(500):
        shape = random_poset(rng, max_objects)
        omap = {x: rng.choice(list(cat.objects)) for x in shape.objects}
        ok = True
        mmap = {}
        for m in shape.morphisms:
            hom = cat.hom(omap[m.dom], omap[m.cod])
            if not hom:
                ok = False
                break
            mmap[m.id] = hom[0]
        if not ok:
            continue
        try:
            lab = fc.FinFunctor("S", shape, cat, omap, mmap).validate()
        except DiacatsError:
            continue
        return dg.DiaObj(shape, lab, name or "rand").validate()
    raise RuntimeError("could not sample a labeled diagram")


def random_simpset(rng, trunc, max_nondeg=8, name="R", per_position=False):
    """A random truncated simplicial set grown by attaching simplices along
    existing boundary-compatible face tuples.  `per_position` shuffles
    the pool once per face position, which reaches torsion."""
    levels = [["v0"], [], []][:1] + [[] for _ in range(trunc)]
    faces = {}
    x = sp.SimpSet(trunc, levels, faces, name)
    count = 1
    attempt = 0
    while count < max_nondeg and attempt < 200:
        attempt += 1
        if rng.random() < 0.35 or sum(x.level_sizes()) == count == 1:
            sid = "v%d" % len(x.levels[0])
            levels = [list(l) for l in x.levels]
            levels[0].append(sid)
            x = sp.SimpSet(trunc, levels, dict(x.faces), name)
            count += 1
            continue
        k = rng.randint(1, min(trunc, 2))
        boundary = (_sample_boundary(rng, x, k, per_position=True) if per_position
                    else _sample_boundary(rng, x, k))
        if boundary is None:
            continue
        sid = "s%d.%d" % (k, count)
        levels = [list(l) for l in x.levels]
        levels[k].append(sid)
        faces = dict(x.faces)
        for i, v in enumerate(boundary):
            faces[(sid, i)] = v
        x = sp.SimpSet(trunc, levels, faces, name)
        count += 1
    return x.validate()


def _sample_boundary(rng, x: sp.SimpSet, k, per_position=False):
    """A tuple of k+1 values at level k-1 satisfying the simplicial
    identities: the first :func:`fc.backtrack` finds in a shuffled pool."""
    pool = x.full_level(k - 1)
    if not pool:
        return None
    orders = [list(pool) for _ in range(k + 1 if per_position else 1)]
    for order in orders:
        rng.shuffle(order)

    def compatible(j, vals):
        return all(x.apply(sp.mt_delta(i, k - 1), vals[j]) ==
                   x.apply(sp.mt_delta(j - 1, k - 1), vals[i]) for i in range(j))

    vals = next(fc.backtrack(range(k + 1), lambda j, _: orders[j if per_position else 0],
                             compatible if k >= 2 else None), None)
    return None if vals is None else tuple(vals.values())


def random_split_terminal(rng, trunc, max_nondeg=8, name="R"):
    """A random split object over the terminal site."""
    from .fixtures import terminal_site
    site = terminal_site()
    return sp.as_split(site.cat, random_simpset(rng, trunc, max_nondeg, name),
                       "*", name)


def random_split_over(rng, site: Site, trunc, name="R"):
    """A random split object over a poset site: a coproduct of tensors of
    random simplicial sets with constant carriers, plus (sometimes) the
    nerve of a random labeled diagram for nontrivial face parts."""
    parts = []
    for i in range(rng.randint(1, 2)):
        s = rng.choice(list(site.cat.objects))
        k = random_simpset(rng, trunc, max_nondeg=rng.randint(1, 4),
                           name="%s%d" % (name, i))
        parts.append(sp.tensor(k, sp.constant_split(site.cat, s, trunc)))
    if rng.random() < 0.5:
        d = random_diaobj(rng, site, max_objects=3)
        parts.append(dg.nerve(d, trunc))
    return sp.coproduct_split(parts, name)


def random_diamor(rng, d1: dg.DiaObj, d2: dg.DiaObj):
    pool = dg.all_dia_mors(d1, d2)
    if not pool:
        return None
    return pool[rng.randrange(len(pool))]


def random_dia_functor(rng, site: Site, max_base=3, max_shape=2, name="F"):
    """A strict random functor into diagrams over a poset base: values on
    covers are sampled and composites forced (diamonds are rejection
    sampled)."""
    for _ in range(300):
        base = random_poset(rng, max_base, "B")
        obs = {a: random_diaobj(rng, site, max_shape, "F%s" % a)
               for a in base.objects}
        mos = {base.id_of(a): dg.DiaMor.identity(obs[a]) for a in base.objects}
        nonid = [m for m in base.morphisms if not base.is_identity(m.id)]
        ok = True
        for mid in fc.generators(base):
            cand = random_diamor(rng, obs[base.dom(mid)], obs[base.cod(mid)])
            if cand is None:
                ok = False
                break
            mos[mid] = cand
        if not ok:
            continue
        for m in nonid:
            if m.id in mos:
                continue
            done = False
            for f in nonid:
                for g in nonid:
                    if f.cod == g.dom and base.comp(g.id, f.id) == m.id \
                            and f.id in mos and g.id in mos:
                        mos[m.id] = mos[f.id].then(mos[g.id])
                        done = True
                        break
                if done:
                    break
            if not done:
                ok = False
                break
        if not ok or len(mos) != len(base.morphisms):
            continue
        try:
            return dg.DiaFunctor(base, obs, mos, name).validate()
        except DiacatsError:
            continue
    raise RuntimeError("could not sample a strict diagram functor")
