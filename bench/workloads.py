"""The four benchmark workloads and their output checks.

Each workload builds its inputs in ``setup(seed, size)`` and returns a list
of instances.  An instance has a ``verdict`` (the program call that is
timed) and a ``check`` (run outside the timed region) that returns the
problems found in the verdict and a fingerprint of the counts that depend
only on the inputs: chains built, homology, closure members and admissions.

Only ``comparison`` draws random inputs; the other workloads ignore the
seed.  ``size`` is ``full`` for the benchmark and ``tiny`` for the smoke
test.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from diacats import algtop as at
from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import homotopy as ht
from diacats import localizer as lc
from diacats import randgen as rg
from diacats import simplicial as sp

TRUNC = 2  # element categories and their nerves, as in criteria 01/11 companions


@dataclass
class Instance:
    label: str
    verdict: Callable[[], object]
    check: Callable[[object], tuple]


def _homology_of_elements(base):
    """element category -> nerve -> chain complex -> SNF, at truncation 2."""
    el, _, _ = ht.int_simpset(base, TRUNC)
    nerve = sp.nerve_of_category(el, TRUNC)
    return el, nerve, at.homology(nerve)


def _homology_fingerprint(el, nerve, h):
    """Problems common to the homology workloads, and the fingerprint."""
    problems = []
    chains = [len(l) for l in nerve.levels]
    forecast = ht.forecast_nerve(el, TRUNC)
    if chains != forecast:
        problems.append("chains %s != forecast %s" % (chains, forecast))
    if h.valid_range < 1:
        problems.append("valid_range %d < 1" % h.valid_range)
    degrees = range(h.valid_range + 1)
    fp = {"chains": chains,
          "betti": [h.betti.get(k, 0) for k in degrees],
          "torsion": [h.torsion.get(k, []) for k in degrees]}
    return problems, fp


# -- gadget ------------------------------------------------------------------

# Delta_n x Delta_m is isomorphic to Delta_m x Delta_n, so n <= m covers the
# criterion 11 gadget; (2, 2) alone takes about 40 s and does not fit a run.
GADGET = {"full": [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)],
          "tiny": [(0, 0), (0, 1)]}


def gadget_setup(seed, size):
    out = []
    for n, m in GADGET[size]:
        base, _, _, _ = sp.simpset_product(sp.delta_simpset(n, TRUNC),
                                           sp.delta_simpset(m, TRUNC))

        def check(res):
            el, nerve, h = res
            problems, fp = _homology_fingerprint(el, nerve, h)
            if not h.is_point():
                problems.append("not a homology point: %r" % h)
            return problems, fp

        out.append(Instance("D%dxD%d" % (n, m),
                            lambda b=base: _homology_of_elements(b), check))
    return out


# -- torsion -----------------------------------------------------------------


def rp2():
    """RP^2 with one vertex v, one edge a and one triangle s:
    d0 s = d2 s = a and d1 s = s0 v."""
    v, a = ((0,), "v"), ((0, 1), "a")
    faces = {("a", 0): v, ("a", 1): v,
             ("s", 0): a, ("s", 1): ((0, 0), "v"), ("s", 2): a}
    return sp.SimpSet(TRUNC, [["v"], ["a"], ["s"]], faces, "RP2").validate()


# (base, expected H1 torsion); every base has H0 = Z and b1 = 0.
# RP^2 x Delta_2 (about 9 s) does not fit a run next to the others.
TORSION = {"full": [("RP2", [2]), ("RP2xD1", [2]), ("RP2xRP2", [2, 2])],
           "tiny": [("RP2", [2])]}


def torsion_setup(seed, size):
    p = rp2()
    bases = {"RP2": p,
             "RP2xD1": sp.simpset_product(p, sp.delta_simpset(1, TRUNC))[0],
             "RP2xRP2": sp.simpset_product(p, p)[0]}
    out = []
    for label, tors in TORSION[size]:

        def check(res, tors=tors):
            el, nerve, h = res
            problems, fp = _homology_fingerprint(el, nerve, h)
            if fp["betti"][:2] != [1, 0] or fp["torsion"][:2] != [[], tors]:
                problems.append("expected H0 = Z, H1 = %s, got %r" % (tors, h))
            return problems, fp

        out.append(Instance(label, lambda b=bases[label]: _homology_of_elements(b),
                            check))
    return out


# -- comparison --------------------------------------------------------------

# Nondegenerate simplex counts per level of the objects used.  The seed
# chooses the faces; fixing the counts fixes the forecast sizes, so the
# cost of a pass does not swing with the seed.  These are among the most
# frequent counts of randgen.random_split_terminal(rng, 3, 8), each about
# one draw in ten.  A fixed number of draws keeps the set-up cost the same
# for every seed; a profile is missing from 200 draws with odds below 1e-7.
PROFILES = {"full": [(4, 2, 2), (4, 3, 1), (5, 2, 1)],
            "tiny": [(4, 2, 2)]}
DRAWS = 200


def _draw(rng, profiles):
    """The first object of each profile among DRAWS seeded draws."""
    found = {}
    for _ in range(DRAWS):
        x = rg.random_split_terminal(rng, 3, 8)
        found.setdefault(tuple(len(l) for l in x.levels[:3]), x)
    missing = [p for p in profiles if p not in found]
    if missing:
        raise RuntimeError("no object with profile %s in %d draws" % (missing, DRAWS))
    return [found[p] for p in profiles]


def _comparison_verdict(x):
    cmp_mor, _ = ht.comparison_to_simp(x, TRUNC, TRUNC, budget=500_000)
    return cmp_mor, at.quasi_iso(cmp_mor.underlying())


def comparison_setup(seed, size):
    out = []
    for profile, x in zip(PROFILES[size], _draw(random.Random(seed), PROFILES[size])):

        def check(res, x=x, profile=profile):
            cmp_mor, v = res
            problems = []
            if not v.ok:
                problems.append("not a quasi-isomorphism: %s" % v.detail)
            if v.valid_range < 1:
                problems.append("valid_range %d < 1" % v.valid_range)
            chains = [len(l) for l in cmp_mor.src.levels]
            forecast = ht.forecast_int_nerve(x, TRUNC, TRUNC)
            if chains != forecast:
                problems.append("chains %s != forecast %s" % (chains, forecast))
            faces = repr(sorted(x.uset.faces.items())).encode()
            return problems, {"profile": list(profile), "chains": chains,
                              "faces": hashlib.sha256(faces).hexdigest()[:16]}

        out.append(Instance("R%d.%d.%d" % profile,
                            lambda x=x: _comparison_verdict(x), check))
    return out


# -- closure -----------------------------------------------------------------

# Criterion 08 runs every poset shape with |I| <= 3 (485 morphisms, about
# 21 s per closure); this subset keeps the connected 3-element shapes C3 and
# V and closes in a few seconds.  The span universe is criterion 09's first
# one (Grothendieck construction with 4 objects); the 5-object ones take
# 16-24 s each.
POSET_SHAPES = {"full": ["E0", "P1", "C2", "D2", "C3", "V"],
                "tiny": ["E0", "P1", "C2", "D2"]}
SPANS = {"full": [("I1", "pt")], "tiny": []}  # (y, w) of the span pt <- y -> w


def _constant(shape, site, name):
    return dg.DiaObj(shape, fc.FinFunctor.constant(shape, site.cat, "*"),
                     name).validate()


def _closure_verdict(u, sound_trunc):
    w = lc.closure_fixpoint(lc.MorClass(), u, trunc=3, refine_bound=2)
    return (w, lc.nerve_soundness_report(w, u, sound_trunc), lc.check_L2(w, u),
            lc.check_ws(w, u), lc.replay_provenance(w, u))


def _closure_check(required):
    def check(res):
        w, unsound, (l2_viol, l2_missing), ws_viol, unreplayed = res
        problems = []
        for what, bad in (("unsound", unsound), ("L2 violations", l2_viol),
                          ("L2 missing", l2_missing), ("WS violations", ws_viol),
                          ("unreplayed", unreplayed)):
            if bad:
                problems.append("%s: %s" % (what, bad[:5]))
        for what, mid in required:
            if mid is None or mid not in w.members:
                problems.append("%s not admitted" % what)
        rules = Counter(why[0] for why in w.provenance.values())
        digest = hashlib.sha256(",".join(sorted(w.members)).encode()).hexdigest()
        return problems, {"members": len(w.members), "digest": digest[:16],
                          "admissions": dict(sorted(rules.items()))}
    return check


def closure_setup(seed, size):
    site = fx.terminal_site()
    shapes = {s.name: s for s in lc.poset_shapes(3)}
    names = POSET_SHAPES[size]
    poset = lc.universe_from(site, [_constant(shapes[n], site, n) for n in names],
                             all_mors=True)
    out = [Instance("posets(%s)" % ",".join(names),
                    lambda: _closure_verdict(poset, 4), _closure_check([]))]
    pt = dg.point_dia(site.cat, "*", "pt")
    interval = _constant(fc.chain_category(1), site, "I1")
    dias = {"I1": interval, "pt": pt}
    for yname, wname in SPANS[size]:
        y, wd = dias[yname], dias[wname]
        f = dg.all_dia_mors(y, pt)[0]
        g = dg.all_dia_mors(y, wd)[0]
        gro, _, incl = dg.grothendieck_construction(dg.span_diafunctor(f, g))
        u = lc.universe_from(site, [y, pt, wd, gro], all_mors=True)
        required = [("f", u.lookup(f)), ("iota_3", u.lookup(incl["b"]))]
        out.append(Instance("span(pt<-%s->%s)" % (yname, wname),
                            lambda u=u: _closure_verdict(u, 3),
                            _closure_check(required)))
    return out


WORKLOADS = {"gadget": gadget_setup, "torsion": torsion_setup,
             "comparison": comparison_setup, "closure": closure_setup}
SEEDED = {"comparison"}
