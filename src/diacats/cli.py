"""Batch command-line front end: load JSON inputs, run constructions and
checkers, emit JSON reports (and optional DOT exports).

Exit codes: 0 = all checks pass, 1 = a property violation, 2 = input or
schema error (a record with a missing key or a wrong type, or an id its
category or universe does not have).  Identical inputs and flags produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter

from . import algtop as at
from . import diagram as dg
from . import fincat as fc
from . import fixtures as fx
from . import fractions as fr
from . import homotopy as ht
from . import jsonio as io
from . import localizer as lc
from . import simplicial as sp
from .errors import (
    DiacatsError,
    InvalidFunctor,
    InvalidNatTransf,
    InvalidSimplicial,
    SchemaError,
)


BUNDLED_SITES = {
    "terminal": fx.terminal_site,
    "sierpinski": fx.sierpinski_site,
    "pseudocircle": fx.pseudocircle_site,
}


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc))


def _load_site(spec):
    if spec in BUNDLED_SITES:
        return BUNDLED_SITES[spec]()
    return io.decode_site(_load_json(spec))


def _member_ids(path, u, what):
    """The set of universe morphism ids listed in the JSON file at `path`
    (empty without one)."""
    return set(io.decode_ids(_load_json(path), u.morphisms, what)) if path else set()


def _emit(args, payload):
    text = io.dumps(payload)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit_dot(args, cat):
    if args.dot:
        with open(args.dot, "w") as f:
            f.write(fc.to_dot(cat) + "\n")


def cmd_validate(args):
    if args.site:
        site = _load_site(args.site)
        from .site import validate_pretopology
        report = validate_pretopology(site)
        _emit(args, {"command": "validate", "pretopology_violations": report})
        return 0 if not report else 1
    cat = io.decode_fincat(_load_json(args.cat))
    _emit_dot(args, cat)
    _emit(args, {"command": "validate", "objects": len(cat.objects),
                 "morphisms": len(cat.morphisms), "valid": True})
    return 0


def cmd_nerve(args):
    site = _load_site(args.site)
    d = io.decode_diagram(_load_json(args.dia), site)
    nv = dg.nerve(d, args.trunc)
    _emit(args, {"command": "nerve", "levels": [len(l) for l in nv.levels],
                 "object": io.encode_split(nv)})
    return 0


def cmd_groth(args):
    F = io.decode_dia_functor(_load_json(args.functor), _load_site(args.site))
    gro, proj, _ = dg.grothendieck_construction(F)
    ok, _ = fc.is_opfibration(proj)
    _emit_dot(args, gro.shape)
    _emit(args, {"command": "groth", "objects": len(gro.shape.objects),
                 "opfibration": ok, "diagram": io.encode_diagram(gro)})
    return 0 if ok else 1


def cmd_int_amalg(args):
    site = _load_site(args.site)
    x = io.decode_split(_load_json(args.ssimp), site)
    ia = ht.int_amalg(x, args.trunc)
    _emit_dot(args, ia.dia.shape)
    _emit(args, {"command": "int-amalg",
                 "objects": len(ia.dia.shape.objects),
                 "morphisms": len(ia.dia.shape.morphisms),
                 "diagram": io.encode_diagram(ia.dia)})
    return 0


def cmd_hocolim(args):
    xd = io.decode_split_functor(_load_json(args.functor), _load_site(args.site))
    diag = ht.hocolim_bk(xd, args.trunc)
    _emit(args, {"command": "hocolim", "levels": [len(l) for l in diag.levels],
                 "object": io.encode_split(diag)})
    return 0


def cmd_holim(args):
    shape, obs, mos = io.decode_simp_functor(_load_json(args.functor))
    h = ht.holim_end(shape, obs, mos, args.trunc)
    _emit(args, {"command": "holim", "levels": [len(l) for l in h.levels],
                 "object": io.encode_simpset(h)})
    return 0


def cmd_cech(args):
    site = _load_site(args.site)
    family = io.decode_ids(args.family, [m.id for m in site.cat.morphisms], "--family")
    u, aug = sp.cech_cover(site, family, args.trunc)
    _emit(args, {"command": "cech", "levels": [len(l) for l in u.levels],
                 "object": io.encode_split(u)})
    return 0


def cmd_homology(args):
    if args.ssimp:
        site = _load_site(args.site)
        x = io.decode_split(_load_json(args.ssimp), site).uset
    else:
        x = io.decode_simpset(_load_json(args.simp))
    cc = at.chain_complex(x)
    h = at.homology_of_complex(cc)
    if args.csv:
        with open(args.csv, "w") as f:
            for k in range(1, cc.trunc + 1):
                f.write("# boundary %d\n" % k)
                f.write(io.matrix_csv(cc.boundary_dense(k)) + "\n")
    _emit(args, {"command": "homology", "report": io.homology_report(h),
                 "pi0": at.pi0(x)})
    return 0


def cmd_quasi_iso(args):
    v = at.quasi_iso(io.decode_simp_map(_load_json(args.map)))
    _emit(args, {"command": "quasi-iso", "report": io.quasi_iso_report(v)})
    return 0 if v.ok else 1


def cmd_localizer_check(args):
    u = io.decode_universe(_load_json(args.universe))
    w = lc.MorClass(_member_ids(args.weq, u, "--weq"))
    ws = lc.check_ws(w, u)
    l2, l2_missing = lc.check_L2(w, u)
    l3, l3_skipped = lc.check_L3(w, u, args.refine_bound)
    l4 = lc.check_L4(w, u)
    payload = {"command": "localizer-check",
               "ws": ws, "l2": l2, "l2_missing": l2_missing,
               "l3": l3, "l3_skipped": len(l3_skipped), "l4": l4}
    _emit(args, payload)
    return 0 if not (ws or l2 or l3 or l4) else 1


def cmd_localizer_closure(args):
    u = io.decode_universe(_load_json(args.universe))
    seed = lc.MorClass(_member_ids(args.seed_file, u, "--seed-file"))
    for mid in seed.members:
        seed.provenance[mid] = ("SEED",)
    w = lc.closure_fixpoint(seed, u, refine_bound=args.refine_bound)
    _emit(args, {"command": "localizer-closure",
                 "admissions": Counter(why[0] for why in w.provenance.values()),
                 "members": sorted(w.members),
                 "provenance": {m: list(map(str, w.provenance[m]))
                                for m in sorted(w.members)},
                 "skipped_l3": len(w.skipped_l3)})
    return 0


def cmd_localize(args):
    cat = io.decode_fincat(_load_json(args.cat))
    w = set(io.decode_ids(_load_json(args.weq), [m.id for m in cat.morphisms], "--weq"))
    lc_ = fr.localize_fractions(cat, w)
    _emit(args, io.encode_localized(lc_))
    return 0


def cmd_tw(args):
    cat = io.decode_fincat(_load_json(args.cat))
    res = fc.twisted_arrow(cat, args.variant)
    _emit_dot(args, res[0])
    _emit(args, {"command": "tw", "variant": args.variant,
                 "category": io.encode_fincat(res[0])})
    return 0


def cmd_limits(args):
    cat = io.decode_fincat(_load_json(args.cat))
    if args.product:
        a, b = io.decode_ids(args.product, cat.objects, "--product")
        res = fc.product(cat, a, b)
        _emit(args, {"command": "limits", "product": list(args.product),
                     "result": None if res is None else
                     {"apex": res[0], "legs": res[1]}})
        return 0
    if args.pullback:
        f, g = io.decode_ids(args.pullback, [m.id for m in cat.morphisms], "--pullback")
        res = fc.pullback(cat, f, g)
        _emit(args, {"command": "limits", "pullback": list(args.pullback),
                     "result": None if res is None else
                     {"apex": res[0], "leg_f": res[1], "leg_g": res[2]}})
        return 0
    raise SchemaError("limits needs --product or --pullback")


# ---------------------------------------------------------------------------
# named property comparisons on bundled examples


def _compare_propfwd(args, rng):
    site = fx.pseudocircle_site()
    from .randgen import random_diaobj
    d = random_diaobj(rng, site, max_objects=3)
    rep = ht.counit_fiber_check(d, min(args.trunc, 3))
    ok = all(iso and init is not None for (_, iso, init) in rep)
    return ok, {"instances": [[i, iso, init] for (i, iso, init) in rep]}


def _compare_theoremback(args, rng):
    from .randgen import random_split_terminal
    x = random_split_terminal(rng, trunc=2, max_nondeg=6)
    cmp_mor, _ = ht.comparison_to_simp(x, 2, 2, budget=300_000)
    v = at.quasi_iso(cmp_mor.underlying())
    return v.ok, {"verdict": io.quasi_iso_report(v)}


def _compare_hocolimnerve(args, rng):
    site = fx.pseudocircle_site()
    cat = site.cat
    c1 = fc.chain_category(1)
    lbls = {"0": "{a,b,c}", "1": "{a,b,c,d}"}
    lab = fc.FinFunctor("F", c1, cat, lbls,
                        {m.id: "%s<=%s" % (lbls[m.dom], lbls[m.cod])
                         for m in c1.morphisms}).validate()
    d = dg.DiaObj(c1, lab, "d").validate()
    f_parts = {i: "%s<={a,b,c,d}" % lbls[i] for i in c1.objects}
    x = sp.constant_split(cat, "{a,b,d}", min(args.trunc, 3))
    aug = {nd: "{a,b,d}<={a,b,c,d}" for l in x.levels for nd in l}
    bij, lhs, rhs = ht.hocolim_nerve_check(site, d, f_parts, x, aug, min(args.trunc, 3))
    return bij is not None, {"iso": bij is not None,
                             "levels": [len(l) for l in lhs.levels]}


def _compare_pointwiseint(args, rng):
    from .randgen import random_split_over
    site = fx.pseudocircle_site()
    x = random_split_over(rng, site, trunc=2)
    ok, err = ht.check_pointwise_int(site, "{a}", x, 2)
    return ok, {"error": err}


def _compare_pointwisenerve(args, rng):
    from .randgen import random_diaobj
    site = fx.pseudocircle_site()
    d = random_diaobj(rng, site, max_objects=4)
    ok = ht.check_pointwise_nerve(site, "{a}", d, min(args.trunc, 3))
    return ok, {}


def _compare_derlocalizer(args, rng):
    from .randgen import random_dia_functor
    site = fx.pseudocircle_site()
    F = random_dia_functor(rng, site, max_base=2, max_shape=2)
    gro, proj, _ = dg.grothendieck_construction(F)
    trunc = min(args.trunc, 3)
    h1 = at.homology(dg.nerve(gro, trunc).uset)
    xd = dg.nerve_diagram(F, trunc)
    diag = ht.hocolim_bk(xd, trunc)
    h2 = at.homology(diag.uset)
    ok = (h1.betti == h2.betti and h1.torsion == h2.torsion)
    return ok, {"groth": io.homology_report(h1), "hocolim": io.homology_report(h2)}


COMPARE = {
    "propfwd": _compare_propfwd,
    "theoremback": _compare_theoremback,
    "hocolimnerve": _compare_hocolimnerve,
    "pointwiseint": _compare_pointwiseint,
    "pointwisenerve": _compare_pointwisenerve,
    "derlocalizer": _compare_derlocalizer,
}


def cmd_compare(args):
    rng = random.Random(args.seed)
    fn = COMPARE.get(args.check)
    if fn is None:
        raise SchemaError("unknown comparison %r (have: %s)"
                          % (args.check, ", ".join(sorted(COMPARE))))
    ok, detail = fn(args, rng)
    _emit(args, {"command": "compare", "check": args.check, "ok": ok,
                 "seed": args.seed, "detail": detail})
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def _natural(text):
    """argparse type of a non-negative int."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected a non-negative integer, got %r" % text)
    return int(text)


def _positive(text):
    """argparse type of an int >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("expected an integer >= 1, got %r" % text)
    return int(text)


def _flag(*names, **kwargs):
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser():
    out = _flag("--out", default=None)
    trunc = _flag("--trunc", type=_natural, default=6,
                  help="truncation dimension (default 6)")
    seed = _flag("--seed", type=int, default=0)
    refine = _flag("--refine-bound", dest="refine_bound", type=_positive, default=2)
    dot = _flag("--dot", default=None)
    p = argparse.ArgumentParser(prog="diacats",
                                description="finite-category homotopy toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, *flags):
        """A subcommand with --out and the flags it reads."""
        return sub.add_parser(name, parents=[out, *flags])

    sp_ = add_parser("validate", dot)
    sp_.add_argument("--cat")
    sp_.add_argument("--site")
    sp_.set_defaults(fn=cmd_validate)

    sp_ = add_parser("nerve", trunc)
    sp_.add_argument("--dia", required=True)
    sp_.add_argument("--site", required=True)
    sp_.set_defaults(fn=cmd_nerve)

    sp_ = add_parser("groth", dot)
    sp_.add_argument("--functor", required=True)
    sp_.add_argument("--site", required=True)
    sp_.set_defaults(fn=cmd_groth)

    sp_ = add_parser("int-amalg", trunc, dot)
    sp_.add_argument("--ssimp", required=True)
    sp_.add_argument("--site", required=True)
    sp_.set_defaults(fn=cmd_int_amalg)

    sp_ = add_parser("hocolim", trunc)
    sp_.add_argument("--functor", required=True)
    sp_.add_argument("--site", required=True)
    sp_.set_defaults(fn=cmd_hocolim)

    sp_ = add_parser("holim", trunc)
    sp_.add_argument("--functor", required=True)
    sp_.set_defaults(fn=cmd_holim)

    sp_ = add_parser("cech", trunc)
    sp_.add_argument("--site", required=True)
    sp_.add_argument("--family", nargs="+", required=True)
    sp_.set_defaults(fn=cmd_cech)

    sp_ = add_parser("homology")
    sp_.add_argument("--simp")
    sp_.add_argument("--ssimp")
    sp_.add_argument("--site")
    sp_.add_argument("--csv", default=None,
                     help="also export the boundary matrices as CSV")
    sp_.set_defaults(fn=cmd_homology)

    sp_ = add_parser("quasi-iso")
    sp_.add_argument("--map", required=True)
    sp_.set_defaults(fn=cmd_quasi_iso)

    sp_ = add_parser("localizer-check", refine)
    sp_.add_argument("--universe", required=True)
    sp_.add_argument("--weq")
    sp_.set_defaults(fn=cmd_localizer_check)

    sp_ = add_parser("localizer-closure", refine)
    sp_.add_argument("--universe", required=True)
    sp_.add_argument("--seed-file", dest="seed_file", default=None)
    sp_.set_defaults(fn=cmd_localizer_closure)

    sp_ = add_parser("localize")
    sp_.add_argument("--cat", required=True)
    sp_.add_argument("--weq", required=True)
    sp_.set_defaults(fn=cmd_localize)

    sp_ = add_parser("tw", dot)
    sp_.add_argument("--cat", required=True)
    sp_.add_argument("--variant", choices=["tw", "twc"], default="tw")
    sp_.set_defaults(fn=cmd_tw)

    sp_ = add_parser("limits")
    sp_.add_argument("--cat", required=True)
    sp_.add_argument("--product", nargs=2)
    sp_.add_argument("--pullback", nargs=2)
    sp_.set_defaults(fn=cmd_limits)

    sp_ = add_parser("compare", trunc, seed)
    sp_.add_argument("check")
    sp_.set_defaults(fn=cmd_compare)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, InvalidSimplicial, InvalidFunctor, InvalidNatTransf) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 2
    except DiacatsError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
