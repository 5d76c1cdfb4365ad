"""Localizer-axiom checking over a finite diagram universe and the sound
fixpoint under-approximation of the smallest localizer.

A universe fixes finitely many diagrams and morphisms (closed under
composition).  Rule instances whose auxiliary data (comma fibers, covers)
cannot be resolved inside the universe are skipped and reported.  The
closure engine is monotone on a finite lattice, records provenance per
admitted member, and never claims completeness: it computes a sound
under-approximation of the smallest localizer restricted to the universe.

Comma fibers are resolved up to isomorphism: the auxiliary comma diagram is
translated onto a universe object by label-respecting isomorphism search;
membership of the translated morphism is what the rules consult
(membership of a localizer is isomorphism-invariant by weak saturation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import algtop as at
from . import diagram as dg
from . import fincat as fc
from .errors import LimitAbsent, TargetMismatch
from .site import Site


@dataclass
class UMor:
    id: str
    src: str
    tgt: str
    mor: dg.DiaMor


def _parts(omap, mmap, lt):
    """The structural part of a morphism key besides its endpoints."""
    return (tuple(sorted(omap.items())), tuple(sorted(mmap.items())),
            tuple(sorted(lt.items())))


class DiagramUniverse:
    """Diagrams and morphisms hash-consed by structure on entry.

    An object is keyed by `DiaObj.key` once, in `add_object` or
    `lookup_object`.  A morphism is indexed by its endpoint ids and the
    sorted parts of its shape map and label transformation; endpoint ids are
    unique per structural key, so this index is equivalent to keying the
    whole morphism by structure, and callers that already know the endpoint
    ids (composition, translated comma maps) key no diagram.
    """

    def __init__(self, site: Site):
        self.site = site
        self.objects = {}
        self.morphisms = {}
        self.comp = {}
        self.identity = {}
        self._okey = {}
        self._index = {}
        self._next = [0, 0]

    def add_object(self, d: dg.DiaObj) -> str:
        k = d.key()
        if k in self._okey:
            return self._okey[k]
        oid = "D%d" % self._next[0]
        self._next[0] += 1
        self.objects[oid] = d
        self._okey[k] = oid
        return oid

    def _insert(self, key, m: dg.DiaMor) -> str:
        mid = "m%d" % self._next[1]
        self._next[1] += 1
        self.morphisms[mid] = UMor(mid, key[0], key[1], m)
        self._index[key] = mid
        return mid

    def add_morphism(self, m: dg.DiaMor) -> str:
        key = (self.add_object(m.src), self.add_object(m.tgt)) + _parts(
            m.shape_map.object_map, m.shape_map.morphism_map, m.label_transf)
        mid = self._index.get(key)
        return mid if mid is not None else self._insert(key, m)

    def lookup(self, m: dg.DiaMor):
        src = self.lookup_object(m.src)
        tgt = self.lookup_object(m.tgt)
        if src is None or tgt is None:
            return None
        return self.lookup_parts(src, tgt, m.shape_map.object_map,
                                 m.shape_map.morphism_map, m.label_transf)

    def lookup_parts(self, src: str, tgt: str, omap, mmap, lt):
        """The id of the morphism src -> tgt with these shape maps and label
        parts, or None; no diagram is keyed."""
        return self._index.get((src, tgt) + _parts(omap, mmap, lt))

    def lookup_object(self, d: dg.DiaObj):
        return self._okey.get(d.key())

    def close_composition(self):
        for oid, d in list(self.objects.items()):
            self.identity[oid] = self.add_morphism(dg.DiaMor.identity(d))
        changed = True
        while changed:
            changed = False
            mors = list(self.morphisms.items())
            by_src = {}
            for mid, um in mors:
                by_src.setdefault(um.src, []).append((mid, um))
            for fid, fm in mors:
                for gid, gm in by_src.get(fm.tgt, []):
                    if (gid, fid) in self.comp:
                        continue
                    maps = dg.composite_maps(fm.mor, gm.mor)
                    key = (fm.src, gm.tgt) + _parts(*maps)
                    hid = self._index.get(key)
                    if hid is None:
                        hid = self._insert(key, dg.composite(fm.mor, gm.mor, *maps))
                        changed = True
                    self.comp[(gid, fid)] = hid
        return self

    def validate(self):
        """Check the index and the composition table.

        Each morphism's endpoint ids must be the ids of its diagrams, as the
        index relies on; each table entry must pair composable ids and name
        their composite, compared by maps and label parts."""
        for mid, um in self.morphisms.items():
            if (self.lookup_object(um.mor.src), self.lookup_object(um.mor.tgt)) \
                    != (um.src, um.tgt):
                raise TargetMismatch("endpoint ids of %r are not its diagrams'" % mid)
        for (g, f), h in self.comp.items():
            fm, gm = self.morphisms[f], self.morphisms[g]
            if fm.tgt != gm.src:
                raise TargetMismatch("composition table pairs non-composable ids")
            hm = self.morphisms.get(h)
            if hm is None:
                raise TargetMismatch("composite %r missing" % h)
            if (fm.src, gm.tgt) != (hm.src, hm.tgt) or dg.composite_maps(fm.mor, gm.mor) \
                    != (hm.mor.shape_map.object_map, hm.mor.shape_map.morphism_map,
                        hm.mor.label_transf):
                raise TargetMismatch("comp[(%r, %r)] = %r is not their composite"
                                     % (g, f, h))
        return self


@dataclass
class MorClass:
    members: set = field(default_factory=set)
    provenance: dict = field(default_factory=dict)

    def admit(self, mid, why):
        if mid not in self.members:
            self.members.add(mid)
            self.provenance[mid] = why
            return True
        return False

    def copy(self):
        return MorClass(set(self.members), dict(self.provenance))


# ---------------------------------------------------------------------------
# shape classification (quotient by isomorphism)


class ShapeTranslator:
    """Translate an arbitrary diagram onto a universe object via
    label-respecting isomorphism search, caching results by structural key."""

    def __init__(self, universe: DiagramUniverse):
        self.u = universe
        self.cache = {}

    def translate(self, d: dg.DiaObj):
        """Return (oid, iso FinFunctor d.shape -> universe shape) or None.

        A diagram of the universe translates by the identity; any other
        onto the first universe object whose shape has an isomorphism
        carrying the labels of d onto its labels on the nose."""
        k = d.key()
        if k in self.cache:
            return self.cache[k]
        oid = self.u._okey.get(k)
        self.cache[k] = (self._find_copy(d) if oid is None
                         else (oid, fc.FinFunctor.identity(d.shape)))
        return self.cache[k]

    def _find_copy(self, d: dg.DiaObj):
        for oid, cand in self.u.objects.items():
            if len(cand.shape.objects) != len(d.shape.objects):
                continue
            if sorted(cand.labels.object_map.values()) != \
                    sorted(d.labels.object_map.values()):
                continue
            iso = fc.find_isomorphism(d.shape, cand.shape,
                                      labels=(d.labels, cand.labels))
            if iso is not None:
                return oid, iso
        return None

    def translate_mor(self, m: dg.DiaMor):
        """The universe morphism conjugate to m by the translations of m.src
        and m.tgt, found by endpoint ids and maps in universe coordinates;
        None when either endpoint or the conjugate is absent."""
        rs, rt = self.translate(m.src), self.translate(m.tgt)
        if rs is None or rt is None:
            return None
        (so, siso), (to, tiso) = rs, rt
        sob, tob = siso.object_map, tiso.object_map
        smo, tmo = siso.morphism_map, tiso.morphism_map
        a = m.shape_map
        return self.u.lookup_parts(
            so, to, {sob[x]: tob[y] for x, y in a.object_map.items()},
            {smo[f]: tmo[g] for f, g in a.morphism_map.items()},
            {sob[x]: p for x, p in m.label_transf.items()})


# ---------------------------------------------------------------------------
# rule instance enumeration


def _final_collapse(d: dg.DiaObj):
    """The (L2) collapse (I, F) -> (e, F(e)) when a final object exists."""
    e = fc.detect_extremal(d.shape)["final"]
    if e is None:
        return None
    pt = dg.point_dia(d.scat, d.labels.ob(e))
    shape_map = fc.FinFunctor("!e", d.shape, pt.shape,
                              {x: "*" for x in d.shape.objects},
                              {m.id: "id_*" for m in d.shape.morphisms})
    lt = {x: d.labels.mo(d.shape.hom(x, e)[0]) for x in d.shape.objects}
    return dg.DiaMor(d, pt, shape_map, lt, "collapse")


def ws_instances(u: DiagramUniverse):
    """(WS1), (WS2), (WS3) instances over the universe."""
    ws1 = list(u.identity.values())
    identities = set(ws1)
    ws2 = [(f, g, h) for (g, f), h in u.comp.items()]
    ws3 = []
    for (p, s), h in u.comp.items():
        if h in identities and (s, p) in u.comp:
            ws3.append((p, s, u.comp[(s, p)]))
    return ws1, ws2, ws3


def l2_instances(u: DiagramUniverse, translator: ShapeTranslator = None):
    """(oid, collapse mid or None) per diagram with a final object."""
    translator = translator or ShapeTranslator(u)
    out = []
    for oid, d in u.objects.items():
        c = _final_collapse(d)
        if c is None:
            continue
        out.append((oid, translator.translate_mor(c)))
    return out


def cover_families(site: Site, x: str, refine_bound: int = 2):
    """Declared families of x plus refinement chains up to the bound."""
    fams = [tuple(f) for f in site.families_of(x)]
    depth = 1
    frontier = list(fams)
    while depth < refine_bound:
        depth += 1
        nxt = []
        for fam in frontier:
            for i, m in enumerate(fam):
                for sub in site.families_of(site.cat.dom(m)):
                    if sub == [site.cat.id_of(site.cat.dom(m))]:
                        continue
                    newfam = tuple(fam[:i] + tuple(
                        site.cat.comp(m, m2) for m2 in sub) + fam[i + 1:])
                    if newfam not in fams:
                        fams.append(newfam)
                        nxt.append(newfam)
        frontier = nxt
    return [list(f) for f in fams]


def l3_instances(u: DiagramUniverse, refine_bound: int = 2,
                 translator: ShapeTranslator = None):
    """Triangles (w over D3) with per-(k, cover) comma morphisms resolved
    in the universe.

    Returns (instances, skipped): an instance is (w, p2, [(k, [(family,
    [comma mids])])]); skipped records triangles whose commas are missing.

    A comma product depends on one universe morphism, not on the triangle:
    each `p x_{/D3} (k, U_member)` is built and translated once per
    (morphism id, k, member) and kept as its `dg.comma_rows` in universe
    names.  w_k is resolved only when both commas translate, by one pass of
    `dg.induced_rows` that emits the universe index key in order: no dict,
    functor, diagram morphism or sort is built, no diagram keyed, per map.
    """
    translator = translator or ShapeTranslator(u)
    site = u.site
    families, commas = {}, {}

    def comma(mid, k, member):
        key = (mid, k, member)
        if key not in commas:
            commas[key] = _translated_comma(u, translator, u.morphisms[mid].mor,
                                            k, member)
        return commas[key]

    instances, skipped = [], []
    by_src = {}
    for mid, um in u.morphisms.items():
        by_src.setdefault(um.src, []).append((mid, um))
    for wid, wm in u.morphisms.items():
        for p2id, p2m in by_src.get(wm.tgt, []):
            p1id = u.comp[(p2id, wid)]
            d3 = p2m.mor.tgt
            resolved = {}
            all_ok = True
            per_k = []
            for k in d3.shape.objects:
                label = d3.labels.ob(k)
                if label not in families:
                    families[label] = cover_families(site, label, refine_bound)
                fam_entries = []
                for fam in families[label]:
                    mids = []
                    for member in fam:
                        if (k, member) not in resolved:
                            resolved[(k, member)] = _induced_mid(
                                u, wm.mor, comma(p1id, k, member),
                                comma(p2id, k, member))
                        mid = resolved[(k, member)]
                        if mid is None:
                            break
                        mids.append(mid)
                    else:
                        fam_entries.append((fam, mids))
                if not fam_entries:
                    all_ok = False
                    break
                per_k.append((k, fam_entries))
            if all_ok:
                instances.append((wid, p2id, per_k))
            else:
                skipped.append((wid, p2id))
    return instances, skipped


def _translated_comma(u, translator, p, k, member):
    """(universe oid, `dg.comma_rows` in universe names) of p x_{/D3}
    (k, U_member), or None when it is absent or has no isomorphic copy in
    the universe."""
    probe = dg.point_dia(u.site.cat, u.site.cat.dom(member))
    q = dg.DiaMor(probe, p.tgt,
                  fc.FinFunctor("k", probe.shape, p.tgt.shape,
                                {"*": k}, {"id_*": p.tgt.shape.id_of(k)}),
                  {"*": member}, "probe")
    try:
        comma = dg.comma_fiber_product(p, q)
    except (LimitAbsent, TargetMismatch):
        return None
    translation = translator.translate(comma[0])
    return translation and (translation[0], dg.comma_rows(comma, translation[1]))


def _induced_mid(u, w, comma1, comma2):
    """The universe id of w_k between two `_translated_comma`s, or None."""
    parts = comma1 and comma2 and dg.induced_rows(w, comma1[1], comma2[1])
    return parts and u._index.get((comma1[0], comma2[0]) + parts)


def _certified(parts, trunc):
    """[(j, certificate kind)] when every (j, category) in `parts` carries a
    sufficient contractibility certificate, else None."""
    certs = []
    for j, cat in parts:
        cert = at.contractibility_certificate(cat, trunc)
        if cert is None or cert.necessary_only:
            return None
        certs.append((j, cert.kind))
    return certs


def l4_instances(u: DiagramUniverse, trunc: int = 3):
    """Pure-diagram-type morphisms whose slices (or fibers, for
    fibrations) all carry a sufficient contractibility certificate."""
    out = []
    for mid, um in u.morphisms.items():
        m = um.mor
        if not m.is_pure_diagram_type():
            continue
        alpha, js = m.shape_map, m.tgt.shape.objects
        certs = _certified(((j, fc.slice_under(j, alpha)[0]) for j in js), trunc)
        if certs is not None:
            out.append((mid, "slices", certs))
        elif fc.is_fibration(alpha)[0]:
            certs = _certified(((j, fc.fiber(alpha, j)[0]) for j in js), trunc)
            if certs is not None:
                out.append((mid, "fibers", certs))
    return out


def homotopy_classes(u: DiagramUniverse):
    """Partition of the universe morphisms into 2-morphism zig-zag classes
    (per parallel pair of endpoints)."""
    parent = {mid: mid for mid in u.morphisms}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    groups = {}
    for mid, um in u.morphisms.items():
        groups.setdefault((um.src, um.tgt), []).append(mid)
    for (s, t), mids in groups.items():
        for a, b in itertools.combinations(mids, 2):
            if find(a) == find(b):
                continue  # already one class: merging would change nothing
            ma, mb = u.morphisms[a].mor, u.morphisms[b].mor
            if dg.two_morphisms(ma, mb) or dg.two_morphisms(mb, ma):
                parent[find(a)] = find(b)
    classes = {}
    for mid in u.morphisms:
        classes.setdefault(find(mid), []).append(mid)
    return classes


def adjunction_instances(u: DiagramUniverse):
    """Morphisms of the form (s, id) with s a right adjoint, together with
    the partner (p, unit-induced) when present in the universe; p and its
    unit come from `fc.left_adjoint`.  Since the labels of such a morphism
    are those of its target pulled back along s, the partner is a diagram
    morphism by the unit's naturality."""
    out = []
    for mid, um in u.morphisms.items():
        m = um.mor
        if not m.is_pure_diagram_type():
            continue
        adj = fc.left_adjoint(m.shape_map)
        if adj is None:
            continue
        p, unit = adj
        T = m.tgt.labels
        partner = dg.DiaMor(m.tgt, m.src, p,
                            {j: T.mo(unit.at(j)) for j in p.source.objects}, "padj")
        out.append((mid, u.lookup(partner), p.name))
    return out


# ---------------------------------------------------------------------------
# axiom checks (report-valued)


def check_ws(w: MorClass, u: DiagramUniverse):
    ws1, ws2, ws3 = ws_instances(u)
    violations = []
    for mid in ws1:
        if mid not in w.members:
            violations.append(("WS1", mid))
    for (f, g, h) in ws2:
        known = (f in w.members) + (g in w.members) + (h in w.members)
        if known == 2:
            for x in (f, g, h):
                if x not in w.members:
                    violations.append(("WS2", f, g, h, x))
    for (p, s, sp_) in ws3:
        if sp_ in w.members and p not in w.members:
            violations.append(("WS3", p, s))
    return violations


def check_L2(w: MorClass, u: DiagramUniverse):
    violations, missing = [], []
    for oid, mid in l2_instances(u):
        if mid is None:
            missing.append(("MissingCollapseMorphism", oid))
        elif mid not in w.members:
            violations.append(("L2", oid, mid))
    return violations, missing


def check_L3(w: MorClass, u: DiagramUniverse, refine_bound: int = 2):
    instances, skipped = l3_instances(u, refine_bound)
    violations = []
    for (wid, p2id, per_k) in instances:
        if wid in w.members:
            continue
        triggered = True
        for (k, fam_entries) in per_k:
            if not any(all(m in w.members for m in mids)
                       for fam, mids in fam_entries):
                triggered = False
                break
        if triggered:
            violations.append(("L3", wid, p2id))
    return violations, skipped


def check_L4(w: MorClass, u: DiagramUniverse, trunc: int = 3):
    violations = []
    for (mid, how, certs) in l4_instances(u, trunc):
        if mid not in w.members:
            violations.append(("L4", mid, how, certs))
    return violations


# ---------------------------------------------------------------------------
# the closure fixpoint


def closure_fixpoint(seed: MorClass, u: DiagramUniverse, trunc: int = 3,
                     refine_bound: int = 2):
    """Iterate (WS1-3), (L2), (L3), (L4), homotopy closure, and adjunction
    membership until no change.

    Monotone on a finite lattice, so termination is guaranteed; the result
    is a sound under-approximation of the smallest localizer restricted to
    the universe, with one provenance entry per member.
    """
    w = seed.copy()
    translator = ShapeTranslator(u)
    ws1, ws2, ws3 = ws_instances(u)
    l2s = l2_instances(u, translator)
    l3s, l3_skipped = l3_instances(u, refine_bound, translator)
    l4s = l4_instances(u, trunc)
    classes = homotopy_classes(u)
    adjs = adjunction_instances(u)

    for mid in ws1:
        w.admit(mid, ("WS1",))
    for (mid, how, certs) in l4s:
        w.admit(mid, ("L4", how, tuple(certs)))
    for (oid, mid) in l2s:
        if mid is not None:
            w.admit(mid, ("L2", oid))
    for (mid, pid, pname) in adjs:
        w.admit(mid, ("ADJ", pname))
        if pid is not None:
            w.admit(pid, ("ADJ-partner", mid))

    changed = True
    while changed:
        changed = False
        for (f, g, h) in ws2:
            inw = (f in w.members, g in w.members, h in w.members)
            if inw == (True, True, False):
                changed |= w.admit(h, ("WS2-compose", f, g))
            elif inw == (True, False, True):
                changed |= w.admit(g, ("WS2-right", f, h))
            elif inw == (False, True, True):
                changed |= w.admit(f, ("WS2-left", g, h))
        for (p, s, sp_) in ws3:
            if sp_ in w.members:
                changed |= w.admit(p, ("WS3", s, sp_))
                changed |= w.admit(s, ("WS3-section", p, sp_))
        for (wid, p2id, per_k) in l3s:
            if wid in w.members:
                continue
            good = True
            chosen = []
            for (k, fam_entries) in per_k:
                pick = None
                for fam, mids in fam_entries:
                    if all(m in w.members for m in mids):
                        pick = (k, tuple(fam))
                        break
                if pick is None:
                    good = False
                    break
                chosen.append(pick)
            if good:
                changed |= w.admit(wid, ("L3", p2id, tuple(chosen)))
        for root, mids in classes.items():
            if any(m in w.members for m in mids):
                rep = next(m for m in mids if m in w.members)
                for m in mids:
                    if m not in w.members:
                        changed |= w.admit(m, ("HTP", rep))
    w.skipped_l3 = l3_skipped
    return w


def replay_provenance(w: MorClass, u: DiagramUniverse):
    """Re-check every WS2-compose, WS2-right, WS2-left, WS3, WS3-section
    and HTP record: its premises must be members and the instance it names
    must hold in the universe (the composites it records, or for HTP a
    representative parallel to the member).  Other rules are not replayed.
    Returns the members whose record fails."""
    ident, comp, ends = set(u.identity.values()), u.comp.get, u.morphisms
    holds = {
        "WS2-compose": lambda mid, f, g: comp((g, f)) == mid,
        "WS2-right": lambda mid, f, h: comp((mid, f)) == h,
        "WS2-left": lambda mid, g, h: comp((g, mid)) == h,
        "WS3": lambda mid, s, sp_: comp((mid, s)) in ident and comp((s, mid)) == sp_,
        "WS3-section": lambda mid, p, sp_: comp((p, mid)) in ident and comp((mid, p)) == sp_,
        "HTP": lambda mid, rep: rep in ends and
        (ends[rep].src, ends[rep].tgt) == (ends[mid].src, ends[mid].tgt),
    }
    return [mid for mid, (rule, *premises) in w.provenance.items()
            if rule in holds and not (holds[rule](mid, *premises)
                                      and all(p in w.members for p in premises))]


# ---------------------------------------------------------------------------
# universe builders


POSET_SHAPES = {
    0: [("E0", [])],
    1: [("P1", [("x", [])])],
    2: [("C2", [("0", ["1"]), ("1", [])]),
        ("D2", [("x", []), ("y", [])])],
    3: [("C3", [("0", ["1", "2"]), ("1", ["2"]), ("2", [])]),
        ("V", [("a", ["b", "c"]), ("b", []), ("c", [])]),
        ("W", [("a", ["c"]), ("b", ["c"]), ("c", [])]),
        ("L21", [("0", ["1"]), ("1", []), ("z", [])]),
        ("D3", [("x", []), ("y", []), ("z", [])])],
}


def poset_shapes(max_objects: int = 3):
    """Canonical posets on up to `max_objects` elements, up to isomorphism."""
    out = []
    for n in range(max_objects + 1):
        for name, rels in POSET_SHAPES.get(n, []):
            above = {x: set(up) for x, up in rels}
            objs = [x for x, _ in rels]
            out.append(fc.poset_category(
                name, objs, lambda a, b, ab=above: a == b or b in ab[a]))
    return out


def poset_universe(site: Site, max_objects: int = 3):
    """All canonical poset shapes labeled constantly by the site's first
    object, every diagram morphism between them, closed under composition."""
    label = site.cat.objects[0]
    u = DiagramUniverse(site)
    dias = []
    for shape in poset_shapes(max_objects):
        d = dg.DiaObj(shape, fc.FinFunctor.constant(shape, site.cat, label),
                      shape.name)
        u.add_object(d)
        dias.append(d)
    for d1 in dias:
        for d2 in dias:
            for m in dg.all_dia_mors(d1, d2):
                u.add_morphism(m)
    u.close_composition()
    return u


def universe_from(site: Site, objects, all_mors=False):
    """Universe from explicit diagrams; optionally with every diagram
    morphism between them, always closed under composition."""
    u = DiagramUniverse(site)
    for d in objects:
        u.add_object(d)
    if all_mors:
        for d1 in objects:
            for d2 in objects:
                for m in dg.all_dia_mors(d1, d2):
                    u.add_morphism(m)
    u.close_composition()
    return u


def nerve_soundness_report(w: MorClass, u: DiagramUniverse, trunc: int = 4):
    """The homology necessary check: every member's nerve must be a
    quasi-isomorphism in the valid range.  Returns the offending ids."""
    bad = []
    for mid in sorted(w.members):
        m = u.morphisms[mid].mor
        nm = dg.nerve_mor(m, trunc)
        if not at.quasi_iso(nm.underlying()).ok:
            bad.append(mid)
    return bad
