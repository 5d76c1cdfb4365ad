"""JSON encodings (versioned schemas) and DOT export.

Schemas: fincat.v1, site.v1, diagram.v1, simp.v1, ssimp.v1, universe.v1,
localized.v1, plus the homology report.  Encoders are deterministic
(sorted keys, canonical list orders) so that identical inputs produce
byte-identical reports.
"""

from __future__ import annotations

import json

from . import diagram as dg
from . import fincat as fc
from . import simplicial as sp
from .errors import SchemaError
from .site import Site


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# fincat.v1


def encode_fincat(c: fc.FinCat) -> dict:
    return {
        "schema": "fincat.v1",
        "objects": list(c.objects),
        "morphisms": [{"id": m.id, "dom": m.dom, "cod": m.cod}
                      for m in c.morphisms],
        "identities": dict(c.identity),
        "compose": sorted([g, f, h] for (g, f), h in c.compose_table.items()),
    }


def decode_fincat(data: dict, name="C") -> fc.FinCat:
    try:
        if data.get("schema", "fincat.v1") != "fincat.v1":
            raise SchemaError("expected fincat.v1, got %r" % data.get("schema"))
        return fc.validate_category(data, name)
    except (KeyError, TypeError) as exc:
        raise SchemaError("malformed fincat.v1: %s" % exc)


# ---------------------------------------------------------------------------
# site.v1


def encode_site(s: Site) -> dict:
    return {
        "schema": "site.v1",
        "fincat": encode_fincat(s.cat),
        "covers": {x: [list(f) for f in fams] for x, fams in s.covers.items()},
        "trivial_topology": s.trivial_topology,
        "extensive_topology": s.extensive_topology,
    }


def decode_site(data: dict, name="S") -> Site:
    try:
        if data.get("schema", "site.v1") != "site.v1":
            raise SchemaError("expected site.v1, got %r" % data.get("schema"))
        cat = decode_fincat(data["fincat"], name)
        return Site(cat, {x: [list(f) for f in fams]
                          for x, fams in data.get("covers", {}).items()},
                    data.get("trivial_topology", False),
                    data.get("extensive_topology", False))
    except (KeyError, TypeError) as exc:
        raise SchemaError("malformed site.v1: %s" % exc)


# ---------------------------------------------------------------------------
# diagram.v1


def encode_diagram(d: dg.DiaObj) -> dict:
    return {
        "schema": "diagram.v1",
        "site_ref": "site",
        "shape": encode_fincat(d.shape),
        "labels": {"obj": dict(d.labels.object_map),
                   "mor": dict(d.labels.morphism_map)},
    }


def decode_diagram(data: dict, site: Site, name="D") -> dg.DiaObj:
    try:
        if data.get("schema", "diagram.v1") != "diagram.v1":
            raise SchemaError("expected diagram.v1, got %r" % data.get("schema"))
        shape = decode_fincat(data["shape"], name + ".shape")
        labels = fc.FinFunctor("lbl", shape, site.cat,
                               data["labels"]["obj"], data["labels"]["mor"])
        return dg.DiaObj(shape, labels, name).validate()
    except (KeyError, TypeError) as exc:
        raise SchemaError("malformed diagram.v1: %s" % exc)


# ---------------------------------------------------------------------------
# simp.v1 / ssimp.v1


def encode_simpset(x: sp.SimpSet) -> dict:
    return {
        "schema": "simp.v1",
        "trunc": x.trunc,
        "levels": [list(l) for l in x.levels],
        "faces": sorted([s, i, list(v[0]), v[1]]
                        for (s, i), v in x.faces.items()),
    }


def _simpset(data: dict, name) -> sp.SimpSet:
    """The SimpSet of a simp.v1 record, not yet validated."""
    if data.get("schema", "simp.v1") != "simp.v1":
        raise SchemaError("expected simp.v1, got %r" % data.get("schema"))
    faces = {(s, i): (tuple(epi), nd)
             for s, i, epi, nd in data.get("faces", [])}
    return sp.SimpSet(data["trunc"], data["levels"], faces, name)


def decode_simpset(data: dict, name="X") -> sp.SimpSet:
    try:
        return _simpset(data, name).validate()
    except (KeyError, TypeError) as exc:
        raise SchemaError("malformed simp.v1: %s" % exc)


def encode_split(x: sp.SplitSimpObj) -> dict:
    return {
        "schema": "ssimp.v1",
        "simp": encode_simpset(x.uset),
        "label": dict(x.label),
        "part": sorted([s, i, p] for (s, i), p in x.part.items()),
    }


def decode_split(data: dict, site: Site, name="X") -> sp.SplitSimpObj:
    try:
        if data.get("schema", "ssimp.v1") != "ssimp.v1":
            raise SchemaError("expected ssimp.v1, got %r" % data.get("schema"))
        # SplitSimpObj.validate validates the underlying SimpSet first
        uset = _simpset(data["simp"], name)
        part = {(s, i): p for s, i, p in data.get("part", [])}
        return sp.SplitSimpObj(site.cat, uset, data["label"], part, name).validate()
    except (KeyError, TypeError) as exc:
        raise SchemaError("malformed ssimp.v1: %s" % exc)


# ---------------------------------------------------------------------------
# universe.v1


def encode_universe(u) -> dict:
    oids = sorted(u.objects)
    idx = {oid: i for i, oid in enumerate(oids)}
    mors = []
    for mid in sorted(u.morphisms):
        um = u.morphisms[mid]
        mors.append({
            "id": mid, "src": idx[um.src], "tgt": idx[um.tgt],
            "alpha": {"obj": dict(um.mor.shape_map.object_map),
                      "mor": dict(um.mor.shape_map.morphism_map)},
            "f": dict(um.mor.label_transf),
        })
    return {
        "schema": "universe.v1",
        "site": encode_site(u.site),
        "objects": [encode_diagram(u.objects[oid]) for oid in oids],
        "object_ids": oids,
        "morphisms": mors,
    }


def decode_universe(data: dict):
    from .localizer import DiagramUniverse
    try:
        if data.get("schema") != "universe.v1":
            raise SchemaError("expected universe.v1, got %r" % data.get("schema"))
        site = decode_site(data["site"])
        u = DiagramUniverse(site)
        dias = [decode_diagram(d, site, "D%d" % i)
                for i, d in enumerate(data["objects"])]
        for d in dias:
            u.add_object(d)
        for m in data.get("morphisms", []):
            src, tgt = dias[m["src"]], dias[m["tgt"]]
            alpha = fc.FinFunctor("alpha", src.shape, tgt.shape,
                                  m["alpha"]["obj"], m["alpha"]["mor"])
            u.add_morphism(dg.DiaMor(src, tgt, alpha, m["f"]).validate())
        u.close_composition()
        return u.validate()
    except (KeyError, TypeError, IndexError) as exc:
        raise SchemaError("malformed universe.v1: %s" % exc)


# ---------------------------------------------------------------------------
# localized.v1 and reports


def encode_localized(lc_) -> dict:
    inverted = sorted(m.id for m in lc_.base.morphisms
                      if lc_.is_iso_class(m.dom, m.cod, lc_.loc[m.id]) is not None)
    return {
        "schema": "localized.v1",
        "objects": list(lc_.base.objects),
        "classes": {"%s|%s" % (x, y): [[r.f, r.w] for r in reps]
                    for (x, y), reps in sorted(lc_.homs.items())},
        "class_counts": {"%s|%s" % (x, y): len(reps)
                         for (x, y), reps in sorted(lc_.homs.items())},
        "composition": sorted(
            [[g.f, g.w], [f.f, f.w], [h.f, h.w]]
            for (g, f), h in lc_.comp_table.items()),
        "inverted": inverted,
    }


def homology_report(h) -> dict:
    return {
        "schema": "homology.v1",
        "valid_range": h.valid_range,
        "betti": {str(k): v for k, v in sorted(h.betti.items())},
        "torsion": {str(k): list(v) for k, v in sorted(h.torsion.items())},
    }


def quasi_iso_report(v) -> dict:
    return {"schema": "quasiiso.v1", "ok": v.ok,
            "valid_range": v.valid_range, "detail": v.detail}


def matrix_csv(m) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in m)
