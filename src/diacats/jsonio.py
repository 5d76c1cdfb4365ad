"""JSON encodings (versioned schemas) and DOT export.

Schemas: fincat.v1, site.v1, diagram.v1, simp.v1, ssimp.v1, universe.v1,
localized.v1, plus the homology report.  Encoders are deterministic
(sorted keys, canonical list orders) so that identical inputs produce
byte-identical reports.  Decoders (of these schemas, of the functor and
map records the CLI reads, and of id lists) report a missing key, a wrong
type or an unknown id as a SchemaError.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from . import diagram as dg
from . import fincat as fc
from . import homotopy as ht
from . import simplicial as sp
from .errors import SchemaError
from .site import Site, malformed_covers


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


@contextmanager
def _schema(name):
    """Report a missing key, a wrong type or a short record inside the
    block as a SchemaError on `name`."""
    try:
        yield
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise SchemaError("malformed %s: %s" % (name, exc))


def decode_ids(data, known, what):
    """A list of ids, each one of `known`, as given on the command line or
    in a JSON file."""
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise SchemaError("%s: expected a list of ids, got %r" % (what, data))
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise SchemaError("%s: unknown ids %s" % (what, ", ".join(map(repr, unknown))))
    return data


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
    with _schema("fincat.v1"):
        if data.get("schema", "fincat.v1") != "fincat.v1":
            raise SchemaError("expected fincat.v1, got %r" % data.get("schema"))
        return fc.validate_category(data, name)


# ---------------------------------------------------------------------------
# site.v1


def encode_site(s: Site) -> dict:
    return {
        "schema": "site.v1",
        "fincat": encode_fincat(s.cat),
        "covers": {x: [list(f) for f in fams] for x, fams in s.covers.items()},
    }


def decode_site(data: dict, name="S") -> Site:
    with _schema("site.v1"):
        if data.get("schema", "site.v1") != "site.v1":
            raise SchemaError("expected site.v1, got %r" % data.get("schema"))
        cat = decode_fincat(data["fincat"], name)
        site = Site(cat, {x: [list(f) for f in fams]
                          for x, fams in data.get("covers", {}).items()})
        problems = malformed_covers(site)
        if problems:
            raise SchemaError("malformed site.v1: %s" % "; ".join(problems))
        return site


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
    with _schema("diagram.v1"):
        if data.get("schema", "diagram.v1") != "diagram.v1":
            raise SchemaError("expected diagram.v1, got %r" % data.get("schema"))
        shape = decode_fincat(data["shape"], name + ".shape")
        labels = fc.FinFunctor("lbl", shape, site.cat,
                               data["labels"]["obj"], data["labels"]["mor"])
        return dg.DiaObj(shape, labels, name).validate()


def _dia_mor(m, src: dg.DiaObj, tgt: dg.DiaObj) -> dg.DiaMor:
    """The diagram morphism {alpha: {obj, mor}, f} from src to tgt."""
    alpha = fc.FinFunctor("alpha", src.shape, tgt.shape, m["alpha"]["obj"], m["alpha"]["mor"])
    return dg.DiaMor(src, tgt, alpha, m["f"]).validate()


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


def _value(v):
    """The simplex value of an [epi, nd] record."""
    return tuple(v[0]), v[1]


def _simpset(data: dict, name) -> sp.SimpSet:
    """The SimpSet of a simp.v1 record, not yet validated."""
    if data.get("schema", "simp.v1") != "simp.v1":
        raise SchemaError("expected simp.v1, got %r" % data.get("schema"))
    faces = {(s, i): _value((epi, nd)) for s, i, epi, nd in data.get("faces", [])}
    return sp.SimpSet(data["trunc"], data["levels"], faces, name)


def decode_simpset(data: dict, name="X") -> sp.SimpSet:
    with _schema("simp.v1"):
        return _simpset(data, name).validate()


def encode_split(x: sp.SplitSimpObj) -> dict:
    return {
        "schema": "ssimp.v1",
        "simp": encode_simpset(x.uset),
        "label": dict(x.label),
        "part": sorted([s, i, p] for (s, i), p in x.part.items()),
    }


def decode_split(data: dict, site: Site, name="X") -> sp.SplitSimpObj:
    with _schema("ssimp.v1"):
        if data.get("schema", "ssimp.v1") != "ssimp.v1":
            raise SchemaError("expected ssimp.v1, got %r" % data.get("schema"))
        # SplitSimpObj.validate validates the underlying SimpSet first
        uset = _simpset(data["simp"], name)
        part = {(s, i): p for s, i, p in data.get("part", [])}
        return sp.SplitSimpObj(site.cat, uset, data["label"], part, name).validate()


# ---------------------------------------------------------------------------
# maps and functors as the CLI reads them


def _simp_map(rec: dict, src, tgt) -> sp.SimpMap:
    return sp.SimpMap(src, tgt, {s: _value(v) for s, v in rec["val"].items()}).validate()


def _split_mor(rec: dict, src, tgt) -> sp.SplitMor:
    val = {s: _value(v) for s, v in rec["val"].items()}
    return sp.SplitMor(src, tgt, val, rec["part"]).validate()


def decode_simp_map(data: dict) -> sp.SimpMap:
    """A simplicial map with its ends: {src: simp.v1, tgt: simp.v1, val}."""
    with _schema("map"):
        return _simp_map(data, decode_simpset(data["src"], "src"),
                         decode_simpset(data["tgt"], "tgt"))


def _functor(data: dict, shape_key, ob, mor):
    """(shape, objects, maps) of {shape_key: fincat.v1, objects, morphisms}:
    `ob(record, name)` decodes the value at each object of the shape and
    `mor(record, src, tgt)` the map at each morphism."""
    shape = decode_fincat(data[shape_key])
    obs = {a: ob(data["objects"][a], a) for a in shape.objects}
    return shape, obs, {m.id: mor(data["morphisms"][m.id], obs[m.dom], obs[m.cod])
                        for m in shape.morphisms}


def decode_simp_functor(data: dict):
    """A diagram of simplicial sets, as (shape, objects, maps)."""
    with _schema("simp functor"):
        return _functor(data, "shape", decode_simpset, _simp_map)


def decode_split_functor(data: dict, site: Site) -> ht.SplitDiagram:
    """A strict diagram of split objects ({val, part} per map)."""
    with _schema("split functor"):
        return ht.SplitDiagram(*_functor(data, "shape", lambda d, a: decode_split(d, site, a),
                                         _split_mor)).validate()


def decode_dia_functor(data: dict, site: Site) -> dg.DiaFunctor:
    """A strict functor into diagrams ({alpha, f} per map)."""
    with _schema("diagram functor"):
        return dg.DiaFunctor(*_functor(data, "base", lambda d, a: decode_diagram(d, site, a),
                                       _dia_mor)).validate()


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
    with _schema("universe.v1"):
        if data.get("schema") != "universe.v1":
            raise SchemaError("expected universe.v1, got %r" % data.get("schema"))
        site = decode_site(data["site"])
        u = DiagramUniverse(site)
        dias = [decode_diagram(d, site, "D%d" % i)
                for i, d in enumerate(data["objects"])]
        for d in dias:
            u.add_object(d)
        for m in data.get("morphisms", []):
            u.add_morphism(_dia_mor(m, dias[m["src"]], dias[m["tgt"]]))
        u.close_composition()
        return u.validate()


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
