import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from diacats import cli
from diacats import diagram as dg
from diacats import fincat as fc
from diacats import fixtures as fx
from diacats import fractions as fr
from diacats import jsonio as io
from diacats import localizer as lc
from diacats import simplicial as sp
from diacats.errors import InvalidSimplicial, SchemaError


def roundtrip_fincat(c):
    return io.decode_fincat(json.loads(io.dumps(io.encode_fincat(c))))


def test_fincat_roundtrip():
    c = fx.fence_poset()
    c2 = roundtrip_fincat(c)
    assert c2.objects == c.objects
    assert c2.compose_table == c.compose_table


def test_site_and_diagram_roundtrip():
    ps = fx.pseudocircle_site()
    s2 = io.decode_site(json.loads(io.dumps(io.encode_site(ps))))
    assert s2.covers == ps.covers
    fence = fx.fence_poset()
    lbls = {"a": "{a}", "b": "{b}", "U": "{a,b,c}", "V": "{a,b,d}"}
    d = dg.DiaObj(fence, fc.FinFunctor(
        "S", fence, ps.cat, lbls,
        {m.id: "%s<=%s" % (lbls[m.dom], lbls[m.cod])
         for m in fence.morphisms})).validate()
    d2 = io.decode_diagram(json.loads(io.dumps(io.encode_diagram(d))), ps)
    assert d2.key() == d.key()


def test_site_record_with_topology_flags_loads():
    """`site.v1` records written before the topology flags were dropped
    still load: the decoder ignores keys it does not read."""
    ps = fx.pseudocircle_site()
    rec = io.encode_site(ps)
    assert set(rec) == {"schema", "fincat", "covers"}
    rec.update(trivial_topology=True, extensive_topology=False)
    s2 = io.decode_site(json.loads(io.dumps(rec)))
    assert s2.covers == ps.covers and s2.cat.objects == ps.cat.objects


def test_split_roundtrip():
    ps = fx.pseudocircle_site()
    u, aug = sp.cech_cover(ps, [ps.cat.id_of("{a,b,c,d}")], 3)
    u2 = io.decode_split(json.loads(io.dumps(io.encode_split(u))), ps)
    assert u.key() == u2.key()


def test_universe_roundtrip():
    u = lc.poset_universe(fx.terminal_site(), 2)
    u2 = io.decode_universe(json.loads(io.dumps(io.encode_universe(u))))
    assert len(u2.objects) == len(u.objects)
    assert len(u2.morphisms) == len(u.morphisms)


def test_schema_error_on_garbage():
    with pytest.raises(SchemaError):
        io.decode_fincat({"schema": "wrong.v9"})
    with pytest.raises(SchemaError):
        io.decode_simpset({"schema": "simp.v1"})


# A 2-simplex whose face d_0 has the non-monotone epi (1, 0) onto an edge.
NON_MONOTONE_EPI = {
    "trunc": 2, "levels": [["v"], ["e"], ["t"]],
    "faces": [["e", 0, [0], "v"], ["e", 1, [0], "v"], ["t", 0, [1, 0], "e"],
              ["t", 1, [0, 0], "v"], ["t", 2, [0, 0], "v"]]}


def test_non_monotone_face_epi_rejected():
    assert not sp.mt_is_epi((1, 0)) and not sp.mt_is_epi((0, 2))
    assert sp.mt_is_epi((0, 0, 1)) and not sp.mt_is_epi(())
    with pytest.raises(InvalidSimplicial, match=re.escape("epi malformed at ('t',0)")):
        io.decode_simpset(NON_MONOTONE_EPI)


def run_cli(args):
    return cli.main(args)


def test_cli_validate_and_homology(tmp_path):
    cat_file = tmp_path / "fence.json"
    cat_file.write_text(io.dumps(io.encode_fincat(fx.fence_poset())))
    out = tmp_path / "r.json"
    assert run_cli(["validate", "--cat", str(cat_file), "--out", str(out)]) == 0
    nerve_file = tmp_path / "nerve.json"
    nerve_file.write_text(io.dumps(io.encode_simpset(
        sp.nerve_of_category(fx.fence_poset(), 4))))
    assert run_cli(["homology", "--simp", str(nerve_file), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["report"]["betti"]["0"] == 1 and rep["report"]["betti"]["1"] == 1
    assert rep["pi0"] == 1


CLI_FLAGS = {
    "--trunc": {"nerve", "int-amalg", "hocolim", "holim", "cech", "compare"},
    "--dot": {"validate", "groth", "int-amalg", "tw"},
    "--refine-bound": {"localizer-check", "localizer-closure"},
    "--seed": {"compare"},
}


def test_cli_flags_only_where_read():
    """Each shared flag is declared only on the subcommands that read it;
    --out is on all 15."""
    sub = next(a for a in cli.build_parser()._actions if a.choices and a.dest == "command")
    declared = {name: {o for a in p._actions for o in a.option_strings}
                for name, p in sub.choices.items()}
    assert len(declared) == 15 and all("--out" in opts for opts in declared.values())
    for flag, names in CLI_FLAGS.items():
        assert {n for n, opts in declared.items() if flag in opts} == names, flag
    with pytest.raises(SystemExit):   # homology reads its truncation from its input
        run_cli(["homology", "--simp", "x.json", "--trunc", "3"])


def test_cli_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["validate", "--cat", str(bad)]) == 2


def test_cli_negative_trunc_exits_2(tmp_path, capsys):
    """`--trunc` is a non-negative int: argparse exits 2 on a negative one
    instead of the command writing a record with it."""
    dia = tmp_path / "d.json"
    dia.write_text(io.dumps(io.encode_diagram(dg.point_dia(fx.pseudocircle_site().cat, "{a}"))))
    out = str(tmp_path / "r.json")
    for argv in (["nerve", "--dia", str(dia), "--site", "pseudocircle"],
                 ["cech", "--site", "pseudocircle", "--family", "{a,b,c}<={a,b,c,d}"]):
        assert run_cli(argv + ["--trunc", "0", "--out", out]) == 0
        for bad in ("-1", "-2"):
            with pytest.raises(SystemExit) as exc:
                run_cli(argv + ["--trunc", bad, "--out", out])
            assert exc.value.code == 2
            assert "--trunc: expected a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("record", [
    {"schema": "simp.v1", "trunc": -2, "levels": [["v"]], "faces": []},
    {"schema": "simp.v1", "trunc": 0, "levels": [["v"], ["e"]], "faces": []},
], ids=["negative-trunc", "level-past-trunc"])
def test_simp_record_levels_must_fit_trunc(tmp_path, capsys, record):
    """A simp.v1 record with a negative truncation, or with a level past it
    (here a 1-simplex with no faces at truncation 0), is refused."""
    with pytest.raises(InvalidSimplicial, match="levels do not fit truncation"):
        io.decode_simpset(record)
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps(record))
    assert run_cli(["homology", "--simp", str(sfile)]) == 2
    assert "input error: " in capsys.readouterr().err


def test_cli_determinism(tmp_path):
    cat_file = tmp_path / "c.json"
    cat_file.write_text(io.dumps(io.encode_fincat(fx.pseudocircle_site().cat)))
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["tw", "--cat", str(cat_file), "--variant", "tw", "--out", str(o1)])
    run_cli(["tw", "--cat", str(cat_file), "--variant", "tw", "--out", str(o2)])
    assert o1.read_bytes() == o2.read_bytes()


# sha256 of the `hocolim` report below, recorded before `simpset_product`,
# `tensor` and the base-change nerve side were rebuilt on the diagonal.
HOCOLIM_GOLDEN = "812ba28d0c585c8fabd6122f3c15d66e01f046a1f2d7805f96fd606c26541126"


def test_cli_hocolim_golden(tmp_path):
    """The constant split object on {a,b,c} over the shape [1] at
    truncation 2: the report of the diagonal path is pinned byte for byte."""
    ps = fx.pseudocircle_site()
    shape = fc.chain_category(1)
    x = sp.constant_split(ps.cat, "{a,b,c}", 2)
    ident = {"val": {s: [list(sp.mt_id(k)), s] for k, l in enumerate(x.levels) for s in l},
             "part": {s: ps.cat.id_of(x.label[s]) for l in x.levels for s in l}}
    functor = tmp_path / "f.json"
    functor.write_text(io.dumps({"shape": io.encode_fincat(shape),
                                 "objects": {a: io.encode_split(x) for a in shape.objects},
                                 "morphisms": {m.id: ident for m in shape.morphisms}}))
    out = tmp_path / "r.json"
    assert run_cli(["hocolim", "--site", "pseudocircle", "--functor", str(functor),
                    "--trunc", "2", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HOCOLIM_GOLDEN


COMPARE_GOLDEN = {
    ("theoremback", "3"): "e54ef747d652d4913e1ca4c30ddc05ab5a8a63147a85fd38b94a027aed5baea4",
    ("pointwiseint", "1"): "97fa734a2447782ec2965b68098b525a134a356ea7cb8d08729afb56620af127",
}


@pytest.mark.parametrize("check,seed", sorted(COMPARE_GOLDEN))
def test_cli_compare_golden(tmp_path, check, seed):
    """`theoremback` runs `comparison_to_simp` and `pointwiseint` runs
    `int_amalg`: both reports are pinned byte for byte."""
    out = tmp_path / "r.json"
    assert run_cli(["compare", check, "--seed", seed, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMPARE_GOLDEN[(check, seed)]


# sha256 of (stdout, stderr, CSV) of `nerve` and `homology --csv` below,
# recorded at the commit before a nerve's faces were written from integer
# face rows.
EMPTY = hashlib.sha256(b"").hexdigest()
NERVE_HOMOLOGY_GOLDEN = {
    "nerve": ("2eb12f1a92f7ce5a89855c677ecc12eb792fce5fca39f309c05edb3f760f155b",
              EMPTY, None),
    "homology": ("6faa236a664e7fb24cddcef86feafee3184198f8bc8f9147ca73e452dec1701a",
                 EMPTY,
                 "9e1ea742983a4cc33add6ed1a5c94d68367dbffb6828b9933479b94d117712ad"),
}


def test_cli_nerve_and_homology_independent_of_hash_seed(tmp_path):
    """`nerve` on the localized [2] (every arrow an isomorphism, so inner
    faces of its chains are degenerate) over the terminal site, and
    `homology --csv` on the nerve of Z/4: reports and CSV are pinned byte
    for byte under three string hash seeds."""
    site = fx.terminal_site()
    c = fc.chain_category(2)
    shape = fr.localized_as_fincat(fr.localize_fractions(c, {m.id for m in c.morphisms}))
    dia = tmp_path / "d.json"
    dia.write_text(io.dumps(io.encode_diagram(dg.DiaObj(
        shape, fc.FinFunctor.constant(shape, site.cat, "*"), "iso3").validate())))
    z4 = ["g%d" % i for i in range(4)]
    cyclic = fc.FinCat("Z/4", ["*"], [fc.Mor(g, "*", "*") for g in z4], {"*": "g0"},
                       {(z4[a], z4[b]): z4[(a + b) % 4]
                        for a in range(4) for b in range(4)}).validate()
    simp = tmp_path / "n.json"
    simp.write_text(io.dumps(io.encode_simpset(sp.nerve_of_category(cyclic, 4))))
    csv = tmp_path / "b.csv"
    commands = {"nerve": ["nerve", "--dia", str(dia), "--site", "terminal", "--trunc", "3"],
                "homology": ["homology", "--simp", str(simp), "--csv", str(csv)]}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    for seed in (0, 1, 2):
        for name, argv in commands.items():
            csv.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "diacats.cli", *argv], capture_output=True,
                env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src))
            assert proc.returncode == 0
            got = tuple(hashlib.sha256(data).hexdigest() if data is not None else None
                        for data in (proc.stdout, proc.stderr,
                                     csv.read_bytes() if csv.exists() else None))
            assert got == NERVE_HOMOLOGY_GOLDEN[name], (name, seed)


# sha256 of (stdout, stderr, DOT) of `int-amalg` below, recorded while its
# element category still stored every composable pair in a dict.
INT_AMALG_GOLDEN = ("9d6716f6d548944f0e503374c9a644b4954849570a594c0685abfe750257d82e",
                    EMPTY,
                    "b41442a238eb05c40b3dc885a32e5cd643742727b617721c283aab268c12f5f4")


def test_cli_int_amalg_independent_of_hash_seed(tmp_path):
    """`int-amalg --dot` on the Cech object of the pseudocircle's cover at
    truncation 2: the report, which encodes the element category's
    composition table, and the DOT export are pinned byte for byte under
    three string hash seeds."""
    ps = fx.pseudocircle_site()
    x = tmp_path / "x.json"
    x.write_text(io.dumps(io.encode_split(sp.cech_cover(ps, ps.covers["{a,b,c,d}"][0], 2)[0])))
    dot = tmp_path / "x.dot"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    for seed in (0, 1, 2):
        dot.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "diacats.cli", "int-amalg", "--ssimp", str(x),
             "--site", "pseudocircle", "--trunc", "2", "--dot", str(dot)],
            capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src))
        assert proc.returncode == 0
        got = tuple(hashlib.sha256(data).hexdigest()
                    for data in (proc.stdout, proc.stderr, dot.read_bytes()))
        assert got == INT_AMALG_GOLDEN, seed

def test_cli_cech_and_limits(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["cech", "--site", "pseudocircle",
                    "--family", "{a,b,c}<={a,b,c,d}", "{a,b,d}<={a,b,c,d}",
                    "--trunc", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["levels"] == [2, 2, 2, 2]
    cat_file = tmp_path / "c.json"
    cat_file.write_text(io.dumps(io.encode_fincat(fx.pseudocircle_site().cat)))
    assert run_cli(["limits", "--cat", str(cat_file),
                    "--product", "{a,b,c}", "{a,b,d}", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["apex"] == "{a,b}"


def test_cli_localize(tmp_path):
    cat_file = tmp_path / "c.json"
    cat_file.write_text(io.dumps(io.encode_fincat(fc.chain_category(1))))
    weq = tmp_path / "w.json"
    weq.write_text(json.dumps(["0<=0", "1<=1", "0<=1"]))
    out = tmp_path / "r.json"
    assert run_cli(["localize", "--cat", str(cat_file), "--weq", str(weq),
                    "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["inverted"] == ["0<=0", "0<=1", "1<=1"]
    assert all(v == 1 for v in rep["class_counts"].values())


def test_cli_localize_rejection_independent_of_hash_seed(tmp_path):
    """W on [3] misses the composites 0<=3 and 1<=3: the reported pair is
    the same under every string hash seed."""
    c = fc.chain_category(3)
    cat_file = tmp_path / "c.json"
    cat_file.write_text(io.dumps(io.encode_fincat(c)))
    weq = tmp_path / "w.json"
    weq.write_text(json.dumps([c.id_of(x) for x in c.objects]
                              + ["0<=1", "1<=2", "2<=3", "0<=2"]))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    errs = set()
    for seed in range(4):
        proc = subprocess.run(
            [sys.executable, "-m", "diacats.cli", "localize", "--cat", str(cat_file),
             "--weq", str(weq)], capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src))
        assert proc.returncode == 1
        errs.add(proc.stderr)
    assert len(errs) == 1
    assert b"composition-closed" in errs.pop()


def test_cli_localizer_closure(tmp_path):
    u = lc.poset_universe(fx.terminal_site(), 2)
    ufile = tmp_path / "u.json"
    ufile.write_text(io.dumps(io.encode_universe(u)))
    out = tmp_path / "r.json"
    assert run_cli(["localizer-closure", "--universe", str(ufile),
                    "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["members"]) == 10
    assert rep["admissions"] == {"ADJ-partner": 2, "L4": 4, "WS1": 4}
    members, empty = tmp_path / "members.json", tmp_path / "empty.json"
    members.write_text(json.dumps(rep["members"]))
    empty.write_text("[]")
    # the closure passes the check, the empty class violates the axioms,
    # and a --weq file that does not exist is an input error
    for weq, code in ((members, 0), (empty, 1), (tmp_path / "none", 2)):
        assert run_cli(["localizer-check", "--universe", str(ufile), "--weq", str(weq),
                        "--out", str(tmp_path / "check.json")]) == code


def test_cli_refine_bound_at_least_1(tmp_path, capsys):
    """`--refine-bound` counts cover families from 1: argparse exits 2 on 0
    or a negative bound, which would read as 1."""
    ufile = tmp_path / "u.json"
    ufile.write_text(io.dumps(io.encode_universe(lc.poset_universe(fx.terminal_site(), 1))))
    # the check exits 1: the empty class it checks violates the axioms
    for cmd, code in (("localizer-closure", 0), ("localizer-check", 1)):
        argv = [cmd, "--universe", str(ufile), "--out", str(tmp_path / "r.json")]
        assert run_cli(argv + ["--refine-bound", "1"]) == code
        for bad in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                run_cli(argv + ["--refine-bound", bad])
            assert exc.value.code == 2
            assert "--refine-bound: expected an integer >= 1" in capsys.readouterr().err


def test_cli_malformed_cover_exits_2(tmp_path, capsys):
    """A site.v1 cover on an unknown object, or with a member that is not a
    morphism into its object, is an input error (exit 2) in a universe or a
    site record; a well-formed cover that breaks the pretopology is a
    violation (exit 1)."""
    urec = io.encode_universe(lc.poset_universe(fx.pseudocircle_site(), 2))
    top = "{a,b,c,d}"
    for covers, why in (({top: [["{a,b,c}<={a,b,c}"]]}, "does not land in"),
                        ({"zzz": [["{a}<={a}"]]}, "unknown object")):
        urec["site"]["covers"] = covers
        ufile, sfile = tmp_path / "u.json", tmp_path / "s.json"
        ufile.write_text(io.dumps(urec))
        sfile.write_text(io.dumps(urec["site"]))
        for argv in (["localizer-closure", "--universe", str(ufile)],
                     ["localizer-check", "--universe", str(ufile)],
                     ["validate", "--site", str(sfile)]):
            assert run_cli(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error:") and why in err and "Traceback" not in err
        with pytest.raises(SchemaError, match=why):
            io.decode_site(urec["site"])
    urec["site"]["covers"] = {top: [["{}<=" + top]]}
    sfile.write_text(io.dumps(urec["site"]))
    out = tmp_path / "r.json"
    assert run_cli(["validate", "--site", str(sfile), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["pretopology_violations"]


def test_cli_compare_checks():
    for check in ["hocolimnerve", "pointwisenerve"]:
        assert run_cli(["compare", check, "--trunc", "3", "--seed", "1"]) == 0


def test_cli_quasi_iso(tmp_path):
    d2 = sp.delta_simpset(2, 3)
    bd2 = sp.boundary_delta(2, 3)
    incl = sp.inclusion_map(bd2, d2)
    payload = {"src": io.encode_simpset(bd2), "tgt": io.encode_simpset(d2),
               "val": {s: [list(v[0]), v[1]] for s, v in incl.val.items()}}
    mfile = tmp_path / "m.json"
    mfile.write_text(io.dumps(payload))
    assert run_cli(["quasi-iso", "--map", str(mfile)]) == 1


def test_cli_homology_non_simplicial_input_exits_2(tmp_path, capsys):
    bad = io.encode_simpset(sp.delta_simpset(2, 3))
    # d_0 of the triangle replaced by the edge (0,1): breaks d_0 d_0 = d_0 d_1
    bad["faces"] = [f if f[:2] != ["(0,1,2)", 0] else ["(0,1,2)", 0, [0, 1], "(0,1)"]
                    for f in bad["faces"]]
    sfile = tmp_path / "bad.json"
    sfile.write_text(io.dumps(bad))
    assert run_cli(["homology", "--simp", str(sfile)]) == 2
    assert "input error: simplicial identity fails" in capsys.readouterr().err


def test_cli_quasi_iso_non_simplicial_map_exits_2(tmp_path, capsys):
    d1 = sp.delta_simpset(1, 3)
    # both vertices to (0) but the edge to (0,1): faces do not commute
    payload = {"src": io.encode_simpset(d1), "tgt": io.encode_simpset(d1),
               "val": {"(0)": [[0], "(0)"], "(1)": [[0], "(0)"],
                       "(0,1)": [[0, 1], "(0,1)"]}}
    mfile = tmp_path / "m.json"
    mfile.write_text(io.dumps(payload))
    assert run_cli(["quasi-iso", "--map", str(mfile)]) == 2
    assert "input error: map not simplicial" in capsys.readouterr().err


def test_decode_split_validates_simpset_once(monkeypatch):
    ts = fx.terminal_site()
    data = json.loads(io.dumps(io.encode_split(
        sp.as_split(ts.cat, sp.delta_simpset(2, 3), "*"))))
    calls = []
    real = sp.SimpSet.validate

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(sp.SimpSet, "validate", counting)
    io.decode_split(data, ts)
    assert len(calls) == 1
    # a functor record validates each value once, through the functor
    c1 = fc.chain_category(1)
    ident = {"val": {s: [list(sp.mt_id(k)), s] for k, l in enumerate(data["simp"]["levels"])
                     for s in l},
             "part": {s: "id_*" for l in data["simp"]["levels"] for s in l}}
    io.decode_split_functor({"shape": io.encode_fincat(c1),
                             "objects": {a: data for a in c1.objects},
                             "morphisms": {m.id: ident for m in c1.morphisms}}, ts)
    assert len(calls) == 3


def test_cli_homology_malformed_split_exits_2(tmp_path, capsys):
    ts = fx.terminal_site()
    good = io.encode_split(sp.as_split(ts.cat, sp.delta_simpset(2, 3), "*"))
    bad = json.loads(io.dumps(good))
    # d_0 of the triangle replaced by the edge (0,1): breaks d_0 d_0 = d_0 d_1
    bad["simp"]["faces"] = [f if f[:2] != ["(0,1,2)", 0]
                            else ["(0,1,2)", 0, [0, 1], "(0,1)"]
                            for f in bad["simp"]["faces"]]
    sfile = tmp_path / "bad.json"
    sfile.write_text(io.dumps(bad))
    assert run_cli(["homology", "--ssimp", str(sfile), "--site", "terminal"]) == 2
    assert "input error: simplicial identity fails" in capsys.readouterr().err
    del good["label"]
    sfile.write_text(io.dumps(good))
    assert run_cli(["homology", "--ssimp", str(sfile), "--site", "terminal"]) == 2
    assert "input error: malformed ssimp.v1" in capsys.readouterr().err


# Functors (base, k of the value at each object, (m, u) at each morphism)
# into Delta_0 and Delta_1, or into the constant diagrams on [0] and [1]:
# u : [m] -> [n] is the monotone map the morphism goes to.  Neither is a
# functor: the first sends id_* to the map of Delta_1 onto vertex 0, an
# idempotent that is no identity; the second sends 0<=2 to vertex 1 while
# 0<=1 then 1<=2 give vertex 0.
NON_FUNCTORS = {
    "identity-to-idempotent": (fc.terminal_category(), {"*": 1}, {"id_*": (1, (0, 0))}),
    "wrong-composite": (fc.chain_category(2), {"0": 0, "1": 1, "2": 1},
                        {"0<=0": (0, (0,)), "1<=1": (1, (0, 1)), "2<=2": (1, (0, 1)),
                         "0<=1": (0, (0,)), "1<=2": (1, (0, 1)), "0<=2": (0, (1,))}),
}


def non_functor_records(base, ob, mo):
    """The functor record `holim`, `hocolim` and `groth` each read for one
    of `NON_FUNCTORS`, over the terminal site."""
    ts = fx.terminal_site()
    simp = [sp.delta_simpset(k, 2) for k in (0, 1)]
    shapes = [fc.chain_category(k) for k in (0, 1)]

    def val(m, u):
        out = {}
        for l in simp[m].levels:
            for s in l:
                epi, nd = sp.delta_value(u[t] for t in sp.delta_vertices(simp[m].nd_value(s)))
                out[s] = [list(epi), nd]
        return out

    def alpha(m, u):
        return {"obj": {str(t): str(u[t]) for t in range(m + 1)},
                "mor": {"%d<=%d" % (a, b): "%d<=%d" % (u[a], u[b])
                        for a in range(m + 1) for b in range(a, m + 1)}}

    def record(key, values, mor):
        return {key: io.encode_fincat(base), "objects": {a: values[k] for a, k in ob.items()},
                "morphisms": {mid: mor(m, u) for mid, (m, u) in mo.items()}}

    return {
        "holim": record("shape", [io.encode_simpset(x) for x in simp],
                        lambda m, u: {"val": val(m, u)}),
        "hocolim": record("shape", [io.encode_split(sp.as_split(ts.cat, x, "*")) for x in simp],
                          lambda m, u: {"val": val(m, u),
                                        "part": dict.fromkeys(val(m, u), "id_*")}),
        "groth": record("base", [io.encode_diagram(dg.DiaObj(c, fc.FinFunctor.constant(
                            c, ts.cat, "*"))) for c in shapes],
                        lambda m, u: {"alpha": alpha(m, u),
                                      "f": {str(t): "id_*" for t in range(m + 1)}}),
    }


@pytest.mark.parametrize("command", ["holim", "hocolim", "groth"])
@pytest.mark.parametrize("case", sorted(NON_FUNCTORS))
def test_cli_refuses_non_functor(tmp_path, capsys, command, case):
    """The functor laws are checked where the functor enters: each command
    exits 2 with `input error:` on a record whose values and maps are all
    valid but that is not a functor."""
    functor = tmp_path / "f.json"
    functor.write_text(io.dumps(non_functor_records(*NON_FUNCTORS[case])[command]))
    flags = {"holim": ["--trunc", "2"], "hocolim": ["--trunc", "2", "--site", "terminal"],
             "groth": ["--site", "terminal"]}[command]
    assert run_cli([command, "--functor", str(functor)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: X: not strict" if command != "groth"
                          else "input error: F: not strict")


@pytest.mark.parametrize("flags,code,err", [
    ([], 1, "error: level 6 beyond truncation 2 of X(*)\n"),
    (["--trunc", "3"], 1, "error: level 3 beyond truncation 2 of X(*)\n"),
    (["--trunc", "2"], 0, ""),
], ids=["default", "3", "2"])
def test_cli_holim_refuses_a_truncation_past_a_value(tmp_path, capsys, flags, code, err):
    """On the terminal shape with value Delta_1 truncated at 2, `holim`
    exits 1 with the truncation error, as `hocolim` does, at the default
    `--trunc` 6 and at 3, not with a raw IndexError; at 2 it runs."""
    x = sp.delta_simpset(1, 2)
    vals = {s: [list(sp.mt_id(k)), s] for k, l in enumerate(x.levels) for s in l}
    functor = tmp_path / "f.json"
    functor.write_text(io.dumps({"shape": io.encode_fincat(fc.terminal_category()),
                                 "objects": {"*": io.encode_simpset(x)},
                                 "morphisms": {"id_*": {"val": vals}}}))
    argv = ["holim", "--functor", str(functor), "--out", str(tmp_path / "r.json")]
    assert run_cli(argv + flags) == code
    assert capsys.readouterr().err == err


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "diacats.cli", "compare", "hocolimnerve",
         "--trunc", "3"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert '"ok": true' in proc.stdout


def malformed_inputs(tmp_path):
    """Command lines whose input misses a key, has the wrong type or names an
    id its category or universe does not have, each by one change to a
    valid input."""
    ps, ts = fx.pseudocircle_site(), fx.terminal_site()
    pt = dg.point_dia(ps.cat, "{a}")
    groth = {"base": io.encode_fincat(fc.terminal_category()),
             "objects": {"*": io.encode_diagram(pt)},
             "morphisms": {"id_*": {"alpha": {"obj": {"*": "*"}, "mor": {"id_*": "id_*"}},
                                    "f": {"*": "{a}<={a}"}}}}
    x = sp.constant_split(ts.cat, "*", 2)
    vals = {s: [list(sp.mt_id(k)), s] for k, l in enumerate(x.levels) for s in l}
    hocolim = {"shape": io.encode_fincat(fc.terminal_category()),
               "objects": {"*": io.encode_split(x)},
               "morphisms": {"id_*": {"val": vals, "part": {s: "id_*" for s in vals}}}}
    holim = {"shape": io.encode_fincat(fc.terminal_category()),
             "objects": {"*": io.encode_simpset(x.uset)},
             "morphisms": {"id_*": {"val": vals}}}
    d2, bd2 = sp.delta_simpset(2, 3), sp.boundary_delta(2, 3)
    qmap = {"src": io.encode_simpset(bd2), "tgt": io.encode_simpset(d2),
            "val": {s: [list(v[0]), v[1]] for s, v in sp.inclusion_map(bd2, d2).val.items()}}

    def write(name, data, *path):
        data = json.loads(json.dumps(data))
        cur = data
        for key in path[:-1]:
            cur = cur[key]
        if path:
            del cur[path[-1]]
        f = tmp_path / name
        f.write_text(json.dumps(data))
        return str(f)

    cat = write("c1.json", io.encode_fincat(fc.chain_category(1)))
    uni = write("u.json", io.encode_universe(lc.poset_universe(ts, 2)))
    return {
        "groth-no-base": ["groth", "--site", "pseudocircle", "--functor",
                          write("g1.json", groth, "base")],
        "groth-no-alpha": ["groth", "--site", "pseudocircle", "--functor",
                           write("g2.json", groth, "morphisms", "id_*", "alpha")],
        "hocolim-no-part": ["hocolim", "--site", "terminal", "--functor",
                            write("h1.json", hocolim, "morphisms", "id_*", "part")],
        "hocolim-no-map": ["hocolim", "--site", "terminal", "--functor",
                           write("h2.json", hocolim, "morphisms", "id_*")],
        "holim-no-shape": ["holim", "--functor", write("l1.json", holim, "shape")],
        "holim-no-val": ["holim", "--functor", write("l2.json", holim, "morphisms", "id_*", "val")],
        "quasi-iso-no-src": ["quasi-iso", "--map", write("q.json", qmap, "src")],
        "localize-weq-not-a-list": ["localize", "--cat", cat, "--weq", write("w1.json", 3)],
        "localize-weq-unknown-id": ["localize", "--cat", cat, "--weq", write("w2.json", ["zzz"])],
        "limits-pullback-unknown-id": ["limits", "--cat", cat, "--pullback", "0<=1", "zzz"],
        "limits-product-unknown-id": ["limits", "--cat", cat, "--product", "0", "zzz"],
        "closure-seed-unknown-id": ["localizer-closure", "--universe", uni,
                                    "--seed-file", write("s1.json", ["zzz"])],
        "check-weq-not-a-list": ["localizer-check", "--universe", uni,
                                 "--weq", write("s2.json", {"m0": 1})],
        "cech-unknown-leg": ["cech", "--site", "pseudocircle", "--family", "zzz"],
    }


MALFORMED = ["groth-no-base", "groth-no-alpha", "hocolim-no-part", "hocolim-no-map",
             "holim-no-shape", "holim-no-val", "quasi-iso-no-src",
             "localize-weq-not-a-list", "localize-weq-unknown-id",
             "limits-pullback-unknown-id", "limits-product-unknown-id",
             "closure-seed-unknown-id", "check-weq-not-a-list", "cech-unknown-leg"]


@pytest.mark.parametrize("case", MALFORMED)
def test_cli_malformed_input_exits_2(tmp_path, capsys, case):
    """Exit 2 with `input error:` on stderr, not a traceback (exit 1 is a
    property violation)."""
    argv = malformed_inputs(tmp_path)
    assert sorted(argv) == sorted(MALFORMED)
    assert run_cli(argv[case]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err
