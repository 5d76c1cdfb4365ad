"""Smoke test of the benchmark: every workload at a tiny size, with tracing
off and on.

    python3 -m pytest bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_declared_metrics(workload, trace):
    out = bench(["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"])
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == \
        {d["name"]: d["unit"] for d in declared}
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_declared_workloads_exist():
    run.import_program()
    import workloads
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


def _wrapped():
    """For each traced target, whether the program now calls a wrapper."""
    return [hasattr(spans.current(name), "__wrapped__") for name, _, _ in spans.TARGETS]


def test_untraced_passes_run_the_original_functions(monkeypatch, capsys):
    seen = []
    real_pass = run.run_pass

    def spy(instances, tally, probe, tracer=None):
        seen.append((tracer is not None, _wrapped()))
        return real_pass(instances, tally, probe, tracer)

    monkeypatch.setattr(run, "run_pass", spy)
    args = ["--workload", "gadget", "--seconds", "0.1", "--size", "tiny"]
    run.main(args + ["--trace", "0"])
    assert seen and all(not traced and not any(w) for traced, w in seen)

    seen.clear()
    run.main(args + ["--trace", "1"])
    assert [traced for traced, _ in seen] == [False, True]
    for traced, wrapped in seen:
        assert all(wrapped) if traced else not any(wrapped)
    assert not any(_wrapped())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench(["--workload", "gadget", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
