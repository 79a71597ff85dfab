"""Tests of the benchmark itself: the gate fires, every metric is printed
with its unit, and a checkout without the program fails without a result.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def full():
    return workloads.build(run.SRC)


@pytest.fixture(scope="module")
def smoke():
    return workloads.build(run.SRC, smoke=True)


@pytest.fixture
def run_dir():
    path = run.OUT / "tests"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_goldens_apply_to_current_workloads(full):
    for name in ("sweep_uniform", "fit_toy", "gradcheck"):
        assert full[name].golden, f"{name}: recorded args no longer match"


def test_corrupted_backward_counts_as_failed(full, run_dir):
    env = dict(run.child_env(), MOELAB_CORRUPT_BACKWARD="2")
    rec, _ = run.run_op(full["gradcheck"], 0, 0, "cli", env, run_dir)
    assert rec.rc == 2
    assert any("gradcheck failed" in p for p in rec.problems)


def test_known_gradcheck_defect_is_counted(full, run_dir):
    # bigmac reports 1.33e-4 against the 1e-4 threshold at seed 6.
    rec, _ = run.run_op(full["gradcheck"], 0, 6, "cli", run.child_env(),
                        run_dir)
    assert rec.problems


def test_altered_expected_value_counts_as_failed(smoke, run_dir):
    wl = smoke["sweep_uniform"]
    env = run.child_env()
    p = run.spawn([sys.executable, "-m", "moelab.cli", *wl.op_args(5)], env)
    expected = json.loads(p.stdout)
    ok, _ = run.run_op(replace(wl, golden={"5": expected}), 0, 5, "cli", env,
                       run_dir)
    assert ok.problems == []
    expected[0]["a2a_bytes_fwd"] += 1
    bad, _ = run.run_op(replace(wl, golden={"5": expected}), 0, 5, "cli",
                        env, run_dir)
    assert bad.problems == [
        f"$[0].a2a_bytes_fwd: {expected[0]['a2a_bytes_fwd'] - 1} != "
        f"recorded {expected[0]['a2a_bytes_fwd']}"]


def test_compare_allows_new_fields_and_float_tolerance():
    rec = {"a": 1, "b": [1.0, 2.0]}
    new_field = {"a": 1, "b": [1.0, 2.0], "new": 0}
    assert workloads.compare(rec, new_field, 0.0) == []
    assert workloads.compare(rec, {"a": 1, "b": [1.0, 2.000001]}, 1e-6) == []
    assert workloads.compare(rec, {"a": 1, "b": [1.0, 2.00001]}, 1e-6)
    assert workloads.compare(rec, {"b": [1.0, 2.0]}, 0.0) == ["$.a: missing"]


def test_malformed_output_counts_as_failed(smoke):
    for name, out in (("sweep_uniform", b"[1, 2]"), ("gradcheck", b"[]"),
                      ("fit_toy", b'{"vanilla": {"losses": 3}}'),
                      ("simulate_learned", b"not json")):
        assert workloads.gate(smoke[name], 0, 0, out), name


def test_self_time_subtracts_children():
    report = {"main_s": 1.0, "import_s": 0.5, "counters": {}, "absent": [],
              "names": ["outer", "inner"],
              "spans": [[0, 0, 10_000, -1, 0], [1, 2_000, 5_000, 0, 0],
                        [1, 6_000, 7_000, 0, 0]]}
    t = run.aggregate(report)
    assert t.self_s == {"outer": 6e-6, "inner": 4e-6}
    assert t.total_s["outer"] == 1e-5 and t.calls == {"outer": 1, "inner": 2}


def test_missing_target_is_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS",
                        (("kernels", "no_such_kernel", "kernels.x", None),))
    t = tracer.Tracer(0)
    t.install()
    assert t.report()["absent"] == ["kernels.no_such_kernel"]


def test_span_metrics_name_existing_targets():
    keys = {tracer.target_key(m, p) for m, p, _, _ in tracer.TARGETS}
    for name, _, sources, _ in run.per_layer_specs():
        assert set(sources) <= keys, name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"  {m['name']} " in proc.stdout
    assert "error_rate" in proc.stdout


def test_fails_without_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
