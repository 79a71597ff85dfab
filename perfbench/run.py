"""End-to-end benchmark of the moelab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Load is a closed loop with one client: one
operation at a time, each in a fresh subprocess, from this one benchmark
process. Every operation's output passes the workload's correctness gate
(``workloads.gate``); a failed gate or a non-zero exit counts the
operation as failed and the run goes on.

``--trace 0`` runs ``python -m moelab.cli ...`` untraced and reports the
end-to-end metrics. ``--trace 1`` alternates an unwrapped and a wrapped
in-process run of the same operation through ``tracer.py`` and reports the
per-layer metrics of the wrapped ones, plus the tracing overhead.

Human-readable lines come first (environment, failures, every metric with
its unit); the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Per-operation
records and spans go to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_REPEATS = 9
# Every subprocess runs BLAS on one thread. On a 2-core machine shared with
# other load, threaded BLAS makes wall time bimodal (simulate_learned took
# 7.0 s when the second core was free and 9.2 s when it was not), which no
# number of operations per run can average out.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
OP_TIMEOUT_S = 150.0

SETUP_CODE = """\
import json, sys
import moelab.cli
from moelab import kernels
from moelab.config import load_config
load_config(None, sys.argv[1:])
print(json.dumps({"moelab": moelab.cli.__file__,
                  "use_numba": bool(kernels.USE_NUMBA)}))
"""

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "items_per_s": "1/s"}

# Per-layer metrics read off one span name: (span name, the TARGETS keys
# that record it, fields). self_s is span time minus child spans, total_s
# the whole span, calls the number of spans; any other field is a counter
# named "<span>.<field>".
SPAN_METRICS = (
    ("kernels.topk_desc", ("kernels.topk_desc",), ("self_s", "calls", "rows")),
    ("kernels.capacity_drop_mask", ("kernels.capacity_drop_mask",),
     ("self_s", "calls", "elements")),
    ("kernels.pair_counts", ("kernels.pair_counts",),
     ("self_s", "calls", "elements")),
    ("ep_sim.synthetic_plan", ("ep_sim.synthetic_plan",), ("self_s", "calls")),
    ("ep_sim.report_for_plan", ("ep_sim.report_for_plan",),
     ("self_s", "calls")),
    ("ep_sim.build_manifest", ("ep_sim.build_manifest",), ("self_s", "calls")),
    ("ep_sim.estimate_latency", ("ep_sim.estimate_latency",), ("self_s",)),
    ("moe_block.route", ("moe_block.route",), ("self_s", "calls")),
    ("moe_block.apply_capacity", ("moe_block.apply_capacity",),
     ("self_s", "calls")),
    ("moe_block.forward",
     ("moe_block._forward_parts", "moe_block.moe_forward"),
     ("self_s", "calls", "total_s")),
    ("moe_block.expert_forward", ("moe_block.expert_forward",), ("calls",)),
    ("moe_block.gradcheck_block", ("moe_block.gradcheck_block",), ("self_s",)),
    ("tensor_core.backward", ("tensor_core.Tensor.backward",),
     ("self_s", "calls")),
    ("tensor_core.matmul", ("tensor_core.matmul",), ("self_s", "calls")),
    ("tensor_core.gather_rows", ("tensor_core.gather_rows",), ("calls",)),
    ("tensor_core.scatter_rows", ("tensor_core.scatter_rows",), ("calls",)),
    ("tensor_core.softmax_rows_np", ("tensor_core.softmax_rows_np",),
     ("self_s",)),
    ("tensor_core.finite_diff_grad", ("tensor_core.finite_diff_grad",),
     ("self_s", "probes")),
    ("toy_fit.run_toy_fit", ("toy_fit.run_toy_fit",), ("self_s",)),
    ("config.load_config", ("config.load_config",), ("self_s",)),
    ("cli.emit_reports", ("cli._emit_reports",), ("self_s",)),
    ("analytics.a2a_transfer_formula", ("analytics.a2a_transfer_formula",),
     ("calls",)),
)


@dataclass
class OpTrace:
    """Aggregates of one traced operation."""

    main_s: float
    import_s: float
    self_s: dict = field(default_factory=dict)
    total_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    absent: set = field(default_factory=set)

    def ratio(self, num: str, den: str) -> float | None:
        d = self.counters.get(den, 0)
        return self.counters.get(num, 0) / d if d else None


def _share_kept(t: OpTrace) -> float | None:
    dropped = t.ratio("moe_block.dropped", "moe_block.assignments")
    return None if dropped is None else 1.0 - dropped


def _ns_per_assignment(t: OpTrace) -> float | None:
    n = t.counters.get("ep_sim.assignments", 0)
    return t.total_s.get("ep_sim.sweep_topk", 0.0) * 1e9 / n if n else None


# Per-layer metrics derived from counters: (name, unit, TARGETS keys, value).
DERIVED_METRICS = (
    ("ep_sim.assignments", "count", ("ep_sim.synthetic_plan",),
     lambda t: t.counters.get("ep_sim.assignments", 0)),
    ("ep_sim.host_ns_per_assignment", "ns",
     ("ep_sim.sweep_topk", "ep_sim.synthetic_plan"), _ns_per_assignment),
    ("ep_sim.drop_share", "share", ("ep_sim.report_for_plan",),
     lambda t: t.ratio("ep_sim.drops", "ep_sim.priced_assignments")),
    ("ep_sim.cross_device_share", "share", ("ep_sim.build_manifest",),
     lambda t: t.ratio("ep_sim.cross_device", "ep_sim.kept")),
    ("moe_block.kept_share", "share", ("moe_block.apply_capacity",),
     _share_kept),
    ("tensor_core.graph_nodes", "count",
     ("tensor_core.ComputeGraph.from_output",),
     lambda t: t.ratio("tensor_core.graph_nodes_total", "tensor_core.graphs")),
    ("tensor_core.tensors_created", "count", ("tensor_core.Tensor.__init__",),
     lambda t: t.counters.get("tensor_core.Tensor.__init__.calls", 0)),
    ("toy_fit.steps", "count", ("toy_fit.run_toy_fit",),
     lambda t: t.counters.get("toy_fit.steps", 0)),
    ("cli.import.self_s", "s", (), lambda t: t.import_s),
    ("trace.op_s", "s", (), lambda t: t.main_s),
)

FIELD_UNITS = {"self_s": "s", "total_s": "s"}


def _field_value(span: str, f: str):
    if f in ("self_s", "total_s"):
        return lambda t: getattr(t, f).get(span, 0.0)
    if f == "calls":
        return lambda t: t.calls.get(span, 0)
    return lambda t: t.counters.get(f"{span}.{f}", 0)


def per_layer_specs() -> list[tuple]:
    """Every per-layer metric except trace.overhead_share, as
    (name, unit, TARGETS keys, value of one OpTrace)."""
    return [(f"{span}.{f}", FIELD_UNITS.get(f, "count"), keys,
             _field_value(span, f))
            for span, keys, fields in SPAN_METRICS for f in fields
            ] + list(DERIVED_METRICS)


def aggregate(report: dict) -> OpTrace:
    """Self time, total time and calls per span name of one operation."""
    t = OpTrace(report["main_s"], report["import_s"],
                counters=report["counters"], absent=set(report["absent"]))
    names, spans = report["names"], report["spans"]
    self_ns, total_ns = {}, {}
    for sid, start, end, parent, _op in spans:
        name, dur = names[sid], end - start
        self_ns[name] = self_ns.get(name, 0) + dur
        total_ns[name] = total_ns.get(name, 0) + dur
        t.calls[name] = t.calls.get(name, 0) + 1
        if parent >= 0:
            pname = names[spans[parent][0]]
            self_ns[pname] = self_ns.get(pname, 0) - dur
    t.self_s = {k: v / 1e9 for k, v in self_ns.items()}
    t.total_s = {k: v / 1e9 for k, v in total_ns.items()}
    return t


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: str


def spawn(cmd: list[str], env: dict) -> Proc:
    """Run one subprocess, stdout captured, timed from spawn to exit; CPU
    time and peak RSS come from its own rusage."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            killer.cancel()
            killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, out, stderr)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def measure_setup(wl: workloads.Workload, env: dict) -> tuple[float, dict]:
    """Start a subprocess, import moelab.cli, load the workload's config and
    exit. Returns the wall time and what the child reported about the
    package it imported."""
    p = spawn([sys.executable, "-c", SETUP_CODE, *wl.overrides], env)
    if p.rc != 0:
        raise SystemExit(f"perfbench: set-up failed (exit {p.rc}):\n"
                         f"{p.stderr}")
    info = json.loads(p.stdout)
    if not Path(info["moelab"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported moelab from {info['moelab']}, "
                         f"not from {SRC}")
    return p.wall_s, info


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which
    would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, use_numba: bool, env: dict) -> dict:
    """What a result depends on besides the code; ``env`` is the
    environment the operations ran with."""
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {k: env[k] for k in BLAS_THREADS}
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_name,
            "blas_threads": threads,
            "kernels.USE_NUMBA": use_numba, "commit": git_commit(),
            "seed": seed}


@dataclass
class OpRecord:
    op: int
    seed: int
    kind: str
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list


def run_op(wl: workloads.Workload, op: int, op_seed: int, kind: str,
           env: dict, run_dir: Path) -> tuple[OpRecord, dict | None]:
    """One gated operation. ``kind`` is "cli" (python -m moelab.cli),
    "plain" or "traced" (through tracer.py, unwrapped or wrapped)."""
    args = wl.op_args(op_seed)
    report_path = run_dir / f"op{op}.json.gz"
    if kind == "cli":
        cmd = [sys.executable, "-m", "moelab.cli", *args]
    else:
        cmd = [sys.executable, str(TRACER), "--report", str(report_path),
               "--op-id", str(op), "--wrap", str(int(kind == "traced")),
               "--", *args]
    p = spawn(cmd, env)
    problems = workloads.gate(wl, op_seed, p.rc, p.stdout)
    report = None
    if kind != "cli":
        try:
            with gzip.open(report_path, "rt", encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError, EOFError):
            problems.append("tracer wrote no report")
    if problems and p.stderr.strip():
        problems.append("stderr: " + p.stderr.strip().splitlines()[-1])
    return OpRecord(op, op_seed, kind, p.rc, p.wall_s, p.cpu_s, p.rss_mb,
                    problems), report


def run_ops(wl, seed: int, seconds: float, trace: bool, env: dict,
            run_dir: Path, setups: list) -> tuple[list, list]:
    """Operations one after another until the next one would end past
    ``seconds``; at least one (one pair when tracing). Set-up is measured
    until ``setups`` holds SETUP_REPEATS times, spread evenly over the
    window: the machine's speed drifts within tens of seconds, and set-up
    should see the same machine as the operations."""
    kinds = ("plain", "traced") if trace else ("cli",)
    records, reports = [], []
    start = time.perf_counter()
    while True:
        while (len(setups) < SETUP_REPEATS and time.perf_counter() - start
               >= len(setups) * seconds / SETUP_REPEATS):
            setups.append(measure_setup(wl, env)[0])
        t0 = time.perf_counter()
        for kind in kinds:
            op = len(records)
            rec, report = run_op(wl, op, seed * workloads.OP_SEED_STRIDE + op,
                                 kind, env, run_dir)
            records.append(rec)
            if report is not None:
                reports.append(report)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(wl, env)[0])
    return records, reports


def layer_metrics(reports: list) -> tuple[dict, list]:
    """Median over wrapped operations of each per-layer metric, plus the
    names of metrics whose functions are absent or that saw no data."""
    plain = [r["main_s"] for r in reports if not r["wrapped"]]
    traced = [aggregate(r) for r in reports if r["wrapped"]]
    absent = set().union(*(t.absent for t in traced))
    metrics, missing = {}, []
    for name, unit, keys, value in per_layer_specs():
        values = [v for v in (value(t) for t in traced) if v is not None]
        if not values or (keys and all(k in absent for k in keys)):
            missing.append(name)
        metrics[name] = {"value": statistics.median(values) if values else 0.0,
                         "unit": unit}
    overhead = (statistics.median(t.main_s for t in traced)
                / statistics.median(plain) - 1.0) if traced and plain else 0.0
    metrics["trace.overhead_share"] = {"value": overhead, "unit": "share"}
    return metrics, missing


def bench(wl: workloads.Workload, seed: int, seconds: float,
          trace: bool) -> dict:
    """One run of one workload: set-up, operations, metrics. Prints the
    human-readable block and returns the result object."""
    run_dir = OUT / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    env = child_env()
    first_setup, info = measure_setup(wl, env)
    env_record = environment(seed, info["use_numba"], env)
    setup_walls = [first_setup]
    records, reports = run_ops(wl, seed, seconds, trace, env, run_dir,
                               setup_walls)
    failed = [r for r in records if r.problems]

    if trace:
        metrics, missing = layer_metrics(reports)
    else:
        walls = [r.wall_s for r in records]
        values = {"setup_s": statistics.median(setup_walls),
                  "wall_s": statistics.median(walls),
                  "cpu_s": statistics.median(r.cpu_s for r in records),
                  "peak_rss_mb": statistics.median(r.rss_mb for r in records),
                  "items_per_s": wl.items_per_op / statistics.median(walls)}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}
        missing = []

    result = {"correct": not failed, "attempted": len(records),
              "failed": len(failed), "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {"env": env_record, "workload": wl.name, "setup_s": setup_walls,
         "ops": [vars(r) for r in records], **result}, indent=1))

    print("env " + json.dumps(env_record, sort_keys=True))
    for r in failed:
        print(f"FAILED op {r.op} (seed {r.seed}, {r.kind}): "
              + "; ".join(r.problems[:5]))
    print(f"workload {wl.name}: {len(records)} operations, {len(failed)} "
          f"failed; one operation is {wl.items_per_op:g} {wl.item_unit}")
    print(f"  {'error_rate':<44} {len(failed) / len(records):.6g} share "
          f"({len(failed)} of {len(records)} operations)")
    for name, m in metrics.items():
        note = " (absent or no data)" if name in missing else ""
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}{note}")
    if not trace:
        print(f"  medians over {len(records)} operations and "
              f"{len(setup_walls)} set-ups")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    opts = parser.parse_args(argv)

    if not (SRC / "moelab" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no moelab sources under {SRC}\n")
        return 1
    all_workloads = workloads.build(SRC, smoke=opts.smoke)
    names = list(all_workloads) if opts.workload == "all" else [opts.workload]
    if not set(names) <= set(all_workloads):
        sys.stderr.write(f"perfbench: unknown workload {opts.workload!r}; "
                         f"choose from {sorted(all_workloads)} or all\n")
        return 1
    results = {name: bench(all_workloads[name], opts.seed, opts.seconds,
                           bool(opts.trace)) for name in names}
    if opts.workload != "all":
        print(json.dumps(results[opts.workload]))
        return 0
    # One object for all workloads: metric names gain a workload prefix.
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": m for name, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
