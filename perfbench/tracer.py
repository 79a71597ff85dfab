"""Run one moelab CLI operation in this process, optionally traced.

    python3 perfbench/tracer.py --report PATH.gz --op-id N --wrap 0|1 \
        -- ARGS...

Imports ``moelab.cli``, then calls ``moelab.cli.main(ARGS)`` and exits with
its code; the CLI's stdout passes through untouched. With ``--wrap 1`` the
calls into each layer are timed from outside: every function in ``TARGETS``
is replaced by a wrapper in every moelab namespace that binds it, which
catches names bound with ``from ... import`` (``cli.load_config``,
``ep_sim.apply_capacity``, ``toy_fit._forward_parts``). Nothing in the
package changes on disk.

A span records name, start, end, parent span and operation id. Spans and
counters stay in memory while the operation runs and are written to the
gzipped ``--report`` JSON file after ``main`` returns, together with the
import time and the in-process wall time of ``main``. A target that no
longer exists, or whose counter can no longer read its arguments, is
reported as absent.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(c, a, k, r):
    c["kernels.topk_desc.rows"] += _arg(a, k, 0, "scores").shape[0]


def _drop_mask_elements(c, a, k, r):
    flat = _arg(a, k, 0, "expert_flat")
    c["kernels.capacity_drop_mask.elements"] += flat.size


def _pair_elements(c, a, k, r):
    c["kernels.pair_counts.elements"] += _arg(a, k, 0, "src").size


def _plan_assignments(c, a, k, r):
    c["ep_sim.assignments"] += r.assignments


def _priced(c, a, k, r):
    c["ep_sim.priced_assignments"] += _arg(a, k, 0, "plan").assignments
    c["ep_sim.drops"] += r.drops


def _manifest(c, a, k, r):
    if r.phase == "dispatch":
        total = int(r.counts.sum())
        c["ep_sim.kept"] += total
        c["ep_sim.cross_device"] += total - int(r.counts.trace())


def _capacity(c, a, k, r):
    c["moe_block.assignments"] += r.dropped.size
    c["moe_block.dropped"] += int(r.dropped.sum())


def _graph(c, a, k, r):
    c["tensor_core.graphs"] += 1
    c["tensor_core.graph_nodes_total"] += len(r.ordered)


def _probes(c, a, k, r):
    c["tensor_core.finite_diff_grad.probes"] += _arg(a, k, 1, "x").size


def _steps(c, a, k, r):
    c["toy_fit.steps"] += sum(len(t) - 1 for t in r.losses.values())


# (module, attribute path, span name or None for a count-only hook,
#  counter update run after the call as f(counters, args, kwargs, result)).
# A count-only hook also counts its calls as "<module>.<path>.calls".
TARGETS = (
    ("kernels", "topk_desc", "kernels.topk_desc", _rows),
    ("kernels", "capacity_drop_mask", "kernels.capacity_drop_mask",
     _drop_mask_elements),
    ("kernels", "pair_counts", "kernels.pair_counts", _pair_elements),
    ("ep_sim", "sweep_topk", "ep_sim.sweep_topk", None),
    ("ep_sim", "synthetic_plan", "ep_sim.synthetic_plan", _plan_assignments),
    ("ep_sim", "report_for_plan", "ep_sim.report_for_plan", _priced),
    ("ep_sim", "build_manifest", "ep_sim.build_manifest", _manifest),
    ("ep_sim", "estimate_latency", "ep_sim.estimate_latency", None),
    ("moe_block", "route", "moe_block.route", None),
    ("moe_block", "apply_capacity", "moe_block.apply_capacity", _capacity),
    # One span name for both entry points into the block's forward pass:
    # toy_fit calls _forward_parts, gradcheck_block calls moe_forward
    # (which calls _forward_parts; the nested span merges into its parent).
    ("moe_block", "_forward_parts", "moe_block.forward", None),
    ("moe_block", "moe_forward", "moe_block.forward", None),
    ("moe_block", "expert_forward", "moe_block.expert_forward", None),
    ("moe_block", "gradcheck_block", "moe_block.gradcheck_block", None),
    ("tensor_core", "Tensor.backward", "tensor_core.backward", None),
    ("tensor_core", "Tensor.__init__", None, None),
    ("tensor_core", "ComputeGraph.from_output", None, _graph),
    ("tensor_core", "matmul", "tensor_core.matmul", None),
    ("tensor_core", "gather_rows", "tensor_core.gather_rows", None),
    ("tensor_core", "scatter_rows", "tensor_core.scatter_rows", None),
    ("tensor_core", "softmax_rows_np", "tensor_core.softmax_rows_np", None),
    ("tensor_core", "finite_diff_grad", "tensor_core.finite_diff_grad",
     _probes),
    ("toy_fit", "run_toy_fit", "toy_fit.run_toy_fit", _steps),
    ("config", "load_config", "config.load_config", None),
    ("cli", "_emit_reports", "cli.emit_reports", None),
    ("analytics", "a2a_transfer_formula", "analytics.a2a_transfer_formula",
     None),
)

# Counter hooks only read attributes of arguments and results; these are
# the errors a refactor that changes those shapes would raise.
_MEASURE_ERRORS = (AttributeError, TypeError, KeyError, IndexError, ValueError)


def target_key(module: str, path: str) -> str:
    return f"{module}.{path}"


class Tracer:
    """Spans and counters of one operation, held in memory."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name id, start ns, end ns, parent span index or -1, op id]
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.name_id(name), start_ns, end_ns, parent,
                           self.op_id])

    def _measure(self, key, measure, args, kwargs, result) -> None:
        try:
            measure(self.counters, args, kwargs, result)
        except _MEASURE_ERRORS:
            self.absent.add(key)

    def wrap(self, fn, key: str, span: str | None, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        op_id = self.op_id

        if span is None:
            counters, calls = self.counters, f"{key}.calls"

            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters[calls] += 1
                if measure is not None:
                    self._measure(key, measure, args, kwargs, result)
                return result
            return count_only

        sid = self.name_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == sid:
                return fn(*args, **kwargs)  # re-entry: part of the parent
            record = [sid, clock(), 0, stack[-1] if stack else -1, op_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if measure is not None:
                self._measure(key, measure, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target wherever a moelab namespace binds it."""
        namespaces = [m for name, m in sys.modules.items()
                      if name == "moelab" or name.startswith("moelab.")]
        for module, path, span, measure in TARGETS:
            key = target_key(module, path)
            owner = sys.modules.get(f"moelab.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = (inspect.getattr_static(owner, attr, None)
                   if owner is not None else None)
            if raw is None:
                self.absent.add(key)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    self.wrap(raw.__func__, key, span, measure)))
                continue
            wrapped = self.wrap(raw, key, span, measure)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is raw:
                        setattr(ns, name, wrapped)

    def report(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": dict(self.counters),
                "absent": sorted(self.absent)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--op-id", type=int, required=True)
    parser.add_argument("--wrap", type=int, choices=(0, 1), required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args
    if cli_args[:1] == ["--"]:
        cli_args = cli_args[1:]

    tracer = Tracer(opts.op_id)
    t0 = time.perf_counter_ns()
    import moelab.cli
    t1 = time.perf_counter_ns()
    tracer.add_span("cli.import", t0, t1)
    if opts.wrap:
        tracer.install()
    start = time.perf_counter_ns()
    rc = moelab.cli.main(cli_args)
    end = time.perf_counter_ns()
    sys.stdout.flush()

    report = {"op_id": opts.op_id, "rc": rc, "wrapped": bool(opts.wrap),
              "import_s": (t1 - t0) / 1e9, "main_s": (end - start) / 1e9,
              **tracer.report()}
    with gzip.open(opts.report, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(report, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
