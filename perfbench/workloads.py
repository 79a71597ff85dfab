"""The benchmark's workloads: one CLI operation each, its work units and
the correctness gate every operation's output must pass.

An operation is one ``python -m moelab.cli ...`` invocation with
``--format json``. Operation ``i`` of a run with workload seed ``s`` passes
``--seed s * OP_SEED_STRIDE + i`` to the CLI, so a run's inputs follow
from the workload seed alone and runs with different seeds never share an
operation seed.

The gate has two parts:

* invariants checked at every seed (see each ``_check_*`` function);
* a field-by-field comparison with outputs recorded from the seed commit
  (``golden/<workload>.json``, written by ``record_golden.py``) for the
  operation seeds of the default workload seed. The comparison applies
  only when the operation's CLI arguments equal the recorded ones. Fields
  the program adds later are allowed; recorded fields must be present.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

OP_SEED_STRIDE = 1000
DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SIM_VARIANTS = ("fine_grained", "bigmac")
ALL_VARIANTS = ("vanilla", "fine_grained", "bigmac")
SWEEP_TOPKS = (1, 2, 4, 6, 8)
DEFAULT_B_TOKENS = 524288
LEARNED_B_TOKENS = 131072
LEARNED_TOP_K = 8
FIT_STEPS = 100
GRADCHECK_THRESHOLD = 1e-4

# At the seed commit the learned router spreads load evenly enough that no
# assignment is dropped at f=1.2 (drop share 0.0 at 8 of 8 sampled seeds;
# the busiest expert stays far below capacity). A rewrite that keeps the
# routing distribution must stay within this absolute tolerance.
LEARNED_DROP_SHARE_REF = 0.0
LEARNED_DROP_SHARE_TOL = 1e-3

# Recorded simulator floats are compared with this relative tolerance, so
# only reassociated arithmetic passes; integers and strings must be equal.
SIM_RTOL = 1e-12
# Loss trajectories: reordered sums in the forward or backward pass move
# the losses in their last digits, and 100 SGD steps amplify that a little.
FIT_LOSS_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``args`` are the CLI arguments of one operation without ``--seed``;
    ``overrides`` are its ``--set`` values, which set-up loads too.
    ``items_per_op`` counts work units of one operation in ``item_unit``.
    ``check`` returns the invariant violations of one parsed output;
    ``pin`` selects the part of an output that the golden file records.
    """

    name: str
    args: tuple[str, ...]
    overrides: tuple[str, ...]
    item_unit: str
    items_per_op: float
    check: Callable[[object], list[str]]
    pin: Callable[[object], object] = lambda out: out
    rtol: float = 0.0
    golden: dict = field(default_factory=dict)

    def op_args(self, op_seed: int) -> list[str]:
        return [*self.args, "--seed", str(op_seed)]


def _with_sets(command: list[str], overrides: tuple[str, ...]) -> tuple:
    out = list(command)
    for item in overrides:
        out += ["--set", item]
    return tuple(out + ["--format", "json"])


def _check_sim_rows(rows, topks) -> list[str]:
    """Invariants of simulate/sweep output at any seed: one row per
    (top_k, variant); bigmac moves exactly r times the fine_grained bytes;
    both variants of a top_k share one plan, so their drops are equal; the
    backward all-to-all mirrors the forward one."""
    if not isinstance(rows, list):
        return [f"expected a JSON list of rows, got {type(rows).__name__}"]
    problems = []
    got = sorted((row.get("top_k"), row.get("variant")) for row in rows)
    want = sorted((k, v) for k in topks for v in SIM_VARIANTS)
    if got != want:
        return [f"rows cover {got}, expected {want}"]
    drops: dict = {}
    for row in rows:
        tag = f"top_k={row['top_k']} {row['variant']}"
        if row.get("bytes_ratio") != row.get("r"):
            problems.append(f"{tag}: bytes_ratio {row.get('bytes_ratio')!r}"
                            f" != r {row.get('r')!r}")
        if row.get("a2a_bytes_fwd") != row.get("a2a_bytes_bwd"):
            problems.append(f"{tag}: a2a_bytes_fwd {row.get('a2a_bytes_fwd')}"
                            f" != a2a_bytes_bwd {row.get('a2a_bytes_bwd')}")
        drops.setdefault(row["top_k"], set()).add(row.get("drops"))
    for k, values in sorted(drops.items()):
        if len(values) != 1:
            problems.append(f"top_k={k}: variants disagree on drops "
                            f"{sorted(values, key=repr)}")
    return problems


def _check_learned(rows, b_tokens: int) -> list[str]:
    problems = _check_sim_rows(rows, (LEARNED_TOP_K,))
    if problems:
        return problems
    share = rows[0]["drops"] / (b_tokens * LEARNED_TOP_K)
    ref, tol = LEARNED_DROP_SHARE_REF, LEARNED_DROP_SHARE_TOL
    if abs(share - ref) > tol:
        problems.append(f"drop_share {share!r} is outside {ref} +- {tol}")
    return problems


def _check_fit_toy(payload, steps: int) -> list[str]:
    """Every variant trained ``steps`` steps to finite losses, and the
    summary fields agree with the trajectory."""
    if not isinstance(payload, dict):
        return [f"expected a JSON object, got {type(payload).__name__}"]
    problems = []
    for v in ALL_VARIANTS:
        res = payload.get(v)
        if not isinstance(res, dict):
            problems.append(f"{v}: missing from output")
            continue
        losses = res.get("losses") or []
        if res.get("steps") != steps or len(losses) != steps + 1:
            problems.append(f"{v}: steps {res.get('steps')} with "
                            f"{len(losses)} losses, expected {steps} "
                            f"and {steps + 1}")
            continue
        if not all(isinstance(x, float) and math.isfinite(x) for x in losses):
            problems.append(f"{v}: non-finite loss")
        if (res.get("initial_loss") != losses[0]
                or res.get("final_loss") != losses[-1]):
            problems.append(f"{v}: initial/final_loss disagree with losses")
    return problems


def _check_gradcheck(payload) -> list[str]:
    """Every variant's autodiff gradient matches central differences
    within the documented threshold."""
    if not isinstance(payload, dict):
        return [f"expected a JSON object, got {type(payload).__name__}"]
    problems = []
    for v in ALL_VARIANTS:
        res = payload.get(v)
        if not isinstance(res, dict):
            problems.append(f"{v}: missing from output")
            continue
        err = res.get("max_rel_error")
        if res.get("threshold") != GRADCHECK_THRESHOLD:
            problems.append(f"{v}: threshold {res.get('threshold')!r} != "
                            f"{GRADCHECK_THRESHOLD!r}")
        if (res.get("passed") is not True or not isinstance(err, float)
                or not err < GRADCHECK_THRESHOLD):
            problems.append(f"{v}: gradcheck failed, max_rel_error {err!r}")
    return problems


def _pin_gradcheck(payload) -> dict:
    """max_rel_error is central-difference round-off: reordering any sum
    moves it by orders of magnitude, so it is gated by the threshold, and
    only the reported threshold is recorded."""
    return {v: {"threshold": res["threshold"]} for v, res in payload.items()}


def gradcheck_probes(overrides: tuple[str, ...], src: Path) -> int:
    """Finite-difference probes of one gradcheck op: one per weight
    element of each variant's block, counted by the library itself."""
    sys.path.insert(0, str(src))
    import numpy as np
    from moelab import init_params, load_config, param_count_constructed
    cfg, _ = load_config(None, list(overrides))
    return sum(param_count_constructed(
        init_params(cfg, v, np.random.default_rng(0))) for v in ALL_VARIANTS)


def build(src: Path, smoke: bool = False) -> dict[str, Workload]:
    """All workloads by name. ``smoke`` shrinks every size so the whole set
    runs in seconds; smoke arguments never match the golden files."""
    b_sweep = 4096 if smoke else DEFAULT_B_TOKENS
    b_learned = 4096 if smoke else LEARNED_B_TOKENS
    steps = 3 if smoke else FIT_STEPS
    sweep_sets = (f"b_tokens={b_sweep}",) if smoke else ()
    learned_sets = (f"b_tokens={b_learned}",)
    fit_sets = (("h=8", "e=8", "top_k=2") if smoke
                else ("h=32", "e=64", "top_k=8")) + ("ep=1", "r=0.25")
    grad_sets = ("h=8", "e=4", "top_k=2", "ep=1", "r=0.5")

    topks = ",".join(str(k) for k in SWEEP_TOPKS)
    workloads = [
        Workload(
            "sweep_uniform",
            _with_sets(["sweep", "--mode", "uniform_random",
                        "--topk-list", topks], sweep_sets),
            sweep_sets, "assignments", float(sum(SWEEP_TOPKS) * b_sweep),
            partial(_check_sim_rows, topks=SWEEP_TOPKS), rtol=SIM_RTOL),
        Workload(
            "simulate_learned",
            _with_sets(["simulate", "--mode", "learned"], learned_sets),
            learned_sets, "assignments", float(LEARNED_TOP_K * b_learned),
            partial(_check_learned, b_tokens=b_learned)),
        Workload(
            "fit_toy",
            _with_sets(["fit-toy", "--steps", str(steps)], fit_sets),
            fit_sets, "steps", float(steps * len(ALL_VARIANTS)),
            partial(_check_fit_toy, steps=steps), rtol=FIT_LOSS_RTOL),
        Workload(
            "gradcheck",
            _with_sets(["gradcheck"], grad_sets), grad_sets, "probes",
            float(gradcheck_probes(grad_sets, src)), _check_gradcheck,
            pin=_pin_gradcheck),
    ]
    return {wl.name: replace(wl, golden=_load_golden(wl)) for wl in workloads}


def _load_golden(wl: Workload) -> dict:
    """Recorded outputs by operation seed, if recorded for these args."""
    path = GOLDEN_DIR / f"{wl.name}.json"
    if not path.exists():
        return {}
    recorded = json.loads(path.read_text())
    return recorded["ops"] if recorded["args"] == list(wl.args) else {}


def compare(expected, actual, rtol: float, path: str = "$") -> list[str]:
    """Differences of ``actual`` from a recorded value. Keys that only
    ``actual`` has are allowed; floats may differ by ``rtol`` relative."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        problems = []
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += compare(value, actual[key], rtol, f"{path}.{key}")
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        problems = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems += compare(e, a, rtol, f"{path}[{i}]")
        return problems
    if (isinstance(expected, float) and isinstance(actual, float)
            and abs(actual - expected) <= rtol * abs(expected)):
        return []
    if type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != recorded {expected!r}"]


def gate(wl: Workload, op_seed: int, rc: int, stdout: bytes) -> list[str]:
    """Every reason this operation counts as failed; empty if it passed."""
    problems = [f"exit code {rc}"] if rc != 0 else []
    try:
        out = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    try:
        problems += wl.check(out)
    except (AttributeError, TypeError, KeyError, IndexError) as exc:
        problems.append(f"output has an unexpected shape: {exc!r}")
    recorded = wl.golden.get(str(op_seed))
    if recorded is not None:
        problems += compare(recorded, out, wl.rtol)
    return problems
