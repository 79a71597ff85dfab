"""Record the correctness gate's reference outputs from this commit.

    python3 perfbench/record_golden.py

Runs the first operations of the default workload seed of every workload
that has a recorded comparison and writes ``golden/<workload>.json``:
the CLI arguments and, per operation seed, the part of the output that
``Workload.pin`` selects. Record only from a commit whose outputs are
known to be right; the gate then holds later commits to them.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import OUT, SRC, child_env, spawn

# Operations recorded per workload: about as many as one --seconds 30 run
# of the default seed starts; later operations get the invariants only.
RECORDED_OPS = {"sweep_uniform": 3, "fit_toy": 8, "gradcheck": 40}


def main() -> int:
    OUT.mkdir(exist_ok=True)
    env = child_env()
    all_workloads = workloads.build(SRC)
    for name, count in RECORDED_OPS.items():
        wl = all_workloads[name]
        ops = {}
        for i in range(count):
            op_seed = workloads.DEFAULT_SEED * workloads.OP_SEED_STRIDE + i
            p = spawn([sys.executable, "-m", "moelab.cli",
                       *wl.op_args(op_seed)], env)
            ops[str(op_seed)] = wl.pin(json.loads(p.stdout))
            print(f"{name} seed {op_seed}: exit {p.rc}", flush=True)
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps({"args": list(wl.args), "ops": ops},
                                   sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
