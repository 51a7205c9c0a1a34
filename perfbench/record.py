"""Record the reference values the benchmark checks every operation against.

Run once, from the repository root, at the commit whose outputs define
"correct" (the reference was recorded at the commit that added the
benchmark):

    PYTHONPATH=src python3 perfbench/record.py

It runs each workload's operation once in this process and writes
``perfbench/reference.json``: the K2/K4 matrices as the CSVs print them, the
exact truncated-bath states on each output grid, and the resulting
``oracle_err``.  A change that only makes the program faster must pass
against the old file; re-record only in a change that deliberately alters
the numbers, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import tclgen
import workloads as wl
from run import _src_hash
from worker import environment

HERE = Path(__file__).resolve().parent


def record_run(w: wl.RunScenario, op_dir: Path) -> dict:
    state = w.setup(0, op_dir)
    if w.run(state) != 0:
        raise SystemExit("tclgen run failed while recording")
    cfg, out = state["cfg"], state["out"]
    ref = {
        f"K{n}": {f"{t:g}": wl.encode(wl.csv_matrix(out / f"generator_K{n}_t{t:g}.csv"))
                  for t in wl.GENERATOR_TIMES}
        for n in w.orders
    }
    grid = np.linspace(0.0, cfg.t_max, cfg.n_output)
    exact = tclgen.exact_small_bath(
        cfg.rho0, cfg.model, tclgen.TruncatedBathConfig(cfg.bath, cfg.fock_levels), grid,
        check_truncation=False).states
    ref["exact_states"] = wl.encode(exact)
    ref["oracle_err"] = wl.max_trace_distance(
        wl.csv_states(out / "trajectory.csv", cfg.model.dim), exact)
    return ref


def record_routes(w: wl.RouteCheck) -> dict:
    state = w.setup(None, HERE)
    out = w.run(state)
    exact = tclgen.exact_small_bath(
        state["rho0"], state["model"], tclgen.TruncatedBathConfig(state["bath"], w.fock_levels),
        w.probe_grid, check_truncation=False).states
    return {"K4": {f"{t:g}": wl.encode(m) for t, m in zip(w.times, out["table"])},
            "exact_states": wl.encode(exact),
            "oracle_err": wl.max_trace_distance(out["states"], exact)}


def main() -> int:
    scratch = HERE.parent / ".perfbench_out" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    ref: dict = {"recorded_with": environment() | {"src_sha256": _src_hash()}}
    for name, w in wl.WORKLOADS.items():
        print(f"recording {name}", file=sys.stderr)
        if isinstance(w, wl.RunScenario):
            op_dir = scratch / name
            op_dir.mkdir(parents=True)
            ref[name] = record_run(w, op_dir)
        else:
            ref[name] = record_routes(w)
        print(f"  oracle_err = {ref[name]['oracle_err']:.6e}", file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
