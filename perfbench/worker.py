"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --op-dir DIR --result FILE
                                [--setup-only] [--spans FILE]

Imports tclgen and builds the workload's scenario (timed as ``setup_s``),
then, unless ``--setup-only``, runs the operation (``wall_s``, ``cpu_s``),
reads the process's peak resident memory and checks the outputs.  With
``--spans`` the tclgen functions are wrapped before the scenario is built,
and the per-layer summary goes into the result while the raw spans go to
FILE.  The result is one JSON object written to ``--result``.  Expects
``src`` on ``PYTHONPATH``; ``run.py`` sets that up.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that NumPy loaded, asked through its C API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Versions and thread settings of this process (call after importing numpy)."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--op-dir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and every tclgen module

    recorder = None
    if args.spans is not None:
        import tracing

        recorder = tracing.Recorder(args.op_dir.name)
        tracing.install(recorder)
    work = workloads.WORKLOADS[args.workload]
    args.op_dir.mkdir(parents=True)
    state = work.setup(args.seed, args.op_dir)
    result: dict = {"setup_s": time.perf_counter() - t0, "env": environment()}

    if not args.setup_only:
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            output, problems = work.run(state), []
        except Exception:  # a raise is a failed operation, not a benchmark crash
            output, problems = None, [traceback.format_exc()]
        result["wall_s"] = time.perf_counter() - w0
        result["cpu_s"] = time.process_time() - c0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["oracle_err"] = None
        if recorder is not None:
            result["layers"] = recorder.summary()
            result["layers"]["cli.bytes_written"] = _tree_bytes(args.op_dir / "out")
            result["missing_targets"] = recorder.missing
            recorder.write(args.spans)
        if not problems:
            ref = json.loads((HERE / "reference.json").read_text())[args.workload]
            try:
                result["oracle_err"], problems = work.check(state, output, ref)
            except Exception:  # unreadable outputs fail the operation
                problems = [traceback.format_exc()]
        result["problems"] = problems
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
