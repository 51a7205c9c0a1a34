"""Benchmark of tclgen: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload run-o4 --seed 1 --seconds 40 --trace 0

Run it from the repository root.  The load is a closed loop with one client:
operations run back to back, each in a fresh worker process (``worker.py``)
that imports tclgen, builds its own model, bath and output directory, runs
the operation and checks its outputs against ``reference.json``.  Set-up is
also timed in a worker after each operation that stops after building the
scenario.

With ``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs one untraced operation and then traced ones, and
prints the per-layer metrics instead, with ``trace_overhead_s`` (traced wall
time minus untraced).  Exact work counts must repeat from run to run of the
same source tree; a traced run that disagrees with an earlier one fails.

Everything the run leaves behind goes to ``.perfbench_out/`` in the root:
per-run results stamped with the environment, raw spans, and the counts
that later traced runs are compared against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("run-o4", "run-o2-long", "routes-d3")
SETUP_PROBES = 1  # set-up-only workers after each operation, besides its own set-up
# One BLAS thread (nproc is 2 on the reference machine): no matrix here is
# larger than 288 x 288, and a second thread only added spin time and
# contention (run-o2-long: 8.7 s CPU for 6.7 s wall, against 6.0 s for 6.1 s).
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0  # a run must end within 180 s
COUNT_SUFFIXES = (".calls", ".lags", ".times", ".points", "cap_hits", "rhs_evals",
                  "oracle_dim", "bytes_written")


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _tree_hash(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _src_hash() -> str:
    return _tree_hash(ROOT / "src" / "tclgen")


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine, from /proc/stat."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


class Runner:
    """Starts worker processes one after another and collects their results."""

    def __init__(self, workload: str, seed: int, started: float):
        self.workload, self.seed, self.started = workload, seed, started
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.count = 0
        self.log = OUT / "logs" / f"{workload}-s{seed}.log"
        self.log.parent.mkdir(parents=True, exist_ok=True)
        self.log.write_text("")

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.perf_counter() - self.started)

    def worker(self, setup_only: bool = False, traced: bool = False) -> dict:
        """One worker process; a crash or timeout comes back as a problem."""
        self.count += 1
        name = f"{self.workload}-s{self.seed}-{self.count}"
        op_dir = OUT / "ops" / name
        result = OUT / "ops" / f"{name}.json"
        shutil.rmtree(op_dir, ignore_errors=True)
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--op-dir", str(op_dir), "--result", str(result)]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            (OUT / "spans").mkdir(exist_ok=True)
            cmd += ["--spans", str(OUT / "spans" / f"{self.workload}-s{self.seed}.csv.gz")]
        w0 = time.perf_counter()
        try:
            with self.log.open("a") as log:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=max(1.0, self.remaining()))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        out = json.loads(result.read_text()) if code == 0 and result.is_file() else {
            "problems": [f"worker {name} ended with {code}; see {self.log}"]}
        out["process_s"] = time.perf_counter() - w0
        shutil.rmtree(op_dir, ignore_errors=True)
        result.unlink(missing_ok=True)
        return out

    def operations(self, seconds: float, traced: bool,
                   probes: int = 0) -> tuple[list[dict], list[dict]]:
        """Operations until the next one would likely end past ``seconds``.

        A run makes at least one.  After each operation ``probes`` workers time
        set-up alone, so the set-up samples spread over the whole run.
        Returns (operations, probes).
        """
        ops: list[dict] = []
        setups: list[dict] = []
        t0 = time.perf_counter()
        while True:
            ops.append(self.worker(traced=traced))
            setups += [self.worker(setup_only=True) for _ in range(probes)]
            elapsed = time.perf_counter() - t0
            cycle = elapsed / len(ops)
            # the margin keeps a slower next cycle inside the hard time limit
            if elapsed + cycle > seconds or self.remaining() < 1.5 * cycle:
                return ops, setups


def _median(ops: list[dict], key: str) -> float:
    values = [op[key] for op in ops if op.get(key) is not None]
    if not values:
        raise ValueError(f"no operation reported {key}")
    return statistics.median(values)


def _differing(a: dict, b: dict) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def _check_counts(workload: str, layers: list[dict]) -> list[str]:
    """Exact counts must equal those of every other traced run of this tree.

    The counts are kept per hash of src/tclgen and perfbench together, so an
    edit to either starts a new record; the first traced run of a tree only
    writes it.
    """
    counts = [{k: v for k, v in lay.items() if k.endswith(COUNT_SUFFIXES)} for lay in layers]
    problems = [f"counts differ between traced operations: {_differing(c, counts[0])}"
                for c in counts[1:] if c != counts[0]]
    tree = _tree_hash(ROOT / "src" / "tclgen", HERE)
    path = OUT / "counts" / f"{workload}-{tree}.json"
    if path.is_file():
        diff = _differing(json.loads(path.read_text()), counts[0])
        if diff:
            problems.append(f"counts differ from an earlier traced run: {diff}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts[0], indent=1, sort_keys=True))
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tclgen benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    # SIGTERM raises, so subprocess.run kills the worker before run.py exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        return _fail("--seed must be non-negative")
    for need in ("src/tclgen/__init__.py", "BENCHMARK.json", "perfbench/reference.json"):
        if not (ROOT / need).is_file():
            return _fail(f"{need} not found under {ROOT}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    ticks0 = _cpu_ticks()
    runner = Runner(args.workload, args.seed, started)
    if args.trace:
        plain, probes = runner.operations(0.0, traced=False)
        ops, _ = runner.operations(max(0.0, args.seconds - plain[0]["process_s"]),
                                   traced=True)
        attempted = plain + ops
    else:
        ops, probes = runner.operations(args.seconds, traced=False, probes=SETUP_PROBES)
        attempted = ops
    problems = [p for op in probes + attempted for p in op.get("problems", [])]
    failed = sum(1 for op in attempted if op.get("problems"))

    try:
        if args.trace:
            layers = [op["layers"] for op in ops if "layers" in op]
            if not layers:
                raise ValueError("no traced operation finished")
            problems += _check_counts(args.workload, layers)
            values = {k: statistics.median(lay[k] for lay in layers) if k.endswith("_s")
                      else layers[0][k] for k in layers[0]}
            values["trace_overhead_s"] = _median(ops, "wall_s") - _median(plain, "wall_s")
        else:
            values = {
                "setup_s": _median(probes + ops, "setup_s"),
                "wall_s": _median(ops, "wall_s"),
                "cpu_s": _median(ops, "cpu_s"),
                "peak_rss_mb": _median(ops, "peak_rss_mb"),
                "pass_ratio": (len(attempted) - failed) / len(attempted),
                "oracle_err": _median(ops, "oracle_err"),
            }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except (KeyError, ValueError) as exc:
        for p in problems:
            print(p, file=sys.stderr)
        return _fail(f"cannot compute metric {exc}")

    env = next((op["env"] for op in probes + attempted if "env" in op), {})
    env.update(git_sha=_git_sha(), src_sha256=_src_hash(), seed=args.seed)
    ticks1 = _cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # share of CPU time the hypervisor gave to others: high means a slow phase
        env["steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    summary = {"correct": not problems, "attempted": len(attempted), "failed": failed,
               "metrics": metrics}
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "summary": summary, "problems": problems,
                    "operations": probes + attempted}, indent=1))
    for p in problems:
        print(p, file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
