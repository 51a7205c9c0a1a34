"""Summarise the raw spans of one traced operation.

    python3 perfbench/spans.py .perfbench_out/spans/run-o4-s1.csv.gz

Prints two tables.  The first splits the operation's time among the
computational layers the workloads were chosen for: each span of those
layers that no other span of them encloses counts in full (so a K_n_cumulant
call made inside K4_cumulant_ordered counts for the latter), and the rest is
"other".  The second gives the median time per call of the K2/K4 routes at
t = 0.5 and 2, the North-star times, inclusive of nested calls.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import math
import statistics
from collections import defaultdict

SETUP = "cli.parse_config"
KERNELS = ("tcl.K2_influence", "tcl.K4_influence", "cumulant.K_n_cumulant",
           "tcl.K4_cumulant_ordered", "evolve.forward_map_correction",
           "models.exact_small_bath")
ROUTES = ("tcl.K2_influence", "tcl.K4_influence", "cumulant.K_n_cumulant",
          "tcl.K4_cumulant_ordered")
TIMES = (0.5, 2.0)


def load(path: str) -> list[dict]:
    with gzip.open(path, "rt", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        r["dur"] = float(r["end_s"]) - float(r["start_s"])
    return rows


def outermost_shares(rows: list[dict]) -> tuple[float, dict[str, float]]:
    """(operation seconds, seconds per layer of KERNELS, outermost spans only)."""
    op_s = sum(r["dur"] for r in rows if r["parent_id"] == "-1" and r["name"] != SETUP)
    owner: dict[str, str | None] = {"-1": None}
    shares: dict[str, float] = defaultdict(float)
    for r in rows:  # parents precede their children
        enclosing = owner[r["parent_id"]]
        if enclosing is None and r["name"] in KERNELS:
            shares[r["name"]] += r["dur"]
            enclosing = r["name"]
        owner[r["span_id"]] = enclosing
    shares["other"] = op_s - sum(shares.values())
    return op_s, shares


def per_call(rows: list[dict]) -> dict[tuple[str, float], list[float]]:
    calls: dict[tuple[str, float], list[float]] = defaultdict(list)
    for r in rows:
        t = float(r["t"])
        if r["name"] in ROUTES and not math.isnan(t):
            calls[(r["name"], t)].append(r["dur"])
    return calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spans")
    args = ap.parse_args(argv)
    rows = load(args.spans)

    op_s, shares = outermost_shares(rows)
    print(f"operation: {op_s:.3f} s in {len(rows)} spans\n")
    print("| layer | seconds | share |\n| --- | --- | --- |")
    for name, s in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"| `{name}` | {s:.3f} | {100 * s / op_s:.1f}% |")

    calls = per_call(rows)
    print("\n| call | " + " | ".join(f"t={t:g}" for t in TIMES) + " |")
    print("| --- |" + " --- |" * len(TIMES))
    for name in ROUTES:
        cells = []
        for t in TIMES:
            durs = calls.get((name, t))
            cells.append(f"{1e3 * statistics.median(durs):.1f} ms ({len(durs)} calls)"
                         if durs else "not called")
        print(f"| `{name}` | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
