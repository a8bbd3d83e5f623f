#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

For each workload, runs `perfbench/run.py --workload W --record FILE` in the
parent checkout and in the changed one, N times each, alternating which of
the two runs first, and writes per end-to-end metric the parent's and the
change's median and quartiles, plus in how many pairs the change was
better (by the metric's direction in the change's BENCHMARK.json):

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --pairs 10 \
        --out bench.json

Each root is a checkout with its own `perfbench/` and `src/`. Every workload
in BENCHMARK.json is run at perfbench's own default seed and run length, so
the pairs match the benchmark's runs; the runs are untraced and one at a time,
so they do not compete for the CPUs.  The record's header names both
revisions, the CPUs the runs could use and the Python and numpy versions:
rates compare only within one record.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile


def run_once(root: str, workload: str) -> dict:
    """One untraced perfbench run in `root`; its record."""
    with tempfile.TemporaryDirectory() as tmp:
        record = os.path.join(tmp, "record.json")
        argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                "--record", record]
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
        if not os.path.exists(record):
            sys.exit(f"bench_pairs: {workload} in {root} wrote no record:\n{done.stderr}")
        with open(record, encoding="utf-8") as fh:
            return json.load(fh)


def revision(root: str) -> str | None:
    """The checkout's commit, suffixed '+dirty' when it has uncommitted changes."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, check=False)

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    def quartiles(values):
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return {"median": q2, "q1": q1, "q3": q3}

    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p,
        "change": c,
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
    }


def compare(parent_root, change_root, workload, pairs, metrics):
    runs = {"parent": [], "change": []}
    roots = {"parent": parent_root, "change": change_root}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rec = run_once(roots[side], workload)
            runs[side].append(rec)
            cells = " ".join(f"{k}={v:.4g}" for k, v in rec["end_to_end"].items())
            print(f"{workload} pair {i + 1}/{pairs} {side}: correct={rec['correct']} {cells}",
                  flush=True)
    first = runs["parent"][0]
    return {
        "seed": first["seed"],
        "seconds": first["seconds"],
        "correct": {side: sum(r["correct"] for r in recs) for side, recs in runs.items()},
        "failed_frac": {
            side: sum(r["failed"] for r in recs) / max(1, sum(r["attempted"] for r in recs))
            for side, recs in runs.items()
        },
        "metrics": {
            name: dict(unit=unit, better=better, **summarize(
                [r["end_to_end"][name] for r in runs["parent"]],
                [r["end_to_end"][name] for r in runs["change"]],
                better,
            ))
            for name, (unit, better) in metrics.items()
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_root")
    p.add_argument("change_root")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2 to give quartiles")

    with open(os.path.join(args.change_root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}

    out = {
        "parent": revision(args.parent_root),
        "change": revision(args.change_root),
        "pairs": args.pairs,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        out["workloads"][workload] = compare(
            args.parent_root, args.change_root, workload, args.pairs, metrics,
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
