#!/usr/bin/env python3
"""rmpi benchmark: seeded synthetic graphs, three workloads, optional tracing.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload rank-skewed --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are the
human-readable report.  The exit code is 0 only when every output check
passed.

Every workload, untraced and then traced, with a summary of the tracing
overhead; writes every run's record, with the seed, nproc, the Python and
numpy versions and the generator parameters, to .bench_out/results.json:

    python3 perfbench/run.py --all --seed 1

Re-record perfbench/reference.json, only for a change meant to move scores:

    python3 perfbench/run.py --write-reference

Run from a checkout root: the program is imported from its `src/`, and
scratch files go to `.bench_tmp/` there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def _import_program():
    sys.path.insert(0, SRC)
    try:
        import rmpi
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import rmpi from {SRC}: {exc}")
    if not os.path.abspath(rmpi.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: rmpi was imported from {rmpi.__file__}, not from {SRC}")


_import_program()

import numpy as np  # noqa: E402

import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def cap_memory() -> None:
    """Cap this process's address space, so a hub view fails as MemoryError."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = spec.MEMORY_CAP_BYTES
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    w = spec.WORKLOADS[name]
    kind = w["kind"]
    if kind == "classify":
        cap_memory()
    os.makedirs(TMP_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_ROOT)
    res = workloads.Result()
    try:
        data, ckpt_dir = workloads.make_inputs(w, seed, work)
        tracer = tracing.Tracer().install() if traced else None
        t0 = time.perf_counter()
        try:
            deferred_check = workloads.RUNNERS[kind](
                w, seed, seconds, traced, data, ckpt_dir, res
            )
        finally:
            wall_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        res.check_clocks()
        if deferred_check is not None:
            deferred_check()
        if kind != "train":
            workloads.check_reference(name, os.path.join(work, "reference"), res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": environment(),
        "generator": w["gen"],
        "variant": w["variant"],
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "end_to_end": res.end_to_end(),
        "samples": {"setup_s": len(res.setup_s), "op": len(res.op_s)},
        "wall_s": wall_s,
        "measured_cpu_s": res.measured_s,
        "measured_wall_s": res.measured_wall_s,
        "per_layer": tracer.metrics() if traced else None,
        "outputs": res.outputs,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in res.checks],
    }


def report(rec: dict) -> dict:
    """Print the human-readable report; return the result line's object."""
    kind = spec.WORKLOADS[rec["workload"]]["kind"]
    alias = spec.REPORT_NAMES[kind]
    e2e, n = rec["end_to_end"], rec["samples"]
    print(f"perfbench {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"nproc={rec['environment']['nproc']} python={rec['environment']['python']} "
          f"numpy={rec['environment']['numpy']}")
    print(f"  ops are timed in CPU seconds: {rec['measured_cpu_s']:.3f} CPU s measured "
          f"over {rec['measured_wall_s']:.3f} wall s")
    for name, (unit, _, _) in spec.END_TO_END.items():
        value = e2e[name]
        count = n["setup_s"] if name == "setup_s" else n["op"]
        extra = ""
        if name in alias:
            shown = value / 1000.0 if alias[name].endswith("_s") and unit == "ms" else value
            extra = f"  {alias[name]}={shown:.6g}"
        print(f"  {name:<12} {value:14.4f} {unit:<4} n={count}{extra}")
    frac = rec["failed"] / max(1, rec["attempted"])
    print(f"  failed_frac  {frac:14.4f}      {rec['failed']}/{rec['attempted']}")
    for key, value in rec["outputs"].items():
        print(f"  output {key} = {value:.6g}")
    for c in rec["checks"]:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    if rec["per_layer"] is not None:
        print(f"  per layer; a time's share is of the traced run's {rec['wall_s']:.3f} s "
              "from set-up to the end of measuring, children included")
        for name, value in rec["per_layer"].items():
            unit = spec.PER_LAYER[name]
            share = f"{value / rec['wall_s']:6.1%}" if unit == "s" else " " * 6
            print(f"  {name:<34} {value:14.6g} {unit:<8} {share}  moves {spec.MOVES[name]}")
        table = {k: (spec.PER_LAYER[k], v) for k, v in rec["per_layer"].items()}
    else:
        table = {k: (spec.END_TO_END[k][0], v) for k, v in e2e.items()}
    return {
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in table.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, each in its own process."""
    os.makedirs(OUT_DIR, exist_ok=True)
    records, ok = {}, True
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            path = os.path.join(OUT_DIR, f"{name}-trace{trace}.json")
            if os.path.exists(path):
                os.remove(path)
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace), "--record", path]
            code = subprocess.run(argv, check=False).returncode
            ok = ok and code == 0 and os.path.exists(path)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    records[(name, trace)] = json.load(fh)

    results = {"seed": seed, "seconds": seconds, "environment": environment(), "workloads": {}}
    print("\nsummary (untraced; overhead = traced / untraced - 1)")
    for name, w in spec.WORKLOADS.items():
        plain, traced = records.get((name, 0)), records.get((name, 1))
        overhead = {}
        if plain and traced:
            overhead = {
                k: traced["end_to_end"][k] / plain["end_to_end"][k] - 1.0
                for k in ("op_p50_ms", "op_p90_ms")
            }
        results["workloads"][name] = {
            "why": spec.WHY[name], "generator": w["gen"], "variant": w["variant"],
            "untraced": plain, "traced": traced, "trace_overhead": overhead,
        }
        if plain:
            cells = " ".join(f"{k}={v:.4g}" for k, v in plain["end_to_end"].items())
            over = " ".join(f"{k}={v:+.1%}" for k, v in overhead.items())
            print(f"  {name:<13} {cells}  trace overhead: {over or 'n/a'}")
    with open(os.path.join(OUT_DIR, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.join(OUT_DIR, 'results.json')}")
    return 0 if ok else 1


def write_reference() -> int:
    os.makedirs(TMP_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=TMP_ROOT)
    try:
        out = {}
        for name, w in spec.WORKLOADS.items():
            if w["kind"] != "train":
                outputs = workloads.reference_outputs(name, os.path.join(work, name))
                out[name] = {"seed": spec.REFERENCE_SEED, "outputs": outputs}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--write-reference", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="also write the full run record to this JSON file")
    args = p.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.all:
        return run_all(args.seed, args.seconds)
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=1)
            fh.write("\n")
    print(json.dumps(report(rec)), flush=True)
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
