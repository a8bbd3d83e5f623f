"""Smoke tests of the scripts under scripts/."""

import os
import subprocess
import sys

from rmpi.kgstore import load_benchmark
from rmpi.schema import load_schema

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_make_toy_benchmark_writes_readable_files(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "make_toy_benchmark.py"),
         "--out", str(tmp_path)],
        check=True, env=env, capture_output=True, timeout=120,
    )
    bench = load_benchmark(str(tmp_path / "bench"))
    unseen = load_benchmark(str(tmp_path / "bench_unseen"))
    assert bench.test and unseen.test
    assert bench.train.triples == unseen.train.triples
    assert all(bench.vocab.relation_seen(t.relation) for t in bench.test)
    assert not any(unseen.vocab.relation_seen(t.relation) for t in unseen.test)

    schema = load_schema(str(tmp_path / "schema.tsv"))
    names = {schema.node_names[i] for i in schema.relation_nodes()}
    assert {"r0", "r1", "r2", "s0", "s1", "s2"} <= names


def test_hub_probe_reports_rate_and_memory():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "hub_probe.py"),
         "--hops", "1", "--variant", "ne-ta", "--targets", "5"],
        check=True, capture_output=True, text=True, timeout=300,
    )
    assert "ne-ta K=1: 10 triples in" in done.stdout
    assert "triples/s, peak RSS" in done.stdout


def test_hub_probe_rejects_counts_below_one():
    for flag, value in (("--hops", "0"), ("--targets", "-1")):
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "hub_probe.py"),
             "--hops", "1", "--variant", "base", flag, value],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert f"argument {flag}: must be >= 1" in done.stderr
        assert done.stdout == ""  # no scoring run started


def test_extraction_digest_prints_one_digest_per_workload_and_depth():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "extraction_digest.py"),
         "--workload", "rank-skewed", "--hops", "1"],
        check=True, capture_output=True, text=True, timeout=300,
    )
    head, digest = done.stdout.strip().rsplit(" ", 1)
    # 70 test and 10 validation targets and 300 graph triples, 4 negatives each
    assert head == "extraction_digest: rank-skewed K=1: 1900 subgraphs, sha256"
    assert len(digest) == 64 and int(digest, 16) >= 0
