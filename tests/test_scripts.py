"""Smoke tests of the scripts under scripts/."""

import os
import re
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
    head, counts = done.stdout.strip().splitlines()[1].split(": ", 2)[1:]
    assert head == "incidence rows summed by layers 1..1"
    summed, total = map(int, counts.split(" of "))
    assert 0 < summed <= total


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
    subgraphs, views = done.stdout.strip().splitlines()
    head, digest = subgraphs.rsplit(" ", 1)
    # 70 test and 10 validation targets and 300 graph triples, 4 negatives each
    assert head == "extraction_digest: rank-skewed K=1: 1900 subgraphs, sha256"
    assert len(digest) == 64 and int(digest, 16) >= 0
    head, digest = views.rsplit(" ", 1)
    edges = re.fullmatch(r"extraction_digest: rank-skewed K=1: (\d+) relation-view edges, "
                         r"sha256", head)
    assert edges and int(edges.group(1)) > 0
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_score_digest_prints_one_digest_per_workload_depth_and_variant():
    argv = [sys.executable, os.path.join(ROOT, "scripts", "score_digest.py"),
            "--workload", "rank-skewed", "--hops", "1", "--variant", "ne-ta"]
    lines = [subprocess.run(argv, check=True, capture_output=True, text=True,
                            timeout=300).stdout for _ in range(2)]
    head, digest = lines[0].strip().rsplit(" ", 1)
    # 70 test targets and a negative each
    assert head == "score_digest: rank-skewed ne-ta K=1: 140 triples, sha256"
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert lines[1] == lines[0]  # seeded throughout


def test_training_digest_prints_history_and_digest_per_variant():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "training_digest.py")],
        check=True, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    assert [line.split(":")[1].strip() for line in lines] == ["base", "ne-ta"]
    for line in lines:
        head, digest = line.rsplit(" ", 1)
        losses = head.split("train loss [")[1].split("]")[0].split(", ")
        assert len(losses) == 2 and all(float(x) > 0 for x in losses)  # two epochs
        assert "val auc-pr [" in head and "best epoch " in head
        assert head.endswith("params sha256")
        assert len(digest) == 64 and int(digest, 16) >= 0
