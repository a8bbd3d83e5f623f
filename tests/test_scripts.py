"""Smoke tests of the scripts under scripts/."""

import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

from rmpi.kgstore import load_benchmark
from rmpi.schema import load_schema

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import digest  # noqa: E402


def run_script(name, *args, check=True):
    """Run scripts/<name> on this checkout's src/, output as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        check=check, env=env, capture_output=True, text=True, timeout=120,
    )


def test_make_toy_benchmark_writes_readable_files(tmp_path):
    run_script("make_toy_benchmark.py", "--out", str(tmp_path))
    bench = load_benchmark(str(tmp_path / "bench"))
    unseen = load_benchmark(str(tmp_path / "bench_unseen"))
    assert bench.test and unseen.test
    assert bench.train.triples == unseen.train.triples
    assert all(bench.vocab.relation_seen(t.relation) for t in bench.test)
    assert not any(unseen.vocab.relation_seen(t.relation) for t in unseen.test)

    schema = load_schema(str(tmp_path / "schema.tsv"))
    names = {schema.node_names[i] for i in schema.relation_nodes()}
    assert {"r0", "r1", "r2", "s0", "s1", "s2"} <= names


def test_toy_experiment_prints_every_variant_and_the_transfer(tmp_path):
    run_script("make_toy_benchmark.py", "--out", str(tmp_path))
    done = run_script("run_toy_experiment.py", "--out", str(tmp_path),
                      "--epochs", "1", "--transfer-seeds", "1", "--neg", "5")
    rows = {line.split()[0]: line.split()[1:] for line in done.stdout.splitlines()
            if line.split()[:1] in (["base"], ["ne"], ["ta"], ["ne-ta"])}
    assert list(rows) == ["base", "ne", "ta", "ne-ta"]
    for loss, *metrics, _ in rows.values():  # loss, auc_pr, mrr, hits@1, seconds
        assert float(loss) >= 0 and all(0 <= float(m) <= 1 for m in metrics)
    for label in ("schema init", "random init"):
        line = re.search(rf"^{label} +mean (\S+) +per seed: (\S+)$", done.stdout, re.M)
        assert line and line.group(1) == line.group(2)  # the mean of one seed
        assert 0 <= float(line.group(1)) <= 1


def test_toy_experiment_rejects_counts_below_one(tmp_path):
    for flag in ("--epochs", "--transfer-seeds"):
        done = run_script("run_toy_experiment.py", "--out", str(tmp_path), flag, "0",
                          check=False)
        assert done.returncode == 2  # argparse's usage error, before any training
        assert f"argument {flag}: must be >= 1" in done.stderr
        assert done.stdout == ""


@pytest.mark.parametrize("script, flag, value, message", [
    ("make_toy_benchmark.py", "--chains", "0", "must be >= 1, got 0"),
    ("make_toy_benchmark.py", "--chains", "-2", "must be >= 1, got -2"),
    ("make_toy_benchmark.py", "--test-chains", "0", "must be >= 1, got 0"),
    ("make_toy_benchmark.py", "--held-frac", "1.5", "must be in (0, 1], got 1.5"),
    ("make_toy_benchmark.py", "--held-frac", "0", "must be in (0, 1], got 0.0"),
    ("make_toy_benchmark.py", "--seed", "-1", "must be >= 0, got -1"),
    ("run_toy_experiment.py", "--seed", "-1", "must be >= 0, got -1"),
])
def test_toy_scripts_reject_bad_values(tmp_path, script, flag, value, message):
    # an empty training file, no test targets, a fraction taken as 1 or a
    # numpy traceback: each refused before anything is written or trained
    out = tmp_path / "toy"
    done = run_script(script, "--out", str(out), flag, value, check=False)
    assert done.returncode == 2  # argparse's usage error
    assert f"argument {flag}: {message}" in done.stderr
    assert done.stdout == ""
    assert not out.exists()


def test_toy_benchmark_holds_out_a_fact_at_a_small_fraction(tmp_path):
    # 0.01 of 24 or 12 endpoint facts rounds to none; each split keeps one
    run_script("make_toy_benchmark.py", "--out", str(tmp_path), "--held-frac", "0.01")
    for name in ("bench", "bench_unseen"):
        bench = load_benchmark(str(tmp_path / name))
        assert len(bench.valid) == 1 and len(bench.test) == 1
        assert len(bench.train.triples) == 2 * 24 + 23  # the support, the kept facts
        assert len(bench.test_graph.triples) == 2 * 12 + 11


# hub_probe's second line: the incidence rows each layer summed and all
# of them, and the scored samples that were their target alone
INCIDENCE_ROWS = re.compile(
    r"hub_probe: incidence rows summed by layers 1\.\.(\d): (\d+)(?:, \d+)* of (\d+); "
    r"(\d+) of (\d+) scored samples were their target alone")


# hub_probe's last line: the timed passes, their extraction and all CPU
# seconds, the enclosing subgraphs a pass built and the array route's
EXTRACTION = re.compile(
    r"hub_probe: (\d+) timed passes: (\d+\.\d{4}) of (\d+\.\d{4}) CPU s in "
    r"SampleCache\.sample and samples; a pass built (\d+) enclosing subgraphs, (\d+) by the "
    r"array route \(intersections of at least 30 entities\)")


def test_hub_probe_reports_rate_and_memory():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "hub_probe.py"),
         "--hops", "1", "--variant", "ne-ta", "--targets", "5"],
        check=True, capture_output=True, text=True, timeout=300,
    )
    assert "ne-ta K=1: 10 triples in" in done.stdout
    assert "triples/s, peak RSS" in done.stdout
    khop = re.search(r", (\d+) K-hop walks and (\d+) memo hits$", done.stdout.splitlines()[0])
    # 10 targets read 20 balls, at most 2 per distinct entity
    assert khop and 0 < int(khop.group(1)) and int(khop.group(1)) + int(khop.group(2)) == 20
    rows = INCIDENCE_ROWS.fullmatch(done.stdout.strip().splitlines()[1])
    assert rows and rows.group(1) == "1"
    summed, total, alone, samples = (int(rows.group(k)) for k in range(2, 6))
    assert 0 < summed <= total and 0 <= alone < samples == 10
    peak = re.fullmatch(r"hub_probe: largest traced peak of one scored forward: (\d+\.\d\d) MiB",
                        done.stdout.strip().splitlines()[2])
    assert peak and float(peak.group(1)) > 0
    assert len(done.stdout.strip().splitlines()) == 4  # one pass by default
    extraction = EXTRACTION.fullmatch(done.stdout.strip().splitlines()[3])
    assert extraction and extraction.group(1) == "1"
    spent, total, built, array = map(float, extraction.groups()[1:])
    assert 0 < spent <= total and built == 10 and 0 <= array <= built
    # --passes times that many passes in one process: the first line is
    # the first pass's, and a line gives their median and quartiles
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "hub_probe.py"),
         "--hops", "1", "--variant", "base", "--targets", "5", "--passes", "3"],
        check=True, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 5 and "base K=1: 10 triples in" in lines[0]
    khop = re.search(r", (\d+) K-hop walks and (\d+) memo hits$", lines[0])
    assert khop and int(khop.group(1)) + int(khop.group(2)) == 20  # the first pass's
    passes = re.fullmatch(r"hub_probe: 3 passes: median (\d+\.\d{4}) CPU s a pass, "
                          r"quartiles (\d+\.\d{4}) to (\d+\.\d{4})", lines[3])
    assert passes
    q1, median, q3 = map(float, (passes.group(2), passes.group(1), passes.group(3)))
    assert 0 < q1 <= median <= q3
    # every pass extracts its 10 triples afresh; the seconds are the passes'
    extraction = EXTRACTION.fullmatch(lines[4])
    assert extraction and extraction.group(1) == "3"
    spent, total, built, array = map(float, extraction.groups()[1:])
    assert 0 < spent <= total and total >= 3 * q1 and built == 10 and 0 <= array <= built


def test_hub_probe_counts_the_array_route_on_hub_targets():
    # at K = 2 some of classify-hub's first targets and negatives have
    # intersections past the cut-over
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "hub_probe.py"),
         "--hops", "2", "--variant", "base", "--targets", "20"],
        check=True, capture_output=True, text=True, timeout=300,
    )
    extraction = EXTRACTION.fullmatch(done.stdout.strip().splitlines()[-1])
    assert extraction and int(extraction.group(4)) == 40
    assert 0 < int(extraction.group(5)) < 40


def test_hub_probe_ranks_rank_skewed_queries_on_both_sides():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "hub_probe.py"),
         "--hops", "2", "--variant", "ne-ta", "--targets", "3", "--task", "rank", "--passes", "3"],
        check=True, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 5
    # 3 queries on both sides, the truth and 49 candidates each
    first = re.fullmatch(r"hub_probe: ne-ta K=2: 300 triples in (\d+\.\d\d) CPU s, "
                         r"(\d+\.\d) triples/s, peak RSS (\S+) MB, mrr (\d\.\d{4}), "
                         r"(\d+) K-hop walks and (\d+) memo hits", lines[0])
    assert first and float(first.group(2)) > 0 and 0 < float(first.group(4)) <= 1
    walks, hits = int(first.group(5)), int(first.group(6))
    assert 0 < walks and walks + hits == 600  # two balls a triple, the first pass's
    # most of a rank query's candidates have no triple within K steps
    rows = INCIDENCE_ROWS.fullmatch(lines[1])
    assert rows and rows.group(1) == "2" and int(rows.group(5)) == 300
    assert 150 < int(rows.group(4)) < 300
    assert lines[2].startswith("hub_probe: largest traced peak of one scored forward: ")
    passes = re.fullmatch(r"hub_probe: 3 passes: median (\d+\.\d{4}) CPU s a pass, "
                          r"quartiles (\d+\.\d{4}) to (\d+\.\d{4})", lines[3])
    assert passes and 0 < float(passes.group(2)) <= float(passes.group(1)) <= float(passes.group(3))
    extraction = EXTRACTION.fullmatch(lines[4])
    assert extraction and int(extraction.group(4)) == 300


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


def test_train_probe_reports_steps_edges_and_memory():
    done = run_script("train_probe.py", "--entities", "40", "--triples", "60", "--skew", "0.5",
                      "--hops", "1", "--variant", "ne-ta", "--steps", "5")
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 4
    head = "train_probe: ne-ta K=1, 40 entities, 60 triples, a=0.5: "
    assert all(line.startswith(head) for line in lines)
    cache = re.fullmatch(r"precompute (\d+\.\d\d) CPU s, (\d+) K-hop walks and (\d+) memo hits, "
                         r"cache retains (\d+\.\d\d) MiB", lines[0][len(head):])
    assert cache and float(cache.group(4)) > 0
    # 60 positives read 120 balls, one walk per distinct end at most
    walks, hits = int(cache.group(2)), int(cache.group(3))
    assert 0 < walks <= 40 and walks + hits == 120
    steps = re.fullmatch(r"5 steps of batch 16, median (\d+\.\d) CPU ms and (\d+\.\d) wall ms "
                         r"a step", lines[1][len(head):])
    assert steps and float(steps.group(1)) > 0 and float(steps.group(2)) > 0
    edges = re.fullmatch(r"layer-1 edges a step p50 (\d+), max (\d+)", lines[2][len(head):])
    assert edges and 0 < int(edges.group(1)) <= int(edges.group(2))
    rss = re.fullmatch(r"peak RSS (\S+) MB, RSS as a step begins p50 (\S+) MB, max (\S+) MB",
                       lines[3][len(head):])
    assert rss and 0 < float(rss.group(2)) <= float(rss.group(3)) and float(rss.group(1)) > 0


def test_extraction_digest_prints_one_digest_per_workload_and_depth():
    subgraphs, views = digest.extraction_lines("rank-skewed", 1)
    head, sha = subgraphs.rsplit(" ", 1)
    # 70 test and 10 validation targets and 300 graph triples, 4 negatives each
    assert head == "extraction_digest: rank-skewed K=1: 1900 subgraphs, sha256"
    assert len(sha) == 64 and int(sha, 16) >= 0
    head, sha = views.rsplit(" ", 1)
    edges = re.fullmatch(r"extraction_digest: rank-skewed K=1: (\d+) relation-view edges, "
                         r"sha256", head)
    assert edges and int(edges.group(1)) > 0
    assert len(sha) == 64 and int(sha, 16) >= 0


def test_score_digest_prints_one_digest_per_workload_depth_and_variant():
    lines = []
    for _ in range(2):
        digest.benchmark.cache_clear()  # the second line from a graph generated afresh
        lines.append(digest.score_line("rank-skewed", 1, "ne-ta"))
    head, sha = lines[0].rsplit(" ", 1)
    # 70 test targets and a negative each
    assert head == "score_digest: rank-skewed ne-ta K=1: 140 triples, sha256"
    assert len(sha) == 64 and int(sha, 16) >= 0
    assert lines[1] == lines[0]  # seeded throughout


def test_training_digest_prints_history_and_digest_per_variant():
    lines = [digest.training_line(variant) for variant in ("base", "ne-ta")]
    assert [line.split(":")[1].strip() for line in lines] == ["base", "ne-ta"]
    for line in lines:
        head, sha = line.rsplit(" ", 1)
        losses = head.split("train loss [")[1].split("]")[0].split(", ")
        assert len(losses) == 2 and all(float(x) > 0 for x in losses)  # two epochs
        assert "val auc-pr [" in head and "best epoch " in head
        assert head.endswith("params sha256")
        assert len(sha) == 64 and int(sha, 16) >= 0


def test_rank_digest_prints_one_digest_per_workload_depth_and_variant():
    lines = []
    for _ in range(2):
        digest.benchmark.cache_clear()  # the second line from a graph generated afresh
        lines.append(digest.rank_line("classify-hub", 1, "ne-ta"))
    head, sha = lines[0].rsplit(" ", 1)
    # the first 10 test queries, on both sides
    assert head == "rank_digest: classify-hub ne-ta K=1: 20 ranks, sha256"
    assert len(sha) == 64 and int(sha, 16) >= 0
    assert lines[1] == lines[0]  # seeded throughout
    assert digest.rank_line("classify-hub", 1, "base") != lines[0]


def test_digest_main_prints_the_48_line_matrix_in_order(monkeypatch, capsys):
    monkeypatch.setattr(digest, "extraction_lines",
                        lambda w, k: [f"extraction {w} K={k} {part}" for part in ("subgraphs", "views")])
    monkeypatch.setattr(digest, "training_line", lambda v: f"training {v}")
    monkeypatch.setattr(digest, "score_line",
                        lambda w, k, v, f=None: f"score {digest.line_name(w, k, v, f)}")
    monkeypatch.setattr(digest, "rank_line",
                        lambda w, k, v, f=None: f"rank {digest.line_name(w, k, v, f)}")
    assert digest.main() == 0
    expected = (
        [f"extraction {w} K={k} {part}" for w in ("train-mild", "rank-skewed", "classify-hub")
         for k in (1, 2, 3) for part in ("subgraphs", "views")]
        + ["training base", "training ne-ta"]
        + [f"{kind} {w} {v} K={k}" for kind in ("score", "rank")
           for w in ("rank-skewed", "classify-hub") for k in (1, 2, 3) for v in ("base", "ne-ta")]
        + [f"{kind} rank-skewed ne-ta K=2 {f}" for kind in ("score", "rank")
           for f in ("odd-unseen", "schema")]
    )
    assert len(expected) == 48
    assert capsys.readouterr().out.splitlines() == expected


def test_digest_takes_no_arguments():
    for args in (["--help"], ["--workload", "rank-skewed", "--hops", "1"]):
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "digest.py"), *args],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert "takes no arguments" in done.stderr
        assert done.stdout == ""  # no digest run started


def test_bench_pairs_alternates_the_sides_and_summarizes_each_metric(tmp_path, monkeypatch,
                                                                      capsys):
    import bench_pairs

    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    os.mkdir(parent)
    os.mkdir(change)
    with open(os.path.join(change, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "workloads": [{"name": "w1"}, {"name": "w2"}],
            "end_to_end": [{"name": "t", "unit": "s", "better": "lower"},
                           {"name": "rate", "unit": "1/s", "better": "higher"}],
        }, fh)
    # the i-th run of each side: its (t, rate, failed) of 10 attempted
    values = {parent: [(10, 1, 0), (20, 2, 1), (30, 3, 0), (40, 4, 1)],
              change: [(9, 2, 1), (21, 3, 1), (29, 1, 1), (39, 5, 1)]}
    calls = []

    def fake_run_once(root, workload):
        t, rate, failed = values[root][sum(c == (root, workload) for c in calls)]
        calls.append((root, workload))
        return {"seed": 1, "seconds": 10, "correct": True, "failed": failed,
                "attempted": 10, "end_to_end": {"t": t, "rate": rate}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([parent, change, "--pairs", "4", "--out", str(out)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 * 2 * 4 + 1

    order = [parent, change, change, parent] * 2
    assert calls == [(root, w) for w in ("w1", "w2") for root in order]
    record = json.loads(out.read_text())
    assert record["pairs"] == 4 and record["parent"] is None and record["change"] is None
    assert record["python"] == platform.python_version()
    assert record["numpy"] == np.__version__ and record["nproc"] >= 1
    for w in ("w1", "w2"):
        got = record["workloads"][w]
        assert got["seed"] == 1 and got["seconds"] == 10
        assert got["correct"] == {"parent": 4, "change": 4}
        assert got["failed_frac"] == {"parent": 2 / 40, "change": 4 / 40}
        t, rate = got["metrics"]["t"], got["metrics"]["rate"]
        assert (t["unit"], t["better"], rate["better"]) == ("s", "lower", "higher")
        assert t["change_wins"] == 3 and rate["change_wins"] == 3  # 1 each with the sign flipped
        assert t["pairs"] == rate["pairs"] == 4
        assert t["parent"] == {"median": 25, "q1": 12.5, "q3": 37.5}
        assert t["change"] == {"median": 25, "q1": 12, "q3": 36.5}
        assert t["change_over_parent"] == 1
        assert rate["parent"] == {"median": 2.5, "q1": 1.25, "q3": 3.75}
        assert rate["change_over_parent"] == 1
