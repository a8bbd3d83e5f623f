"""Tests of the benchmark itself: generator, output schema, traced counts.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import filecmp
from collections import Counter
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "train-mild": {"entities": 60, "triples": 120, "a": 0.3, "valid": 8, "test": 4},
    "rank-skewed": {"entities": 150, "triples": 200, "a": 0.6, "valid": 4, "test": 3},
    "classify-hub": {"entities": 150, "triples": 200, "a": 0.8, "valid": 4, "test": 4},
}


@pytest.fixture
def small_workloads(monkeypatch):
    for name, params in SMALL.items():
        monkeypatch.setitem(spec.WORKLOADS, name, dict(spec.WORKLOADS[name], gen=params))
    monkeypatch.setattr(run, "cap_memory", lambda: None)  # never cap the test process


# ---------------------------------------------------------------- generator

def test_generator_is_byte_identical_per_seed(tmp_path):
    args = dict(entities=300, triples=500, a=0.6, valid=20, test=10)
    gen.generate(str(tmp_path / "a"), seed=3, **args)
    gen.generate(str(tmp_path / "b"), seed=3, **args)
    gen.generate(str(tmp_path / "c"), seed=4, **args)
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", gen.FILES, shallow=False
    )
    assert sorted(match) == sorted(gen.FILES) and not mismatch and not errors
    assert not filecmp.cmp(tmp_path / "a" / "train.txt", tmp_path / "c" / "train.txt", shallow=False)


def test_generator_layout_is_inductive(tmp_path):
    gen.generate(str(tmp_path), entities=300, triples=500, a=0.8, seed=1, valid=20, test=10)
    rows = {}
    for name in gen.FILES:
        with open(tmp_path / name, encoding="utf-8") as fh:
            rows[name] = [tuple(line.rstrip("\n").split("\t")) for line in fh]
    assert [len(rows[n]) for n in gen.FILES] == [500, 20, 500, 10]
    for graph, held in (("train.txt", "valid.txt"), ("test_graph.txt", "test.txt")):
        assert len(set(rows[graph])) == len(rows[graph])
        assert not set(rows[graph]) & set(rows[held])
        assert all(h != t for h, _, t in rows[graph] + rows[held])
    train_entities = {e for h, _, t in rows["train.txt"] + rows["valid.txt"] for e in (h, t)}
    test_entities = {e for h, _, t in rows["test_graph.txt"] + rows["test.txt"] for e in (h, t)}
    assert not train_entities & test_entities
    relations = {r for _, r, _ in rows["train.txt"]}
    assert len(relations) == gen.NUM_RELATIONS
    assert {r for _, r, _ in rows["test_graph.txt"]} == relations


def test_generator_degrees_follow_the_skew(tmp_path):
    gen.generate(str(tmp_path), entities=500, triples=2000, a=0.8, seed=2, valid=0, test=0)
    with open(tmp_path / "train.txt", encoding="utf-8") as fh:
        ends = Counter(e for line in fh for e in line.rstrip("\n").split("\t")[::2])
    # rank 1 carries 1 / sum(i^-0.8, i <= 500) of the 4000 endpoints, about 290
    assert 250 < max(ends.values()) < 330
    assert min(ends.values()) <= 2


def test_labels_change_names_not_topology(tmp_path):
    args = dict(entities=300, triples=500, a=0.6, seed=3, valid=0, test=0)
    gen.generate(str(tmp_path / "a"), labels=1, **args)
    gen.generate(str(tmp_path / "b"), labels=2, **args)

    def degree_sequence(path):
        with open(path, encoding="utf-8") as fh:
            return sorted(Counter(e for line in fh for e in line.rstrip("\n").split("\t")[::2]).values())

    a, b = tmp_path / "a" / "train.txt", tmp_path / "b" / "train.txt"
    assert not filecmp.cmp(a, b, shallow=False)
    assert degree_sequence(a) == degree_sequence(b)


# ---------------------------------------------------------------- schema

def test_benchmark_json_names_the_spec_workloads_and_layers():
    doc = spec.BENCHMARK
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    for name, w in spec.WORKLOADS.items():
        g = w["gen"]
        assert f"a={g['a']}, {g['entities']} entities, {g['triples']} triples" in spec.WHY[name]
    assert set(spec.MOVES) == set(spec.PER_LAYER)


def test_benchmark_json_respects_format_limits():
    doc = spec.BENCHMARK
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        and m["bound"] == max(x["bound"] for x in doc["end_to_end"])
        for m in doc["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_tracer_names_exactly_the_per_layer_metrics():
    assert set(tracing.Tracer().metrics()) == set(spec.PER_LAYER)


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_result_line_names_exactly_the_metrics(name, small_workloads):
    units = {k: u for k, (u, _, _) in spec.END_TO_END.items()}
    for traced, expected in ((False, units), (True, spec.PER_LAYER)):
        rec = run.run_workload(name, seed=1, seconds=0, traced=traced)
        line = run.report(rec)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(expected)
        assert all(m["unit"] == expected[k] for k, m in line["metrics"].items())
        assert line["attempted"] >= 1 and line["failed"] == 0
        kind = spec.WORKLOADS[name]["kind"]
        assert rec["samples"]["setup_s"] == (1 if traced else spec.SETUP_REPEATS[kind])
        checks = {c["name"]: c["ok"] for c in rec["checks"]}
        assert all(ok for c, ok in checks.items() if c != "reference_outputs")
    assert not any(d.startswith(name + "-") for d in os.listdir(run.TMP_ROOT))


def test_train_setup_runs_to_the_first_forward(small_workloads, monkeypatch):
    from rmpi import trainlab

    init_params = trainlab.init_params

    def slow_init_params(*args, **kwargs):
        time.sleep(0.3)
        return init_params(*args, **kwargs)

    monkeypatch.setattr(trainlab, "init_params", slow_init_params)
    rec = run.run_workload("train-mild", seed=1, seconds=0, traced=False)
    assert rec["samples"]["setup_s"] == spec.SETUP_REPEATS["train"]
    assert rec["end_to_end"]["setup_s"] >= 0.3
    assert rec["attempted"] == spec.WORKLOADS["train-mild"]["min_epochs"]


# ---------------------------------------------------------------- reference

def test_reference_outputs_match_and_catch_a_wrong_rank(tmp_path, monkeypatch):
    from rmpi import evalbench

    res = workloads.Result()
    workloads.check_reference("rank-skewed", str(tmp_path / "a"), res)
    assert res.correct, res.checks
    monkeypatch.setattr(evalbench, "rank_of", lambda gt, others: 1)
    res = workloads.Result()
    workloads.check_reference("rank-skewed", str(tmp_path / "b"), res)
    assert not res.correct


# ---------------------------------------------------------------- traced counts

@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_traced_counts_repeat_for_one_seed(name, small_workloads):
    first = run.run_workload(name, seed=5, seconds=0, traced=True)["per_layer"]
    second = run.run_workload(name, seed=5, seconds=0, traced=True)["per_layer"]
    assert spec.COUNT_METRICS
    assert {k: first[k] for k in spec.COUNT_METRICS} == {k: second[k] for k in spec.COUNT_METRICS}


def test_tracer_uninstall_restores_every_binding():
    from rmpi import numkit, subgraph, trainlab

    before = (trainlab.extract_enclosing, trainlab.to_relation_view, trainlab.score_sample,
              trainlab.adam_step, subgraph.khop_neighbors, numkit.Tape.backward)
    tracer = tracing.Tracer().install()
    assert trainlab.extract_enclosing is subgraph.extract_enclosing
    assert trainlab.extract_enclosing is not before[0]
    tracer.uninstall()
    after = (trainlab.extract_enclosing, trainlab.to_relation_view, trainlab.score_sample,
             trainlab.adam_step, subgraph.khop_neighbors, numkit.Tape.backward)
    assert after == before


# ---------------------------------------------------------------- timing

def test_quantile_is_a_harrell_davis_estimate():
    x = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert workloads.quantile(x, 0.5) == pytest.approx(3.0)
    assert workloads.quantile([7.0], 0.9) == pytest.approx(7.0)
    tail = list(range(1, 201))
    p90 = workloads.quantile(tail, 0.9)
    assert 178 < p90 < 183 and workloads.quantile(tail, 0.5) == pytest.approx(100.5)


def test_incomplete_beta_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for n in (1, 4, 10, 140, 200, 2000):
        for p in (0.5, 0.9):
            a, b = p * (n + 1), (1 - p) * (n + 1)
            for i in range(n + 1):
                assert workloads._betainc(a, b, i / n) == pytest.approx(
                    special.betainc(a, b, i / n), abs=1e-10
                )


def test_work_outside_the_process_fails_the_clock_check():
    res = workloads.Result()
    res.measured_s, res.measured_wall_s = 1.0, 3.0
    res.check_clocks()
    assert not res.correct
    res = workloads.Result()
    t0, c0 = time.perf_counter(), workloads.cpu_clock()
    sum(i * i for i in range(10**6))
    res.measured_s = workloads.cpu_clock() - c0
    res.measured_wall_s = time.perf_counter() - t0
    res.check_clocks()
    assert res.correct, res.checks


# ---------------------------------------------------------------- failures

def test_failed_target_is_counted_and_run_continues():
    res = workloads.Result()

    def boom():
        raise MemoryError("view too large")

    first = workloads._timed_passes([lambda: 1.0, boom, lambda: 2.0], 0, True, res)
    assert first == [1.0, None, 2.0]
    assert (res.attempted, res.failed, len(res.op_s)) == (3, 1, 2)


def test_memory_cap_turns_a_huge_allocation_into_memory_error():
    code = (
        "import sys; sys.argv = ['run.py']; sys.path.insert(0, %r)\n"
        "import run, numpy\n"
        "run.cap_memory()\n"
        "try:\n"
        "    numpy.empty(3 << 30, dtype=numpy.uint8)\n"
        "except MemoryError:\n"
        "    print('capped')\n"
    ) % BENCH_DIR
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "capped", out.stderr


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH_DIR):
        if name.endswith((".py", ".json")):
            with open(os.path.join(BENCH_DIR, name), "rb") as src:
                (bench / name).write_bytes(src.read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank-skewed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
