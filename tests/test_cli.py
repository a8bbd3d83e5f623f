import json
import os
import shutil

import numpy as np
import pytest

from rmpi import subgraph
from rmpi.cli import main
from rmpi.kgstore import Triple, load_benchmark
from rmpi.schema import load_vectors
from rmpi.trainlab import load_checkpoint

from synth import write_benchmark_dir


TRAIN_ROWS = [
    ("a0", "q0", "a1"),
    ("a1", "q1", "a2"),
    ("a2", "q0", "a3"),
    ("a3", "q1", "a4"),
    ("a4", "q0", "a5"),
    ("a5", "q1", "a0"),
    ("a0", "q0", "a3"),
    ("a1", "q0", "a4"),
    ("a2", "q1", "a5"),
    ("a3", "q0", "a0"),
]


def bench_dir(tmp_path, name="data"):
    return write_benchmark_dir(
        tmp_path / name,
        train=TRAIN_ROWS,
        valid=[("a0", "q1", "a2"), ("a4", "q1", "a1")],
        test_graph=TRAIN_ROWS,
        test=[("a1", "q0", "a5"), ("a2", "q0", "a0")],
    )


def train_args(data, out, extra=()):
    return [
        "train", "--data", str(data), "--out", str(out),
        "--dim", "4", "--epochs", "2", "--batch", "4", "--seed", "3",
    ] + list(extra)


SCHEMA_ROWS = [
    "q0\trdfs:subPropertyOf\tparent",
    "q1\trdfs:subPropertyOf\tparent",
    "q0\trdfs:domain\tC1",
    "q1\trdfs:range\tC2",
    "C1\trdfs:subClassOf\tC0",
]


def schema_file(tmp_path):
    path = tmp_path / "schema.tsv"
    path.write_text("".join(row + "\n" for row in SCHEMA_ROWS))
    return path


# ---------------------------------------------------------------- usage

def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(tmp_path):
    data = bench_dir(tmp_path)
    assert main(train_args(data, tmp_path / "out", ["--bogus"])) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "train" in capsys.readouterr().out


def test_invalid_choice_is_usage_error(tmp_path):
    data = bench_dir(tmp_path)
    code = main(["eval", "--ckpt", "x", "--data", str(data), "--task", "sort"])
    assert code == 1


def test_bad_hits_list_is_usage_error(tmp_path):
    data = bench_dir(tmp_path)
    code = main(["eval", "--ckpt", "x", "--data", str(data), "--hits", "a,b"])
    assert code == 1


def test_schema_init_requires_vectors(tmp_path):
    data = bench_dir(tmp_path)
    code = main(train_args(data, tmp_path / "out", ["--init", "schema"]))
    assert code == 1


# ---------------------------------------------------------------- data errors

def test_missing_data_dir_is_data_error(tmp_path, capsys):
    code = main(train_args(tmp_path / "nope", tmp_path / "out"))
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_missing_checkpoint_is_data_error(tmp_path):
    data = bench_dir(tmp_path)
    code = main(["eval", "--ckpt", str(tmp_path / "nope"), "--data", str(data)])
    assert code == 2


def test_empty_test_split_is_data_error(tmp_path):
    data = write_benchmark_dir(
        tmp_path / "empty", train=TRAIN_ROWS, valid=[], test_graph=[], test=[]
    )
    out = tmp_path / "ck"
    assert main(train_args(data, out)) == 0
    code = main(["eval", "--ckpt", str(out), "--data", str(data)])
    assert code == 2


# ---------------------------------------------------------------- train

def test_train_writes_checkpoint_and_manifest(tmp_path):
    data = bench_dir(tmp_path)
    out = tmp_path / "ckpt"
    assert main(train_args(data, out)) == 0
    for name in ("manifest.json", "params.bin", "run_manifest.json"):
        assert (out / name).is_file()
    ckpt = load_checkpoint(str(out))
    assert ckpt.config.dim == 4
    manifest = json.load(open(out / "run_manifest.json"))
    assert manifest["command"] == "train"
    assert manifest["flags"]["lr"] == 0.001  # defaults resolved into the manifest
    assert manifest["seed"] == 3
    assert str(data) in manifest["inputs"]


def test_train_reruns_reproduce_manifest_and_params(tmp_path):
    data = bench_dir(tmp_path)
    out = tmp_path / "ckpt"
    argv = train_args(data, out)
    assert main(argv) == 0
    kept_manifest = json.load(open(out / "run_manifest.json"))
    kept_params = (out / "params.bin").read_bytes()
    assert main(argv) == 0
    again = json.load(open(out / "run_manifest.json"))
    for doc in (kept_manifest, again):
        doc.pop("started")
        doc.pop("finished")
        # outputs of the first run feed the second run's input digest scan
        doc["inputs"].pop(str(data), None)
    assert kept_manifest["flags"] == again["flags"]
    assert kept_manifest["command"] == again["command"]
    assert (out / "params.bin").read_bytes() == kept_params


def test_train_multi_run_layout(tmp_path):
    data = bench_dir(tmp_path)
    out = tmp_path / "ckpt"
    assert main(train_args(data, out, ["--runs", "2", "--epochs", "1"])) == 0
    for run in ("run0", "run1"):
        assert (out / run / "params.bin").is_file()
        assert (out / run / "run_manifest.json").is_file()
    assert (out / "summary.tsv").is_file()
    a = load_checkpoint(str(out / "run0"))
    b = load_checkpoint(str(out / "run1"))
    assert any(
        not np.array_equal(a.params[name], b.params[name]) for name in a.params
    )


# ---------------------------------------------------------------- eval

def trained_checkpoint(tmp_path):
    data = bench_dir(tmp_path)
    out = tmp_path / "ckpt"
    assert main(train_args(data, out)) == 0
    return data, out


def test_eval_classify_report(tmp_path, capsys):
    data, ckpt = trained_checkpoint(tmp_path)
    report = tmp_path / "report"
    code = main(
        ["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(report)]
    )
    assert code == 0
    assert "auc_pr" in capsys.readouterr().out
    metrics = json.load(open(report / "classify_metrics.json"))
    assert 0.0 <= metrics["auc_pr"] <= 1.0
    assert metrics["targets"] == 2
    assert (report / "classify_metrics.tsv").is_file()
    assert (report / "run_manifest.json").is_file()


def test_eval_truncated_params_is_data_error(tmp_path, capsys):
    data, ckpt = trained_checkpoint(tmp_path)
    params = ckpt / "params.bin"
    params.write_bytes(params.read_bytes()[:-8])
    code = main(["eval", "--ckpt", str(ckpt), "--data", str(data)])
    assert code == 2
    assert "parameter block" in capsys.readouterr().err


def test_eval_rank_report(tmp_path):
    data, ckpt = trained_checkpoint(tmp_path)
    report = tmp_path / "report"
    code = main(
        ["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(report),
         "--task", "rank", "--neg", "5", "--hits", "1,5"]
    )
    assert code == 0
    metrics = json.load(open(report / "rank_metrics.json"))
    assert metrics["queries"] == 4  # two targets, both sides
    assert 0.0 < metrics["mrr"] <= 1.0
    assert set(metrics) >= {"mrr", "hits@1", "hits@5"}
    assert metrics["hits@1"] <= metrics["hits@5"]


def test_eval_single_side_rank(tmp_path):
    data, ckpt = trained_checkpoint(tmp_path)
    report = tmp_path / "report"
    code = main(
        ["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(report),
         "--task", "rank", "--neg", "3", "--side", "head"]
    )
    assert code == 0
    metrics = json.load(open(report / "rank_metrics.json"))
    assert metrics["queries"] == 2


# ---------------------------------------------------------------- other commands

def test_schema_pretrain_then_schema_train(tmp_path):
    data = bench_dir(tmp_path)
    schema = schema_file(tmp_path)
    vec_dir = tmp_path / "vectors"
    code = main(
        ["schema-pretrain", "--schema", str(schema), "--out", str(vec_dir),
         "--epochs", "15", "--batch", "8"]
    )
    assert code == 0
    vectors = load_vectors(str(vec_dir))
    assert {"q0", "q1"} <= set(vectors)
    assert len(vectors["q0"]) == 300

    out = tmp_path / "ckpt"
    code = main(
        train_args(data, out, ["--init", "schema", "--schema-vectors", str(vec_dir)])
    )
    assert code == 0
    ckpt = load_checkpoint(str(out))
    assert "schema_w1" in ckpt.params


def test_schema_train_follows_narrow_vector_width(tmp_path):
    # Pretraining at a non-default width must flow through to training
    # and evaluation without any width flag.
    data = bench_dir(tmp_path)
    schema = schema_file(tmp_path)
    vec_dir = tmp_path / "vectors"
    code = main(
        ["schema-pretrain", "--schema", str(schema), "--out", str(vec_dir),
         "--epochs", "10", "--batch", "8", "--dim", "64"]
    )
    assert code == 0

    out = tmp_path / "ckpt"
    code = main(
        train_args(data, out, ["--init", "schema", "--schema-vectors", str(vec_dir)])
    )
    assert code == 0
    ckpt = load_checkpoint(str(out))
    assert ckpt.config.schema_dim == 64
    assert ckpt.params["schema_w2"].shape == (128, 64)

    code = main(
        ["eval", "--ckpt", str(out), "--data", str(data), "--out", str(tmp_path),
         "--task", "classify", "--schema-vectors", str(vec_dir)]
    )
    assert code == 0


def test_schema_pretrain_relations_only(tmp_path):
    schema = schema_file(tmp_path)
    vec_dir = tmp_path / "vectors"
    code = main(
        ["schema-pretrain", "--schema", str(schema), "--out", str(vec_dir),
         "--epochs", "5", "--batch", "8", "--relations-only"]
    )
    assert code == 0
    vectors = load_vectors(str(vec_dir))
    # property hierarchy members count as relations; concept classes do not
    assert set(vectors) == {"q0", "q1", "parent"}


def test_benchgen_counts_and_files(tmp_path, capsys):
    vi = write_benchmark_dir(
        tmp_path / "vi",
        train=[("a0", "ra", "a1"), ("a1", "rb", "a2")],
        valid=[("a0", "rb", "a2")],
    )
    vj = write_benchmark_dir(
        tmp_path / "vj",
        train=[("b0", "ra", "b1")],
        test_graph=[("b0", "ra", "b1"), ("b1", "rc", "b2")],
        test=[("b2", "rc", "b0")],
    )
    out = tmp_path / "cross"
    code = main(
        ["benchgen", "--train-from", str(vi), "--test-from", str(vj),
         "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "1 unseen" in printed
    assert (out / "unseen_relations.txt").read_text() == "rc\n"
    assert (out / "semi" / "test_graph.txt").is_file()
    assert (out / "fully" / "test.txt").is_file()


def test_dump_subgraph_prints_nodes(tmp_path, capsys):
    data = bench_dir(tmp_path)
    code = main(
        ["dump-subgraph", "--data", str(data), "--head", "a0", "--rel", "q0",
         "--tail", "a3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("#nodes\t")
    assert "#node\t" in out


def test_dump_subgraph_disclosing_kind(tmp_path, capsys):
    data = bench_dir(tmp_path)
    code = main(
        ["dump-subgraph", "--data", str(data), "--head", "a0", "--rel", "q0",
         "--tail", "a3", "--hop", "1", "--kind", "disclosing"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    # N1(a0) | N1(a3) covers all six entities: every row but the target
    # instance, then the target itself
    assert lines[0] == "#nodes\t10\ttarget\t9"
    nodes = [tuple(l.split("\t")[2:]) for l in lines if l.startswith("#node\t")]
    assert nodes[-1] == ("a0", "q0", "a3")
    assert sorted(nodes[:-1]) == sorted(r for r in TRAIN_ROWS if r != ("a0", "q0", "a3"))


def test_dump_subgraph_unknown_name(tmp_path, capsys):
    data = bench_dir(tmp_path)
    code = main(
        ["dump-subgraph", "--data", str(data), "--head", "missing", "--rel", "q0",
         "--tail", "a3"]
    )
    assert code == 2
    assert "unknown entity" in capsys.readouterr().err


def test_dump_subgraph_over_edge_ceiling_exits_2(tmp_path, capsys, monkeypatch):
    data = bench_dir(tmp_path)
    monkeypatch.setattr(subgraph, "MAX_JOIN_ROWS", 10)
    code = main(
        ["dump-subgraph", "--data", str(data), "--head", "a0", "--rel", "q0",
         "--tail", "a3"]
    )
    assert code == 2
    vocab = load_benchmark(str(data)).vocab
    target = Triple(vocab.entity_id("a0"), vocab.relation_id("q0"), vocab.entity_id("a3"))
    err = capsys.readouterr().err
    assert f"relation view of target {target} needs" in err
    assert "limit of 10" in err
