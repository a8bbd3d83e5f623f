import json
import os
import re
import shutil

import numpy as np
import pytest

from rmpi import cli, evalbench, subgraph, trainlab
from rmpi.cli import _digest_path, main
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


def test_bad_hits_list_is_usage_error(tmp_path, capsys):
    data = bench_dir(tmp_path)
    for hits, line in [("a,b", "expected an integer, got 'a'"),
                       ("1,0", "must be >= 1, got 0"),
                       ("", "expected an integer, got ''")]:
        code = main(["eval", "--ckpt", "x", "--data", str(data), "--hits", hits])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == f"usage error: argument --hits: {line}"
        assert err.splitlines()[1].startswith("usage: rmpi eval")


@pytest.mark.parametrize(
    "command",
    [
        # no candidates to rank
        ["eval", "--data", "data", "--ckpt", "x", "--task", "rank", "--neg", "0"],
        ["eval", "--data", "data", "--ckpt", "x", "--task", "rank", "--neg", "-1"],
        ["train", "--data", "data", "--out", "out", "--runs", "0"],  # no run at all
        # would save untrained parameters
        ["train", "--data", "data", "--out", "out", "--epochs", "0"],
        ["train", "--data", "data", "--out", "out", "--batch", "0"],
        ["train", "--data", "data", "--out", "out", "--negatives", "0"],
        ["train", "--data", "data", "--out", "out", "--patience", "0"],
        ["train", "--data", "data", "--out", "out", "--dim", "0"],
        ["train", "--data", "data", "--out", "out", "--hop", "0"],
        ["dump-subgraph", "--data", "data", "--head", "a0", "--rel", "q0", "--tail", "a1",
         "--hop", "0"],
        ["schema-pretrain", "--schema", "schema", "--out", "out", "--epochs", "0"],
        ["schema-pretrain", "--schema", "schema", "--out", "out", "--batch", "0"],
        ["schema-pretrain", "--schema", "schema", "--out", "out", "--dim", "0"],
    ],
    ids=["neg-0", "neg-negative", "runs-0", "epochs-0", "batch-0", "negatives-0",
         "patience-0", "dim-0", "hop-0", "dump-hop-0", "schema-epochs-0", "schema-batch-0",
         "schema-dim-0"],
)
def test_count_flags_below_one_are_usage_errors(tmp_path, capsys, command):
    paths = {"data": bench_dir(tmp_path), "schema": schema_file(tmp_path), "out": tmp_path / "out"}
    assert main([str(paths.get(arg, arg)) for arg in command]) == 1
    assert "must be >= 1" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["data", "schema.tsv"]


@pytest.mark.parametrize(
    "command",
    [
        ["train", "--data", "data", "--out", "out", "--hop", "127"],
        ["dump-subgraph", "--data", "data", "--head", "a0", "--rel", "q0", "--tail", "a1",
         "--hop", "127"],
    ],
    ids=["train", "dump-subgraph"],
)
def test_hop_flags_past_the_level_type_are_usage_errors(tmp_path, capsys, command):
    # a level, at most K + 1, is held in an int8: K = 127 would wrap it
    paths = {"data": bench_dir(tmp_path), "out": tmp_path / "out"}
    assert main([str(paths.get(arg, arg)) for arg in command]) == 1
    assert "argument --hop: must be <= 126, got 127" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["data"]


def test_dump_subgraph_at_the_deepest_hop_count(tmp_path, capsys):
    data = bench_dir(tmp_path)
    assert main(["dump-subgraph", "--data", str(data), "--head", "a0", "--rel", "q0",
                 "--tail", "a1", "--hop", "126"]) == 0
    assert capsys.readouterr().out.startswith("#nodes\t")


@pytest.mark.parametrize(
    "command",
    [
        ["train", "--data", "data", "--out", "out", "--lr", "-0.5"],  # gradient ascent
        ["train", "--data", "data", "--out", "out", "--lr", "0"],
        ["train", "--data", "data", "--out", "out", "--lr", "nan"],
        ["train", "--data", "data", "--out", "out", "--lr", "inf"],
        ["train", "--data", "data", "--out", "out", "--lr", "fast"],
        ["train", "--data", "data", "--out", "out", "--margin", "-3"],
        ["train", "--data", "data", "--out", "out", "--margin", "inf"],
        ["train", "--data", "data", "--out", "out", "--dropout", "1.5"],
        ["train", "--data", "data", "--out", "out", "--dropout", "-0.1"],
        ["train", "--data", "data", "--out", "out", "--dropout", "1"],
        ["schema-pretrain", "--schema", "schema", "--out", "out", "--lr", "-1"],
        ["schema-pretrain", "--schema", "schema", "--out", "out", "--margin", "-3"],
        ["schema-pretrain", "--schema", "schema", "--out", "out", "--margin", "0"],
    ],
    ids=["lr-negative", "lr-0", "lr-nan", "lr-inf", "lr-word", "margin-negative", "margin-inf",
         "dropout-1.5", "dropout-negative", "dropout-1", "schema-lr-negative",
         "schema-margin-negative", "schema-margin-0"],
)
def test_bad_float_flags_are_usage_errors(tmp_path, capsys, command):
    paths = {"data": bench_dir(tmp_path), "schema": schema_file(tmp_path), "out": tmp_path / "out"}
    assert main([str(paths.get(arg, arg)) for arg in command]) == 1
    flag = next(arg for arg in command if arg in ("--lr", "--margin", "--dropout"))
    assert f"argument {flag}:" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["data", "schema.tsv"]


@pytest.mark.parametrize(
    "command",
    [
        ["train", "--data", "data", "--out", "out"],
        ["eval", "--data", "data", "--ckpt", "out", "--out", "out"],
        ["schema-pretrain", "--schema", "schema", "--out", "out"],
    ],
    ids=["train", "eval", "schema-pretrain"],
)
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    # numpy's generators take no negative seed: refused before any run starts
    paths = {"data": bench_dir(tmp_path), "schema": schema_file(tmp_path), "out": tmp_path / "out"}
    assert main([str(paths.get(arg, arg)) for arg in command] + ["--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "usage error: argument --seed: must be >= 0, got -1"
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["data", "schema.tsv"]

def test_schema_init_requires_vectors(tmp_path):
    data = bench_dir(tmp_path)
    code = main(train_args(data, tmp_path / "out", ["--init", "schema"]))
    assert code == 1


def test_schema_vectors_need_schema_init(tmp_path, capsys):
    data = bench_dir(tmp_path)
    vec_dir = tmp_path / "vectors"
    assert main(["schema-pretrain", "--schema", str(schema_file(tmp_path)),
                 "--out", str(vec_dir), "--epochs", "2", "--dim", "8"]) == 0
    capsys.readouterr()
    code = main(train_args(data, tmp_path / "out", ["--schema-vectors", str(vec_dir)]))
    assert code == 1
    assert "--init schema" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("task", ["classify", "rank"])
def test_eval_over_an_empty_test_graph_is_data_error(tmp_path, capsys, task):
    data = write_benchmark_dir(
        tmp_path / "data", train=TRAIN_ROWS, valid=[("a0", "q1", "a2")],
        test_graph=[], test=[("a1", "q0", "a5")],
    )
    out = tmp_path / "ck"
    assert main(train_args(data, out)) == 0
    capsys.readouterr()
    report = tmp_path / "report"
    code = main(["eval", "--ckpt", str(out), "--data", str(data), "--out", str(report),
                 "--task", task, "--side", "tail"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if task == "rank":
        assert re.search(r"tail of query \(\d+, \d+, \d+\)", err)
    assert not report.exists()


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


def test_input_digest_skips_run_manifests(tmp_path):
    # a run manifest records timestamps, so identical runs would digest apart
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / "params.bin").write_bytes(b"\x00" * 8)
    (ckpt / "run_manifest.json").write_text('{"started": "2024-01-01T00:00:00"}')
    digest = _digest_path(str(ckpt))
    (ckpt / "run_manifest.json").write_text('{"started": "2024-01-02T00:00:00"}')
    assert _digest_path(str(ckpt)) == digest
    (ckpt / "params.bin").write_bytes(b"\x00" * 7 + b"\x01")
    assert _digest_path(str(ckpt)) != digest


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


def test_train_multi_run_summary_without_validation_is_strict_json(tmp_path):
    # no run validates on an empty valid.txt, so the summary has no mean
    data = write_benchmark_dir(tmp_path / "data", train=TRAIN_ROWS, test_graph=TRAIN_ROWS,
                               test=[("a1", "q0", "a5")])
    out = tmp_path / "ckpt"
    assert main(train_args(data, out, ["--runs", "2", "--epochs", "1"])) == 0

    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary == {"runs": 2}
    assert (out / "summary.tsv").read_text() == "runs\t2\n"


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


def test_eval_into_the_checkpoint_directory_is_usage_error(tmp_path, capsys, monkeypatch):
    # the report's run manifest would replace the training run's, with its
    # flags, seed and input digests: refused before anything is loaded
    data, ckpt = trained_checkpoint(tmp_path)
    before = {name: (ckpt / name).read_bytes() for name in os.listdir(ckpt)}
    (tmp_path / "link").symlink_to(ckpt)
    monkeypatch.setattr(cli, "load_checkpoint", lambda *args: pytest.fail("loaded"))
    monkeypatch.setattr(cli, "load_benchmark", lambda *args: pytest.fail("loaded"))
    monkeypatch.chdir(tmp_path)
    for out in (str(ckpt), "ckpt", "./ckpt/", str(tmp_path / "link")):
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --out {out} is the checkpoint directory")
    assert {name: (ckpt / name).read_bytes() for name in os.listdir(ckpt)} == before


def test_eval_truncated_params_is_data_error(tmp_path, capsys):
    data, ckpt = trained_checkpoint(tmp_path)
    params = ckpt / "params.bin"
    params.write_bytes(params.read_bytes()[:-8])
    code = main(["eval", "--ckpt", str(ckpt), "--data", str(data)])
    assert code == 2
    assert "parameter block" in capsys.readouterr().err


def rewrite_json(path, edit):
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p.write_text(p.read_text()[:-20]),  # truncated
        lambda p: p.write_text("[1, 2]"),  # not an object
        lambda p: rewrite_json(p, lambda m: {k: v for k, v in m.items() if k != "params"}),
        lambda p: rewrite_json(p, lambda m: {**m, "params": 5}),
        lambda p: rewrite_json(p, lambda m: {**m, "model_config": {**m["model_config"], "width": 3}}),
        lambda p: rewrite_json(p, lambda m: {**m, "model_config": {**m["model_config"], "hops": "2"}}),
        lambda p: rewrite_json(p, lambda m: {**m, "seen": m["seen"][:-1]}),
        lambda p: rewrite_json(p, lambda m: {**m, "params": [
            {**e, "name": "layer1_typeX"} if e["name"] == "layer1_type1" else e
            for e in m["params"]]}),
        lambda p: rewrite_json(p, lambda m: {**m, "params": [
            {**e, "shape": [2, 8]} if e["name"] == "layer1_type1" else e
            for e in m["params"]]}),
    ],
    ids=["truncated", "not-object", "no-params", "params-int", "config-key", "config-type",
         "seen-short", "param-renamed", "param-reshaped"],
)
def test_eval_malformed_checkpoint_manifest_is_data_error(tmp_path, capsys, corrupt):
    data, ckpt = trained_checkpoint(tmp_path)
    corrupt(ckpt / "manifest.json")
    code = main(["eval", "--ckpt", str(ckpt), "--data", str(data)])
    assert code == 2
    err = capsys.readouterr().err
    assert "checkpoint manifest" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("hops", [126, 127])
def test_eval_checkpoint_hops_past_the_level_type_is_data_error(tmp_path, capsys, hops):
    # 126 is the deepest model whose levels fit an int8; past it the config
    # is refused before a triple is read.  At 126 the manifest's parameters
    # no longer fit its config, which is refused too.
    data, ckpt = trained_checkpoint(tmp_path)
    rewrite_json(ckpt / "manifest.json",
                 lambda m: {**m, "model_config": {**m["model_config"], "hops": hops}})
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    if hops == 127:
        assert err == "error: hops must be in 1..126, got 127\n"
    else:
        assert "parameters do not fit the model config" in err and err.count("\n") == 1


def test_eval_schema_vectors_need_schema_checkpoint(tmp_path, capsys):
    data, ckpt = trained_checkpoint(tmp_path)
    vec_dir = tmp_path / "vectors"
    assert main(["schema-pretrain", "--schema", str(schema_file(tmp_path)),
                 "--out", str(vec_dir), "--epochs", "2", "--dim", "8"]) == 0
    capsys.readouterr()
    report = tmp_path / "report"
    code = main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(report),
                 "--schema-vectors", str(vec_dir)])
    assert code == 1
    assert "--init schema" in capsys.readouterr().err
    assert not report.exists()


def test_eval_reads_no_relation_view(tmp_path, capsys, monkeypatch):
    # scoring passes messages over entity incidences, so the edge ceiling,
    # which bounds relation views, holds back only training and dump-subgraph
    data, ckpt = trained_checkpoint(tmp_path)
    monkeypatch.setattr(subgraph, "MAX_VIEW_EDGES", 10)
    for task in ("classify", "rank"):
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / task), "--task", task]) == 0
    capsys.readouterr()
    assert main(["dump-subgraph", "--data", str(data), "--head", "a0", "--rel", "q0",
                 "--tail", "a3"]) == 2
    assert "limit of 10" in capsys.readouterr().err


def test_train_over_edge_ceiling_exits_2_naming_a_target(tmp_path, capsys, monkeypatch):
    # a training step builds its batch's edges at once, under the ceiling
    data = bench_dir(tmp_path)
    out = tmp_path / "ckpt"
    monkeypatch.setattr(subgraph, "MAX_VIEW_EDGES", 10)
    assert main(train_args(data, out)) == 2
    err = capsys.readouterr().err
    assert re.search(r"relation view of target Triple\(head=\d+, relation=\d+, tail=\d+\) "
                     r"needs \d+ edges, over the limit of 10", err)
    assert not out.exists()


NUMPY_OUT_OF_MEMORY = ("Unable to allocate 8.00 GiB for an array with shape (1073741824,) "
                      "and data type float64")


def out_of_memory(*args, **kwargs):
    raise MemoryError(NUMPY_OUT_OF_MEMORY)


@pytest.mark.parametrize(
    "error, line",
    [(MemoryError(NUMPY_OUT_OF_MEMORY), NUMPY_OUT_OF_MEMORY), (MemoryError(), "MemoryError")],
    ids=["numpy", "bare"],
)
def test_train_out_of_memory_exits_2_in_one_line(tmp_path, capsys, monkeypatch, error, line):
    data = bench_dir(tmp_path)
    out = tmp_path / "ckpt"

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(trainlab, "score_sample", fail)
    assert main(train_args(data, out)) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


@pytest.mark.parametrize("task", ["classify", "rank"])
def test_eval_out_of_memory_exits_2_in_one_line(tmp_path, capsys, monkeypatch, task):
    data, ckpt = trained_checkpoint(tmp_path)
    capsys.readouterr()
    report = tmp_path / "report"
    monkeypatch.setattr(evalbench, "score_triples", out_of_memory)
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(report),
                 "--task", task]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate")
    assert err.count("\n") == 1
    assert not report.exists()


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


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p.write_text(p.read_text()[:-20]),  # truncated
        lambda p: p.write_text("[1, 2]"),  # not an object
        lambda p: rewrite_json(p, lambda m: {k: v for k, v in m.items() if k != "dim"}),
        lambda p: rewrite_json(p, lambda m: {**m, "entries": [{"name": "q0"}]}),
        lambda p: rewrite_json(p, lambda m: {**m, "dim": "wide"}),
    ],
    ids=["truncated", "not-object", "no-dim", "entry-no-offset", "dim-str"],
)
def test_eval_malformed_vector_manifest_is_data_error(tmp_path, capsys, corrupt):
    data = bench_dir(tmp_path)
    vec_dir = tmp_path / "vectors"
    assert main(["schema-pretrain", "--schema", str(schema_file(tmp_path)),
                 "--out", str(vec_dir), "--epochs", "2", "--dim", "8"]) == 0
    out = tmp_path / "ckpt"
    assert main(train_args(data, out, ["--init", "schema", "--schema-vectors", str(vec_dir)])) == 0
    corrupt(vec_dir / "manifest.json")
    capsys.readouterr()
    code = main(["eval", "--ckpt", str(out), "--data", str(data),
                 "--out", str(tmp_path / "report"), "--schema-vectors", str(vec_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert "malformed vector manifest" in err
    assert err.count("\n") == 1


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
    monkeypatch.setattr(subgraph, "MAX_VIEW_EDGES", 10)
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
