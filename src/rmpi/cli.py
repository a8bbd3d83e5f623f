"""Command-line surface: train, eval, schema-pretrain, benchgen, dump-subgraph.

Exit codes: 0 success, 1 usage problem, 2 data or model error.  `--variant`
names one of `rmpnet.VARIANTS`, built by `rmpnet.variant_config`.  Every run
writes a `run_manifest.json` next to its outputs, by `write_run_manifest`
alone: the command and resolved flags, the seed, the start time `main`
stamps once before dispatch, input content digests and produced files, so
identical argv over identical inputs leaves identical manifests up to
timestamps.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time

import numpy as np

from .evalbench import EvalError, classify, rank_queries, recombine, write_report
from .fileio import MANIFEST, format_row, write_json
from .kgstore import KGError, Triple, load_benchmark
from .numkit import NumkitError
from .rmpnet import VARIANTS, ModelError, ModelConfig, variant_config
from .schema import BLOCK_NAME, SchemaError, load_schema, load_vectors, pretrain, save_vectors
from .subgraph import (
    MAX_HOPS,
    SubgraphError,
    dump_relation_view,
    extract_disclosing,
    extract_enclosing,
    to_relation_view,
)
from .trainlab import (
    CHECKPOINT_PARAMS,
    TrainConfig,
    TrainError,
    load_checkpoint,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

MANIFEST_FILE = "run_manifest.json"

DATA_ERRORS = (
    KGError,
    SubgraphError,
    NumkitError,
    ModelError,
    SchemaError,
    TrainError,
    EvalError,
    OSError,
    MemoryError,  # numpy's message names the allocation that failed
)

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit 1
        raise UsageError(f"{message}\n{self.format_usage()}")


# ------------------------------------------------------------------ manifest

def _digest_path(path: str) -> str:
    """SHA-256 of a file, or of a directory's relative paths and contents.

    A directory's own run manifests are skipped: they record when the run
    that wrote the directory started and finished, which differs between
    identical runs.
    """
    h = hashlib.sha256()
    if os.path.isdir(path):
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                if name == MANIFEST_FILE:
                    continue
                full = os.path.join(root, name)
                h.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as fh:
                    h.update(fh.read())
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def write_run_manifest(args, out_dir, seed, inputs, outputs):
    """Write out_dir's run manifest: the command and flags of `args`, the
    seed, the start time `main` stamped on `args`, the inputs' digests and
    the outputs."""
    manifest = {
        "command": args.command,
        "flags": {k: v for k, v in vars(args).items() if k not in ("func", "started")},
        "seed": seed,
        "started": args.started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "inputs": {p: _digest_path(p) for p in sorted(set(inputs))},
        "outputs": sorted(outputs),
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, MANIFEST_FILE)
    write_json(path, manifest)
    return path


# ------------------------------------------------------------------ helpers

def _model_config(args, schema_vectors=None) -> ModelConfig:
    kwargs = {}
    if schema_vectors:
        # width follows whatever the pretraining exported
        any_vec = next(iter(schema_vectors.values()))
        kwargs["schema_dim"] = int(any_vec.shape[0])
    return variant_config(
        args.variant,
        hops=args.hop,
        dim=args.dim,
        edge_dropout=args.dropout,
        fusion=args.fusion,
        init_mode=args.init,
        **kwargs,
    )


def _load_schema_vectors(args):
    if args.init != "schema":
        if args.schema_vectors:
            raise UsageError("--schema-vectors is read only with --init schema")
        return None
    if not args.schema_vectors:
        raise UsageError("--init schema requires --schema-vectors")
    return load_vectors(args.schema_vectors)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _count(text: str) -> int:
    """An argparse type: an integer >= 1."""
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _hops(text: str) -> int:
    """An argparse type: a hop count, an integer in 1..MAX_HOPS."""
    value = _count(text)
    if value > MAX_HOPS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_HOPS}, got {value}")
    return value


def _seed(text: str) -> int:
    """An argparse type: an integer >= 0, as numpy's generators take."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _positive(text: str) -> float:
    """An argparse type: a finite number > 0."""
    value = _number(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {value}")
    return value


def _dropout(text: str) -> float:
    """An argparse type: a probability in [0, 1)."""
    value = _number(text)
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


def _hits(text: str) -> tuple[int, ...]:
    """An argparse type: comma-separated integers >= 1."""
    return tuple(_count(part) for part in text.split(","))


# ------------------------------------------------------------------ commands

def cmd_train(args) -> int:
    schema_vectors = _load_schema_vectors(args)
    model = _model_config(args, schema_vectors)
    bench = load_benchmark(args.data)

    aucs = []
    for run in range(args.runs):
        seed = args.seed + run
        config = TrainConfig(
            model=model,
            lr=args.lr,
            batch_size=args.batch,
            margin=args.margin,
            epochs=args.epochs,
            seed=seed,
            patience=args.patience,
            num_negatives=args.negatives,
        )
        out_dir = args.out if args.runs == 1 else os.path.join(args.out, f"run{run}")
        ckpt = train(
            bench, config,
            schema_vectors=schema_vectors,
            log=lambda msg: print(msg),
        )
        save_checkpoint(ckpt, out_dir)
        outputs = [
            os.path.join(out_dir, MANIFEST),
            os.path.join(out_dir, CHECKPOINT_PARAMS),
        ]
        inputs = [args.data] + ([args.schema_vectors] if schema_vectors else [])
        write_run_manifest(args, out_dir, seed, inputs, outputs)
        if ckpt.best_val_auc is not None:
            aucs.append(ckpt.best_val_auc)
            print(f"run {run}: best validation auc-pr {ckpt.best_val_auc:.4f}")

    if aucs:
        print(f"mean validation auc-pr over {len(aucs)} run(s): {np.mean(aucs):.4f}")
    if args.runs > 1:  # a mean only over runs that validated: JSON has no NaN
        summary = {"mean_val_auc_pr": float(np.mean(aucs))} if aucs else {}
        write_report({**summary, "runs": args.runs}, args.out, stem="summary")
    return EXIT_OK


def cmd_eval(args) -> int:
    if os.path.realpath(args.out) == os.path.realpath(args.ckpt):
        raise UsageError(
            f"--out {args.out} is the checkpoint directory, whose run manifest "
            "the report's would replace; write the report elsewhere"
        )
    ckpt = load_checkpoint(args.ckpt)
    bench = load_benchmark(args.data)
    if not bench.test:
        raise EvalError(f"benchmark at {args.data} has no test targets")
    schema_vectors = None
    if ckpt.config.init_mode == "schema":
        if not args.schema_vectors:
            raise UsageError("checkpoint uses schema init: pass --schema-vectors")
        schema_vectors = load_vectors(args.schema_vectors)
    elif args.schema_vectors:
        raise UsageError(
            "--schema-vectors is read only for a checkpoint trained with --init schema"
        )

    if args.task == "classify":
        result = classify(
            ckpt, bench.test_graph, bench.test, seed=args.seed,
            schema_vectors=schema_vectors,
        )
        metrics = {"auc_pr": result.auc_pr, "targets": len(bench.test)}
    else:
        sides = ("head", "tail") if args.side == "both" else (args.side,)
        result = rank_queries(
            ckpt, bench.test_graph, bench.test, sides=sides, num_neg=args.neg,
            seed=args.seed, hits_at=args.hits, schema_vectors=schema_vectors,
        )
        metrics = {"mrr": result.mrr, "queries": len(result.ranks)}
        for n in sorted(result.hits):
            metrics[f"hits@{n}"] = result.hits[n]

    tsv_path, json_path = write_report(metrics, args.out, stem=f"{args.task}_metrics")
    for row in metrics.items():
        print(format_row(row))
    write_run_manifest(
        args, args.out, args.seed,
        [args.ckpt, args.data] + ([args.schema_vectors] if schema_vectors else []),
        [tsv_path, json_path],
    )
    return EXIT_OK


def cmd_schema_pretrain(args) -> int:
    schema = load_schema(args.schema)
    emb = pretrain(
        schema,
        dim=args.dim,
        epochs=args.epochs,
        lr=args.lr,
        margin=args.margin,
        seed=args.seed,
        batch_size=args.batch,
    )
    names = None
    if args.relations_only:
        names = sorted(schema.node_names[i] for i in schema.relation_nodes())
    save_vectors(emb, args.out, names=names)
    exported = len(names) if names is not None else len(emb.node_names)
    print(
        f"pretrained {len(emb.node_names)} nodes for {args.epochs} epochs, "
        f"final mean loss {emb.loss_history[-1]:.4f}, exported {exported} vectors"
    )
    write_run_manifest(
        args, args.out, args.seed, [args.schema],
        [os.path.join(args.out, MANIFEST), os.path.join(args.out, BLOCK_NAME)],
    )
    return EXIT_OK


def cmd_benchgen(args) -> int:
    result = recombine(args.train_from, args.test_from, args.out)

    def tally(bench):
        rows = list(bench.test_graph.triples) + list(bench.test)
        relations = {t.relation for t in rows}
        return len(relations), len(rows)

    semi_rel, semi_rows = tally(result.semi)
    fully_rel, fully_rows = tally(result.fully)
    print(
        f"semi: {semi_rel} relations over {semi_rows} triples "
        f"({len(result.unseen_relations)} unseen)"
    )
    print(f"fully: {fully_rel} relations over {fully_rows} triples")
    write_run_manifest(
        args, args.out, 0,
        [args.train_from, args.test_from],
        [os.path.join(args.out, "semi"), os.path.join(args.out, "fully"),
         os.path.join(args.out, "unseen_relations.txt")],
    )
    return EXIT_OK


def cmd_dump_subgraph(args) -> int:
    bench = load_benchmark(args.data)
    vocab = bench.vocab
    graph = bench.train if args.graph == "train" else bench.test_graph
    target = Triple(
        vocab.entity_id(args.head),
        vocab.relation_id(args.rel),
        vocab.entity_id(args.tail),
    )
    extract = extract_enclosing if args.kind == "enclosing" else extract_disclosing
    rvg = to_relation_view(extract(graph, target, args.hop))
    print(dump_relation_view(rvg, vocab))
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> _Parser:
    parser = _Parser(prog="rmpi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--hop", type=_hops, default=2,
                       help="subgraph radius and message-passing depth")
        p.add_argument("--dim", type=_count, default=32)
        p.add_argument("--dropout", type=_dropout, default=0.5)
        p.add_argument("--variant", choices=sorted(VARIANTS), default="base")
        p.add_argument("--fusion", choices=["sum", "conc"], default="sum")
        p.add_argument("--init", choices=["random", "schema"], default="random")
        p.add_argument("--schema-vectors", help="directory with exported vectors")

    p_train = sub.add_parser("train", help="train a model on a benchmark directory")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--out", required=True)
    add_model_flags(p_train)
    p_train.add_argument("--lr", type=_positive, default=0.001)
    p_train.add_argument("--batch", type=_count, default=16)
    p_train.add_argument("--margin", type=_positive, default=10.0)
    p_train.add_argument("--epochs", type=_count, default=50)
    p_train.add_argument("--patience", type=_count, default=10)
    p_train.add_argument("--negatives", type=_count, default=1)
    p_train.add_argument("--seed", type=_seed, default=0)
    p_train.add_argument("--runs", type=_count, default=1,
                         help="repeat with derived seeds and report the mean")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", default=".")
    p_eval.add_argument("--task", choices=["classify", "rank"], default="classify")
    p_eval.add_argument("--neg", type=_count, default=49)
    p_eval.add_argument("--hits", type=_hits, default=(1, 5, 10))
    p_eval.add_argument("--side", choices=["head", "tail", "both"], default="both")
    p_eval.add_argument("--schema-vectors")
    p_eval.add_argument("--seed", type=_seed, default=0)
    p_eval.set_defaults(func=cmd_eval)

    p_schema = sub.add_parser("schema-pretrain", help="embed an ontology TSV")
    p_schema.add_argument("--schema", required=True)
    p_schema.add_argument("--out", required=True)
    p_schema.add_argument("--dim", type=_count, default=300)
    p_schema.add_argument("--epochs", type=_count, default=300)
    p_schema.add_argument("--lr", type=_positive, default=0.02)
    p_schema.add_argument("--margin", type=_positive, default=1.0)
    p_schema.add_argument("--batch", type=_count, default=256)
    p_schema.add_argument("--seed", type=_seed, default=0)
    p_schema.add_argument("--relations-only", action="store_true",
                          help="export only nodes that look like relations")
    p_schema.set_defaults(func=cmd_schema_pretrain)

    p_bench = sub.add_parser("benchgen", help="recombine two benchmark versions")
    p_bench.add_argument("--train-from", required=True)
    p_bench.add_argument("--test-from", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_benchgen)

    p_dump = sub.add_parser("dump-subgraph", help="print one extraction as text")
    p_dump.add_argument("--data", required=True)
    p_dump.add_argument("--head", required=True)
    p_dump.add_argument("--rel", required=True)
    p_dump.add_argument("--tail", required=True)
    p_dump.add_argument("--hop", type=_hops, default=2)
    p_dump.add_argument("--graph", choices=["train", "test"], default="train")
    p_dump.add_argument("--kind", choices=["enclosing", "disclosing"],
                        default="enclosing")
    p_dump.set_defaults(func=cmd_dump_subgraph)

    return parser


def main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        code = exc.code if exc.code is not None else 0
        return int(code)
    except DATA_ERRORS as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DATA


def run():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
