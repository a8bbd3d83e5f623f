#!/usr/bin/env python3
"""Train every model variant on a toy benchmark and print a metrics table.

Expects the directory layout produced by make_toy_benchmark.py.  Each
variant is trained from scratch on OUT/bench, then scored on the
inductive test split with triple classification (area under the
precision-recall curve) and candidate ranking.

With --schema the script adds an unseen-relation transfer comparison on
OUT/bench_unseen, whose test-side relations never occur in training.  A
schema-initialized model reads their identity from pretrained ontology
vectors; a randomly initialized model has to fall back to arbitrary
per-run draws.  Both are averaged over several seeds because single runs
are noisy at this scale.
"""

import argparse
import os
import time

import numpy as np

from rmpi.cli import VARIANTS
from rmpi.evalbench import classify, rank_queries
from rmpi.kgstore import load_benchmark
from rmpi.rmpnet import ModelConfig
from rmpi.schema import load_schema, pretrain
from rmpi.trainlab import TrainConfig, train


def model_for(args, variant, init_mode="random"):
    use_disclosing, target_attention = VARIANTS[variant]
    return ModelConfig(
        hops=args.hop,
        dim=args.dim,
        edge_dropout=args.dropout,
        use_disclosing=use_disclosing,
        target_attention=target_attention,
        init_mode=init_mode,
    )


def train_config(args, model, seed):
    return TrainConfig(
        model=model,
        lr=args.lr,
        batch_size=args.batch,
        margin=args.margin,
        epochs=args.epochs,
        patience=args.epochs,
        seed=seed,
    )


def variant_table(bench, args):
    header = f"{'variant':<8}{'loss':>9}{'auc_pr':>9}{'mrr':>9}{'hits@1':>9}{'sec':>7}"
    print(header)
    print("-" * len(header))
    for name in VARIANTS:
        model = model_for(args, name)
        start = time.time()
        ckpt = train(bench, train_config(args, model, args.seed))
        elapsed = time.time() - start
        cls = classify(ckpt, bench.test_graph, bench.test, seed=args.seed)
        rank = rank_queries(ckpt, bench.test_graph, bench.test,
                            num_neg=args.neg, seed=args.seed)
        print(f"{name:<8}{ckpt.history['train_loss'][-1]:>9.4f}{cls.auc_pr:>9.3f}"
              f"{rank.mrr:>9.3f}{rank.hits[1]:>9.3f}{elapsed:>7.1f}")


def transfer_section(bench, bench_unseen, schema, args):
    print()
    print(f"unseen-relation transfer, mean over {args.transfer_seeds} seeds "
          "(classification auc_pr on renamed test relations)")
    schema_aucs, random_aucs = [], []
    for seed in range(args.transfer_seeds):
        emb = pretrain(schema, dim=300, epochs=200, seed=seed)
        named = {name: emb.vector(name)
                 for name in bench_unseen.vocab.relation_names}
        ck_schema = train(bench, train_config(args, model_for(args, "base", "schema"), seed),
                          schema_vectors=named)
        ck_random = train(bench, train_config(args, model_for(args, "base"), seed))
        # Negative draws pinned to seed 0 so both models face the same
        # corrupted set every round.
        schema_aucs.append(classify(ck_schema, bench_unseen.test_graph, bench_unseen.test,
                                    seed=0, schema_vectors=named).auc_pr)
        random_aucs.append(classify(ck_random, bench_unseen.test_graph, bench_unseen.test,
                                    seed=0).auc_pr)
    for label, aucs in (("schema init", schema_aucs), ("random init", random_aucs)):
        shown = " ".join(f"{a:.3f}" for a in aucs)
        print(f"{label:<12} mean {np.mean(aucs):.3f}   per seed: {shown}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None,
                    help="directory written by make_toy_benchmark.py "
                         "(shorthand for --data OUT/bench --schema OUT/schema.tsv)")
    ap.add_argument("--data", help="benchmark directory")
    ap.add_argument("--schema", help="schema TSV; enables the transfer comparison")
    ap.add_argument("--epochs", type=int, default=8)
    ap.add_argument("--dim", type=int, default=8)
    ap.add_argument("--hop", type=int, default=2)
    ap.add_argument("--dropout", type=float, default=0.0)
    ap.add_argument("--lr", type=float, default=0.01)
    ap.add_argument("--batch", type=int, default=16)
    ap.add_argument("--margin", type=float, default=2.0)
    ap.add_argument("--neg", type=int, default=20, help="ranking candidates per query")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--transfer-seeds", type=int, default=5)
    args = ap.parse_args()

    if args.out:
        args.data = args.data or os.path.join(args.out, "bench")
        args.schema = args.schema or os.path.join(args.out, "schema.tsv")
    if not args.data:
        ap.error("need --data or --out")

    bench = load_benchmark(args.data)
    print(f"loaded {args.data}: {bench.train.num_triples} train triples, "
          f"{len(bench.test)} test targets")
    variant_table(bench, args)

    if args.schema:
        unseen_dir = args.data.rstrip("/") + "_unseen"
        if os.path.isdir(unseen_dir):
            transfer_section(bench, load_benchmark(unseen_dir),
                             load_schema(args.schema), args)
        else:
            print(f"\nno {unseen_dir}; skipping the transfer comparison")


if __name__ == "__main__":
    main()
