"""What the benchmark measures: workloads, metric names, units and bounds.

Metric names, units, directions and bounds, and each workload's one-line
reason, live in `BENCHMARK.json` at the repository root and are read from
there.  This module holds what only the benchmark itself needs: each
workload's generator parameters and model settings, and which end-to-end
metric each per-layer metric should move.

Every workload reports every end-to-end metric.  The "op" of the op_*
metrics is the workload's unit of work:

    train-mild     one training epoch, validation included  (train_epoch_s)
    rank-skewed    one rank_entities call per (query, side)  (rank_query_*)
    classify-hub   one score_triples call on one triple      (classify_triple_*)

The names in parentheses are what the human-readable report prints next to
each value, with its sample count.

Op times, and so op_p50_ms, op_p90_ms and ops_per_s, are CPU time of the
benchmark process (see `workloads.cpu_clock`); setup_s is wall time, since
set-up reads files.
"""

from __future__ import annotations

import json
import os

BENCHMARK_FILE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")
with open(BENCHMARK_FILE, encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

RUN_SECONDS = BENCHMARK["run_seconds"]
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
# name -> (unit, better, bound)
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]}
# name -> unit
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# What --seed varies.  Every run draws its graph topology with GRAPH_SEED,
# and the eval workloads draw rank candidates and classify negatives with
# EVAL_SEED, the default of `rmpi eval --seed`.  The run's --seed draws the
# entity and relation names and the model parameters, and in training also
# the shuffling, negatives and dropout masks.  On these skewed graphs the
# cost of an op spans four decades and hinges on which hubs a triple
# touches: with topology and negatives drawn per seed, the median classify
# op moved by half its value between seeds, far beyond any useful bound.
GRAPH_SEED = 0
EVAL_SEED = 0
REFERENCE_SEED = 0  # --seed of the recorded reference outputs
MEMORY_CAP_BYTES = 2 << 30  # RLIMIT_AS of the classify-hub process

# Generator parameters and model settings per workload.  A pass scores every
# test target: rank-skewed on both sides, classify-hub with one negative each.
# The host's speed drifts: on a 2-vCPU box, the medians of a fixed loop over
# 10-20 s windows spread by 0.12-0.15 (IQR/median), over 40 s windows by
# 0.10.  So a run measures 20-50 s of work: one pass of 140 rank ops or 200
# classify ops, and at least `min_epochs` training epochs of 10-13 s each.
# With two epochs, the epoch time spread by 0.31 in one set of ten seeds.
# Longer runs do not fit: the 70 runs of a benchmark check must end within
# 3420 s, and these take about 2800 s on that box.
WORKLOADS = {
    "train-mild": {
        "kind": "train",
        "variant": "ne-ta",
        "gen": {"entities": 1000, "triples": 2000, "a": 0.3, "valid": 100, "test": 20},
        "min_epochs": 4,
    },
    "rank-skewed": {
        "kind": "rank",
        "variant": "ne-ta",
        "gen": {"entities": 2500, "triples": 2500, "a": 0.6, "valid": 10, "test": 70},
    },
    "classify-hub": {
        "kind": "classify",
        "variant": "base",
        "gen": {"entities": 2500, "triples": 3500, "a": 0.8, "valid": 10, "test": 100},
    },
}

# Set-ups per untraced run; setup_s is their median.  A training set-up is a
# call of trainlab.train that is stopped at its first forward, except the one
# that goes on to train; each costs 1.5 s, so training takes three.  Traced
# runs set up once.
SETUP_REPEATS = {"train": 3, "rank": 21, "classify": 21}

# The end-to-end metric each per-layer metric should move, and on which
# workload.  `_s` timers are wall seconds inside the wrapped calls, children
# included; counts cover the traced run's fixed work.
_SUBGRAPH = "op_p90_ms on rank-skewed and classify-hub"
_TRAIN = "op_p50_ms (train_epoch_s) on train-mild"
_FORWARD = "op_p50_ms on train-mild, op_p90_ms on classify-hub"
MOVES = {
    "kgstore.load_s": "setup_s on all",
    "kgstore.khop_calls": "op_p50_ms on rank-skewed",
    "kgstore.khop_s": "op_p50_ms on rank-skewed",
    "subgraph.enclosing_s": _SUBGRAPH,
    "subgraph.disclosing_s": _SUBGRAPH,
    "subgraph.relation_view_s": _SUBGRAPH,
    "subgraph.prune_s": _SUBGRAPH,
    "subgraph.relation_view_calls": _SUBGRAPH,
    "subgraph.rv_edges_enclosing_p50": "peak_rss_mb on classify-hub",
    "subgraph.rv_edges_enclosing_p90": "peak_rss_mb on classify-hub",
    "subgraph.rv_edges_disclosing_p50": "peak_rss_mb on rank-skewed",
    "subgraph.rv_edges_disclosing_p90": "peak_rss_mb on rank-skewed",
    "subgraph.empty_enclosing_frac": "peak_rss_mb on classify-hub",
    "trainlab.build_sample_calls": _TRAIN + ", setup_s",
    "trainlab.build_sample_s": _TRAIN + ", setup_s",
    "trainlab.cache_hit_ratio": _TRAIN + ", setup_s",
    "trainlab.negative_collision_frac": "none: a property of the data",
    "trainlab.validation_s": _TRAIN,
    "trainlab.step_p50_ms": _TRAIN,
    "trainlab.step_p90_ms": _TRAIN,
    "rmpnet.forward_s": _FORWARD,
    "rmpnet.forward_calls": _FORWARD,
    "rmpnet.propagate_s": _FORWARD,
    "rmpnet.disclosing_aggregate_s": _FORWARD,
    "numkit.backward_s": _TRAIN,
    "numkit.adam_s": _TRAIN,
    "numkit.tape_nodes_per_triple": _TRAIN + ", peak_rss_mb",
    "evalbench.rank_s": "ops_per_s on rank-skewed",
    "evalbench.candidates_per_query": "ops_per_s on rank-skewed",
}

# Per-layer metrics that must repeat exactly for one seed.
COUNT_METRICS = tuple(
    name
    for name in PER_LAYER
    if name.endswith("_calls")
    or ".rv_edges_" in name
    or name.endswith(("_frac", "_ratio", "tape_nodes_per_triple", "candidates_per_query"))
)

# The report's name for each op metric, per workload kind.
REPORT_NAMES = {
    "train": {"op_p50_ms": "train_epoch_s", "op_p90_ms": "train_epoch_p90_s",
              "ops_per_s": "train_epochs_per_s"},
    "rank": {"op_p50_ms": "rank_query_p50_ms", "op_p90_ms": "rank_query_p90_ms",
             "ops_per_s": "rank_queries_per_s"},
    "classify": {"op_p50_ms": "classify_triple_p50_ms", "op_p90_ms": "classify_triple_p90_ms",
                 "ops_per_s": "classify_triples_per_s"},
}
