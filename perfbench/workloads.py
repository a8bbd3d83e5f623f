"""The three workloads: inputs, timed set-up, the measured loop and its checks.

Each workload runs in its own process.  Inputs come from `gen.generate` and
are read back through `kgstore.load_benchmark`, as the command line does.
The eval workloads score a checkpoint made from seeded `rmpnet.init_params`
that goes through `save_checkpoint` and `load_checkpoint` and is never
trained, so eval timings do not depend on training speed.

Untraced runs repeat whole passes over the workload's fixed work until the
run's seconds are spent (training: epochs, at least `min_epochs`).  Traced
runs set up once and do exactly one pass (`min_epochs` epochs), so their
counts repeat for one seed.

Ops and epochs are timed on `cpu_clock`, set-up on the wall clock.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

import numpy as np

from rmpi import evalbench, kgstore, rmpnet, trainlab
from rmpi.cli import VARIANTS
from rmpi.kgstore import Triple

import gen
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")
REFERENCE_TARGETS = 3  # rank queries, or classify targets, in the reference
REFERENCE_RTOL = 1e-6
MRR_CHECK_QUERIES = 3  # queries re-ranked through evalbench.rank_queries
MIN_CPU_SHARE = 0.5  # of the measured wall time, below which a run is invalid
NUM_NEG = 49
SIDES = ("head", "tail")


class Result:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.op_s: list[float] = []
        self.measured_s = 0.0  # on cpu_clock
        self.measured_wall_s = 0.0
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.outputs: dict[str, float] = {}

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def check_clocks(self) -> None:
        """Op times are CPU times, so the work must run in this process."""
        self.check(
            "cpu_covers_wall",
            self.measured_s >= MIN_CPU_SHARE * self.measured_wall_s,
            f"measured {self.measured_s:.3f} CPU s over {self.measured_wall_s:.3f} wall s",
        )

    def end_to_end(self) -> dict[str, float]:
        ms = 1000.0 * np.asarray(self.op_s)
        return {
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": self.peak_rss_mb,
            "op_p50_ms": quantile(ms, 0.5),
            "op_p90_ms": quantile(ms, 0.9),
            "ops_per_s": len(ms) / self.measured_s,
        }


def quantile(values, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with weights from the Beta
    distribution of the p-quantile's rank, rather than one interpolated
    order statistic.  Near the 90th percentile of a classify pass sit a
    dozen hub ops whose times each vary by 15-20% from run to run; over
    eight runs the spread (IQR / median) of the plain p90 was 0.147 and of
    this estimate 0.120, at no cost in run time.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    edges = np.array([_betainc(a, b, i / n) for i in range(n + 1)])
    return float(np.diff(edges) @ x)


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), by Lentz's
    continued fraction.  Written out here because importing scipy for it
    would add 20 MB to the process and so to peak_rss_mb."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > 1e-300 else 1e-300)
        c = 1.0 + num / (c if abs(c) > 1e-300 else 1e-300)
        f *= c * d
        if abs(1.0 - c * d) < 1e-15:
            return front * (f - 1.0)
    raise ArithmeticError(f"incomplete beta I_{x}({a}, {b}) did not converge")


def model_config(variant: str) -> rmpnet.ModelConfig:
    use_disclosing, target_attention = VARIANTS[variant]
    return rmpnet.ModelConfig(
        hops=2, dim=32, edge_dropout=0.5,
        use_disclosing=use_disclosing, target_attention=target_attention,
    )


def cpu_clock() -> float:
    """CPU seconds of this process, all threads, and of its reaped children.

    Ops are timed on this clock rather than the wall clock.  On a shared
    host the wall clock also runs while the hypervisor lends this guest's
    CPU to other guests (steal): in back-to-back classify passes on a
    2-vCPU guest, the pass's wall time swung by 17% while its CPU time
    swung by 6%.  The program's work is single-threaded and in-process, so
    otherwise the two agree; `Result.check_clocks` fails a run in which
    they do not.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def make_inputs(w: dict, seed: int, work_dir: str) -> tuple[str, str | None]:
    """Benchmark directory, plus a checkpoint directory for eval workloads."""
    data = os.path.join(work_dir, "data")
    gen.generate(data, seed=spec.GRAPH_SEED, labels=seed, **w["gen"])
    if w["kind"] == "train":
        return data, None
    vocab = kgstore.load_benchmark(data).vocab
    config = model_config(w["variant"])
    ckpt = trainlab.Checkpoint(
        config=config,
        params=rmpnet.init_params(config, vocab.num_relations, np.random.default_rng([seed, 7])),
        vocab_digest=vocab.digest(),
        relation_names=tuple(vocab.relation_names),
        seen_flags=tuple(vocab.relation_seen(r) for r in range(vocab.num_relations)),
    )
    ckpt_dir = os.path.join(work_dir, "ckpt")
    trainlab.save_checkpoint(ckpt, ckpt_dir)
    return data, ckpt_dir


# ---------------------------------------------------------------- training

class _StopTraining(Exception):
    pass


_EPOCH_LINE = re.compile(r"^epoch (\d+): train loss (\S+), val auc-pr (\S+)")


def _train_once(w, seed, data, epochs, stop_after):
    """Load the benchmark and call trainlab.train, as the command line does.

    Returns the marks: the start, the first forward, then one per epoch log
    line (validation included), on the wall clock and on cpu_clock, with the
    losses and validation AUC-PRs.  `stop_after(marks)` ends training once
    it returns True; it is asked, with the wall marks, at the first forward
    and at each epoch line.
    """
    marks: list[float] = []
    cpu_marks: list[float] = []
    losses: list[float] = []
    aucs: list[float] = []
    forward = trainlab.score_sample

    def first_forward(*args, **kwargs):
        if len(marks) == 1:
            marks.append(time.perf_counter())
            cpu_marks.append(cpu_clock())
            if stop_after(marks):
                raise _StopTraining
        return forward(*args, **kwargs)

    def log(msg: str) -> None:
        marks.append(time.perf_counter())
        cpu_marks.append(cpu_clock())
        m = _EPOCH_LINE.match(msg)
        if m is None:
            raise RuntimeError(f"unexpected training log line: {msg!r}")
        losses.append(float(m.group(2)))
        aucs.append(float(m.group(3)))
        if stop_after(marks):
            raise _StopTraining

    config = trainlab.TrainConfig(
        model=model_config(w["variant"]), batch_size=16, seed=seed,
        epochs=epochs, patience=10**6,
    )
    trainlab.score_sample = first_forward
    marks.append(time.perf_counter())
    cpu_marks.append(cpu_clock())
    try:
        trainlab.train(kgstore.load_benchmark(data), config, log=log)
    except _StopTraining:
        pass
    finally:
        trainlab.score_sample = forward
    return marks, cpu_marks, losses, aucs


def run_train(w, seed, seconds, traced, data, ckpt_dir, res: Result):
    """trainlab.train; set-up runs from load_benchmark to the first forward.
    For more set-up samples, untraced runs also start training
    SETUP_REPEATS - 1 more times, half before the measured run and half
    after it, and stop each at its first forward.  An epoch is timed from
    its first forward (epoch 0) or the previous epoch's log line to its own
    log line, validation included, on cpu_clock."""
    min_epochs = w["min_epochs"]
    extra = _setups(w, traced) - 1

    def setup_only():
        marks, _, _, _ = _train_once(w, seed, data, min_epochs, lambda m: True)
        res.setup_s.append(marks[1] - marks[0])

    for _ in range(extra // 2):
        setup_only()

    def enough(marks):  # traced runs end when train() does, after min_epochs
        epochs = len(marks) - 2
        return not traced and epochs >= min_epochs and marks[-1] - marks[1] >= seconds

    marks, cpu_marks, losses, aucs = _train_once(
        w, seed, data, min_epochs if traced else 10**6, enough
    )
    res.setup_s.append(marks[1] - marks[0])
    res.op_s = list(np.diff(cpu_marks[1:]))
    res.measured_s = cpu_marks[-1] - cpu_marks[1]
    res.measured_wall_s = marks[-1] - marks[1]
    res.attempted = len(losses)
    for _ in range(extra - extra // 2):
        setup_only()
    res.peak_rss_mb = peak_rss_mb()
    res.outputs["val_auc_pr_last"] = aucs[-1]
    res.outputs["train_loss_last"] = losses[-1]
    res.check(
        "epochs_finite",
        len(losses) >= min_epochs and all(math.isfinite(x) for x in losses),
        f"{len(losses)} epochs, losses {[round(x, 4) for x in losses]}",
    )
    res.check(
        "val_auc_pr_range",
        all(0.0 <= a <= 1.0 for a in aucs),
        f"validation auc-pr per epoch {aucs}",
    )
    return None


# ---------------------------------------------------------------- evaluation

def _setup_eval(data, ckpt_dir, res: Result):
    """Everything before the first scored triple, timed into res.setup_s."""
    t0 = time.perf_counter()
    bench = kgstore.load_benchmark(data)
    ckpt = trainlab.load_checkpoint(ckpt_dir)
    cache = trainlab.SampleCache(bench.test_graph, ckpt.config)
    res.setup_s.append(time.perf_counter() - t0)
    return bench, ckpt, cache


def _eval_passes(w, ops, seconds, traced, data, ckpt_dir, res: Result) -> list:
    """_timed_passes with the rest of the set-up samples spread through it."""
    return _timed_passes(
        ops, seconds, traced, res,
        resetup=lambda: _setup_eval(data, ckpt_dir, res),
        resetups=_setups(w, traced) - 1,
    )


def _setups(w, traced: bool) -> int:
    return 1 if traced else spec.SETUP_REPEATS[w["kind"]]


def _timed_passes(ops, seconds, traced, res: Result, resetup=None, resetups=0) -> list:
    """Run every op per pass; more passes while time is left.  Returns the
    first pass's outputs (None where an op raised).

    `resetup()` is called `resetups` times at even intervals through the
    first pass, so that set-up samples spread over the run as the op samples
    do, and a slow spell of the host weighs on both alike.
    """
    resetup_at = Counter(math.ceil((j + 1) * len(ops) / resetups) for j in range(resetups))
    first: list = []
    start, wall_start = cpu_clock(), time.perf_counter()
    while True:
        for op in ops:
            res.attempted += 1
            t0 = cpu_clock()
            try:
                out = op()
            except Exception:  # a failed target is counted and the run goes on
                res.failed += 1
                traceback.print_exc(file=sys.stderr)
                out = None
            else:
                res.op_s.append(cpu_clock() - t0)
            if len(first) < len(ops):
                first.append(out)
                for _ in range(resetup_at[len(first)]):
                    t1, wall_t1 = cpu_clock(), time.perf_counter()
                    resetup()
                    start += cpu_clock() - t1  # set-up is not measured time
                    wall_start += time.perf_counter() - wall_t1
        res.measured_s = cpu_clock() - start
        res.measured_wall_s = time.perf_counter() - wall_start
        if traced or res.measured_s >= seconds:
            return first


def rank_op(ckpt, graph, cache, qi: int, query: Triple, side: str):
    """One (query, side) ranked as evalbench.rank_queries ranks it."""
    return lambda: evalbench.rank_entities(
        ckpt, graph, query, side, NUM_NEG, seed=spec.EVAL_SEED,
        rng=np.random.default_rng([spec.EVAL_SEED, qi, evalbench.SIDE_CODES[side]]),
        cache=cache,
    )


def run_rank(w, seed, seconds, traced, data, ckpt_dir, res: Result):
    bench, ckpt, cache = _setup_eval(data, ckpt_dir, res)
    graph = bench.test_graph
    queries = bench.test
    ops = [rank_op(ckpt, graph, cache, qi, q, side)
           for qi, q in enumerate(queries) for side in SIDES]
    outcomes = _eval_passes(w, ops, seconds, traced, data, ckpt_dir, res)
    res.peak_rss_mb = peak_rss_mb()
    ranks = [o.rank for o in outcomes if o is not None]
    if ranks:
        res.outputs["mrr"] = float(np.mean(1.0 / np.asarray(ranks, dtype=np.float64)))
    return lambda: _check_rank(ckpt, graph, queries, outcomes, res)


def _check_rank(ckpt, graph, queries, outcomes, res: Result) -> None:
    """The measured ranks give the MRR that evalbench.rank_queries gives."""
    n = min(MRR_CHECK_QUERIES, len(queries))
    mine = [o.rank if o is not None else None for o in outcomes[: 2 * n]]
    ref = evalbench.rank_queries(
        ckpt, graph, queries[:n], num_neg=NUM_NEG, seed=spec.EVAL_SEED,
        cache=trainlab.SampleCache(graph, ckpt.config),
    )
    mine_mrr = float(np.mean([1.0 / r for r in mine])) if None not in mine else float("nan")
    res.check(
        "mrr_matches_rank_queries",
        list(ref.ranks) == mine and mine_mrr == ref.mrr,
        f"first {n} queries: ranks {mine} vs {list(ref.ranks)}, mrr {mine_mrr} vs {ref.mrr}",
    )


def classify_triples(bench, count: int) -> list[Triple]:
    """The first `count` targets and the negatives evalbench.classify draws for them."""
    graph = bench.test_graph
    targets = [Triple(*t) for t in bench.test[:count]]
    rng = np.random.default_rng([spec.EVAL_SEED, 201])
    return targets + [trainlab.sample_negative(t, graph, rng) for t in targets]


def run_classify(w, seed, seconds, traced, data, ckpt_dir, res: Result):
    bench, ckpt, cache = _setup_eval(data, ckpt_dir, res)
    lookup = trainlab.relation_lookup(ckpt, bench.test_graph.vocab)
    triples = classify_triples(bench, len(bench.test))

    def op(t):
        return lambda: trainlab.score_triples(
            ckpt.params, ckpt.config, cache, [t], lookup, None, spec.EVAL_SEED
        )[0]

    scores = _eval_passes(w, [op(t) for t in triples], seconds, traced, data, ckpt_dir, res)
    res.peak_rss_mb = peak_rss_mb()
    done = [s for s in scores if s is not None]
    res.check(
        "scores_finite",
        all(math.isfinite(s) for s in done),
        f"{len(done)} of {len(scores)} triples scored in the first pass",
    )
    n = len(triples) // 2
    if None not in scores:
        labels = [1] * n + [0] * n
        res.outputs["auc_pr"] = evalbench.auc_pr(np.asarray(scores, dtype=np.float64), labels)
    return None


# ---------------------------------------------------------------- reference

def _named(vocab, t: Triple) -> str:
    return " ".join((vocab.entity_names[t.head], vocab.relation_names[t.relation],
                     vocab.entity_names[t.tail]))


def _ranked_with_scores(ckpt, graph, cache, qi, query, side) -> tuple[int, list, list]:
    """rank_op's rank, with the triples and scores rank_entities scored."""
    seen = []
    inner = evalbench.score_triples

    def capture(params, config, cache, triples, *rest):
        out = inner(params, config, cache, triples, *rest)
        seen.append((list(triples), [float(x) for x in out]))
        return out

    evalbench.score_triples = capture
    try:
        outcome = rank_op(ckpt, graph, cache, qi, query, side)()
    finally:
        evalbench.score_triples = inner
    (triples, scores), = seen
    return outcome.rank, triples, scores


def reference_outputs(name: str, work_dir: str) -> list[dict]:
    """Outputs on a fixed subset of an eval workload at the reference seed.

    rank-skewed: for each of the first REFERENCE_TARGETS queries on both
    sides, the rank, and the query and candidates with their scores, all as
    the measured loop computes them.  classify-hub: the first
    REFERENCE_TARGETS targets and their negatives with their scores.
    """
    w = spec.WORKLOADS[name]
    data, ckpt_dir = make_inputs(w, spec.REFERENCE_SEED, work_dir)
    bench, ckpt, cache = _setup_eval(data, ckpt_dir, Result())
    graph, vocab = bench.test_graph, bench.vocab
    out = []
    if w["kind"] == "rank":
        for qi, query in enumerate(bench.test[:REFERENCE_TARGETS]):
            for side in SIDES:
                rank, triples, scores = _ranked_with_scores(ckpt, graph, cache, qi, query, side)
                out.append({"side": side, "rank": rank,
                            "triples": [_named(vocab, t) for t in triples], "scores": scores})
        return out
    lookup = trainlab.relation_lookup(ckpt, vocab)
    for t in classify_triples(bench, REFERENCE_TARGETS):
        score = trainlab.score_triples(
            ckpt.params, ckpt.config, cache, [t], lookup, None, spec.EVAL_SEED
        )[0]
        out.append({"triples": [_named(vocab, t)], "scores": [float(score)]})
    return out


def check_reference(name: str, work_dir: str, res: Result) -> None:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        want = json.load(fh)[name]["outputs"]
    got = reference_outputs(name, work_dir)
    same = len(got) == len(want)
    worst = 0.0
    for g, r in zip(got, want):
        same = same and g.get("rank") == r.get("rank") and g["triples"] == r["triples"]
        same = same and len(g["scores"]) == len(r["scores"])
        worst = max([worst] + [abs(a - b) / max(1.0, abs(b))
                               for a, b in zip(g["scores"], r["scores"])])
    res.check(
        "reference_outputs",
        same and worst <= REFERENCE_RTOL,
        f"{sum(len(g['scores']) for g in got)} scores in {len(got)} groups at seed "
        f"{spec.REFERENCE_SEED}; ranks and triples {'equal' if same else 'DIFFER'}, "
        f"worst relative score diff {worst:.3g}",
    )


# Each runner sets up and measures, then returns None or a check to run once
# tracing is off.
RUNNERS = {"train": run_train, "rank": run_rank, "classify": run_classify}
