"""Per-layer timers and counters, taken from outside the program.

`Tracer.install()` wraps public functions of the rmpi modules.  A function
imported by name into another module (trainlab imports extract_enclosing,
to_relation_view, score_sample, adam_step, ...) is replaced there as well,
so every call site goes through the wrapper.  `uninstall()` puts the
originals back.  The program itself carries no tracing.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

from rmpi import evalbench, kgstore, numkit, rmpnet, subgraph, trainlab


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class Tracer:
    """Wall time (children included) and call counts per wrapped function,
    plus the sizes and ratios the per-layer metrics need."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.rv_edges: dict[str, list[int]] = {"enclosing": [], "disclosing": []}
        self.step_ms: list[float] = []
        self.empty_enclosing = 0
        self.negatives = 0
        self.collisions = 0
        self.tape_nodes = 0
        self.tape_triples = 0
        self.candidates = 0
        self._in_train = False
        self._forwards_since_backward = 0
        self._last_adam: float | None = None
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _replace(self, owner, name: str, make) -> None:
        """Wrap owner.name and every rmpi module attribute bound to the same object."""
        original = getattr(owner, name)
        wrapped = make(original)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                m for key, m in sys.modules.items()
                if key.startswith("rmpi.") and m is not owner and getattr(m, name, None) is original
            ]
        for target in targets:
            self._undo.append((target, name, original))
            setattr(target, name, wrapped)

    def _timed(self, key: str, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                self.seconds[key] += time.perf_counter() - t0
                self.calls[key] += 1
                if after is not None:
                    after(args, out)
                return out
            return wrapper
        return make

    def install(self) -> "Tracer":
        t = self._timed
        self._replace(kgstore, "load_benchmark", t("load"))
        self._replace(kgstore, "khop_neighbors", t("khop"))
        self._replace(subgraph, "extract_enclosing", t("enclosing", self._after_enclosing))
        self._replace(subgraph, "extract_disclosing", t("disclosing"))
        self._replace(subgraph, "to_relation_view", t("relation_view", self._after_view))
        self._replace(subgraph, "prune_to_target", t("prune"))
        self._replace(trainlab, "build_sample", t("build_sample"))
        self._replace(trainlab.SampleCache, "sample", t("cache_sample"))
        self._replace(trainlab, "sample_negative", t("negative", self._after_negative))
        self._replace(trainlab, "score_triples", self._score_triples)
        self._replace(trainlab, "train", self._train)
        self._replace(rmpnet, "score_sample", t("forward", self._after_forward))
        self._replace(rmpnet, "propagate", t("propagate"))
        self._replace(rmpnet, "disclosing_aggregate", t("disclosing_aggregate"))
        self._replace(numkit.Tape, "backward", t("backward", self._after_backward))
        self._replace(numkit, "adam_step", t("adam", self._after_adam))
        self._replace(evalbench, "rank_entities", t("rank", self._after_rank))
        return self

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    # ------------------------------------------------------------ hooks

    def _after_enclosing(self, args, sub) -> None:
        if len(sub.triples) == 1:
            self.empty_enclosing += 1

    def _after_view(self, args, rvg) -> None:
        self.rv_edges.setdefault(args[0].kind, []).append(len(rvg.edges))

    def _after_negative(self, args, neg) -> None:
        self.negatives += 1
        if args[1].has_triple(neg):
            self.collisions += 1

    def _after_forward(self, args, out) -> None:
        self._forwards_since_backward += 1

    def _after_backward(self, args, grads) -> None:
        self.tape_nodes += len(getattr(args[0], "_nodes", ()))
        self.tape_triples += self._forwards_since_backward
        self._forwards_since_backward = 0

    def _after_adam(self, args, out) -> None:
        now = time.perf_counter()
        if self._last_adam is not None:
            self.step_ms.append(1000.0 * (now - self._last_adam))
        self._last_adam = now

    def _after_rank(self, args, outcome) -> None:
        self.candidates += outcome.num_candidates

    def _score_triples(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            if self._in_train:
                self.seconds["validation"] += time.perf_counter() - t0
                self._last_adam = None  # the next step interval starts after validation
                self._forwards_since_backward = 0
            return out
        return wrapper

    def _train(self, fn):
        def wrapper(*args, **kwargs):
            self._in_train = True
            self._last_adam = None
            self._forwards_since_backward = 0
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_train = False
        return wrapper

    # ------------------------------------------------------------ report

    def metrics(self) -> dict[str, float]:
        s, c = self.seconds, self.calls
        enc, disc = self.rv_edges["enclosing"], self.rv_edges["disclosing"]
        return {
            "kgstore.load_s": s["load"],
            "kgstore.khop_calls": c["khop"],
            "kgstore.khop_s": s["khop"],
            "subgraph.enclosing_s": s["enclosing"],
            "subgraph.disclosing_s": s["disclosing"],
            "subgraph.relation_view_s": s["relation_view"],
            "subgraph.prune_s": s["prune"],
            "subgraph.relation_view_calls": c["relation_view"],
            "subgraph.rv_edges_enclosing_p50": _pct(enc, 50),
            "subgraph.rv_edges_enclosing_p90": _pct(enc, 90),
            "subgraph.rv_edges_disclosing_p50": _pct(disc, 50),
            "subgraph.rv_edges_disclosing_p90": _pct(disc, 90),
            "subgraph.empty_enclosing_frac": self.empty_enclosing / max(1, c["enclosing"]),
            "trainlab.build_sample_calls": c["build_sample"],
            "trainlab.build_sample_s": s["build_sample"],
            "trainlab.cache_hit_ratio": (
                1.0 - c["build_sample"] / c["cache_sample"] if c["cache_sample"] else 0.0
            ),
            "trainlab.negative_collision_frac": self.collisions / max(1, self.negatives),
            "trainlab.validation_s": s["validation"],
            "trainlab.step_p50_ms": _pct(self.step_ms, 50),
            "trainlab.step_p90_ms": _pct(self.step_ms, 90),
            "rmpnet.forward_s": s["forward"],
            "rmpnet.forward_calls": c["forward"],
            "rmpnet.propagate_s": s["propagate"],
            "rmpnet.disclosing_aggregate_s": s["disclosing_aggregate"],
            "numkit.backward_s": s["backward"],
            "numkit.adam_s": s["adam"],
            "numkit.tape_nodes_per_triple": self.tape_nodes / max(1, self.tape_triples),
            "evalbench.rank_s": s["rank"],
            "evalbench.candidates_per_query": self.candidates / max(1, c["rank"]),
        }
