"""Hand-rolled reference implementations used to check the package.

Everything here is deliberately written by the dumbest correct route
(full double loops, Floyd-Warshall, whole-edge-list scans) so that it
shares as little structure as possible with the code under test.
"""

from __future__ import annotations

import numpy as np


def fd_grads(make_loss, params, step=1e-5):
    """Central finite differences of a scalar loss over a dict of arrays.

    make_loss re-evaluates the loss from scratch on the (mutated) params, so
    it must be a pure function of them.
    """
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = make_loss(params)
            flat[i] = orig - step
            down = make_loss(params)
            flat[i] = orig
            gf[i] = (up - down) / (2 * step)
        grads[name] = g
    return grads


def rel_err(got, want):
    """Norm-wise relative error with a unit floor for tiny references."""
    got = np.asarray(got, dtype=float).ravel()
    want = np.asarray(want, dtype=float).ravel()
    return float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))


def check_grads(make_loss, tape_grads, params, step=1e-5, tol=1e-4):
    want = fd_grads(make_loss, params, step=step)
    worst = 0.0
    for name in params:
        err = rel_err(tape_grads[name], want[name])
        worst = max(worst, err)
        assert err <= tol, f"gradient mismatch for {name}: rel err {err:.3e}"
    return worst


def floyd_warshall(n_entities, triples):
    """All-pairs undirected hop distances."""
    INF = float("inf")
    dist = [[INF] * n_entities for _ in range(n_entities)]
    for i in range(n_entities):
        dist[i][i] = 0
    for h, _, t in triples:
        dist[h][t] = min(dist[h][t], 1)
        dist[t][h] = min(dist[t][h], 1)
    for k in range(n_entities):
        dk = dist[k]
        for i in range(n_entities):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n_entities):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def relation_view_edges(nodes, suppress_merged=True):
    """O(n^2) pairwise classifier; returns {(src, type-name, dst)}."""
    out = set()
    for i, (h1, _, t1) in enumerate(nodes):
        for j, (h2, _, t2) in enumerate(nodes):
            if i == j:
                continue
            conds = {
                "H-T": h1 == t2,
                "T-H": t1 == h2,
                "H-H": h1 == h2,
                "T-T": t1 == t2,
                "PARA": h1 == h2 and t1 == t2,
                "LOOP": h1 == t2 and t1 == h2,
            }
            if suppress_merged:
                if conds["PARA"]:
                    conds["H-H"] = False
                    conds["T-T"] = False
                if conds["LOOP"]:
                    conds["H-T"] = False
                    conds["T-H"] = False
            for name, hit in conds.items():
                if hit:
                    out.add((i, name, j))
    return out


def prune_frontiers(edges, target, k):
    """Frontier sets by scanning the whole edge list each step."""
    frontiers = [{target}]
    for _ in range(k):
        prev = frontiers[-1]
        frontiers.append({s for (s, _, d) in edges if d in prev})
    receivers = set()
    for f in frontiers[:-1]:
        receivers |= f
    kept = {e for e in edges if e[2] in receivers}
    return frontiers, kept


def _prune_entities(n, u, v, k, s0, induced, target):
    dist2 = floyd_warshall(n, list(induced) + [target])
    kept = {e for e in s0 if dist2[u][e] <= k and dist2[v][e] <= k}
    kept |= {u, v}
    return kept


def enclosing_subgraph(graph, target, k):
    """Intersection + induced-edge + prune oracle.  Returns (entities, triples)."""
    n = graph.vocab.num_entities
    dist = floyd_warshall(n, graph.triples)
    u, _, v = target
    s0 = {e for e in range(n) if dist[u][e] <= k and dist[v][e] <= k}
    s0 |= {u, v}
    induced = [t for t in graph.triples if t.head in s0 and t.tail in s0 and tuple(t) != tuple(target)]
    kept = _prune_entities(n, u, v, k, s0, induced, target)
    final = [t for t in induced if t.head in kept and t.tail in kept]
    entities = {u, v}
    for t in final:
        entities |= {t.head, t.tail}
    return entities, final


def disclosing_subgraph(graph, target, k):
    """Union oracle, no pruning.  Returns (entities, triples)."""
    n = graph.vocab.num_entities
    dist = floyd_warshall(n, graph.triples)
    u, _, v = target
    s0 = {e for e in range(n) if dist[u][e] <= k or dist[v][e] <= k}
    s0 |= {u, v}
    induced = [t for t in graph.triples if t.head in s0 and t.tail in s0 and tuple(t) != tuple(target)]
    entities = {u, v}
    for t in induced:
        entities |= {t.head, t.tail}
    return entities, induced


def disclosing_neighbors(graph, target):
    """One-hop neighborhood of the target in its disclosing view, as
    parent-graph triple indices, ascending: every triple instance at u or
    v, once, less the instances equal to the target, by a scan of the
    graph's triples, not of the incidence index under test."""
    target = tuple(target)
    u, _, v = target
    return [i for i, t in enumerate(graph.triples)
            if (t.head in (u, v) or t.tail in (u, v)) and tuple(t) != target]


def disclosing_one_hop(rvg):
    """View-route disclosing neighborhood: one-hop incoming neighbors of the
    target node of a relation-view graph, as (node index, label)."""
    srcs = {src for src, _, dst in rvg.edges if dst == rvg.target_index}
    return [(i, rvg.labels[i]) for i in sorted(srcs)]


def moving_average(xs, window=10):
    xs = np.asarray(xs, dtype=float)
    return np.array([xs[max(0, i - window + 1) : i + 1].mean() for i in range(len(xs))])


# ----------------------------------------------------- model layer oracle

def np_softmax(xs):
    z = np.asarray(xs, dtype=float)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def np_lrelu(x, slope):
    return x if x > 0 else slope * x


def full_forward(labels, edges, target_idx, h0, params, hops, slope, attention):
    """Target representation by propagating over the FULL relation view.

    Straight-line reimplementation of the layer equations: every node is
    updated at every intermediate layer (no frontier pruning), the last
    layer updates only the target with equal weights.  h0 maps node index
    to its initial numpy vector.
    """
    n = len(labels)
    h = {i: np.array(h0[i], dtype=float) for i in range(n)}
    for k in range(1, hops + 1):
        last = k == hops
        todo = [target_idx] if last else list(range(n))
        new = {}
        for i in todo:
            per_type = {}
            for s, et, d in edges:
                if d == i:
                    per_type.setdefault(et, []).append(s)
            if not per_type:
                new[i] = h[i]
                continue
            total = np.zeros_like(h[i])
            for et in sorted(per_type):
                srcs = per_type[et]
                msgs = [params[f"layer{k}_type{et}"] @ h[s] for s in srcs]
                if attention and not last:
                    weights = np_softmax(
                        [np_lrelu(float(h[target_idx] @ h[s]), slope) for s in srcs]
                    )
                    for a, m in zip(weights, msgs):
                        total += a * m
                else:
                    for m in msgs:
                        total += m
            new[i] = np.maximum(total, 0.0) + h[i]
        if last:
            return new[target_idx]
        for i, v in new.items():
            h[i] = v
    return h[target_idx]


def disclosing_forward(neigh_labels, target_label, h0_by_label, w_disc, slope, dim):
    """One-hop disclosing aggregate, scalar-loop route."""
    if not neigh_labels:
        return np.zeros(dim)
    wt = w_disc @ h0_by_label[target_label]
    tvs = [w_disc @ h0_by_label[lab] for lab in neigh_labels]
    weights = np_softmax([np_lrelu(float(wt @ tv), slope) for tv in tvs])
    total = np.zeros(dim)
    for a, tv in zip(weights, tvs):
        total += a * tv
    return np.maximum(total, 0.0)


def score_forward(h_target, h_disc, params, use_disclosing, fusion):
    w = params["score_w"][0]
    if not use_disclosing:
        return float(w @ h_target)
    if fusion == "sum":
        return float(w @ (h_target + h_disc))
    return float(w @ (params["fusion_w"] @ np.concatenate([h_target, h_disc])))


def average_precision_ref(scores, labels):
    """Slow AP with explicit stable tie handling: one precision term per positive."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    positives = sum(1 for l in labels if l == 1)
    seen_pos = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            seen_pos += 1
            total += seen_pos / rank
    return total / positives


def trapezoid_pr_area(scores, labels):
    """PR-curve area by trapezoid over recall, anchored at (recall 0, precision 1)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    positives = sum(1 for l in labels if l == 1)
    points = [(0.0, 1.0)]
    tp = 0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            tp += 1
        points.append((tp / positives, tp / rank))
    area = 0.0
    for (r0, p0), (r1, p1) in zip(points, points[1:]):
        area += (r1 - r0) * (p0 + p1) / 2.0
    return area
