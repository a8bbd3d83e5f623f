import gc
import warnings

import numpy as np
import pytest

from rmpi.schema import (
    SchemaError,
    SchemaGraph,
    load_schema,
    load_vectors,
    pretrain,
    save_vectors,
)


def transe_energy(vs, vp, vo):
    """The L1 energy pretraining ranks true schema triples below corrupted ones by."""
    return float(np.abs(vs + vp - vo).sum())


def write_schema(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for s, p, o in rows:
            fh.write(f"{s}\t{p}\t{o}\n")
    return str(path)


def toy_schema_rows():
    # two relation families under a shared parent, plus concept typing
    rows = []
    for i in range(4):
        rows.append((f"rel_a{i}", "rdfs:subPropertyOf", "rel_parent_a"))
        rows.append((f"rel_b{i}", "rdfs:subPropertyOf", "rel_parent_b"))
        rows.append((f"rel_a{i}", "rdfs:domain", "ConceptX"))
        rows.append((f"rel_a{i}", "rdfs:range", "ConceptY"))
        rows.append((f"rel_b{i}", "rdfs:domain", "ConceptZ"))
    rows.append(("ConceptX", "rdfs:subClassOf", "ConceptTop"))
    rows.append(("ConceptY", "rdfs:subClassOf", "ConceptTop"))
    return rows


# ----------------------------------------------------------- loading

def test_load_single_edge(tmp_path):
    path = write_schema(tmp_path / "s.tsv", [("a", "rdfs:subPropertyOf", "b")])
    sg = load_schema(path)
    assert sg.num_nodes == 2
    assert sg.num_edges == 1
    assert sg.edges[0] == (0, 0, 1)


def test_load_rejects_unknown_predicate(tmp_path):
    path = write_schema(
        tmp_path / "s.tsv",
        [("a", "rdfs:subPropertyOf", "b"), ("a", "rdfs:label", "name")],
    )
    with pytest.raises(SchemaError, match=r"s\.tsv:2"):
        load_schema(path)


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("a\trdfs:domain\tb\nonly two\tfields\n")
    with pytest.raises(SchemaError, match=r"s\.tsv:2"):
        load_schema(str(path))


def test_load_rejects_empty_field(tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("a\trdfs:domain\tb\n\trdfs:domain\tb\n")  # no node named ""
    with pytest.raises(SchemaError, match=r"s\.tsv:2: empty field"):
        load_schema(str(path))


def test_relation_nodes_heuristic(tmp_path):
    path = write_schema(tmp_path / "s.tsv", toy_schema_rows())
    sg = load_schema(path)
    rel_names = {sg.node_names[i] for i in sg.relation_nodes()}
    assert "rel_a0" in rel_names and "rel_parent_a" in rel_names
    assert "ConceptX" not in rel_names and "ConceptTop" not in rel_names


# ----------------------------------------------------------- training

def test_empty_schema_rejected():
    with pytest.raises(SchemaError):
        pretrain(SchemaGraph(node_names=("a",), edges=()), dim=8, epochs=1)


@pytest.mark.parametrize("lr, margin", [(-1.0, 1.0), (0.0, 1.0), (0.02, -3.0), (0.02, 0.0),
                                        (float("nan"), 1.0), (0.02, float("inf"))])
def test_pretrain_rejects_bad_lr_or_margin(lr, margin):
    sg = SchemaGraph(node_names=("a", "b"), edges=((0, 0, 1),))
    with pytest.raises(SchemaError, match="positive"):
        pretrain(sg, dim=8, epochs=1, lr=lr, margin=margin)


def test_single_triple_positive_energy_below_corrupted(tmp_path):
    path = write_schema(tmp_path / "s.tsv", [("a", "rdfs:domain", "b")])
    sg = load_schema(path)
    emb = pretrain(sg, dim=16, epochs=120, lr=0.05, seed=1)
    e_pos = transe_energy(emb.vector("a"), emb.predicates[1], emb.vector("b"))
    e_neg = transe_energy(emb.vector("b"), emb.predicates[1], emb.vector("a"))
    assert e_pos < e_neg


def test_loss_history_converges(tmp_path):
    from oracles import moving_average

    path = write_schema(tmp_path / "s.tsv", toy_schema_rows())
    sg = load_schema(path)
    emb = pretrain(sg, dim=24, epochs=150, lr=0.03, seed=3)
    losses = emb.loss_history
    assert len(losses) == 150
    assert losses[-1] < 0.2 * losses[0]
    # raw epoch means are noisy estimates (corruptions are resampled each
    # epoch); the smoothed curve must be non-increasing after warmup
    smoothed = moving_average(losses, window=10)
    warmup = 30
    tol = 0.05 * max(losses)
    for a, b in zip(smoothed[warmup:], smoothed[warmup + 1 :]):
        assert b <= a + tol


def test_sub_property_pairs_closer_than_random():
    rows = toy_schema_rows()
    import tempfile, os

    related_pairs = [(f"rel_a{i}", "rel_parent_a") for i in range(4)]
    unrelated_pairs = [(f"rel_a{i}", f"rel_b{i}") for i in range(4)]
    wins = 0
    with tempfile.TemporaryDirectory() as d:
        path = write_schema(os.path.join(d, "s.tsv"), rows)
        sg = load_schema(path)
        for seed in range(5):
            emb = pretrain(sg, dim=24, epochs=120, lr=0.03, seed=seed)

            def mean_dist(pairs):
                ds = [
                    np.abs(emb.vector(x) - emb.vector(y)).sum() for x, y in pairs
                ]
                return float(np.mean(ds))

            if mean_dist(related_pairs) < mean_dist(unrelated_pairs):
                wins += 1
    assert wins >= 4  # systematic proximity, allowing one noisy seed


def test_pretrain_deterministic_per_seed(tmp_path):
    path = write_schema(tmp_path / "s.tsv", toy_schema_rows())
    sg = load_schema(path)
    a = pretrain(sg, dim=12, epochs=20, seed=9)
    b = pretrain(sg, dim=12, epochs=20, seed=9)
    c = pretrain(sg, dim=12, epochs=20, seed=10)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, c.vectors)


def test_coverage_all_nodes_finite(tmp_path):
    path = write_schema(tmp_path / "s.tsv", toy_schema_rows())
    sg = load_schema(path)
    emb = pretrain(sg, dim=16, epochs=10, seed=0)
    assert emb.vectors.shape == (sg.num_nodes, 16)
    assert np.isfinite(emb.vectors).all()
    # entity vectors end the run renormalized
    np.testing.assert_allclose(
        np.linalg.norm(emb.vectors, axis=1), np.ones(sg.num_nodes), atol=1e-9
    )


# ----------------------------------------------------------- export

def test_export_round_trip_exact_at_float32(tmp_path):
    path = write_schema(tmp_path / "s.tsv", toy_schema_rows())
    sg = load_schema(path)
    emb = pretrain(sg, dim=8, epochs=5, seed=2)
    names = [sg.node_names[i] for i in sg.relation_nodes()]
    out = tmp_path / "vecs"
    save_vectors(emb, str(out), names=names)
    loaded = load_vectors(str(out))
    assert set(loaded) == set(names)
    for name in names:
        want = emb.vector(name).astype("<f4").astype(np.float64)
        np.testing.assert_array_equal(loaded[name], want)


def test_export_of_unknown_node_raises(tmp_path):
    path = write_schema(tmp_path / "s.tsv", [("a", "rdfs:subPropertyOf", "b")])
    emb = pretrain(load_schema(path), dim=4, epochs=1, seed=0)
    out = tmp_path / "vecs"
    with pytest.raises(SchemaError, match="no vector for schema node 'c'"):
        save_vectors(emb, str(out), names=["a", "c"])
    assert not out.exists()


def test_load_vectors_closes_its_files(tmp_path):
    path = write_schema(tmp_path / "s.tsv", [("a", "rdfs:subPropertyOf", "b")])
    out = tmp_path / "vecs"
    save_vectors(pretrain(load_schema(path), dim=4, epochs=1, seed=0), str(out))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_vectors(str(out))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_export_manifest_offsets(tmp_path):
    path = write_schema(tmp_path / "s.tsv", [("a", "rdfs:subPropertyOf", "b")])
    sg = load_schema(path)
    emb = pretrain(sg, dim=4, epochs=2, seed=0)
    out = tmp_path / "vecs"
    save_vectors(emb, str(out))
    import json

    manifest = json.load(open(out / "manifest.json"))
    assert manifest["dim"] == 4
    assert [e["offset"] for e in manifest["entries"]] == [0, 16]
    assert (out / "vectors.bin").stat().st_size == 2 * 4 * 4


def test_load_vectors_rejects_truncated_block(tmp_path):
    path = write_schema(tmp_path / "s.tsv", [("a", "rdfs:subPropertyOf", "b")])
    out = tmp_path / "vecs"
    save_vectors(pretrain(load_schema(path), dim=4, epochs=1, seed=0), str(out))
    block = out / "vectors.bin"
    block.write_bytes(block.read_bytes()[:-8])
    with pytest.raises(SchemaError, match="vector block"):
        load_vectors(str(out))


def test_load_vectors_missing_files(tmp_path):
    with pytest.raises(SchemaError, match="missing vector file"):
        load_vectors(str(tmp_path / "nope"))
