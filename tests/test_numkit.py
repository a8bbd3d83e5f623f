import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_grads, rel_err
from rmpi import numkit as nk
from rmpi.numkit import NumkitError, Tape


def away_from_zero(rng, shape, low=0.1):
    """Random values bounded away from 0 so ReLU kinks can't corrupt FD checks."""
    x = rng.uniform(low, 1.0, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


# ------------------------------------------------------------- forward

def test_leaky_relu_values():
    t = Tape()
    y = nk.leaky_relu(t.const([-1.0, 2.0]), 0.2)
    np.testing.assert_allclose(y.value, [-0.2, 2.0], atol=1e-12)


def test_matvec_identity():
    # the model applies a matrix to every row vector
    t = Tape()
    x = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.5]])
    y = nk.grouped_apply(t.const(x), [t.const(np.eye(3))])
    np.testing.assert_allclose(y.value, x, atol=0)


def test_grouped_apply_values():
    rng = np.random.default_rng(15)
    t = Tape()
    x = rng.normal(size=(6, 4))  # two output rows of three groups
    ws = [rng.normal(size=(2, 4)) for _ in range(3)]
    out = nk.grouped_apply(t.const(x), [t.const(w) for w in ws]).value
    want = [sum(ws[i] @ x[3 * r + i] for i in range(3)) for r in range(2)]
    np.testing.assert_allclose(out, want, atol=1e-12)
    with pytest.raises(NumkitError):
        nk.grouped_apply(t.const(x[:5]), [t.const(w) for w in ws])  # 5 rows, groups of 3
    with pytest.raises(NumkitError):
        nk.grouped_apply(t.const(x), [t.const(w) for w in ws[:2]] + [t.const(ws[2][:, :3])])


def test_products_in_blocks_equal_one_product(monkeypatch):
    rng = np.random.default_rng(13)
    x, g = rng.normal(size=(74, 3)), rng.normal(size=(37, 5))
    w0, w1 = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))

    def run():
        t = Tape()
        out = nk.grouped_apply(t.param("x", x), [t.param("w0", w0), t.param("w1", w1)])
        grads = t.backward(summed(t, out, g))
        return out.value, grads["x"], grads["w0"], grads["w1"]

    whole = run()
    np.testing.assert_allclose(whole[0], x[0::2] @ w0.T + x[1::2] @ w1.T, atol=1e-12)
    monkeypatch.setattr(nk, "BLAS_CALL_SIZE", 60)  # one or two rows per call
    for got, want in zip(run(), whole):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("width, out", [(192, 32), (32, 32), (300, 128)])
def test_product_row_does_not_depend_on_its_batch(width, out):
    # the right operand laid out as grouped_apply passes it, a transposed view
    rng = np.random.default_rng(17)
    b = rng.normal(size=(out, width)).T
    row = rng.normal(size=width)
    want = nk._product(row[None, :], b)[0]
    for m in (1, 5, 37, 38, 300):
        for at in sorted({0, m // 2, m - 1}):
            a = rng.normal(size=(m, width))
            a[at] = row
            assert nk._product(a, b)[at].tobytes() == want.tobytes(), (m, at)


def test_take_values_repeat_and_skip_rows():
    t = Tape()
    x = np.arange(8.0).reshape(4, 2)
    np.testing.assert_array_equal(nk.take(t.const(x), [2, 0, 2]).value, x[[2, 0, 2]])
    np.testing.assert_array_equal(nk.take(t.const(x[:, 0]), [3, 3]).value, [6.0, 6.0])
    assert nk.take(t.const(x), []).value.shape == (0, 2)


def test_gather_sum_values_with_empty_segments():
    t = Tape()
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    # row 3 gathered twice, row 1 never; segments 1 and 4 are empty, and
    # segment 0 is split into two runs
    out = nk.gather_sum(t.const(x), [0, 3, 2, 3], [0, 2, 2, 0], 5).value
    np.testing.assert_array_equal(out, [[8, 10], [0, 0], [12, 14], [0, 0], [0, 0]])
    weighted = nk.gather_sum(t.const(x), [0, 3, 2], [1, 1, 0], 2, t.const([2.0, 0.5, -1.0]))
    np.testing.assert_array_equal(weighted.value, [[-5, -6], [5.5, 8]])
    assert nk.gather_sum(t.const(x), [], [], 2).value.tolist() == [[0, 0], [0, 0]]


def test_gather_sum_chunks_sum_each_segment_in_one_pass(monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(6, 3))
    src = rng.integers(6, size=40)
    seg = np.sort(rng.integers(7, size=40))
    weights = rng.normal(size=40)

    def run():
        t = Tape()
        return nk.gather_sum(t.const(x), src, seg, 7, t.const(weights)).value

    whole = run()
    monkeypatch.setattr(nk, "GATHER_CHUNK", 3)
    assert run().tobytes() == whole.tobytes()
    np.testing.assert_allclose(whole, [
        sum(w * x[s] for s, g, w in zip(src, seg, weights) if g == k) + np.zeros(3)
        for k in range(7)
    ], atol=1e-12)


def test_segment_softmax_values():
    t = Tape()
    x = np.array([1.0, 2.0, 0.5, 700.0, 701.0])
    seg = [0, 0, 3, 1, 1]
    y = nk.segment_softmax(t.const(x), seg, 4).value
    e = np.exp([-1.0, 0.0])
    np.testing.assert_allclose(y[:2], e / e.sum(), atol=1e-15)
    assert y[2] == 1.0  # a segment of one
    np.testing.assert_allclose(y[3:], y[:2], atol=1e-15)  # shifted by its own maximum


def test_rowdot_values():
    t = Tape()
    a = np.array([[1.0, 2.0], [3.0, -1.0]])
    b = np.array([[0.5, 0.5], [2.0, 4.0]])
    np.testing.assert_array_equal(nk.rowdot(t.const(a), t.const(b)).value, [1.5, 2.0])


def test_concat_rows_and_columns():
    t = Tape()
    a, b = np.ones((2, 3)), np.zeros((1, 3))
    assert nk.concat([t.const(a), t.const(b)]).value.shape == (3, 3)
    assert nk.concat([t.const(a), t.const(a)], axis=1).value.shape == (2, 6)
    with pytest.raises(NumkitError):
        nk.concat([t.const(a), t.const(b)], axis=1)


def test_relu_values():
    t = Tape()
    y = nk.relu(t.const([-3.0, 0.0, 2.0]))
    np.testing.assert_allclose(y.value, [0.0, 0.0, 2.0], atol=0)


def test_shape_mismatches_raise():
    t = Tape()
    M = t.const(np.ones((2, 3)))
    x = t.const(np.ones(2))
    with pytest.raises(NumkitError):
        nk.grouped_apply(M, [t.const(np.ones((2, 2)))])
    with pytest.raises(NumkitError):
        nk.grouped_apply(x, [M])
    with pytest.raises(NumkitError):
        nk.dot(t.const(np.ones(2)), t.const(np.ones(3)))
    with pytest.raises(NumkitError):
        nk.add(t.const(np.ones(2)), t.const(np.ones(3)))
    with pytest.raises(NumkitError):
        nk.take(t.const(np.ones((2, 2))), [5])
    with pytest.raises(NumkitError):
        nk.take(t.const(np.ones((2, 2))), [-1])
    with pytest.raises(NumkitError):
        nk.gather_sum(M, [0, 1], [0, 2], 2)  # segment id out of range
    with pytest.raises(NumkitError):
        nk.gather_sum(M, [0, 2], [0, 1], 2)  # row index out of range
    with pytest.raises(NumkitError):
        nk.gather_sum(M, [0, 1], [0], 2)  # one segment per row
    with pytest.raises(NumkitError):
        nk.gather_sum(M, [0, 1], [0, 1], 2, t.const(np.ones(3)))  # one weight per row
    with pytest.raises(NumkitError):
        nk.segment_softmax(x, [0, 0, 0], 1)
    with pytest.raises(NumkitError):
        nk.rowdot(M, t.const(np.ones((3, 2))))


def test_unrecorded_tape_same_values_no_nodes():
    rng = np.random.default_rng(4)
    M, x = rng.normal(size=(3, 3)), rng.normal(size=3)

    def forward(t):
        h = nk.leaky_relu(nk.rowdot(t.const(M), nk.take(t.const(x[None]), [0, 0, 0])), 0.2)
        return nk.dot(nk.segment_softmax(h, [0, 0, 0], 1), nk.relu(h))

    recorded, unrecorded = Tape(), Tape(record=False)
    assert forward(unrecorded).value == forward(recorded).value
    assert unrecorded._nodes == [] and recorded._nodes
    with pytest.raises(NumkitError):
        unrecorded.backward(forward(unrecorded))


def test_unrecorded_tape_leaves_no_reference_cycle():
    def garbage_after(record):
        x = Tape(record=record).const(np.ones(4))
        for _ in range(50):
            x = nk.relu(nk.add(x, x))
        del x
        return gc.collect()

    gc.disable()
    try:
        gc.collect()
        assert garbage_after(True) > 0  # a recording tape and its nodes form a cycle
        assert garbage_after(False) == 0  # freed by reference counting
    finally:
        gc.enable()


def test_cleared_tape_leaves_no_reference_cycle():
    def garbage_after(clear):
        t = Tape()
        x = t.param("x", np.ones(4))
        for _ in range(50):
            x = nk.relu(nk.add(x, x))
        if clear:
            t.clear()
        del x, t
        return gc.collect()

    gc.disable()
    try:
        gc.collect()
        assert garbage_after(False) > 0
        assert garbage_after(True) == 0  # freed by reference counting
    finally:
        gc.enable()


def test_non_finite_rejected():
    t = Tape()
    with pytest.raises(NumkitError):
        t.const([1.0, float("nan")])
    with pytest.raises(NumkitError):
        t.const([float("inf")])


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(4, 4))
    x = rng.normal(size=4)

    def run():
        t = Tape()
        h = nk.grouped_apply(t.const(x[None]), [t.const(M)])  # (1, 4)
        logits = nk.leaky_relu(nk.rowdot(t.const(M), nk.take(h, [0, 0, 0, 0])))
        return nk.segment_softmax(logits, [0, 0, 1, 1], 2).value.tobytes()

    assert run() == run()


# ------------------------------------------------------------- backward

def test_backward_dot_gives_other_operand():
    t = Tape()
    w = t.param("w", np.array([1.0, 2.0, 3.0]))
    x = np.array([0.5, -1.0, 2.0])
    loss = nk.dot(w, t.const(x))
    grads = t.backward(loss)
    np.testing.assert_allclose(grads["w"], x, atol=0)


def test_backward_relu_dead_region_zero():
    t = Tape()
    w = t.param("w", np.array([1.0, 1.0]))
    x = t.const(np.array([-2.0, -3.0]))
    loss = nk.relu(nk.dot(w, x))
    grads = t.backward(loss)
    np.testing.assert_allclose(grads["w"], [0.0, 0.0], atol=0)


def test_unused_parameter_gets_zero_gradient():
    t = Tape()
    w = t.param("w", np.ones(3))
    u = t.param("unused", np.ones((2, 2)))
    loss = nk.dot(w, t.const(np.ones(3)))
    grads = t.backward(loss)
    assert grads["unused"].shape == (2, 2)
    assert (grads["unused"] == 0).all()


def test_backward_drops_every_gradient_but_the_parameters():
    # a node read twice, constants, a parameter read twice and the loss
    t = Tape()
    w = t.param("w", np.array([1.0, -2.0, 3.0]))
    u = t.param("u", np.array([0.5, 0.5, 0.5]))
    h = nk.add(nk.relu(w), t.const(np.ones(3)))
    loss = nk.dot(nk.add(h, h), nk.sub(u, w))
    grads = t.backward(loss)
    assert loss.grad is None and h.grad is None
    assert w.grad is grads["w"] and u.grad is grads["u"]
    assert_only_parameters_keep_gradients(t, grads)
    np.testing.assert_allclose(grads["u"], 2 * (np.maximum(w.value, 0) + 1), atol=0)


def test_backward_requires_scalar_loss():
    t = Tape()
    w = t.param("w", np.ones(3))
    with pytest.raises(NumkitError):
        t.backward(nk.relu(w))


def test_cross_tape_mixing_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.const(np.ones(2))
    b = t2.const(np.ones(2))
    with pytest.raises(NumkitError):
        nk.add(a, b)


def test_duplicate_param_name_rejected():
    t = Tape()
    t.param("w", np.ones(2))
    with pytest.raises(NumkitError):
        t.param("w", np.ones(2))


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_binding_checks_every_parameter_once(record, bad):
    # one check over the whole set refuses a non-finite value in any
    # parameter, of any shape, and registers none of the set
    shapes = {"w": (3, 2), "v": (4,), "s": (), "e": (0, 2), "last": (1, 5)}
    for name, shape in shapes.items():
        if not np.prod(shape):
            continue
        params = {n: np.ones(sh) for n, sh in shapes.items()}
        params[name].flat[-1] = bad
        t = Tape(record=record)
        with pytest.raises(NumkitError, match="^non-finite value$"):
            t.bind(params)
        assert not t._params
        bound = t.bind({n: np.ones(sh) for n, sh in shapes.items()})
        assert list(bound) == list(shapes)
        assert all(bound[n].value.shape == sh for n, sh in shapes.items())


def test_binding_refuses_a_name_bound_twice_and_copies_no_float64():
    t = Tape()
    w = np.arange(6.0).reshape(2, 3)
    bound = t.bind({"w": w, "ints": [[1, 2]]})
    assert bound["w"].value is w  # a float64 array is bound as it is
    assert bound["ints"].value.dtype == np.float64
    assert t._params == bound
    with pytest.raises(NumkitError, match="parameter registered twice: w"):
        t.bind({"w": np.ones(2)})
    with pytest.raises(NumkitError, match="parameter registered twice: ints"):
        t.param("ints", np.ones(2))
    assert Tape().bind({}) == {}


# ------------------------------------------------------- finite differences

def summed(t, rows, weights):
    """Scalar sum of rowdot(rows, weights), weights given as a constant."""
    r = nk.rowdot(rows, t.const(weights))
    return nk.dot(r, t.const(np.ones(r.value.shape)))


def assert_only_parameters_keep_gradients(t, grads):
    params = {p.id: name for name, p in t._params.items()}
    for node in t._nodes:
        if node.id in params:
            assert node.grad is None or node.grad is grads[params[node.id]]
        else:
            assert node.grad is None, f"node {node.id} kept its gradient"


def grad_check(build, params):
    """Tape gradients of build(tape, params) against finite differences;
    backward leaves no gradient on any node but the parameters."""
    def loss_fn(p):
        return float(build(Tape(), p).value)

    t = Tape()
    grads = t.backward(build(t, params))
    assert_only_parameters_keep_gradients(t, grads)
    check_grads(loss_fn, grads, params)


def test_grad_matvec_dot():
    rng = np.random.default_rng(0)
    params = {"M": rng.normal(size=(3, 4)), "x": rng.normal(size=(2, 4))}
    c = rng.normal(size=(2, 3))

    def build(t, p):
        M = t.param("M", p["M"])
        x = t.param("x", p["x"])
        return summed(t, nk.grouped_apply(x, [M]), c)

    grad_check(build, params)


def test_grad_relu_leaky_chain():
    rng = np.random.default_rng(1)
    params = {"x": away_from_zero(rng, 6)}
    c = rng.normal(size=6)

    def loss_fn(p):
        t = Tape()
        x = t.param("x", p["x"])
        return float(nk.dot(nk.relu(nk.leaky_relu(x, 0.2)), t.const(c)).value)

    t = Tape()
    x = t.param("x", params["x"])
    grads = t.backward(nk.dot(nk.relu(nk.leaky_relu(x, 0.2)), t.const(c)))
    check_grads(loss_fn, grads, params)


def test_grad_weighted_sum_with_attention_shape():
    # softmax-weighted sums of gathered rows per segment: unsorted ids,
    # segment 2 empty, row 0 gathered twice and row 2 never
    rng = np.random.default_rng(3)
    params = {"logits": rng.normal(size=5), "v": rng.normal(size=(4, 4))}
    src = [0, 1, 3, 0, 1]
    seg = [1, 0, 1, 1, 3]
    c = rng.normal(size=(4, 4))

    def build(t, p):
        alpha = nk.segment_softmax(t.param("logits", p["logits"]), seg, 4)
        return summed(t, nk.gather_sum(t.param("v", p["v"]), src, seg, 4, alpha), c)

    grad_check(build, params)


def test_grad_gather_sum_in_chunks(monkeypatch):
    monkeypatch.setattr(nk, "GATHER_CHUNK", 2)
    rng = np.random.default_rng(9)
    params = {"x": rng.normal(size=(5, 3)), "w": rng.normal(size=9)}
    src = [4, 0, 0, 2, 4, 1, 1, 0, 2]
    seg = [0, 0, 0, 2, 2, 3, 5, 5, 5]  # segments 1 and 4 empty
    c = rng.normal(size=(6, 3))

    def build(t, p):
        out = nk.gather_sum(t.param("x", p["x"]), src, seg, 6, t.param("w", p["w"]))
        return summed(t, out, c)

    grad_check(build, params)


def test_grad_stack_concat_row():
    # rows gathered with a repeat and a row left out, stacked under more rows,
    # then joined side by side
    rng = np.random.default_rng(4)
    params = {"M": rng.normal(size=(3, 4)), "y": rng.normal(size=(2, 4))}
    c = rng.normal(size=(5, 8))

    def build(t, p):
        rows = nk.take(t.param("M", p["M"]), [2, 0, 2])
        stacked = nk.concat([rows, t.param("y", p["y"])])
        return summed(t, nk.concat([stacked, stacked], axis=1), c)

    grad_check(build, params)


def test_grad_take_vector_repeats():
    rng = np.random.default_rng(6)
    params = {"x": rng.normal(size=6)}
    c = rng.normal(size=5)

    def build(t, p):
        return nk.dot(nk.take(t.param("x", p["x"]), [5, 1, 1, 0, 5]), t.const(c))

    grad_check(build, params)


def test_grad_grouped_apply():
    rng = np.random.default_rng(14)
    params = {"x": rng.normal(size=(6, 4)), "w0": rng.normal(size=(3, 4)),
              "w1": rng.normal(size=(3, 4))}
    c = rng.normal(size=(3, 3))

    def build(t, p):
        ws = [t.param("w0", p["w0"]), t.param("w1", p["w1"])]
        return summed(t, nk.grouped_apply(t.param("x", p["x"]), ws), c)

    grad_check(build, params)


def test_grad_rowdot_both_operands():
    rng = np.random.default_rng(7)
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}
    c = rng.normal(size=3)

    def build(t, p):
        return nk.dot(nk.rowdot(t.param("a", p["a"]), t.param("b", p["b"])), t.const(c))

    grad_check(build, params)


def test_grad_add_sub_scale_shift():
    rng = np.random.default_rng(5)
    params = {
        "a": rng.normal(size=(2, 4)), "b": rng.normal(size=(2, 4)),
        "c": rng.normal(size=(2, 4)), "s": rng.normal(size=2),
    }
    w = rng.normal(size=(2, 4))

    def build(t, p):
        a = t.param("a", p["a"])
        b = t.param("b", p["b"])
        c = t.param("c", p["c"])
        s = t.param("s", p["s"])
        scaled = nk.gather_sum(a, [0, 1], [0, 1], 2, s)  # row i of a times s[i]
        u = nk.add(nk.add(scaled, nk.sub(b, c)), nk.shift(a, 0.3))
        return summed(t, u, w)

    grad_check(build, params)


# ------------------------------------------------------------- adam

def random_runs(rng, n):
    """Runs over n rows, and spans each over one run less a range of it."""
    starts = np.flatnonzero(np.concatenate([[True], rng.random(n - 1) < rng.random() ** 3]))
    lengths = np.diff(starts, append=n)
    pick = rng.integers(0, len(starts), 12)
    start, stop = starts[pick], starts[pick] + lengths[pick]
    cut = start + (rng.random(12) * (lengths[pick] + 1)).astype(int)
    resume = np.minimum(cut + rng.integers(0, 3, 12), stop)
    return nk.Runs(starts, n), np.stack([start, cut, resume, stop], axis=1)


def test_run_sums_add_each_range_row_by_row_from_its_run_end():
    # the first range from the run's first row on, the second from its last
    # row back, one row at a time: bit for bit, whatever the runs' lengths
    rng = np.random.default_rng(3)
    for n in (1, 5, 40, 300, 3000):
        runs, spans = random_runs(rng, n)
        x = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
        got = nk.run_sums(x, runs, spans, np.arange(len(x)))
        want = [sum(x[s:c], np.zeros(3)) + sum(x[r:e][::-1], np.zeros(3)) for s, c, r, e in spans]
        np.testing.assert_array_equal(got, want)


def test_run_sums_over_nested_layers_add_each_range_row_by_row():
    # runs ordered by how many layers read them, deepest first, so layer k
    # reads the first rows; the last layer reads one run.  Each layer's sums
    # bit for bit, and no slot of a row past its prefix filled
    rng = np.random.default_rng(4)
    for n in (1, 6, 50, 400, 3000):
        starts = np.flatnonzero(np.concatenate([[True], rng.random(n - 1) < rng.random() ** 3]))
        lengths = np.diff(starts, append=n)
        depth = int(rng.integers(2, 5))
        reads = np.sort(rng.integers(1, depth, len(starts)))[::-1]  # layers reading each run
        reads[0] = depth  # the last layer reads one run
        runs = nk.Runs(starts, n)
        x = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
        for layer in range(1, depth + 1):
            k = int((reads >= layer).sum())
            m = int(lengths[:k].sum())
            assert runs.runs_in(m) == k
            pick = rng.integers(0, k, 12)
            start, stop = starts[pick], starts[pick] + lengths[pick]
            cut = start + (rng.random(12) * (lengths[pick] + 1)).astype(int)
            resume = np.minimum(cut + rng.integers(0, 3, 12), stop)
            spans = np.stack([start, cut, resume, stop], axis=1)
            got = nk.run_sums(x[:m], runs, spans, np.arange(m))
            want = [sum(x[s:c], np.zeros(3)) + sum(x[r:e][::-1], np.zeros(3)) for s, c, r, e in spans]
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, nk.run_sums(x, runs, spans, np.arange(len(x))))
            buf = runs.cumsums(x[:m])
            assert not buf[runs.prefix_at[m:]].any() and not buf[runs.suffix_at[m:]].any()


def test_run_sums_over_zero_rows():
    runs, none = nk.Runs([], 0), np.arange(0)
    np.testing.assert_array_equal(nk.run_sums(np.ones((0, 3)), runs, [[0, 0, 0, 0]] * 2, none),
                                  np.zeros((2, 3)))
    np.testing.assert_array_equal(nk.run_sums(np.ones(0), runs, np.zeros((0, 4)), none), np.zeros(0))
    # a layer that reads none of the rows
    np.testing.assert_array_equal(nk.run_sums(np.ones((0, 2)), nk.Runs([0, 2], 4), [[0, 0, 0, 0]], none),
                                  np.zeros((1, 2)))
    with pytest.raises(NumkitError, match="out of range"):
        nk.Runs([0], 0)


def test_run_sums_reject_bad_runs_and_spans():
    with pytest.raises(NumkitError, match="ascending"):
        nk.Runs([0, 3, 2], 5)
    with pytest.raises(NumkitError, match="ascending"):
        nk.Runs([1, 3], 5)
    runs = nk.Runs([0, 2], 4)
    with pytest.raises(NumkitError, match="rows for runs"):
        nk.run_sums(np.ones((3, 2)), runs, [[0, 1, 1, 2]], np.arange(3))
    with pytest.raises(NumkitError, match="out of range"):
        nk.run_sums(np.ones((4, 2)), runs, [[0, 1, 1, 5]], np.arange(4))
    with pytest.raises(NumkitError, match="spans"):
        nk.run_sums(np.ones((4, 2)), runs, [0, 1, 1, 2], np.arange(4))
    with pytest.raises(NumkitError, match="rows for runs"):
        nk.run_sums(np.ones((5, 2)), runs, [[0, 1, 1, 2]], np.arange(5))


def test_run_sums_blocks_of_columns_equal_one_block_bit_for_bit(monkeypatch):
    # a budget of one value cuts 20 columns into blocks of 8, 8 and 4; the
    # sums equal one block's for gathered, scaled and 1-d rows, spans that
    # take no row, and a layer that reads a prefix of the runs
    rng = np.random.default_rng(6)
    n = 400
    runs, spans = random_runs(rng, n)
    starts, lengths = runs.starts, runs.lengths
    empty = np.stack([starts, starts, starts + lengths, starts + lengths], axis=1)[:3]
    spans = np.concatenate([spans, empty])
    m = int(lengths[: len(starts) // 2].sum())
    prefix = spans[spans[:, 3] <= m]
    x = rng.normal(size=(n, 20)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
    rows = rng.integers(0, n, n)
    weights = np.exp(rng.normal(size=n) * 30)
    assert 0 < m < n and len(prefix)
    calls = []
    cumsums = nk.Runs.cumsums

    def counted(self, block):
        calls.append(block.shape)
        return cumsums(self, block)

    monkeypatch.setattr(nk.Runs, "cumsums", counted)
    every, first = np.arange(n), np.arange(m)
    cases = [
        (x, spans, dict(rows=every)), (x[:m], prefix, dict(rows=first)),
        (x[:, 0], spans, dict(rows=every)), (x[:m, 0], prefix, dict(rows=first)),
        (x, spans, dict(rows=rows, weights=weights)), (x, prefix, dict(rows=rows[:m])),
        (x[:, 3], spans, dict(rows=rows, weights=weights)),
    ]
    whole = [nk.run_sums(xs, runs, sp, **kw) for xs, sp, kw in cases]
    assert all(shape[1:] in ((20,), (1,)) for shape in calls)
    calls.clear()
    monkeypatch.setattr(nk, "RUN_SUMS_VALUES", 1)
    for (xs, sp, kw), want in zip(cases, whole):
        got = nk.run_sums(xs, runs, sp, **kw)
        assert got.shape == want.shape and np.array_equal(got, want)
    assert [shape[1:] for shape in calls[:3]] == [(8,), (8,), (4,)]
    assert not whole[0][-3:].any()  # spans that take no row
    scaled = x[rows] * weights[:, None]
    assert np.array_equal(whole[4], nk.run_sums(scaled, runs, spans, every))
    assert np.array_equal(whole[5], nk.run_sums(x[rows[:m]], runs, prefix, first))


def test_run_sums_reject_bad_rows_and_weights():
    runs = nk.Runs([0, 2], 4)
    with pytest.raises(NumkitError, match="out of range"):
        nk.run_sums(np.ones((3, 2)), runs, [[0, 1, 1, 2]], rows=[0, 1, 2, 3])
    with pytest.raises(NumkitError, match="one weight per row"):
        nk.run_sums(np.ones((4, 2)), runs, [[0, 1, 1, 2]], np.arange(4), weights=np.ones(3))


def test_backward_through_an_unrecorded_value_raises():
    tape = Tape()
    x = tape.param("x", np.ones(3))
    y = nk.unrecorded([x], x.value * 2)
    np.testing.assert_array_equal(y.value, [2.0, 2.0, 2.0])
    with pytest.raises(NumkitError, match="outside the tape"):
        tape.backward(nk.dot(y, tape.const(np.ones(3))))


def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.zeros(2)}
    nk.adam_step(params, grads, None, lr=0.1)
    np.testing.assert_allclose(params["w"], [1.0, -2.0], atol=0)


def test_adam_first_step_is_signed_lr():
    params = {"w": np.array([1.0, 1.0])}
    grads = {"w": np.array([0.3, -250.0])}
    nk.adam_step(params, grads, None, lr=0.01)
    # bias-corrected first step is -lr * g / (|g| + eps') ~= -lr * sign(g)
    np.testing.assert_allclose(params["w"], [1.0 - 0.01, 1.0 + 0.01], atol=1e-6)


def test_adam_descends_on_quadratic():
    w = np.array([1.0])
    params = {"w": w}
    state = None
    seen = [float(w[0])]
    for _ in range(2):
        grads = {"w": 2 * params["w"]}
        _, state = nk.adam_step(params, grads, state, lr=0.1)
        seen.append(float(params["w"][0]))
    assert seen[0] > seen[1] > seen[2]


def test_adam_shape_mismatch():
    with pytest.raises(NumkitError):
        nk.adam_step({"w": np.ones(2)}, {"w": np.ones(3)}, None)


def test_adam_moments_follow_reference_formula():
    rng = np.random.default_rng(9)
    w0 = rng.normal(size=3)
    g1 = rng.normal(size=3)
    g2 = rng.normal(size=3)
    params = {"w": w0.copy()}
    state = None
    _, state = nk.adam_step(params, {"w": g1}, state, lr=0.05)
    nk.adam_step(params, {"w": g2}, state, lr=0.05)

    # hand-rolled two-step reference
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = (1 - b1) * g1
    v = (1 - b2) * g1 * g1
    ref = w0 - 0.05 * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    ref = ref - 0.05 * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
    assert rel_err(params["w"], ref) < 1e-12
