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

def test_softmax_single_element_and_simplex():
    t = Tape()
    y = nk.softmax(t.const([3.7]))
    np.testing.assert_allclose(y.value, [1.0], atol=1e-12)


def test_leaky_relu_values():
    t = Tape()
    y = nk.leaky_relu(t.const([-1.0, 2.0]), 0.2)
    np.testing.assert_allclose(y.value, [-0.2, 2.0], atol=1e-12)


def test_matvec_identity():
    t = Tape()
    x = np.array([1.0, -2.0, 0.5])
    y = nk.matvec(t.const(np.eye(3)), t.const(x))
    np.testing.assert_allclose(y.value, x, atol=0)


def test_relu_values():
    t = Tape()
    y = nk.relu(t.const([-3.0, 0.0, 2.0]))
    np.testing.assert_allclose(y.value, [0.0, 0.0, 2.0], atol=0)


def test_shape_mismatches_raise():
    t = Tape()
    M = t.const(np.ones((2, 3)))
    x = t.const(np.ones(2))
    with pytest.raises(NumkitError):
        nk.matvec(M, x)
    with pytest.raises(NumkitError):
        nk.dot(t.const(np.ones(2)), t.const(np.ones(3)))
    with pytest.raises(NumkitError):
        nk.add(t.const(np.ones(2)), t.const(np.ones(3)))
    with pytest.raises(NumkitError):
        nk.softmax(t.const(np.zeros(0)))
    with pytest.raises(NumkitError):
        nk.row(t.const(np.ones((2, 2))), 5)


def test_unrecorded_tape_same_values_no_nodes():
    rng = np.random.default_rng(4)
    M, x = rng.normal(size=(3, 3)), rng.normal(size=3)

    def forward(t):
        h = nk.leaky_relu(nk.matvec(t.const(M), t.const(x)), 0.2)
        return nk.dot(nk.softmax(h), nk.relu(h))

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


def test_non_finite_rejected():
    t = Tape()
    with pytest.raises(NumkitError):
        t.const([1.0, float("nan")])
    with pytest.raises(NumkitError):
        t.const([float("inf")])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-30, max_value=30, allow_nan=False), min_size=1, max_size=8
    )
)
def test_softmax_simplex_property(values):
    t = Tape()
    y = nk.softmax(t.const(values)).value
    assert (y >= 0).all()
    assert abs(y.sum() - 1.0) <= 1e-9


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(4, 4))
    x = rng.normal(size=4)

    def run():
        t = Tape()
        out = nk.softmax(nk.leaky_relu(nk.matvec(t.const(M), t.const(x))))
        return out.value.tobytes()

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


# ------------------------------------------------------- finite differences

def test_grad_matvec_dot():
    rng = np.random.default_rng(0)
    params = {"M": rng.normal(size=(3, 4)), "x": rng.normal(size=4)}
    c = rng.normal(size=3)

    def loss_fn(p):
        t = Tape()
        M = t.param("M", p["M"])
        x = t.param("x", p["x"])
        return float(nk.dot(nk.matvec(M, x), t.const(c)).value)

    t = Tape()
    M = t.param("M", params["M"])
    x = t.param("x", params["x"])
    grads = t.backward(nk.dot(nk.matvec(M, x), t.const(c)))
    check_grads(loss_fn, grads, params)


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


def test_grad_softmax():
    rng = np.random.default_rng(2)
    params = {"x": rng.normal(size=5)}
    c = rng.normal(size=5)

    def loss_fn(p):
        t = Tape()
        return float(nk.dot(nk.softmax(t.param("x", p["x"])), t.const(c)).value)

    t = Tape()
    grads = t.backward(nk.dot(nk.softmax(t.param("x", params["x"])), t.const(c)))
    check_grads(loss_fn, grads, params)


def test_grad_weighted_sum_with_attention_shape():
    rng = np.random.default_rng(3)
    params = {
        "logits": rng.normal(size=3),
        "v0": rng.normal(size=4),
        "v1": rng.normal(size=4),
        "v2": rng.normal(size=4),
    }
    c = rng.normal(size=4)

    def build(t, p):
        alpha = nk.softmax(t.param("logits", p["logits"]))
        vs = [t.param(k, p[k]) for k in ("v0", "v1", "v2")]
        return nk.dot(nk.weighted_sum(alpha, vs), t.const(c))

    def loss_fn(p):
        t = Tape()
        return float(build(t, p).value)

    t = Tape()
    grads = t.backward(build(t, params))
    check_grads(loss_fn, grads, params)


def test_grad_stack_concat_row():
    rng = np.random.default_rng(4)
    params = {"M": rng.normal(size=(3, 4)), "x": rng.normal(size=4), "y": rng.normal(size=2)}
    c = rng.normal(size=8)  # stack(2) ++ y(2) ++ row(4)

    def build(t, p):
        M = t.param("M", p["M"])
        x = t.param("x", p["x"])
        y = t.param("y", p["y"])
        s = nk.stack([nk.dot(nk.row(M, 0), x), nk.dot(nk.row(M, 2), x)])
        return nk.dot(nk.concat(nk.concat(s, y), nk.row(M, 1)), t.const(c))

    def loss_fn(p):
        t = Tape()
        return float(build(t, p).value)

    t = Tape()
    grads = t.backward(build(t, params))
    check_grads(loss_fn, grads, params)


def test_grad_add_sub_scale_shift_add_n():
    rng = np.random.default_rng(5)
    params = {"a": rng.normal(size=4), "b": rng.normal(size=4), "c": rng.normal(size=4)}
    w = rng.normal(size=4)

    def build(t, p):
        a = t.param("a", p["a"])
        b = t.param("b", p["b"])
        c = t.param("c", p["c"])
        u = nk.add_n([nk.scale(a, 1.7), nk.sub(b, c), nk.shift(a, 0.3)])
        return nk.dot(u, t.const(w))

    def loss_fn(p):
        t = Tape()
        return float(build(t, p).value)

    t = Tape()
    grads = t.backward(build(t, params))
    check_grads(loss_fn, grads, params)


# ------------------------------------------------------------- adam

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
