"""Dense linear algebra with reverse-mode differentiation on a tape.

Values are numpy float64 arrays: matrices (2-d), vectors (1-d) and scalars
(0-d).  Every operation appends a node to a Tape; backward() walks the tape
in reverse creation order and accumulates vector-Jacobian products.  This is
the smallest machinery that supports the model: matrix-vector products,
elementwise nonlinearities, softmax, dot products and a few structural ops.
No broadcasting, no GPU, no sparse kernels.
"""

from __future__ import annotations

import numpy as np


class NumkitError(Exception):
    pass


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NumkitError("non-finite value")
    return arr


class Var:
    """One tape node: a value, its parents and the local backward rule."""

    __slots__ = ("tape", "id", "value", "parents", "vjp", "grad")

    def __init__(self, tape, vid, value, parents=(), vjp=None):
        self.tape = tape
        self.id = vid
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Recorded operation graph plus a registry of named parameters.

    A tape made with record=False computes the same values but records
    nothing: each node keeps no parents and no backward rule, and the tape
    keeps no node, so an intermediate value is freed as soon as the forward
    pass drops it instead of living, in a reference cycle with the tape,
    until the cyclic garbage collector runs.
    """

    def __init__(self, record: bool = True) -> None:
        self.record = record
        self._nodes: list[Var] = []
        self._params: dict[str, Var] = {}

    def _record(self, value, parents=(), vjp=None) -> Var:
        value = _as_array(value)
        for p in parents:
            if p.tape is not self:
                raise NumkitError("operands recorded on different tapes")
        if not self.record:
            return Var(self, -1, value)
        v = Var(self, len(self._nodes), value, tuple(parents), vjp)
        self._nodes.append(v)
        return v

    def const(self, value) -> Var:
        return self._record(value)

    def param(self, name: str, value) -> Var:
        if name in self._params:
            raise NumkitError(f"parameter registered twice: {name}")
        v = self._record(value)
        self._params[name] = v
        return v

    def backward(self, loss: Var) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss for every registered parameter.

        Unreached parameters get zero gradients of the parameter's shape.
        """
        if loss.tape is not self:
            raise NumkitError("loss recorded on a different tape")
        if not self.record:
            raise NumkitError("backward on a tape made with record=False")
        if loss.value.shape != ():
            raise NumkitError(f"loss must be scalar, got shape {loss.value.shape}")
        for node in self._nodes:
            node.grad = None
        loss.grad = np.ones(())
        for node in reversed(self._nodes):
            if node.grad is None or node.vjp is None:
                continue
            parts = node.vjp(node.grad)
            for parent, g in zip(node.parents, parts):
                if g is None:
                    continue
                if parent.id >= node.id:
                    raise NumkitError("cycle in recorded graph")
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.value)
                parent.grad = parent.grad + g
        return {
            name: (p.grad if p.grad is not None else np.zeros_like(p.value))
            for name, p in self._params.items()
        }


# ------------------------------------------------------------------ ops

def matvec(M: Var, x: Var) -> Var:
    if M.value.ndim != 2 or x.value.ndim != 1 or M.value.shape[1] != x.value.shape[0]:
        raise NumkitError(f"matvec shape mismatch: {M.value.shape} @ {x.value.shape}")
    out = M.value @ x.value

    def vjp(g):
        return np.outer(g, x.value), M.value.T @ g

    return M.tape._record(out, (M, x), vjp)


def relu(x: Var) -> Var:
    mask = x.value > 0

    def vjp(g):
        return (g * mask,)

    return x.tape._record(np.where(mask, x.value, 0.0), (x,), vjp)


def leaky_relu(x: Var, slope: float = 0.2) -> Var:
    mask = x.value > 0

    def vjp(g):
        return (g * np.where(mask, 1.0, slope),)

    return x.tape._record(np.where(mask, x.value, slope * x.value), (x,), vjp)


def softmax(x: Var) -> Var:
    if x.value.ndim != 1 or x.value.shape[0] == 0:
        raise NumkitError(f"softmax expects a nonempty vector, got shape {x.value.shape}")
    z = x.value - x.value.max()
    e = np.exp(z)
    y = e / e.sum()

    def vjp(g):
        return (y * (g - float(g @ y)),)

    return x.tape._record(y, (x,), vjp)


def dot(x: Var, y: Var) -> Var:
    if x.value.shape != y.value.shape or x.value.ndim != 1:
        raise NumkitError(f"dot shape mismatch: {x.value.shape} vs {y.value.shape}")
    out = x.value @ y.value

    def vjp(g):
        return g * y.value, g * x.value

    return x.tape._record(out, (x, y), vjp)


def add(x: Var, y: Var) -> Var:
    if x.value.shape != y.value.shape:
        raise NumkitError(f"add shape mismatch: {x.value.shape} vs {y.value.shape}")

    def vjp(g):
        return g, g

    return x.tape._record(x.value + y.value, (x, y), vjp)


def sub(x: Var, y: Var) -> Var:
    if x.value.shape != y.value.shape:
        raise NumkitError(f"sub shape mismatch: {x.value.shape} vs {y.value.shape}")

    def vjp(g):
        return g, -g

    return x.tape._record(x.value - y.value, (x, y), vjp)


def scale(x: Var, c: float) -> Var:
    def vjp(g):
        return (g * c,)

    return x.tape._record(x.value * c, (x,), vjp)


def shift(x: Var, c: float) -> Var:
    def vjp(g):
        return (g,)

    return x.tape._record(x.value + c, (x,), vjp)


def add_n(xs: list[Var]) -> Var:
    if not xs:
        raise NumkitError("add_n of nothing")
    shape = xs[0].value.shape
    for x in xs[1:]:
        if x.value.shape != shape:
            raise NumkitError("add_n shape mismatch")

    def vjp(g):
        return tuple(g for _ in xs)

    total = xs[0].value.copy()
    for x in xs[1:]:
        total += x.value
    return xs[0].tape._record(total, tuple(xs), vjp)


def weighted_sum(alpha: Var, vectors: list[Var]) -> Var:
    """sum_i alpha[i] * vectors[i] for a vector of weights."""
    n = alpha.value.shape[0] if alpha.value.ndim == 1 else -1
    if n != len(vectors) or n == 0:
        raise NumkitError("weighted_sum arity mismatch")
    d = vectors[0].value.shape
    for v in vectors:
        if v.value.shape != d:
            raise NumkitError("weighted_sum shape mismatch")
    out = np.zeros(d)
    for a, v in zip(alpha.value, vectors):
        out += a * v.value

    def vjp(g):
        da = np.array([float(g @ v.value) for v in vectors])
        return (da,) + tuple(a * g for a in alpha.value)

    return alpha.tape._record(out, (alpha,) + tuple(vectors), vjp)


def stack(scalars: list[Var]) -> Var:
    if not scalars:
        raise NumkitError("stack of nothing")
    for s in scalars:
        if s.value.shape != ():
            raise NumkitError("stack expects scalars")

    def vjp(g):
        return tuple(g[i] for i in range(len(scalars)))

    return scalars[0].tape._record(
        np.array([s.value for s in scalars]), tuple(scalars), vjp
    )


def concat(x: Var, y: Var) -> Var:
    if x.value.ndim != 1 or y.value.ndim != 1:
        raise NumkitError("concat expects vectors")
    nx = x.value.shape[0]

    def vjp(g):
        return g[:nx], g[nx:]

    return x.tape._record(np.concatenate([x.value, y.value]), (x, y), vjp)


def row(M: Var, i: int) -> Var:
    if M.value.ndim != 2 or not (0 <= i < M.value.shape[0]):
        raise NumkitError(f"row {i} out of range for shape {M.value.shape}")

    def vjp(g):
        out = np.zeros_like(M.value)
        out[i] = g
        return (out,)

    return M.tape._record(M.value[i].copy(), (M,), vjp)


# ------------------------------------------------------------------ adam

class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self) -> None:
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState | None = None,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """One bias-corrected Adam update, applied in place.  Returns (params, state)."""
    if state is None:
        state = AdamState()
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise NumkitError(f"gradient shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state
