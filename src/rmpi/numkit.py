"""Array operations with reverse-mode differentiation on a tape.

Values are numpy float64 arrays: matrices (2-d), vectors (1-d) and scalars
(0-d).  Every operation appends a node to a Tape; backward() walks the tape
in reverse creation order and accumulates vector-Jacobian products.  This is
the smallest machinery that runs the model over a batch of graphs: matrices
applied to rows (`grouped_apply`, several at once to groups of rows), row
gathers (`take`), gathered rows summed into segments
(`gather_sum`), softmaxes within segments, row-wise dot products,
elementwise nonlinearities and a few structural ops.  Operand shapes are
checked rather than broadcast.  No GPU, no sparse kernels.

Runs of rows summed less a range by running sums (`Runs`, `run_sums`) work
on plain arrays: only the scoring forward reads them, and it records no
gradients; `unrecorded` puts such a value on a tape.  A caller that reads
only the first rows, whole runs, fills and accumulates the running sums of
those alone: the buffer keeps each class of run length in row order, so
their runs are a prefix of every class's region.  The scoring forward puts
the runs its later layers read first, so each layer sums only its own.
The sums are filled a block of columns at a time, so the buffer of a hub's
thousands of rows holds a few columns, not the full width.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os

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
        return self._append(value, parents, vjp)

    def _append(self, value: np.ndarray, parents=(), vjp=None) -> Var:
        if not self.record:
            return Var(self, -1, value)
        v = Var(self, len(self._nodes), value, tuple(parents), vjp)
        self._nodes.append(v)
        return v

    def const(self, value) -> Var:
        return self._record(value)

    def param(self, name: str, value) -> Var:
        return self.bind({name: value})[name]

    def bind(self, params) -> dict[str, Var]:
        """Register every named value of a mapping as a parameter, with one
        finiteness check over the whole set; a float64 array is bound as it
        is, not copied."""
        values = {name: np.asarray(value, dtype=np.float64) for name, value in params.items()}
        if values and not np.isfinite(np.concatenate(list(values.values()), axis=None)).all():
            raise NumkitError("non-finite value")
        bound = {}
        for name, value in values.items():
            if name in self._params:
                raise NumkitError(f"parameter registered twice: {name}")
            bound[name] = self._params[name] = self._append(value)
        return bound

    def clear(self) -> None:
        """Forget every recorded node and parameter.

        A recording tape and its nodes reference each other; this breaks
        that cycle, so the graph's values, backward rules and gradients are
        freed by reference counting as soon as the caller also drops its
        own Vars of it, not at the next full collection.  It does not free
        them by itself: each node holds its parents, so any Var the caller
        still holds (a loss, the scores) keeps every node it was computed
        from alive.
        """
        self._nodes.clear()
        self._params.clear()

    def backward(self, loss: Var) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss for every registered parameter.

        Unreached parameters get zero gradients of the parameter's shape.
        Only the parameters keep a gradient: every other node's is dropped
        once it has been passed to its parents.
        """
        if loss.tape is not self:
            raise NumkitError("loss recorded on a different tape")
        if not self.record:
            raise NumkitError("backward on a tape made with record=False")
        if loss.value.shape != ():
            raise NumkitError(f"loss must be scalar, got shape {loss.value.shape}")
        params = {p.id for p in self._params.values()}
        for node in self._nodes:
            node.grad = None
        loss.grad = np.ones(())
        for node in reversed(self._nodes):
            # every node that reads this one comes later on the tape, so its
            # gradient is complete here and, once passed on, no longer needed
            grad = node.grad
            if node.id not in params:
                node.grad = None
            if grad is None or node.vjp is None:
                continue
            parts = node.vjp(grad)
            for parent, g in zip(node.parents, parts):
                if g is None:
                    continue
                if parent.id >= node.id:
                    raise NumkitError("cycle in recorded graph")
                parent.grad = g if parent.grad is None else parent.grad + g
        return {
            name: (p.grad if p.grad is not None else np.zeros_like(p.value))
            for name, p in self._params.items()
        }


# ------------------------------------------------------------------ ops

def _index(idx, size: int, what: str) -> np.ndarray:
    """A 1-d integer index array whose entries all lie in [0, size)."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise NumkitError(f"{what} expects a 1-d index, got shape {idx.shape}")
    # viewed as unsigned, a negative index is larger than any size
    if idx.size and idx.view(np.uintp).max() >= size:
        raise NumkitError(f"{what} index out of range for size {size}")
    return idx


GATHER_CHUNK = 512  # rows gather_sum gathers at once
# Most values of the running-sum buffer run_sums fills at once (512 KB of
# float64): a block holds as many feature columns as fit, but at least 8.
# Without that floor the largest hub batches at K=3 fall to blocks of one
# column: the scoring forwards of `scripts/hub_probe.py --hops 3 --variant
# base` took 1.41 CPU s with one-column blocks against 1.16 s with the floor
# (medians of 9 alternating passes in one process, 2-vCPU x86-64 VM).
RUN_SUMS_VALUES = 1 << 16


def _scatter_add(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[idx[i]] += rows[i] for every i, the rows of each index summed in order.

    A stable sort makes each index one run, which one reduceat sums; for
    many rows this is several times faster than np.add.at.
    """
    if idx.size:
        if (idx[1:] < idx[:-1]).any():
            order = np.argsort(idx, kind="stable")
            idx, rows = idx[order], rows[order]
        starts = np.flatnonzero(np.concatenate(([True], idx[1:] != idx[:-1])))
        out[idx[starts]] += np.add.reduceat(rows, starts, axis=0)
    return out


def _chunks(seg: np.ndarray, size: int) -> list[tuple[int, int]]:
    """Row ranges of about `size` rows that never split a run of equal ids."""
    if len(seg) <= size:
        return [(0, len(seg))]
    starts = np.flatnonzero(seg[1:] != seg[:-1]) + 1
    at = np.searchsorted(starts, np.arange(size, len(seg), size))
    cuts = sorted(set(starts[at[at < len(starts)]].tolist()))
    return list(zip([0] + cuts, cuts + [len(seg)]))


BLAS_CALL_SIZE = 1 << 18  # most multiply-adds per BLAS call in _product
PRODUCT_ROWS = 32  # most rows per BLAS call in _product


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, computed in blocks of one fixed number of rows of a.

    The row count depends on the operands' widths only: PRODUCT_ROWS, or
    fewer where a block would exceed BLAS_CALL_SIZE multiply-adds, past
    which OpenBLAS starts worker threads that busy-wait between the model's
    many small products (training took twice the CPU time).  Every BLAS call
    has exactly that many rows, the last block padded with zero rows, because
    OpenBLAS picks its kernel by the call's row count (1, 2-37 and 38 or
    more rows run three kernels for the model's products) and the kernels
    round differently.  So a row's result depends on its contents alone: a
    triple scores the same alone or in any batch.  Padding costs most on a
    one-row product: at width 192, 20 us against 4 us unpadded; blocks of
    42 rows cost 26 us and run large products no faster.

    A block is never smaller than one row, so a product whose single row is
    already over BLAS_CALL_SIZE still makes calls above it.  That happens
    in grouped_apply's weight gradient, g.T @ flat, whose row is as wide as
    the step has rows: with six types at d=32 (192 columns) a step of 1,366
    or more rows does, so trainlab.train runs on one BLAS thread
    (one_blas_thread).
    """
    m, n = a.shape[0], b.shape[1]
    rows = max(1, min(PRODUCT_ROWS, BLAS_CALL_SIZE // max(1, a.shape[1] * n)))
    a = np.ascontiguousarray(a)  # one memory layout, so one kernel, for every block
    out = np.empty((m, n))
    full = m - m % rows
    if full:  # the full blocks, stacked: one BLAS call each
        blocks = (full // rows, rows)
        np.matmul(a[:full].reshape(*blocks, a.shape[1]), b, out=out[:full].reshape(*blocks, n))
    if full < m:
        tail = np.zeros((rows, a.shape[1]))
        tail[: m - full] = a[full:]
        out[full:] = (tail @ b)[: m - full]
    return out


def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    wheel loads from its numpy.libs directory, or None where there is no
    such library or it lacks them (another BLAS or another build)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)  # the handle numpy's own load already holds
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Within the block (or the decorated function), OpenBLAS runs on one
    thread, and the caller's thread count is restored after.  A product
    that makes calls above BLAS_CALL_SIZE would otherwise start worker
    threads that double a hub training step's CPU time and do not shorten
    it; they change no result.  Where numpy's BLAS is not the wheel's
    OpenBLAS, it does nothing."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def grouped_apply(x: Var, ws: list[Var]) -> Var:
    """(n, p) rows out[r] = sum over i of ws[i] @ x[k * r + i], for k = len(ws).

    x holds k rows, of width q, per output row, and ws are k (p, q)
    matrices; the k products and their sum run as one product of the rows
    regrouped to (n, k * q) with the matrices side by side.  With one
    matrix w this is x @ w.T, w applied to every row.
    """
    k = len(ws)
    rows, q = x.value.shape if x.value.ndim == 2 else (0, 0)
    p = ws[0].value.shape[0] if ws else 0
    if not ws or not q or rows % k or any(w.value.shape != (p, q) for w in ws):
        shapes = [w.value.shape for w in ws]
        raise NumkitError(f"grouped_apply shape mismatch: {x.value.shape} by {shapes}")
    flat = x.value.reshape(rows // k, k * q)
    side = np.concatenate([w.value for w in ws], axis=1)  # (p, k * q)

    def vjp(g):
        return (_product(g, side).reshape(x.value.shape),) + tuple(
            np.split(_product(g.T, flat), k, axis=1)
        )

    return x.tape._record(_product(flat, side.T), (x, *ws), vjp)


def take(x: Var, idx) -> Var:
    """Rows x[idx]; an index may repeat, and a row no index names gets no gradient."""
    if x.value.ndim < 1:
        raise NumkitError("take expects an array with rows")
    idx = _index(idx, x.value.shape[0], "take")

    def vjp(g):
        return (_scatter_add(np.zeros_like(x.value), idx, g),)

    return x.tape._record(x.value[idx], (x,), vjp)


def gather_sum(x: Var, src, seg, n: int, weights: Var | None = None) -> Var:
    """(n, d) sums out[s] = sum of weights[i] * x[src[i]] over the i with seg[i] == s.

    Rows of x are gathered by src, scaled by the optional weights and summed
    into segments, a chunk of GATHER_CHUNK rows at a time, so live memory
    does not grow with the number of rows gathered.  A chunk ends only where
    a run of equal segment ids ends, so every segment is summed in row order
    whatever the chunking.  An empty segment sums to zeros.
    """
    if x.value.ndim != 2:
        raise NumkitError(f"gather_sum expects a matrix, got shape {x.value.shape}")
    src = _index(src, x.value.shape[0], "gather_sum")
    seg = _index(seg, n, "gather_sum")
    if seg.shape != src.shape:
        raise NumkitError(f"gather_sum needs one segment per row: {seg.shape} vs {src.shape}")
    if weights is not None and weights.value.shape != src.shape:
        raise NumkitError(f"gather_sum needs one weight per row: {weights.value.shape}")
    w = None if weights is None else weights.value
    chunks = _chunks(seg, GATHER_CHUNK)
    out = np.zeros((n, x.value.shape[1]))
    for lo, hi in chunks:
        rows = x.value[src[lo:hi]]
        if w is not None:
            rows *= w[lo:hi, None]
        _scatter_add(out, seg[lo:hi], rows)

    def vjp(g):
        dx = np.zeros_like(x.value)
        dw = None if w is None else np.empty_like(w)
        for lo, hi in chunks:
            back = g[seg[lo:hi]]
            if w is not None:
                dw[lo:hi] = np.einsum("ij,ij->i", back, x.value[src[lo:hi]])
                back *= w[lo:hi, None]
            _scatter_add(dx, src[lo:hi], back)
        return dx, dw

    parents = (x,) if weights is None else (x, weights)
    return x.tape._record(out, parents, vjp)


class Runs:
    """Rows 0 .. n-1 cut into runs beginning at `starts`, laid out for
    running sums within each run, forwards and backwards.

    A run of up to 2**c rows, c its class, takes 2 * 2**c slots of one
    buffer: its rows in order, padded at the end, then its rows in reverse
    order, padded at the front.  The runs of a class share one region, in
    row order, so that one accumulation per class sums every run of it in
    the run's own order: at most four slots a row, and a run's sums depend
    on its rows alone.  Slot prefix_at[i] of the buffer holds row i's
    running sum from its run's first row, slot suffix_at[i] from its run's
    last row back; the last slot, prefix_at[n], stays zero.  As each region
    keeps row order, the runs of the first m rows fill a prefix of every
    region, so running sums of those rows alone fill and accumulate those
    prefixes alone (cumsums): a caller whose layers read nested sets of
    runs puts the runs read by most layers first, and each layer pays for
    its own runs only.  Each column's running sums are its own, so
    run_sums fills a buffer for a block of columns at a time: about four
    slots a row for each column of the block, not of the full width.
    """

    def __init__(self, starts, n: int) -> None:
        starts = _index(starts, n, "Runs")
        if (n and (not len(starts) or starts[0] != 0)) or (starts[1:] <= starts[:-1]).any():
            raise NumkitError("runs need ascending starts from 0")
        self.n = n
        self.starts = starts
        self.lengths = lengths = np.concatenate([starts[1:], [n]]) - starts
        self.classes = cls = np.ceil(np.log2(lengths)).astype(np.intp)
        width = 1 << cls
        by_class = cls.argsort(kind="stable")  # runs of a class together, in row order
        padded = 2 * width[by_class]
        first = np.empty_like(padded)  # slot of each run's first row
        first[by_class] = padded.cumsum() - padded
        at = np.arange(n) - starts.repeat(lengths)  # position within the run
        end = int(padded.sum())
        self.prefix_at = np.concatenate([first.repeat(lengths) + at, [end]])
        self.suffix_at = np.concatenate([(first + 2 * width - 1).repeat(lengths) - at, [end]])
        self.size = end + 1
        self.counts = np.bincount(cls)  # runs per class
        self.regions = [0] + ((2 * self.counts) << np.arange(len(self.counts))).cumsum().tolist()

    def runs_in(self, m: int) -> int:
        """How many runs the first m rows hold, which must end where a run ends."""
        k = int(self.starts.searchsorted(m))
        if m != self.n and not (k < len(self.starts) and self.starts[k] == m):
            raise NumkitError(f"{m} rows for runs over {self.n} rows are not whole runs")
        return k

    def cumsums(self, x: np.ndarray) -> np.ndarray:
        """The buffer of the running sums of x, the first len(x) rows."""
        m = len(x)
        counts = self.counts
        if m != self.n:
            counts = np.bincount(self.classes[: self.runs_in(m)], minlength=len(counts))
        buf = np.zeros((self.size,) + x.shape[1:])
        buf[self.prefix_at[:m]] = x
        buf[self.suffix_at[:m]] = x
        for c, count in enumerate(counts.tolist()):
            if count and c:
                base = self.regions[c]
                part = buf[base : base + (2 * count << c)].reshape((-1, 1 << c) + x.shape[1:])
                np.cumsum(part, axis=1, out=part)  # one slot at a time, first slot first
        return buf


def run_sums(x: np.ndarray, runs: Runs, spans, rows, weights=None) -> np.ndarray:
    """(G, ...) group sums over runs of the rows of x, an array, not a
    tape node: the scoring forward, which alone reads them, records no
    gradients.

    The summed rows are x[rows], each scaled by weights[i] when weights are
    given; they are the first m rows of the runs, which must end where a run
    ends, and only their runs are filled and accumulated.  spans[g] =
    (start, cut, resume, stop) takes its run less rows cut .. resume-1, so
    it must start where a run starts and stop where that run ends: the
    first range is the run's running sum up to row cut-1, the second its
    running sum from its last row back to row resume.  Neither is one
    running total less another, so a group's sum depends on its run's rows
    alone, and the work grows with the rows, not with the groups' ranges.
    A span that takes no row sums to zeros.

    The rows are gathered, scaled, summed and read a block of columns at a
    time, so that the running-sum buffer holds about RUN_SUMS_VALUES values
    (never fewer than 8 columns, never more than the full width): small
    batches are one block, and a hub batch holds one block's buffer at a
    time, not the full width's.  Each column is summed down its rows in order and each scaled
    value is one product, so the sums do not depend on the blocking.
    """
    if x.ndim not in (1, 2):
        raise NumkitError(f"run_sums expects a vector or matrix, got shape {x.shape}")
    rows = _index(rows, len(x), "run_sums")
    m, n = len(rows), runs.n
    if weights is not None and np.shape(weights) != (m,):
        raise NumkitError(f"run_sums needs one weight per row: {np.shape(weights)} for {m} rows")
    spans = np.asarray(spans, dtype=np.intp)
    if spans.ndim != 2 or spans.shape[1] != 4:
        raise NumkitError(f"run_sums expects (G, 4) spans, got shape {spans.shape}")
    if spans.size and (spans.min() < 0 or spans.max() > m):
        raise NumkitError(f"run_sums span out of range for {m} rows")
    start, cut, resume, stop = spans.T
    first = runs.prefix_at[np.where(cut > start, cut - 1, n)]
    last = runs.suffix_at[np.where(resume < stop, resume, n)]
    columns = x[:, None] if x.ndim == 1 else x
    width = columns.shape[1]
    step = max(8, RUN_SUMS_VALUES // runs.size)
    out = np.empty((len(spans), width))
    for lo in range(0, width, step):
        block = columns[rows, lo : lo + step]
        if weights is not None:
            block = block * weights[:, None]
        sums = runs.cumsums(block)
        np.add(sums[first], sums[last], out=out[:, lo : lo + step])
        del block, sums  # one block's buffer alive at a time
    return out.reshape((len(spans),) + x.shape[1:])


def unrecorded(parents, value) -> Var:
    """A value computed from the parents' values outside the tape, as a
    node whose backward rule raises: differentiating through it would
    leave the parents' gradients short."""

    def vjp(g):
        raise NumkitError("backward through a value computed outside the tape")

    return parents[0].tape._record(value, tuple(parents), vjp)


def segment_softmax(x: Var, seg, n: int) -> Var:
    """Softmax of a vector within each of n segments, each shifted by its own maximum."""
    seg = _index(seg, n, "segment_softmax")
    if x.value.ndim != 1 or seg.shape != x.value.shape:
        raise NumkitError(f"segment_softmax needs one id per entry: {seg.shape} vs {x.value.shape}")
    top = np.full(n, -np.inf)
    np.maximum.at(top, seg, x.value)
    e = np.exp(x.value - top[seg])
    y = e / np.bincount(seg, weights=e, minlength=n)[seg]

    def vjp(g):
        return (y * (g - np.bincount(seg, weights=g * y, minlength=n)[seg]),)

    return x.tape._record(y, (x,), vjp)


def rowdot(a: Var, b: Var) -> Var:
    """(n,) dot products of matching rows of two (n, d) matrices."""
    if a.value.ndim != 2 or a.value.shape != b.value.shape:
        raise NumkitError(f"rowdot shape mismatch: {a.value.shape} vs {b.value.shape}")

    def vjp(g):
        return g[:, None] * b.value, g[:, None] * a.value

    return a.tape._record(np.einsum("ij,ij->i", a.value, b.value), (a, b), vjp)


def relu(x: Var) -> Var:
    def vjp(g):
        return (g * (x.value > 0),)

    return x.tape._record(np.maximum(x.value, 0.0), (x,), vjp)


def leaky_relu(x: Var, slope: float = 0.2) -> Var:
    mask = x.value > 0

    def vjp(g):
        return (g * np.where(mask, 1.0, slope),)

    return x.tape._record(np.where(mask, x.value, slope * x.value), (x,), vjp)


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


def shift(x: Var, c: float) -> Var:
    def vjp(g):
        return (g,)

    return x.tape._record(x.value + c, (x,), vjp)


def concat(xs: list[Var], axis: int = 0) -> Var:
    """Arrays of equal rank joined along one axis."""
    values = [x.value for x in xs]
    try:
        out = np.concatenate(values, axis=axis)
    except ValueError as exc:
        shapes = [v.shape for v in values]
        raise NumkitError(f"concat shape mismatch: {shapes} along {axis}") from exc

    def vjp(g):
        return tuple(np.split(g, np.cumsum([v.shape[axis] for v in values])[:-1], axis=axis))

    return xs[0].tape._record(out, tuple(xs), vjp)


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
