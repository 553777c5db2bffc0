"""Reverse-mode automatic differentiation over float64 numpy arrays.

An operation on tensors records a node only when one of its inputs requires
a gradient. The node keeps its parents and a `_backward(g)` function that
maps the gradient of the node's output to one gradient per parent, in
`parents` order. `_backward` reads the parents and the values saved in the
forward pass, never the output tensor, so a graph holds no reference cycle:
reference counting frees it as soon as the caller drops the loss.

Node ids are assigned at creation time, so creation order is already a
topological order (inputs always precede consumers). `backward` replays
that order in reverse and owns all gradient accumulation. It sums the
contributions to each node in a dict local to the call and drops each sum
once it has been passed on. It writes `.grad` on leaves only, where
gradients keep accumulating across calls until `zero_grads` resets them.
Gradients flowing between nodes may alias each other (views, or one array
handed to two parents), so `backward` never sums into one in place and
copies a leaf's first gradient before storing it.

Most ops wrap one numpy expression. Three fused ops record one node for a
whole block and run it on plain arrays, with a backward pass written out
by hand: `linear` (an affine map over the last axis as one GEMM, with GELU
optionally applied in the same node), `attention` (multi-head self-attention
from the q/k/v projections through the output projection) and `lstm` (a
masked LSTM sweep, backpropagated through time). A fused op computes and
keeps arrays for its backward pass only when some input requires a gradient.

Padding has one format: the (B, T) bool mask of `bpe.pad_batch`, true at
real tokens. Hidden states have one layout: the (N, d) real-token rows,
`x[mask]` in row-major order. `attention`, `lstm` and `max_over_time` take
rows with their mask, so a row-wise op between them (`linear`, `add`,
`layer_norm`, `concat`, `tanh`, `dropout`) computes and draws nothing for
padding. `attention` lays out no padding either: texts of one length share
one score block. Only `lstm` and `max_over_time` lay the rows out as
(B, T, ...), by `_pad`. `dropout` is on only when given a generator.

All arithmetic is 64-bit: the finite-difference oracle in `grad_check`
needs the headroom, and desk-scale models do not need the speed.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ContractError, EmptyPoolError, ShapeError

_NODE_IDS = itertools.count()

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715
_LN_EPS = 1e-5


class Tensor:
    """N-d float64 array: a leaf, or the result of an op.

    Leaf tensors are created directly. An op result keeps its parents and a
    `_backward(g)` function only when some parent requires a gradient.
    `grad` is set on leaves with `requires_grad` only: `backward` allocates
    it on the first gradient, with the shape of `data`.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id", "op", "parents", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf", parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_NODE_IDS)
        self.op = op
        self.parents = tuple(parents)
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    """Lift plain arrays/scalars to constant (untracked) tensors."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting in the forward."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _node(data, op, parents, bw) -> Tensor:
    """An op result; it records `parents` and `bw` only if a parent needs a gradient."""
    req = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req, op=op, parents=parents if req else ())
    if req:
        out._backward = bw
    return out


class ComputationGraph:
    """Nodes reachable from one output, sorted by creation id (topological)."""

    def __init__(self, nodes):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationGraph":
        seen = {id(root)}
        stack = [root]
        nodes = [root]
        while stack:
            t = stack.pop()
            for p in t.parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
                    nodes.append(p)
        nodes.sort(key=lambda t: t.node_id)
        return cls(nodes)


def backward(loss: Tensor):
    """Add d(loss)/d(leaf) to `.grad` of every leaf with `requires_grad`
    that the scalar `loss` depends on."""
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    grads = {id(loss): np.ones_like(loss.data)}
    for t in reversed(ComputationGraph.trace(loss).nodes):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t._backward is None:
            if t.requires_grad:
                t.grad = np.array(g, order="C") if t.grad is None else t.grad + g
            continue
        for p, gp in zip(t.parents, t._backward(g)):
            if p.requires_grad:
                k = id(p)
                grads[k] = grads[k] + gp if k in grads else gp


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise / linear algebra


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data + b.data, "add", (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data * b.data, "mul", (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)))


def matmul(a, b) -> Tensor:
    """Matrix product; stacked (batched) operands follow numpy matmul rules.

    Gradients: dA = dC @ B^T, dB = A^T @ dC (transpose on the last two axes).
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}")
    return _node(a.data @ b.data, "matmul", (a, b),
                 lambda g: (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape),
                            _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)))


def linear(x, w, b, gelu=False) -> Tensor:
    """x @ w + b over the last axis of x, then GELU when `gelu`; one node.

    The leading axes of x are flattened into one (N, d) x (d, o) GEMM and
    the bias is added in place. Backward takes dx and dW from one GEMM each
    and db from one sum. The GELU derivative is saved only when some input
    requires a gradient.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 2 or x.data.shape[-1:] != w.data.shape[:1] or b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"linear needs x (..., d), w (d, o) and b (o,), got "
                         f"{x.data.shape}, {w.data.shape} and {b.data.shape}")
    d, o = w.data.shape
    x2 = x.data.reshape(-1, d)
    y = x2 @ w.data
    y += b.data
    dydz = None
    if gelu:
        # The operations of `gelu`, in its order, mostly in place.
        z = y
        t = z * z
        t *= z
        t *= _GELU_A
        t += z
        t *= _GELU_C
        np.tanh(t, out=t)
        if any(p.requires_grad for p in (x, w, b)):
            du = z * z
            du *= 3.0 * _GELU_A
            du += 1.0
            du *= _GELU_C
            s = t * t
            np.subtract(1.0, s, out=s)
            dydz = 0.5 * z
            dydz *= s
            dydz *= du
            dydz += 0.5 * (1.0 + t)
        t += 1.0
        y = 0.5 * z
        y *= t

    def _bw(g):
        g = g.reshape(-1, o)
        if dydz is not None:
            g = g * dydz
        return ((g @ w.data.T).reshape(x.data.shape), x2.T @ g, g.sum(axis=0))
    return _node(y.reshape(x.data.shape[:-1] + (o,)), "linear", (x, w, b), _bw)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    t = np.tanh(x.data)
    return _node(t, "tanh", (x,), lambda g: (g * (1.0 - t * t),))


def sigmoid(x) -> Tensor:
    """σ(x) = (1 + tanh(x/2)) / 2, the form `lstm` uses: no exp, so no overflow."""
    x = as_tensor(x)
    s = np.tanh(0.5 * x.data)
    s *= 0.5
    s += 0.5
    return _node(s, "sigmoid", (x,), lambda g: (g * s * (1.0 - s),))


def gelu(x) -> Tensor:
    """Tanh-approximation GELU: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    x = as_tensor(x)
    v = x.data
    u = _GELU_C * (v + _GELU_A * (v * v * v))
    t = np.tanh(u)

    def _bw(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * v ** 2)
        dydx = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du
        return (g * dydx,)
    return _node(0.5 * v * (1.0 + t), "gelu", (x,), _bw)


def softmax(x) -> Tensor:
    """Max-subtracted softmax along the last axis; rows sum to 1."""
    x = as_tensor(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def _bw(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)
    return _node(p, "softmax", (x,), _bw)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply gain and bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must match last dim {d}, "
            f"got {gain.data.shape} and {bias.data.shape}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat *= inv     # centred once, scaled in place: no second (..., d) array

    def _bw(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (inv * (dxhat - m1 - xhat * m2),
                _unbroadcast(g * xhat, gain.data.shape),
                _unbroadcast(g, bias.data.shape))
    return _node(gain.data * xhat + bias.data, "layer_norm", (x, gain, bias), _bw)


# ---------------------------------------------------------------------------
# indexing / shaping


def _scatter_rows(shape, idx, g) -> np.ndarray:
    """Zeros of `shape` with the rows of `g` added at `idx` (repeats sum)."""
    out = np.zeros(shape)
    np.add.at(out, idx, g)
    return out


def embedding(table, ids) -> Tensor:
    """Gather rows of a (V, d) table by an integer id array of any shape."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if np.any(ids < 0) or np.any(ids >= table.data.shape[0]):
        raise ShapeError(f"embedding ids out of range [0, {table.data.shape[0]})")
    shape = table.data.shape
    return _node(table.data[ids], "embedding", (table,),
                 lambda g: (_scatter_rows(shape, ids.reshape(-1), g.reshape(-1, shape[1])),))


def gather_rows(x, idx) -> Tensor:
    """Select rows of a 2-d tensor; gradient scatter-adds back."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    return _node(x.data[idx], "gather_rows", (x,),
                 lambda g: (_scatter_rows(x.data.shape, idx, g),))


def _rows_mask(op, x, mask) -> np.ndarray:
    """`mask` as a (B, T) bool array with one true entry per row of the
    (N, d) rows `x`."""
    mask = np.asarray(mask, dtype=bool)
    if x.ndim != 2 or mask.ndim != 2 or mask.sum() != x.data.shape[0]:
        raise ShapeError(f"{op} on rows {x.data.shape} needs (N, d) rows and a (B, T) "
                         f"mask with one true entry per row, got a mask of shape {mask.shape}")
    return mask


def _pad(rows: np.ndarray, mask: np.ndarray, fill) -> np.ndarray:
    """The (N, ...) rows of a (B, T) `mask` laid out as (B, T, ...), `fill`
    at padded positions."""
    out = np.full(mask.shape + rows.shape[1:], fill)
    out[mask] = rows
    return out


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    return _node(x.data.reshape(shape), "reshape", (x,),
                 lambda g: (g.reshape(x.data.shape),))


def swap_axes(x, a, b) -> Tensor:
    x = as_tensor(x)
    return _node(np.swapaxes(x.data, a, b), "swap_axes", (x,),
                 lambda g: (np.swapaxes(g, a, b),))


def concat(parts) -> Tensor:
    """Join tensors along the last axis."""
    parts = tuple(as_tensor(p) for p in parts)
    splits = np.cumsum([p.data.shape[-1] for p in parts])[:-1]
    return _node(np.concatenate([p.data for p in parts], axis=-1), "concat", parts,
                 lambda g: np.split(g, splits, axis=-1))


def slice_last(x, start, stop) -> Tensor:
    """View of x[..., start:stop] with gradient scattered into the slice."""
    x = as_tensor(x)

    def _bw(g):
        gx = np.zeros_like(x.data)
        gx[..., start:stop] = g
        return (gx,)
    return _node(x.data[..., start:stop], "slice_last", (x,), _bw)


def time_slice(x, t) -> Tensor:
    """x[:, t, :] for a (B, T, d) tensor -> (B, d)."""
    x = as_tensor(x)

    def _bw(g):
        gx = np.zeros_like(x.data)
        gx[:, t, :] = g
        return (gx,)
    return _node(x.data[:, t, :], "time_slice", (x,), _bw)


def stack_time(steps) -> Tensor:
    """Stack a list of (B, d) tensors into (B, T, d)."""
    steps = tuple(as_tensor(s) for s in steps)
    return _node(np.stack([s.data for s in steps], axis=1), "stack_time", steps,
                 lambda g: [g[:, t, :] for t in range(len(steps))])


# ---------------------------------------------------------------------------
# attention


def attention(h, wq, bq, wk, bk, wv, bv, wo, bo, mask, n_heads) -> Tensor:
    """Multi-head scaled dot-product self-attention over real-token rows, one node.

    `h` holds the (N, d) rows of the (B, T) mask `mask` of `bpe.pad_batch`
    in row-major order (`x[mask]`), N = `mask.sum()`, so text b owns the
    `lengths[b] = mask[b].sum()` rows from `cumsum(lengths)[b] - lengths[b]`
    on, wherever its padding lies; a text with no row is a ContractError.
    q, k and v come from one (N, d) x (d, 3d) GEMM on the concatenated
    weights. The g texts of one length n share one unpadded (g, H, n, n)
    block: scaled scores, a plain max-subtracted softmax and p·v, with the
    context rows scattered back for the output projection. The backward
    pass is written out by hand over the same blocks, from the saved
    probabilities; the q, k and v weights get their gradients from one GEMM
    on the (N, 3d) gradient.
    """
    h, wq, bq, wk, bk, wv, bv, wo, bo = (as_tensor(a) for a in (h, wq, bq, wk, bk, wv, bv, wo, bo))
    mask = _rows_mask("attention", h, mask)
    N, d = h.data.shape
    if d % n_heads:
        raise ShapeError(f"attention: width {d} not divisible by {n_heads} heads")
    if (any(w.data.shape != (d, d) for w in (wq, wk, wv, wo))
            or any(b.data.shape != (d,) for b in (bq, bk, bv, bo))):
        raise ShapeError(f"attention on rows {h.data.shape} needs (d, d) weights "
                         f"and (d,) biases")
    lengths = mask.sum(axis=1)
    if not lengths.all():
        raise ContractError("attention: a row has every key masked")
    starts = np.cumsum(lengths) - lengths
    H, dk = n_heads, d // n_heads
    scale = 1.0 / np.sqrt(dk)
    w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    qkv = h.data @ w_qkv
    qkv += np.concatenate([bq.data, bk.data, bv.data])
    track = any(a.requires_grad for a in (h, wq, bq, wk, bk, wv, bv, wo, bo))
    blocks = []      # per length: the rows, then q, k, v and p as backward reads them
    ctx = np.empty((N, d))
    for n in sorted(set(lengths.tolist())):   # np.unique: ~13 ms on its first call (numpy 2.4)
        at = (starts[lengths == n][:, None] + np.arange(n)).reshape(-1)   # text by text
        q, k, v = qkv[at].reshape(-1, n, 3, H, dk).transpose(2, 0, 3, 1, 4)   # (g, H, n, dk) each
        p = q @ k.swapaxes(-1, -2)                                          # (g, H, n, n)
        p *= scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        ctx[at] = (p @ v).swapaxes(1, 2).reshape(-1, d)
        if track:
            blocks.append((at, q, k, v, p))
    out = ctx @ wo.data
    out += bo.data

    def _bw(g):
        gctx = g @ wo.data.T
        dqkv = np.empty((N, 3 * d))
        for at, q, k, v, p in blocks:
            dctx = gctx[at].reshape(q.shape[0], -1, H, dk).swapaxes(1, 2)
            dblock = np.empty((at.size, 3 * d))
            dq, dkey, dv = dblock.reshape(q.shape[0], -1, 3, H, dk).transpose(2, 0, 3, 1, 4)
            np.matmul(p.swapaxes(-1, -2), dctx, out=dv)
            ds = dctx @ v.swapaxes(-1, -2)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            np.matmul(ds, k, out=dq)
            np.matmul(ds.swapaxes(-1, -2), q, out=dkey)
            dqkv[at] = dblock
        dw = h.data.T @ dqkv
        db = dqkv.sum(axis=0)
        return (dqkv @ w_qkv.T,
                dw[:, :d], db[:d], dw[:, d:2 * d], db[d:2 * d], dw[:, 2 * d:], db[2 * d:],
                ctx.T @ g, g.sum(axis=0))
    return _node(out, "attention", (h, wq, bq, wk, bk, wv, bv, wo, bo), _bw)


# ---------------------------------------------------------------------------
# recurrence


def lstm(x, w_in, w_rec, bias, mask, reverse=False) -> Tensor:
    """One masked LSTM sweep over the (N, d) rows of a (B, T) `mask`,
    recorded as one node; its output is the (N, u) rows.

    Gates are packed i, f, g, o along the 4u axis of `w_in` (d, 4u),
    `w_rec` (u, 4u) and `bias` (4u,); i, f and o use `sigmoid`'s form, their
    columns halved once per call (exact in binary), so one tanh a step
    activates all four. The input projection is one (N, d) x (d, 4u) GEMM
    on the rows; each step gathers its B rows of it. The sweep runs over
    t = 0..T-1, or T-1..0 when `reverse`. Each step multiplies its new cell
    state by its `mask` entry; h = o * tanh(c) is its output and the next
    step's state, so a padded step hands on a zero state (under right
    padding, no real step reads it). The backward pass runs the loop in
    reverse to fill the (B, T) pre-activation gradient of every step, then
    takes the x and weight gradients from one GEMM (or sum) each.
    """
    x, w_in, w_rec, bias = (as_tensor(a) for a in (x, w_in, w_rec, bias))
    mask = _rows_mask("lstm", x, mask)
    B, T = mask.shape
    N, d = x.data.shape
    u = w_rec.data.shape[0]
    if (w_in.data.shape != (d, 4 * u) or w_rec.data.shape != (u, 4 * u)
            or bias.data.shape != (4 * u,)):
        raise ShapeError(
            f"lstm on rows {x.data.shape} needs w_in (d, 4u), w_rec (u, 4u) and "
            f"bias (4u,), got {w_in.data.shape}, {w_rec.data.shape} and {bias.data.shape}")
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], u)     # i, f, o take z/2; g is a plain tanh
    shift = 1.0 - scale
    wr = w_rec.data * scale
    zx = x.data @ (w_in.data * scale)
    zx += bias.data * scale
    row_at = _pad(np.arange(N), mask, 0).T.copy()   # (T, B) rows of zx; a padded step reads row 0
    # The backward pass is the only reader of what a step saves.
    track = any(p.requires_grad for p in (x, w_in, w_rec, bias))
    if track:
        gates = np.empty((B, T, 4 * u))      # activated i, f, g, o
        tanh_c = np.empty((B, T, u))         # tanh of the step's new cell state
        h_prev = np.empty((B, T, u))         # state each step started from
        c_prev = np.empty((B, T, u))
    m = mask.astype(np.float64)[..., None]   # (B, T, 1): each step's multiplier
    out = np.empty((B, T, u))
    h = c = np.zeros((B, u))                 # both are rebound, never written
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        if track:
            h_prev[:, t], c_prev[:, t] = h, c
        z = zx[row_at[t]]
        z += h @ wr
        a = np.tanh(z, out=z)
        a *= scale
        a += shift
        c = (a[:, u:2 * u] * c + a[:, :u] * a[:, 2 * u:3 * u]) * m[:, t]
        tc = np.tanh(c)
        h = out[:, t] = a[:, 3 * u:] * tc
        if track:
            gates[:, t], tanh_c[:, t] = a, tc

    def _bw(g):
        # Each step's local gate derivatives, for all steps at once; the loop
        # only multiplies them by the state gradients carried back in time.
        g = _pad(g, mask, 0.0)
        i, f, gg, o = (gates[..., k * u:(k + 1) * u] for k in range(4))
        by_dc = np.stack([gg * i * (1.0 - i), c_prev * f * (1.0 - f),
                          i * (1.0 - gg * gg)], axis=2)          # dz_i, dz_f, dz_g per dc
        o_by_dh = tanh_c * o * (1.0 - o)                         # dz_o per dh
        c_by_dh = o * (1.0 - tanh_c * tanh_c)                    # dc per dh
        dz = np.empty((B, T, 4, u))
        dh = np.zeros((B, u))
        dc = np.zeros((B, u))
        for t in reversed(steps):
            dh = dh + g[:, t]
            dc = (dc + dh * c_by_dh[:, t]) * m[:, t]
            dz[:, t, :3] = dc[:, None, :] * by_dc[:, t]
            dz[:, t, 3] = dh * o_by_dh[:, t]
            dh = dz[:, t].reshape(B, 4 * u) @ w_rec.data.T
            dc = dc * f[:, t]
        dz_rows = dz[mask].reshape(N, 4 * u)
        return (dz_rows @ w_in.data.T,
                x.data.T @ dz_rows,
                h_prev.reshape(B * T, u).T @ dz.reshape(B * T, 4 * u),
                dz_rows.sum(axis=0))
    return _node(out[mask], "lstm", (x, w_in, w_rec, bias), _bw)


# ---------------------------------------------------------------------------
# pooling / losses


def max_over_time(x, mask) -> Tensor:
    """Per-feature max over each sequence's rows: the (N, d) rows of a
    (B, T) `mask` give (B, d).

    Gradient routes 1 to each argmax row, first time step on ties.
    """
    x = as_tensor(x)
    mask = _rows_mask("max_over_time", x, mask)
    if not mask.any(axis=1).all():
        raise EmptyPoolError("max_over_time: a sequence has every position masked")
    am = _pad(x.data, mask, -np.inf).argmax(axis=1)                  # (B, d) time steps
    row_at = _pad(np.arange(x.data.shape[0]), mask, 0)               # (B, T) row of each step
    rows, cols = np.take_along_axis(row_at, am, axis=1), np.arange(x.data.shape[1])

    def _bw(g):
        gx = np.zeros_like(x.data)
        gx[rows, cols] = g
        return (gx,)
    return _node(x.data[rows, cols], "max_over_time", (x,), _bw)


def cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-softmax of the target class over a (B, C) batch."""
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (B, C) logits, got {logits.data.shape}")
    n, c = logits.data.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match batch {n}")
    if np.any(targets < 0) or np.any(targets >= c):
        raise ShapeError(f"target labels must lie in [0, {c})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    nll = -(z[np.arange(n), targets] - np.log(e.sum(axis=1)))

    def _bw(g):
        d = p.copy()
        d[np.arange(n), targets] -= 1.0
        return (float(g) * d / n,)
    return _node(np.float64(nll.mean()), "cross_entropy", (logits,), _bw)


def mse_loss(pred, gold) -> Tensor:
    """Mean squared difference between two same-length tensors."""
    pred, gold = as_tensor(pred), as_tensor(gold)
    if pred.data.shape != gold.data.shape:
        raise ShapeError(f"mse_loss length mismatch: {pred.data.shape} vs {gold.data.shape}")
    diff = pred.data - gold.data

    def _bw(g):
        d = float(g) * 2.0 * diff / diff.size
        return (d, -d)
    return _node(np.float64((diff ** 2).mean()), "mse_loss", (pred, gold), _bw)


def sum_all(x) -> Tensor:
    x = as_tensor(x)
    return _node(np.float64(x.data.sum()), "sum_all", (x,),
                 lambda g: (np.full_like(x.data, float(g)),))


def dropout(x, rate, rng) -> Tensor:
    """Inverted dropout, one draw per element; identity (no node, no draw)
    at rate 0 or with no `rng`."""
    x = as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0 or rng is None:
        return x
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return _node(x.data * keep, "dropout", (x,), lambda g: (g * keep,))


# ---------------------------------------------------------------------------
# finite-difference oracle

_FD_STEP = 1e-5


def grad_check(build, tensors, max_coords=None, rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    `build` must rebuild the scalar loss from the current `.data` of the
    given tensors (deterministically: dropout off). Relative error per
    coordinate is |a - n| / max(1e-8, |a| + |n|), with central differences
    at step `_FD_STEP`. A NaN error on any coordinate makes the result NaN.
    When `max_coords` is set, that many coordinates per tensor are checked
    (seeded sample) instead of all of them.
    """
    zero_grads(tensors)
    loss = build()
    backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    worst = 0.0
    for t, a in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        aflat = a.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + _FD_STEP
            fp = float(build().data)
            flat[i] = orig - _FD_STEP
            fm = float(build().data)
            flat[i] = orig
            num = (fp - fm) / (2.0 * _FD_STEP)
            ana = aflat[i]
            rel = abs(ana - num) / max(1e-8, abs(ana) + abs(num))
            worst = np.maximum(worst, rel)  # a NaN stays NaN; max() would drop it
    return float(worst)
