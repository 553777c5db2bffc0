"""Autodiff core: forward oracles frozen from closed forms, backward checked
against central finite differences, and graph bookkeeping contracts."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from figlang import autodiff as ad
from figlang.autodiff import ComputationGraph, Tensor, backward, grad_check, zero_grads
from figlang.errors import ContractError, EmptyPoolError, ShapeError
from figlang.training import clip_grad_norm

RNG = np.random.default_rng(20260817)


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# forward oracles


def test_matmul_identity():
    x = RNG.normal(size=(3, 3))
    out = ad.matmul(t(np.eye(3)), t(x))
    np.testing.assert_allclose(out.data, x, rtol=0, atol=0)


def test_matmul_1x1():
    assert ad.matmul(t([[2.0]]), t([[3.0]])).data[0, 0] == 6.0


def test_matmul_vs_triple_loop():
    a = RNG.normal(size=(4, 5))
    b = RNG.normal(size=(5, 3))
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                want[i, j] += a[i, k] * b[k, j]
    got = ad.matmul(t(a), t(b)).data
    assert np.abs(got - want).max() < 1e-12


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        ad.matmul(t([1.0, 2.0]), t([[1.0], [2.0]]))
    with pytest.raises(ShapeError):
        ad.matmul(t(RNG.normal(size=(2, 3))), t(RNG.normal(size=(4, 2))))


def test_softmax_uniform_and_closed_form():
    out = ad.softmax(t([0.0, 0.0, 0.0])).data
    np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-12)
    # e^x / sum(e^x) at [1,2,3], written out rather than re-calling softmax
    e = np.exp(np.array([1.0, 2.0, 3.0]))
    want = e / e.sum()
    got = ad.softmax(t([1.0, 2.0, 3.0])).data
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(got, [0.09003, 0.24473, 0.66524], atol=1e-5)


def test_softmax_shift_invariance():
    x = RNG.normal(size=(4, 6))
    a = ad.softmax(t(x)).data
    b = ad.softmax(t(x + 123.456)).data
    assert np.abs(a - b).max() < 1e-12


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=16))
def test_softmax_rows_sum_to_one(xs):
    p = ad.softmax(t(xs)).data
    assert abs(p.sum() - 1.0) < 1e-9
    assert (p >= 0).all()


def test_layer_norm_oracle():
    gain = t(np.ones(2))
    bias = t(np.zeros(2))
    out = ad.layer_norm(t([[1.0, 3.0]]), gain, bias).data
    np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_degenerate_cases():
    gain = t(np.ones(3))
    bias = t(np.zeros(3))
    # constant vector: zero variance, eps keeps it finite -> zeros
    out = ad.layer_norm(t([[5.0, 5.0, 5.0]]), gain, bias).data
    np.testing.assert_allclose(out, 0.0, atol=1e-9)
    b = t([7.0, -1.0, 0.5])
    out = ad.layer_norm(t(RNG.normal(size=(2, 3))), t(np.zeros(3)), b).data
    np.testing.assert_allclose(out, np.broadcast_to(b.data, (2, 3)), atol=0)


def test_gelu_values():
    assert ad.gelu(t([0.0])).data[0] == 0.0
    assert abs(ad.gelu(t([10.0])).data[0] - 10.0) < 1e-6
    x = 1.0
    inner = np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)
    want = 0.5 * x * (1 + np.tanh(inner))
    got = ad.gelu(t([1.0])).data[0]
    assert abs(got - want) < 1e-12
    assert abs(got - 0.8412) < 1e-3
    xs = np.array([-10.0, -1.0, -1e-3, 1e-3, 1.0, 10.0])
    pow_form = 0.5 * xs * (1 + np.tanh(np.sqrt(2 / np.pi) * (xs + 0.044715 * xs ** 3)))
    np.testing.assert_allclose(ad.gelu(t(xs)).data, pow_form, rtol=1e-14, atol=0)


def test_max_over_time_values():
    # (N, d) rows in: the real rows of the (B, T) mask
    out = ad.max_over_time(t([[1.0, 5.0], [3.0, 2.0]]), np.array([[True, True]]))
    np.testing.assert_allclose(out.data, [[3.0, 5.0]])
    out = ad.max_over_time(t([[1.0, 1.0]]), np.array([[False, True]]))
    np.testing.assert_allclose(out.data, [[1.0, 1.0]])
    single = ad.max_over_time(t([[2.0, -1.0]]), np.array([[True]]))
    np.testing.assert_allclose(single.data, [[2.0, -1.0]])


def test_max_over_time_empty_pool():
    mask = np.array([[True] * 3, [False] * 3])
    with pytest.raises(EmptyPoolError):
        ad.max_over_time(t(RNG.normal(size=(2, 3, 4))[mask]), mask)


def test_max_over_time_grad_structure():
    # gradient is one-hot per feature over the sequence's rows
    x = t([[1.0, 9.0], [5.0, 2.0]])
    mask = np.array([[True, True, False]])
    out = ad.max_over_time(x, mask)
    backward(ad.sum_all(out))
    np.testing.assert_allclose(x.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_max_over_time_tie_goes_to_first_step():
    x = t([[3.0], [3.0]])
    out = ad.max_over_time(x, np.array([[True, True]]))
    backward(ad.sum_all(out))
    np.testing.assert_allclose(x.grad, [[1.0], [0.0]])


def test_cross_entropy_values():
    two = ad.cross_entropy(t([[0.0, 0.0]]), np.array([0]))
    assert abs(two.item() - np.log(2.0)) < 1e-12
    ce = ad.cross_entropy(t([[1.0, 2.0, 3.0]]), np.array([2]))
    assert abs(ce.item() - 0.4076) < 1e-4
    big = ad.cross_entropy(t([[100.0, 0.0]]), np.array([0]))
    assert big.item() < 1e-12


def test_cross_entropy_target_range():
    with pytest.raises(ShapeError):
        ad.cross_entropy(t([[0.0, 0.0]]), np.array([2]))


def test_mse_values():
    assert ad.mse_loss(t([1.0, 2.0]), t([1.0, 2.0])).item() == 0.0
    assert ad.mse_loss(t([0.0]), t([2.0])).item() == 4.0
    assert ad.mse_loss(t([1.0, -1.0]), t([0.0, 0.0])).item() == 1.0


def test_sigmoid_tanh_basics():
    assert ad.sigmoid(t([0.0])).data[0] == 0.5
    x = RNG.normal(size=7)
    np.testing.assert_allclose(ad.tanh(t(x)).data, np.tanh(x), atol=1e-15)
    s = ad.sigmoid(t(x)).data + ad.sigmoid(t(-x)).data
    np.testing.assert_allclose(s, 1.0, atol=1e-12)


def test_sigmoid_extreme_inputs_finite():
    with np.errstate(all="raise"):
        out = ad.sigmoid(t([-1e4, 1e4])).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)


# Texts of lengths 5, 3, 3 and 5, with holes mid-row as well as padded tails.
HOLES = np.array([[1, 0, 1, 1, 0, 1, 1], [1, 1, 1, 0, 0, 0, 0],
                  [0, 1, 0, 1, 0, 1, 0], [1, 1, 1, 1, 1, 0, 0]], bool)


def _attention_case(seed, d=8):
    """Rows for HOLES, the eight weights, and a second draw of rows."""
    rng = np.random.default_rng(seed)
    n = HOLES.sum()
    return (rng.normal(size=(n, d)), [rng.normal(size=s) for _ in range(4) for s in ((d, d), (d,))],
            rng.normal(size=(n, d)))


def _attention_grads(rows, ws, mask, weight):
    """The output and the gradients of the rows and all eight weights."""
    leaves = [Tensor(a, requires_grad=True) for a in [rows] + ws]
    out = ad.attention(*leaves, mask, 2)
    backward(ad.sum_all(ad.mul(out, weight)))
    return [out.data] + [t.grad for t in leaves]


def test_attention_mask_with_holes_matches_right_padding():
    # a text owns its rows wherever its padding lies: holes in the mask give
    # bit for bit what the right-padded mask of the same lengths gives
    rows, ws, weight = _attention_case(7)
    right = np.arange(HOLES.shape[1]) < HOLES.sum(axis=1, keepdims=True)
    got = _attention_grads(rows, ws, HOLES, weight)
    want = _attention_grads(rows, ws, right, weight)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_attention_text_sees_only_its_own_rows():
    # new rows for one text change no other text's output row, not even in
    # the text that shares its length and so its score block
    rows, ws, new = _attention_case(8)
    text_of_row = np.nonzero(HOLES)[0]
    out = ad.attention(rows, *ws, HOLES, 2).data
    for b in range(len(HOLES)):
        own = text_of_row == b
        changed = rows.copy()
        changed[own] = new[own]
        again = ad.attention(changed, *ws, HOLES, 2).data
        assert again[~own].tobytes() == out[~own].tobytes()
        assert (again[own] != out[own]).all()


def test_attention_row_with_every_key_masked_rejected():
    h = RNG.normal(size=(2, 3, 4))
    ws = [RNG.normal(size=shape) for _ in range(4) for shape in ((4, 4), (4,))]
    mask = np.array([[True, True, False], [False, False, False]])
    with pytest.raises(ContractError, match="every key masked"):
        ad.attention(h[mask], *ws, mask, 2)


@pytest.mark.parametrize("shape", [(2, 4), (2, 1, 1, 3)])
def test_attention_mask_must_be_batch_by_time(shape):
    # one key too many, or a mask laid out to broadcast over the (B, H, T, T) scores
    h = RNG.normal(size=(2, 3, 4)).reshape(6, 4)       # the rows of a (2, 3) mask
    ws = [RNG.normal(size=s) for _ in range(4) for s in ((4, 4), (4,))]
    with pytest.raises(ShapeError, match=r"\(B, T\) mask"):
        ad.attention(h, *ws, np.ones(shape, dtype=bool), 2)


# ---------------------------------------------------------------------------
# graph bookkeeping


def test_node_ids_increase_in_creation_order():
    a = t([1.0])
    b = ad.mul(a, a)
    c = ad.add(b, a)
    assert a.node_id < b.node_id < c.node_id


def test_trace_is_topologically_ordered():
    a = t([1.0, 2.0])
    b = ad.tanh(a)
    c = ad.mul(b, a)
    d = ad.sum_all(c)
    order = ComputationGraph.trace(d).nodes
    pos = {id(n): i for i, n in enumerate(order)}
    for node in order:
        for parent in node.parents:
            assert pos[id(parent)] < pos[id(node)]


def test_simple_grads():
    x = t([1.0, 2.0, 3.0])
    backward(ad.sum_all(x))
    np.testing.assert_allclose(x.grad, 1.0)

    y = t([3.0])
    backward(ad.sum_all(ad.mul(y, y)))
    np.testing.assert_allclose(y.grad, [6.0])


def test_backward_requires_scalar():
    x = t([1.0, 2.0])
    with pytest.raises(ContractError):
        backward(ad.mul(x, x))


def test_repeated_backward_accumulates_until_reset():
    x = t([2.0])
    loss = ad.sum_all(ad.mul(x, x))
    backward(loss)
    backward(loss)
    np.testing.assert_allclose(x.grad, [8.0])  # 2 * (2x)
    zero_grads([x])
    backward(loss)
    np.testing.assert_allclose(x.grad, [4.0])


def test_multi_consumer_grads_sum():
    # y = x*x + tanh(x); d/dx = 2x + (1 - tanh^2 x)
    x = t([0.7])
    loss = ad.sum_all(ad.add(ad.mul(x, x), ad.tanh(x)))
    backward(loss)
    want = 2 * 0.7 + (1 - np.tanh(0.7) ** 2)
    np.testing.assert_allclose(x.grad, [want], atol=1e-12)

    def build():
        return ad.sum_all(ad.add(ad.mul(x, x), ad.tanh(x)))
    assert grad_check(build, [x]) < 1e-10


def test_grad_check_reports_a_nan_gradient():
    # one NaN coordinate among finite ones must not be dropped by the max
    x = t([0.5, 0.7, 0.9])

    def build():
        def bw(g):
            d = 2.0 * x.data * float(g)
            d[1] = np.nan
            return (d,)
        return ad._node(np.float64((x.data ** 2).sum()), "nan_grad", (x,), bw)
    assert np.isnan(grad_check(build, [x]))


@pytest.mark.parametrize("run_backward", [True, False])
def test_graph_is_freed_without_the_cycle_collector(run_backward):
    # no op keeps its own output alive, so dropping the loss and the
    # intermediate frees the intermediate's array by reference counting
    x = t(RNG.normal(size=(4, 3)))
    w = t(RNG.normal(size=(3, 2)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        hidden = ad.tanh(ad.matmul(x, w))
        loss = ad.sum_all(ad.mul(hidden, hidden))
        if run_backward:
            backward(loss)
        ref = weakref.ref(hidden.data)
        del loss, hidden
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
    if run_backward:
        assert x.grad is not None and w.grad is not None


def test_grads_only_on_leaves():
    x = t([1.0, 2.0])
    mid = ad.tanh(x)
    frozen = t([3.0, 4.0], grad=False)
    backward(ad.sum_all(ad.mul(mid, frozen)))
    assert x.grad is not None
    assert mid.grad is None and frozen.grad is None


def test_shared_add_gradient_is_clipped_once_per_leaf():
    # add hands one array to both parents; each leaf must own its copy, or
    # clipping in place scales the shared buffer twice
    a = t([3.0])
    b = t([4.0])
    backward(ad.sum_all(ad.add(a, b)))
    params = {"a.weight": a, "b.weight": b}
    norm = clip_grad_norm(params, max_norm=0.5)
    assert norm == pytest.approx(np.sqrt(2.0))
    scale = 0.5 / np.sqrt(2.0)
    np.testing.assert_allclose(a.grad, [scale], rtol=1e-15)
    np.testing.assert_allclose(b.grad, [scale], rtol=1e-15)


# ---------------------------------------------------------------------------
# gradient checks per primitive


def _gc(build, tensors, tol=1e-6):
    err = grad_check(build, tensors)
    assert err < tol, f"max rel err {err:.3e}"


def test_grad_linear_is_exact():
    # central differences are exact on affine functions (up to rounding,
    # so keep the operands small and integer-valued)
    w = t([[1.0], [2.0], [3.0]])
    x = t([[2.0, -1.0, 4.0]], grad=False)
    _gc(lambda: ad.sum_all(ad.matmul(x, w)), [w], tol=1e-10)


def test_grad_add_mul_broadcast():
    a = t(RNG.normal(size=(3, 4)))
    b = t(RNG.normal(size=(4,)))
    c = t(RNG.normal(size=(3, 1)))
    _gc(lambda: ad.sum_all(ad.mul(ad.add(a, b), c)), [a, b, c])


def test_grad_matmul_batched():
    a = t(RNG.normal(size=(2, 3, 4)))
    b = t(RNG.normal(size=(2, 4, 5)))
    _gc(lambda: ad.sum_all(ad.matmul(a, b)), [a, b], tol=1e-8)
    w = t(RNG.normal(size=(4, 5)))  # broadcast right operand
    _gc(lambda: ad.sum_all(ad.tanh(ad.matmul(a, w))), [a, w])


@pytest.mark.parametrize("op", [ad.tanh, ad.sigmoid, ad.gelu])
def test_grad_elementwise(op):
    x = t(RNG.normal(size=(3, 5)))
    _gc(lambda: ad.sum_all(ad.mul(op(x), ad.tanh(x))), [x])


def test_grad_softmax_cross_entropy():
    logits = t(RNG.normal(size=(4, 7)))
    targets = RNG.integers(0, 7, size=4)
    _gc(lambda: ad.cross_entropy(logits, targets), [logits], tol=1e-6)


def test_grad_softmax_alone():
    x = t(RNG.normal(size=(2, 3, 5)))
    w = t(RNG.normal(size=(5,)), grad=False)
    _gc(lambda: ad.sum_all(ad.mul(ad.softmax(x), w)), [x])


def test_grad_layer_norm():
    x = t(RNG.normal(size=(3, 6)))
    gain = t(RNG.normal(size=6))
    bias = t(RNG.normal(size=6))
    _gc(lambda: ad.sum_all(ad.tanh(ad.layer_norm(x, gain, bias))), [x, gain, bias])


def test_grad_embedding_scatter():
    table = t(RNG.normal(size=(11, 4)))
    ids = np.array([[0, 3, 3], [10, 0, 5]])  # repeats must accumulate
    _gc(lambda: ad.sum_all(ad.tanh(ad.embedding(table, ids))), [table])
    zero_grads([table])
    backward(ad.sum_all(ad.embedding(table, ids)))
    assert table.grad[3].sum() == pytest.approx(8.0)  # two lookups x 4 dims
    assert table.grad[7].sum() == 0.0


def test_grad_gather_rows():
    x = t(RNG.normal(size=(6, 3)))
    idx = np.array([5, 0, 0, 2])
    _gc(lambda: ad.sum_all(ad.mul(ad.gather_rows(x, idx), ad.gather_rows(x, idx))), [x])


def test_grad_reshape_swap_concat_slice():
    x = t(RNG.normal(size=(2, 3, 4)))
    y = t(RNG.normal(size=(2, 3, 2)))

    def build():
        r = ad.reshape(x, (2, 12))
        s = ad.swap_axes(x, 1, 2)
        c = ad.concat([x, y])
        sl = ad.slice_last(c, 1, 4)
        return ad.add(ad.add(ad.sum_all(ad.tanh(r)), ad.sum_all(ad.tanh(s))),
                      ad.sum_all(ad.mul(sl, sl)))
    _gc(build, [x, y])


def test_grad_time_ops():
    steps = [t(RNG.normal(size=(2, 3))) for _ in range(4)]

    def build():
        stacked = ad.stack_time(steps)
        picked = ad.time_slice(stacked, 2)
        return ad.add(ad.sum_all(ad.tanh(stacked)), ad.sum_all(ad.mul(picked, picked)))
    _gc(build, steps)


def test_grad_max_over_time():
    mask = np.ones((3, 5), dtype=bool)
    mask[1, 3:] = False
    x = t(RNG.normal(size=(3, 5, 4))[mask])
    _gc(lambda: ad.sum_all(ad.tanh(ad.max_over_time(x, mask))), [x])


def test_grad_mse_mean():
    p = t(RNG.normal(size=(6,)))
    g = t(RNG.normal(size=(6,)), grad=False)
    _gc(lambda: ad.mse_loss(p, g), [p])


def test_primitive_grads_across_seeds():
    # the per-primitive sweep the numeric gate relies on, many seeds
    for seed in range(20):
        r = np.random.default_rng(seed)
        x = t(r.normal(size=(2, 4)))
        w = t(r.normal(size=(4, 3)))
        gain = t(r.normal(size=3))
        bias = t(r.normal(size=3))

        def build():
            h = ad.layer_norm(ad.gelu(ad.matmul(x, w)), gain, bias)
            return ad.cross_entropy(h, np.array([0, 2]))
        err = grad_check(build, [x, w, gain, bias])
        assert err < 1e-4, f"seed {seed}: {err:.3e}"


# ---------------------------------------------------------------------------
# fused linear


@pytest.mark.parametrize("gelu", [False, True])
def test_linear_equals_matmul_add(gelu):
    # forward bit-identical to the composed ops it fuses
    x = t(RNG.normal(size=(2, 3, 4)))
    w = t(RNG.normal(size=(4, 5)))
    b = t(RNG.normal(size=(5,)))
    want = ad.add(ad.matmul(x, w), b)
    want = ad.gelu(want) if gelu else want
    np.testing.assert_array_equal(ad.linear(x, w, b, gelu=gelu).data, want.data)


def test_linear_shape_errors():
    x, w, b = t(np.zeros((2, 4))), t(np.zeros((4, 3))), t(np.zeros(3))
    for args in ((t(np.zeros((2, 5))), w, b), (x, t(np.zeros(4)), b), (x, w, t(np.zeros(4)))):
        with pytest.raises(ShapeError):
            ad.linear(*args)


def test_untracked_linear_gelu_saves_no_derivative():
    # with no input requiring a gradient, the node must not keep the (N, o)
    # GELU derivative that only its backward pass reads
    n, d, o = 512, 16, 64
    rng = np.random.default_rng(28)
    arrays = [rng.normal(size=s) for s in ((n, d), (d, o), (o,))]

    def call(requires_grad):
        tensors = [Tensor(a, requires_grad=requires_grad) for a in arrays]
        tracemalloc.start()
        try:
            out = ad.linear(*tensors, gelu=True).data
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tracked, tracked_peak = call(True)
    untracked, untracked_peak = call(False)
    np.testing.assert_array_equal(untracked, tracked)
    assert tracked_peak - untracked_peak >= n * o * 8


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_is_identity():
    x = t(RNG.normal(size=(3, 3)))
    out = ad.dropout(x, 0.0, None)
    np.testing.assert_allclose(out.data, x.data, atol=0)


def test_dropout_without_generator_is_identity():
    # inference passes the config's rate and no generator: no node, no draw
    x = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    assert ad.dropout(x, 0.3, None) is x


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(0)
    x = t(np.ones((200, 200)))
    out = ad.dropout(x, 0.3, rng).data
    kept = out[out != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.7, atol=1e-12)
    assert abs(out.mean() - 1.0) < 0.02


def test_dropout_bad_rate():
    with pytest.raises(ContractError):
        ad.dropout(t([[1.0]]), 1.0, np.random.default_rng(0))


def test_dropout_backward_masks_grad():
    rng = np.random.default_rng(1)
    x = t(np.ones((50, 50)))
    out = ad.dropout(x, 0.5, rng)
    backward(ad.sum_all(out))
    dropped = out.data == 0
    assert (x.grad[dropped] == 0).all()
    np.testing.assert_allclose(x.grad[~dropped], 2.0, atol=1e-12)


def test_dropout_draws_one_number_per_element():
    # the mask is numpy's rng.random(x.shape) draw, so the generator moves
    # by the number of elements and by nothing else
    x = RNG.normal(size=(6, 5))
    rng_np, rng_op = np.random.default_rng(3), np.random.default_rng(3)
    want = x * ((rng_np.random(x.shape) >= 0.4) / (1.0 - 0.4))
    rows = t(x)
    out = ad.dropout(rows, 0.4, rng_op)
    assert out.data.tobytes() == want.tobytes()
    assert rng_op.bit_generator.state == rng_np.bit_generator.state
    backward(ad.sum_all(out))
    np.testing.assert_array_equal(rows.grad, (want != 0) / 0.6)


# ---------------------------------------------------------------------------
# ops on real-token rows


@pytest.mark.parametrize("op", [lambda x, m: ad.lstm(x, np.zeros((2, 8)), np.zeros((2, 8)),
                                                     np.zeros(8), m),
                                ad.max_over_time],
                         ids=["lstm", "max_over_time"])
@pytest.mark.parametrize("mask", [np.ones((2, 3), dtype=bool), np.ones((4,), dtype=bool)])
def test_rows_ops_need_one_row_per_true_mask_entry(op, mask):
    with pytest.raises(ShapeError, match=r"\(B, T\) mask"):
        op(t(np.ones((4, 2))), mask)
