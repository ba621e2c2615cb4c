"""Autodiff core: op gradients, MLP behavior, the optimizer."""

import dataclasses
import gc
import operator
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvgc.nncore import (
    MLP,
    OptimizerState,
    Parameter,
    Tensor,
    adam_step,
    backward,
    bernoulli_entropy,
    binary_cross_entropy,
    concat,
    dropout,
    grad_check,
    kaiming_normal,
    no_grad,
    zero_grads,
)
from mvgc.nncore import optim, tensor
from mvgc.nncore.tensor import _consumed, _record, _tracked, _wrap


def test_scalar_chain_matches_hand_derivative():
    x = Parameter(np.array(0.7))
    loss = (x * x * 3.0 + x).sum()
    backward(loss)
    assert loss.value == pytest.approx(3.0 * 0.49 + 0.7)
    assert x.grad == pytest.approx(6.0 * 0.7 + 1.0)


def test_composite_expression_passes_finite_differences():
    rng = np.random.default_rng(3)
    a = Parameter(rng.normal(size=(4, 5)))
    b = Parameter(rng.normal(size=(5, 3)))
    c = Parameter(rng.uniform(0.2, 0.8, size=(4, 3)))

    def loss_fn():
        h = (a @ b).sigmoid()
        mixed = concat([h * c, (h - c).relu()])
        return (mixed * mixed).sum() + h.log().sum()

    assert grad_check(loss_fn, [a, b, c], h=1e-6, max_entries=64) < 1e-7


def test_concat_hands_gradients_only_to_its_tracked_inputs():
    w = Parameter(np.ones((3, 4)))
    h = w * 2.0
    out = concat([np.arange(6.0).reshape(3, 2), h, Tensor(np.zeros((3, 1)))])
    g = np.arange(21.0).reshape(3, 7)
    pairs = list(out._grad_fn(g))
    assert len(pairs) == 1 and pairs[0][0] is h
    assert np.array_equal(pairs[0][1], g[:, 2:6])
    backward((out * g).sum())
    assert np.array_equal(w.grad, 2.0 * g[:, 2:6])


def test_elementwise_ops_pass_finite_differences():
    rng = np.random.default_rng(5)
    x = Parameter(rng.uniform(0.3, 0.9, size=(6,)))
    y = Parameter(rng.uniform(0.3, 0.9, size=(6,)))

    def loss_fn():
        out = (x / y) - (0.0 - x) + x.sigmoid() + (y**2.0)
        return (out.clip(0.1, 50.0)).sum()

    assert grad_check(loss_fn, [x, y], h=1e-6, max_entries=12) < 1e-8

    # each binary op under broadcasting: (n, d) against (1, d) and against a
    # 0-d operand, either way round, and a plain array on the left; / takes
    # no ndarray on its left, so a constant Tensor stands in there
    wide = Parameter(rng.uniform(0.3, 0.9, size=(4, 3)))
    row = Parameter(rng.uniform(0.3, 0.9, size=(1, 3)))
    scalar = Parameter(np.array(0.6))
    plain = rng.uniform(0.3, 0.9, size=(4, 3))
    weights = rng.normal(size=(4, 3))
    operands = [(wide, row), (row, wide), (wide, scalar), (scalar, wide),
                (plain, wide), (plain, row), (plain, scalar)]
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right in operands:
            if op is operator.truediv and not isinstance(left, Tensor):
                left = Tensor(left)
            params = [t for t in (left, right) if isinstance(t, Parameter)]
            pairs = op(left, right)._grad_fn(weights)
            assert [p for p, _ in pairs] == params
            assert [g.shape for _, g in pairs] == [p.shape for p in params]
            assert grad_check(
                lambda: (op(left, right) * weights).sum(), params, h=1e-6
            ) < 1e-8


def test_transpose_and_axis_sum_gradients():
    rng = np.random.default_rng(11)
    w = Parameter(rng.normal(size=(3, 4)))

    def loss_fn():
        col_totals = (w.T @ w).sum(axis=0, keepdims=True)
        return col_totals.sum() + (w * w).sum(axis=1).sum()

    assert grad_check(loss_fn, [w], h=1e-6, max_entries=12) < 1e-8


def test_fanout_accumulates_through_shared_subexpression():
    x = Parameter(np.array([1.5]))
    s = x * 2.0
    loss = (s * s + s).sum()
    backward(loss)
    # d/dx (4x^2 + 2x) at 1.5
    assert x.grad[0] == pytest.approx(8.0 * 1.5 + 2.0)


def test_backward_accumulates_until_zero_grads():
    x = Parameter(np.array(2.0))
    state = OptimizerState([x])
    backward((x * x).sum())
    backward((x * x).sum())
    assert x.grad == pytest.approx(8.0)
    zero_grads(state)
    assert x.grad == 0.0


def test_ndarray_on_the_left_still_builds_a_tensor():
    x = Parameter(np.ones((2, 2)))
    left = np.full((2, 2), 3.0)
    for combined in (left * x, left + x, left - x, 3.0 - x, Tensor(left) @ x):
        assert isinstance(combined, Tensor)
    # no reflected / or @: an ndarray on their left is refused
    with pytest.raises(TypeError):
        left / x
    with pytest.raises(TypeError):
        left @ x
    loss = (left * x).sum()
    backward(loss)
    assert np.allclose(x.grad, 3.0)


def test_binary_cross_entropy_value_and_gradient():
    rng = np.random.default_rng(7)
    target = (rng.random((5, 4)) < 0.5).astype(np.float64)
    logits = Parameter(rng.normal(size=(5, 4)))

    def loss_fn():
        return binary_cross_entropy(target, logits.sigmoid())

    pred = 1.0 / (1.0 + np.exp(-logits.value))
    expected = -(target * np.log(pred) + (1 - target) * np.log(1 - pred)).sum()
    assert loss_fn().value == pytest.approx(expected)
    assert grad_check(loss_fn, [logits], h=1e-6, max_entries=20) < 1e-8


def test_binary_cross_entropy_clamp_blocks_saturated_gradients():
    pred = Parameter(np.array([1e-9, 1.0 - 1e-9, 0.5]))
    target = np.array([0.0, 1.0, 1.0])
    loss = binary_cross_entropy(target, pred)
    backward(loss)
    # saturated entries sit outside the clamp and contribute zero gradient
    assert pred.grad[0] == 0.0
    assert pred.grad[1] == 0.0
    assert pred.grad[2] == pytest.approx(-2.0)


def test_bernoulli_entropy_value_and_gradient():
    p = Parameter(np.array([0.2, 0.5, 0.9]))
    loss = bernoulli_entropy(p)
    v = p.value
    expected = -(v * np.log(v) + (1 - v) * np.log(1 - v)).sum()
    assert loss.value == pytest.approx(expected)
    assert grad_check(lambda: bernoulli_entropy(p), [p], h=1e-6) < 1e-9
    # entropy peaks at 1/2, so the gradient there vanishes
    backward(loss)
    assert p.grad[1] == pytest.approx(0.0, abs=1e-12)


def test_mlp_eval_matches_manual_affine_chain():
    mlp = MLP.create((3, 4, 2), ("relu", "sigmoid"), seed=0)
    x = np.random.default_rng(1).normal(size=(5, 3))
    out = mlp(x).value

    w1, b1, w2, b2 = (p.value for p in mlp.params)
    hidden = np.maximum(x @ w1 + b1, 0.0)
    manual = 1.0 / (1.0 + np.exp(-(hidden @ w2 + b2)))
    assert np.allclose(out, manual)
    with pytest.raises(ValueError, match="mlp input width 3"):
        mlp(x[:, :2])


def test_mlp_dropout_runs_only_with_an_rng():
    mlp = MLP.create((3, 4), ("none",), seed=2, dropout=0.5)
    x = np.random.default_rng(3).normal(size=(6, 3))
    plain = x @ mlp.params[0].value + mlp.params[1].value
    assert np.array_equal(mlp(x).value, plain)
    dropped = mlp(x, rng=np.random.default_rng(4)).value
    expected = dropout(Tensor(plain), 0.5, np.random.default_rng(4)).value
    assert np.array_equal(dropped, expected)
    assert (dropped == 0.0).any()


def test_mlp_init_is_deterministic_per_seed():
    def values(seed):
        return [p.value for p in MLP.create((6, 8, 4), ("relu", "none"), seed).params]

    first, second, other = values(9), values(9), values(10)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert any(not np.array_equal(a, b) for a, b in zip(first, other))


@pytest.mark.parametrize("init", ["xavier", "kaiming"])
def test_mlp_create_reproduces_a_direct_numpy_draw_bit_for_bit(init):
    dims = (5, 7, 3)
    kwargs = {} if init == "xavier" else {"init": kaiming_normal}
    mlp = MLP.create(dims, ("relu", "none"), seed=21, **kwargs)
    rng = np.random.default_rng(21)
    expected = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        if init == "xavier":
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        expected += [w, np.zeros((1, fan_out))]
    assert len(mlp.params) == len(expected)
    assert all(
        isinstance(p, Parameter) and _same_bits(p.value, e)
        for p, e in zip(mlp.params, expected)
    )


@pytest.mark.parametrize("layer_dims, activations, dropout_rate, message", [
    ((3,), (), 0.0, "at least input and output"),
    ((3, 0, 2), ("relu", "none"), 0.0, "zero-width layer"),
    ((3, 2), ("relu", "none"), 0.0, "expected 1 activations"),
    ((3, 2), ("tanh",), 0.0, "unknown activation 'tanh'"),
    ((3, 2), ("none",), 1.0, r"dropout must lie in \[0, 1\)"),
])
def test_mlp_create_rejects_a_malformed_shape(
    layer_dims, activations, dropout_rate, message
):
    with pytest.raises(ValueError, match=message):
        MLP.create(layer_dims, activations, seed=0, dropout=dropout_rate)


def test_dropout_eval_equals_mean_of_train_outputs():
    rng = np.random.default_rng(13)
    x = Tensor(rng.uniform(1.0, 2.0, size=(64,)))
    draws = np.stack(
        [dropout(x, 0.4, np.random.default_rng(i)).value for i in range(10_000)]
    )
    # inverted dropout: train-time scaling makes eval the expectation.  The
    # 5% band is loose against Monte Carlo noise but catches a missing
    # 1/(1-rate) rescale, which would bias every entry by 40%.
    assert np.abs(draws.mean(axis=0) - x.value).max() < 0.05 * x.value.max()


def test_dropout_zero_rate_is_identity():
    x = Tensor(np.ones(8))
    out = dropout(x, 0.0, np.random.default_rng(0))
    assert np.array_equal(out.value, x.value)


def _naive_adam(value, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    m = np.zeros_like(value)
    v = np.zeros_like(value)
    out = value.copy()
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        out = out - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


def test_adam_matches_reference_updates():
    rng = np.random.default_rng(21)
    start = rng.normal(size=(4, 3))
    grads = [rng.normal(size=(4, 3)) for _ in range(5)]

    p = Parameter(start.copy())
    state = OptimizerState([p], lr=1e-3)
    for g in grads:
        p.grad[...] = g
        adam_step(state)
    assert np.allclose(p.value, _naive_adam(start, grads), atol=1e-12)


@pytest.mark.parametrize("rebound", ["value", "grad"])
def test_adam_refuses_a_parameter_rebound_away_from_the_store(rebound):
    first, second = Parameter(np.ones((2, 3))), Parameter(np.ones(4))
    state = OptimizerState([first, second], lr=0.1)
    zero_grads(state)
    second.grad += 1.0
    setattr(second, rebound, getattr(second, rebound).copy())
    before = state.values.copy()
    with pytest.raises(RuntimeError, match="parameter 1 .* no longer shares"):
        adam_step(state)
    assert state.step == 0
    assert np.array_equal(state.values, before)


def _per_parameter_adam(values, grads, steps, lr, beta1=0.9, beta2=0.999,
                        eps=1e-8):
    """The update loop over separate arrays, one per parameter, op by op as
    it ran before the flat store; the oracle for the blockwise step."""
    values = [v.copy() for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    for t in range(1, steps + 1):
        correct1 = 1.0 - beta1 ** t
        correct2 = 1.0 - beta2 ** t
        for value, g, mom, sq in zip(values, grads[t - 1], m, v2):
            scratch = np.empty_like(value)
            mom *= beta1
            np.multiply(g, 1.0 - beta1, out=scratch)
            mom += scratch
            sq *= beta2
            np.multiply(g, g, out=scratch)
            scratch *= 1.0 - beta2
            sq += scratch
            np.divide(sq, correct2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += eps
            np.divide(mom, scratch, out=scratch)
            scratch *= lr / correct1
            value -= scratch
    return values, m, v2


def test_blockwise_adam_matches_the_per_parameter_loop_bit_for_bit(monkeypatch):
    # blocks of 100_003 entries put two boundaries inside the 512 x 512
    # weight, which starts 20 entries into the store, and none on a row
    monkeypatch.setattr(optim, "_BLOCK_ENTRIES", 100_003)
    rng = np.random.default_rng(5)
    shapes = [(4, 5), (512, 512), (1, 512), (7,), (3, 1)]
    start = [rng.normal(size=shape) for shape in shapes]
    grads = [[rng.normal(scale=10.0 ** rng.integers(-6, 4), size=shape)
              for shape in shapes] for _ in range(3)]
    grads[1][1][0, :3] = 0.0

    params = [Parameter(v.copy()) for v in start]
    state = OptimizerState(params, lr=0.01)
    assert state._scratch.size == 100_003
    for step_grads in grads:
        zero_grads(state)
        for p, g in zip(params, step_grads):
            p.grad += g
        adam_step(state)
    values, m, v = _per_parameter_adam(start, grads, 3, lr=0.01)
    offsets = np.cumsum([0] + [a.size for a in start])
    for i, p in enumerate(params):
        part = slice(offsets[i], offsets[i + 1])
        assert _same_bits(p.value, values[i])
        assert _same_bits(state.m[part], m[i].ravel())
        assert _same_bits(state.v[part], v[i].ravel())


def test_the_store_holds_values_and_grads_in_list_order():
    rng = np.random.default_rng(8)
    params = [Parameter(rng.normal(size=shape)) for shape in [(3, 2), (1, 2), (5,)]]
    start = [p.value.copy() for p in params]
    params[2].grad[...] = 4.0
    state = OptimizerState(params)
    assert _same_bits(state.values, np.concatenate([v.ravel() for v in start]))
    assert _same_bits(state.grads, np.r_[np.zeros(8), np.full(5, 4.0)])
    for p in params:
        assert np.shares_memory(p.value, state.values)
        assert np.shares_memory(p.grad, state.grads)
    params[0].value[0, 0] = 9.0
    assert state.values[0] == 9.0
    zero_grads(state)
    assert not state.grads.any() and not params[2].grad.any()


def test_adam_descends_a_quadratic():
    p = Parameter(np.array([5.0, -3.0]))
    state = OptimizerState([p], lr=0.05)
    for _ in range(400):
        zero_grads(state)
        backward((p * p).sum())
        adam_step(state)
    assert np.abs(p.value).max() < 0.05


def test_backward_rejects_non_scalar_loss():
    x = Parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        backward(x * 2.0)


def test_dropping_the_loss_frees_the_tape_without_the_cycle_collector():
    rng = np.random.default_rng(9)
    w = Parameter(rng.normal(size=(4, 3)))
    target = rng.uniform(size=(4, 4))
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        # every op that records a tape node
        h = concat([(w @ w.T).sigmoid(), (w * 0.5) @ w.T])
        h = (h.relu() + 1.0 - w.sum(axis=0, keepdims=True).sum() / 3.0) ** 2.0
        p = (h.clip(0.1, 5.0) / 6.0).log().sigmoid() @ np.full((8, 4), 0.125)
        loss = binary_cross_entropy(target, p) + bernoulli_entropy(p)
        loss = loss - (1.0 - p.T).sum()
        loss.backward()
        del h, p, loss
        gc.collect()
        stranded = sum(isinstance(obj, Tensor) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert stranded == 0


def test_no_grad_builds_no_tape_and_keeps_the_values():
    w = Parameter(np.random.default_rng(22).normal(size=(3, 3)))
    with no_grad():
        free = ((w @ w.T).sigmoid() * 2.0).clip(0.1, 1.5).sum()
    tracked = ((w @ w.T).sigmoid() * 2.0).clip(0.1, 1.5).sum()
    assert free._grad_fn is None and free._parents == ()
    assert tracked._grad_fn is not None
    assert free.value == tracked.value


def test_no_grad_is_restored_when_the_block_raises():
    w = Parameter(np.ones((2, 2)))
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside the block")
    assert (w * 2.0)._grad_fn is not None


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _primitive_mlp(mlp, x, rng=None):
    """Calling ``mlp`` as the chain of primitive ops its layer node fuses."""
    h = _wrap(x)
    for w, b, activation in zip(mlp.params[0::2], mlp.params[1::2], mlp.activations):
        h = h @ w + b
        if activation == "relu":
            h = h.relu()
        elif activation == "sigmoid":
            h = h.sigmoid()
        if rng is not None and mlp.dropout > 0.0:
            h = dropout(h, mlp.dropout, rng)
    return h


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mlp_layer_node_matches_the_primitive_chain_bit_for_bit(data):
    layers = data.draw(st.integers(1, 3), label="layers")
    dims = data.draw(
        st.lists(st.integers(1, 5), min_size=layers + 1, max_size=layers + 1)
    )
    acts = data.draw(st.lists(
        st.sampled_from(["relu", "sigmoid", "none"]),
        min_size=layers, max_size=layers,
    ))
    rate = data.draw(st.sampled_from([0.0, 0.3, 0.9]), label="rate")
    use_rng = data.draw(st.booleans(), label="dropout rng")
    # 60: pre-activations far past the sigmoid's float64 saturation
    scale = data.draw(st.sampled_from([0.5, 60.0]), label="scale")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    n = data.draw(st.integers(1, 6), label="rows")

    rng = np.random.default_rng(seed)
    mlp = MLP.create(dims, acts, seed, dropout=rate)
    start = [rng.normal(scale=scale, size=p.value.shape) for p in mlp.params]
    for bias in start[1::2]:
        bias[rng.random(bias.shape) < 0.5] = 0.0
    x0 = rng.normal(scale=scale, size=(n, dims[0]))
    # zero rows with zero biases put pre-activations exactly at 0
    x0[rng.random(n) < 0.3] = 0.0
    weight = rng.normal(size=(n, dims[-1]))

    def run(apply):
        net = dataclasses.replace(
            mlp, params=tuple(Parameter(v.copy()) for v in start)
        )
        x = Parameter(x0.copy())
        drop_rng = np.random.default_rng(seed + 1) if use_rng else None
        out = apply(net, x, drop_rng)
        # the input has a second consumer, so the order of its two
        # gradient contributions shows in the bits
        backward((out * weight).sum() + (x * x).sum())
        return [out.value, x.grad, *(p.grad for p in net.params)]

    fused = run(lambda net, x, r: net(x, rng=r))
    primitive = run(_primitive_mlp)
    assert all(_same_bits(a, b) for a, b in zip(fused, primitive))


def test_mlp_records_one_tape_node_per_layer():
    mlp = MLP.create((3, 4, 4, 2), ("relu", "sigmoid", "none"), seed=4,
                     dropout=0.2)
    out = mlp(np.ones((5, 3)), rng=np.random.default_rng(0))
    nodes = 0
    node = out
    while node._grad_fn is not None:
        nodes += 1
        node = node._parents[0]
    assert nodes == len(mlp.activations)
    assert node is not out and node._parents == ()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
    st.sampled_from([1.0, 2.5]),
)
@example(0, 1, 1, 1.0)
def test_binary_cross_entropy_backward_recomputes_the_clamp_bit_for_bit(
    seed, rows, cols, upstream
):
    rng = np.random.default_rng(seed)
    pred0 = rng.uniform(size=(rows, cols))
    # exactly at the clamp bounds, and beyond them on both sides
    edges = np.array([1e-7, 1.0 - 1e-7, 0.0, 1.0, 1e-9, 1.0 - 1e-9])
    pick = rng.random(pred0.shape) < 0.5
    pred0[pick] = rng.choice(edges, size=pick.sum())
    target = np.where(rng.random(pred0.shape) < 0.5, 1.0, rng.uniform(size=pred0.shape))
    pred = Parameter(pred0.copy())
    loss = binary_cross_entropy(target, pred) * upstream
    backward(loss)

    # the node's gradient as it was when it kept the clamped copy
    q = np.clip(pred0, 1e-7, 1.0 - 1e-7)
    inside = (pred0 >= 1e-7) & (pred0 <= 1.0 - 1e-7)
    g = np.ones(()) * np.asarray(upstream)
    expected = g * inside * ((q - target) / (q * (1.0 - q)))
    # a leaf's gradient accumulates into zeros, which turns -0 into +0
    assert _same_bits(pred.grad, np.zeros_like(pred0) + expected)
    assert loss.value == -(target * np.log(q) + (1.0 - target) * np.log1p(-q)).sum() * upstream


def test_a_consumed_loss_raises_on_a_second_backward():
    x = Parameter(np.array([1.0, 2.0]))
    hidden = (x * 3.0).log()
    loss = hidden.sum()
    backward(loss)
    kept = x.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        backward(loss)
    # an expression built on a consumed node cannot reach x either
    with pytest.raises(RuntimeError, match="consumed"):
        backward((hidden * 2.0).sum())
    assert np.array_equal(x.grad, kept)
    # a freshly built loss still works, and adds up as before
    backward((x * 3.0).log().sum())
    assert np.array_equal(x.grad, 2.0 * kept)


def test_backward_frees_an_intermediate_before_it_returns():
    x = Parameter(np.ones((3, 3)))
    freed_when_reached = []

    def probe(g):
        # runs after ``mid`` has passed its gradient on
        freed_when_reached.append(mid_ref() is None)
        return ((x, g),)

    first = _record(Tensor(x.value * 1.0), (x,), probe)
    mid = first * 2.0
    mid_ref = weakref.ref(mid)
    loss = (mid * 3.0).sum()
    del first, mid
    gc.collect()
    gc.disable()
    try:
        backward(loss)
    finally:
        gc.enable()
    assert freed_when_reached == [True]
    assert np.array_equal(x.grad, np.full((3, 3), 6.0))


def _unfused_entropy(p):
    """``bernoulli_entropy`` as one node over whole-array temporaries, the
    form its one-buffer passes replace."""
    a = _wrap(p)
    v = a.value
    out = Tensor(-(v * np.log(v) + (1.0 - v) * np.log1p(-v)).sum())
    return _record(out, (a,), lambda g: ((a, g * (np.log1p(-v) - np.log(v))),))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.sampled_from([(), (1,), (5,), (3, 4), (7, 7)]),
    st.sampled_from([1, 5, 1 << 16]), st.sampled_from([1.0, -0.75]),
    st.sampled_from(["none", "before", "after"]),
)
@example(0, (7, 7), 5, 1.0, "after")
@example(0, (), 1, -0.75, "before")
def test_entropy_node_matches_the_unfused_node_bit_for_bit(
    seed, shape, block, upstream, other
):
    # block: entries per row block of the second term; other: where p's
    # second consumer is summed
    rng = np.random.default_rng(seed)
    p0 = rng.uniform(1e-12, 1.0 - 1e-12, size=shape)
    flat = np.reshape(p0, -1)
    flat[rng.random(flat.size) < 0.3] = rng.choice([1e-12, 0.5, 1.0 - 1e-12])

    def run(entropy):
        p = Parameter(p0.copy())
        loss = entropy(p) * upstream
        if other == "before":
            loss = (p * p).sum() + loss
        elif other == "after":
            loss = loss + (p * p).sum()
        backward(loss)
        return loss.value, p.grad

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor, "_BLOCK_ENTRIES", block)
        fused = run(bernoulli_entropy)
    unfused = run(_unfused_entropy)
    assert all(_same_bits(a, b) for a, b in zip(fused, unfused))


def _allocating_backward(loss):
    """``backward`` as a walk that makes a new array for every sum of two
    contributions, handed over or not, and takes each gradient function's
    pairs as a list: the oracle for the walk that adds in place."""
    order, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited and _tracked(parent):
                stack.append((parent, False))
    grads = {id(loss): np.ones((), dtype=np.float64)}
    while order:
        node = order.pop()
        grad_fn = node._grad_fn
        if grad_fn is not None:
            node._grad_fn = _consumed
            node._parents = ()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad += g
        if grad_fn is None:
            continue
        for parent, pg, *_ in list(grad_fn(g)):
            if _tracked(parent):
                held = grads.get(id(parent))
                grads[id(parent)] = pg if held is None else held + pg


def _shared_add(x, y):
    # add hands one g to both parents, and each parent has more consumers
    a, b = x * 1.5, y * 0.5
    s = a + b
    return (s * s).sum() + (a * 3.0).sum() + (b * b).sum() + (a - b).sum()


def _many_consumers(x, y):
    # x feeds five nodes, and the leaves are also consumed directly
    h = x * y
    return (h + x).sum() + (x * x).sum() + (x / (y * y + 1.0)).sum() + x.sum() + (
        h.sigmoid() - x
    ).sum() + y.sum()


NAMED_GRAPHS = {
    "scalar chain": ((), lambda x, y: (x * x * 3.0 + x).sum()),
    "scalar fan-in": ((), lambda x, y: x * y + x * x + (x + y) * 2.0 + x),
    "x * x": ((3,), lambda x, y: (x * x).sum()),
    "add hands one g to both parents": ((2, 3), _shared_add),
    "five consumers and direct leaves": ((2, 3), _many_consumers),
    "x + x": ((4,), lambda x, y: ((x + x) * y).sum() + (x + x).sum()),
}


@pytest.mark.parametrize("shape, build", NAMED_GRAPHS.values(), ids=NAMED_GRAPHS)
def test_in_place_accumulation_matches_an_allocating_walk(shape, build):
    rng = np.random.default_rng(23)
    x0, y0 = rng.uniform(0.5, 1.5, size=(2, *shape))

    def run(walk):
        x, y = Parameter(x0.copy()), Parameter(y0.copy())
        walk(build(x, y))
        return x.grad, y.grad

    assert all(
        _same_bits(a, b) for a, b in zip(run(backward), run(_allocating_backward))
    )


_PROGRAM_OPS = (
    "add", "sub", "mul", "div", "rsub", "sigmoid", "scale", "rowsum", "matmul",
)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([(), (3,), (2, 3)]),
    st.lists(
        st.tuples(st.sampled_from(_PROGRAM_OPS), st.integers(0, 99), st.integers(0, 99)),
        min_size=1, max_size=10,
    ),
    st.lists(st.integers(0, 99), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_random_programs_match_an_allocating_walk(shape, program, outputs, seed):
    """Leaves x, y and z, then each op reads any earlier node (the same one
    twice too); the loss sums a few nodes.  Both walks must give every leaf
    the same bits."""
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.5, 1.5, size=(3, *shape))

    def run(walk):
        leaves = [Parameter(v.copy()) for v in starts]
        nodes = list(leaves)
        for op, i, j in program:
            a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
            if op == "add":
                nodes.append(a + b)
            elif op == "sub":
                nodes.append(a - b)
            elif op == "mul":
                nodes.append(a * b)
            elif op == "div":
                nodes.append(a / (b * b + 1.0))
            elif op == "rsub":
                nodes.append(1.0 - a)
            elif op == "sigmoid":
                nodes.append(a.sigmoid())
            elif op == "scale":
                nodes.append(a * 0.3)
            elif op == "rowsum" and shape:
                nodes.append(a + b.sum(axis=0, keepdims=True))
            elif op == "matmul" and len(shape) == 2:
                # its pairs are handed over to the walk
                nodes.append(a @ (b.T @ b) * 0.1)
        loss = None
        for k in outputs:
            term = nodes[k % len(nodes)].sum()
            loss = term if loss is None else loss + term
        walk(loss)
        return [p.grad for p in leaves]

    assert all(
        _same_bits(a, b) for a, b in zip(run(backward), run(_allocating_backward))
    )


def test_backward_never_writes_into_an_array_a_gradient_function_hands_it():
    x = Parameter(np.ones(3))
    handed = np.full(3, 2.0)
    a = _record(Tensor(x.value * 1.0), (x,), lambda g: ((x, handed),))
    b = _record(Tensor(x.value * 1.0), (x,), lambda g: ((x, handed),))
    # x gets handed three times, so the walk sums into one array of its own
    backward(a.sum() + b.sum() + (x * 1.0).sum() * 0.0)
    assert np.array_equal(handed, np.full(3, 2.0))
    assert np.array_equal(x.grad, np.full(3, 4.0))


def test_backward_adds_into_an_array_handed_over_and_no_other():
    x = Parameter(np.ones(3))
    handed, kept = np.full(3, 2.0), np.full(3, 5.0)
    first = _record(Tensor(x.value * 1.0), (x,), lambda g: ((x, handed, True),))
    second = _record(Tensor(x.value * 1.0), (x,), lambda g: ((x, kept),))
    backward(first.sum() + second.sum())
    # x's running sum is the handed array; the kept one is only read
    assert np.array_equal(handed, np.full(3, 7.0))
    assert np.array_equal(kept, np.full(3, 5.0))
    assert np.array_equal(x.grad, np.full(3, 7.0))


def test_backward_drops_each_pair_before_the_next_is_made():
    x = Parameter(np.ones((2, 2)))
    constant = Tensor(np.ones((2, 2)))
    seen = []

    def grad_fn(g):
        first = np.ones((2, 2))
        seen.append(weakref.ref(first))
        # the constant is untracked, so the walk drops this pair unread
        yield constant, first
        del first
        seen.append(seen[0]() is None)
        yield x, g

    node = _record(Tensor(x.value * 1.0), (x, constant), grad_fn)
    backward(node.sum())
    assert seen[1] is True
    assert np.array_equal(x.grad, np.ones((2, 2)))
