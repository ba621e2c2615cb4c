"""Autodiff core: op gradients, MLP behavior, the optimizer."""

import gc

import numpy as np
import pytest

from mvgc.nncore import (
    MLPSpec,
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
    init_params,
    mlp_apply,
    no_grad,
    zero_grads,
)
from mvgc.nncore.tensor import tensor_sum


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
        mixed = concat([h * c, (h - c).relu()], axis=1)
        return (mixed * mixed).sum() + h.log().sum()

    assert grad_check(loss_fn, [a, b, c], h=1e-6, max_entries=64) < 1e-7


def test_elementwise_ops_pass_finite_differences():
    rng = np.random.default_rng(5)
    x = Parameter(rng.uniform(0.3, 0.9, size=(6,)))
    y = Parameter(rng.uniform(0.3, 0.9, size=(6,)))

    def loss_fn():
        out = (x / y) - (-x) + x.exp() + (y**2.0)
        return (out.clip(0.1, 50.0)).sum()

    assert grad_check(loss_fn, [x, y], h=1e-6, max_entries=12) < 1e-8


def test_transpose_and_axis_sum_gradients():
    rng = np.random.default_rng(11)
    w = Parameter(rng.normal(size=(3, 4)))

    def loss_fn():
        col_totals = tensor_sum(w.T @ w, axis=0, keepdims=True)
        return tensor_sum(col_totals)

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
    backward((x * x).sum())
    backward((x * x).sum())
    assert x.grad == pytest.approx(8.0)
    zero_grads([x])
    assert x.grad is None or x.grad == 0.0


def test_ndarray_on_the_left_still_builds_a_tensor():
    x = Parameter(np.ones((2, 2)))
    left = np.full((2, 2), 3.0)
    for combined in (left * x, left + x, left @ x, left - x):
        assert isinstance(combined, Tensor)
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
    spec = MLPSpec(layer_dims=(3, 4, 2), activations=("relu", "sigmoid"))
    params = init_params(spec, seed=0)
    x = np.random.default_rng(1).normal(size=(5, 3))
    out = mlp_apply(params, spec, x).value

    w1, b1, w2, b2 = (p.value for p in params)
    hidden = np.maximum(x @ w1 + b1, 0.0)
    manual = 1.0 / (1.0 + np.exp(-(hidden @ w2 + b2)))
    assert np.allclose(out, manual)


def test_mlp_dropout_runs_only_with_an_rng():
    spec = MLPSpec(layer_dims=(3, 4), activations=("none",), dropout_rate=0.5)
    params = init_params(spec, seed=2)
    x = np.random.default_rng(3).normal(size=(6, 3))
    plain = x @ params[0].value + params[1].value
    assert np.array_equal(mlp_apply(params, spec, x).value, plain)
    dropped = mlp_apply(params, spec, x, rng=np.random.default_rng(4)).value
    expected = dropout(Tensor(plain), 0.5, np.random.default_rng(4)).value
    assert np.array_equal(dropped, expected)
    assert (dropped == 0.0).any()


def test_mlp_init_is_deterministic_per_seed():
    spec = MLPSpec(layer_dims=(6, 8, 4), activations=("relu", "none"))
    first = init_params(spec, seed=9)
    second = init_params(spec, seed=9)
    other = init_params(spec, seed=10)
    assert all(np.array_equal(a.value, b.value) for a, b in zip(first, second))
    assert any(not np.array_equal(a.value, b.value) for a, b in zip(first, other))


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
        p.grad = g.copy()
        adam_step(state)
    assert np.allclose(p.value, _naive_adam(start, grads), atol=1e-12)


def test_adam_descends_a_quadratic():
    p = Parameter(np.array([5.0, -3.0]))
    state = OptimizerState([p], lr=0.05)
    for _ in range(400):
        zero_grads([p])
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
        h = concat([(w @ w.T).sigmoid(), (w * 0.5).exp() @ w.T], axis=1)
        h = (h.relu() + 1.0 - w.sum() / 3.0) ** 2.0
        p = (h.clip(0.1, 5.0) / 6.0).log().exp() @ np.full((8, 4), 0.125)
        loss = binary_cross_entropy(target, p) + bernoulli_entropy(p)
        loss = loss - (-p.T).sum()
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
