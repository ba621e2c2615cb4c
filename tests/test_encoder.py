"""Message passing and the per-view encoder/decoder pair."""

import numpy as np
import pytest

from mvgc.encoder import (
    ViewEncoder,
    encode_view,
    message_pass,
    reconstruction_loss,
    reconstruction_loss_global,
)
from mvgc.graph import Graph, add_self_loops, row_normalize
from mvgc.nncore import MLP, Tensor, binary_cross_entropy, concat


def ring_norm(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = 1.0
        adj[i, (i - 1) % n] = 1.0
    return row_normalize(add_self_loops(Graph(adj)))


def tilted_norm(n):
    """A dense row-stochastic consensus that weighs each node's self-edge
    three times each of its other entries."""
    weights = np.eye(n) + 0.5
    return weights / weights.sum(axis=1, keepdims=True)


def test_message_pass_order_zero_doubles_the_features():
    x = np.random.default_rng(0).uniform(size=(6, 3))
    out = message_pass(Tensor(x), ring_norm(6), order=0)
    assert np.allclose(out.value, 2.0 * x)


def test_message_pass_matches_unrolled_powers():
    x = np.random.default_rng(1).uniform(size=(6, 3))
    a = ring_norm(6)
    out = message_pass(Tensor(x), ring_norm(6), order=3)
    manual = 2.0 * x + a @ x + a @ a @ x + a @ a @ a @ x
    assert np.allclose(out.value, manual)


def test_message_pass_keeps_shape_across_orders():
    x = Tensor(np.random.default_rng(2).uniform(size=(5, 4)))
    for order in range(4):
        assert message_pass(x, ring_norm(5), order).value.shape == (5, 4)


def test_message_pass_validates_inputs():
    x = Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        message_pass(x, ring_norm(5), order=1)
    with pytest.raises(ValueError):
        message_pass(x, ring_norm(4), order=-1)


def test_encode_view_shape_and_determinism():
    n, d_v, embed = 7, 4, 3
    x = np.random.default_rng(3).uniform(size=(n, d_v))
    enc = ViewEncoder.create(d_v=d_v, hidden=8, embed_dim=embed, seed=0)
    specific = message_pass(x, ring_norm(n), 2).value
    s_norm = Tensor(np.full((n, n), 1.0 / n))
    z1 = encode_view(x, specific, s_norm, enc, order=2)
    z2 = encode_view(x, specific, s_norm, enc, order=2)
    assert z1.value.shape == (n, embed)
    assert np.array_equal(z1.value, z2.value)


def test_encode_view_compresses_both_graph_routes_through_f():
    n, d_v = 6, 3
    x = np.random.default_rng(8).uniform(size=(n, d_v))
    enc = ViewEncoder.create(d_v=d_v, hidden=8, embed_dim=4, seed=5)
    s_norm = Tensor(tilted_norm(n))
    specific = message_pass(x, ring_norm(n), 2).value
    both = concat([specific, message_pass(x, s_norm, 2)])
    expected = enc.f(both).value
    assert np.array_equal(
        encode_view(x, specific, s_norm, enc, order=2).value, expected
    )


def test_encode_view_feeds_both_graph_routes():
    n, d_v = 6, 3
    x = np.random.default_rng(4).uniform(size=(n, d_v))
    enc = ViewEncoder.create(d_v=d_v, hidden=8, embed_dim=4, seed=1)
    specific = message_pass(x, ring_norm(n), 2).value
    uniform = Tensor(np.full((n, n), 1.0 / n))
    tilted = Tensor(tilted_norm(n))
    z_uniform = encode_view(x, specific, uniform, enc, order=2)
    z_tilted = encode_view(x, specific, tilted, enc, order=2)
    # a different consensus graph must move the embedding
    assert not np.allclose(z_uniform.value, z_tilted.value)


def test_reconstruction_loss_is_bce_of_the_decoded_features():
    n, d_v = 5, 4
    x = np.random.default_rng(5).uniform(size=(n, d_v))
    enc = ViewEncoder.create(d_v=d_v, hidden=8, embed_dim=3, seed=2)
    specific = message_pass(x, ring_norm(n), 1).value
    z = encode_view(x, specific, Tensor(np.full((n, n), 1.0 / n)), enc, order=1)
    decoded = enc.dec(z)
    assert reconstruction_loss(x, z, enc).value == pytest.approx(
        binary_cross_entropy(x, decoded).value
    )


def test_global_reconstruction_matches_manual_bce():
    dec = MLP.create((3, 6, 5), ("relu", "sigmoid"), seed=4)
    x_global = np.random.default_rng(6).uniform(size=(4, 5))
    q = Tensor(np.random.default_rng(7).normal(size=(4, 3)))
    decoded = dec(q)
    assert reconstruction_loss_global(x_global, q, dec).value == pytest.approx(
        binary_cross_entropy(x_global, decoded).value
    )
