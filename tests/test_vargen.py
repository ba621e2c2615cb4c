"""Edge prior, posterior sampling, and the bound-driven losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgc.graph import Graph
from mvgc.nncore import Parameter, Tensor, binary_cross_entropy, grad_check
from mvgc.vargen import (
    PosteriorNet,
    compute_prior_beta,
    consensus_entropy,
    decode_adjacency,
    elbo_loss,
    infer_posterior,
    kl_upper_bound,
    logistic_noise,
    normalize_consensus,
    sample_consensus,
    view_prior_cross_entropy,
)


def graph_pair(n=6, seed=0, density=0.4):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        upper = np.triu(rng.random((n, n)) < density, k=1).astype(np.float64)
        out.append(Graph(upper + upper.T))
    return out


def test_prior_of_unanimous_edge_is_one():
    g = Graph(np.ones((3, 3)))
    prior = compute_prior_beta([g, g], beliefs=(1.0, 1.0))
    assert np.allclose(prior, 1.0)


def test_prior_of_unanimous_non_edge_hits_the_floor():
    g = Graph(np.zeros((3, 3)))
    prior = compute_prior_beta([g, g], beliefs=(1.0, 1.0))
    assert np.allclose(prior, 1e-6)


def test_prior_of_split_vote_is_half():
    g1 = Graph(np.ones((2, 2)))
    g0 = Graph(np.zeros((2, 2)))
    prior = compute_prior_beta([g1, g0], beliefs=(1.0, 1.0))
    assert np.allclose(prior, 0.5)


def test_prior_weighting_follows_beliefs():
    g1 = Graph(np.ones((2, 2)))
    g0 = Graph(np.zeros((2, 2)))
    prior = compute_prior_beta([g1, g0], beliefs=(0.8, 0.9))
    # edge vote 0.8 plus non-edge vote 1 - 0.9, normalized by 1.7
    assert np.allclose(prior, 0.9 / 1.7)


def test_prior_validates_inputs():
    g, _ = graph_pair()
    with pytest.raises(ValueError):
        compute_prior_beta([], beliefs=())
    with pytest.raises(ValueError):
        compute_prior_beta([g], beliefs=(0.5, 0.5))
    with pytest.raises(ValueError):
        compute_prior_beta([g], beliefs=(0.0,))
    with pytest.raises(ValueError):
        compute_prior_beta([g, Graph(np.zeros((2, 2)))], beliefs=(1.0, 1.0))


def test_kl_upper_bound_is_sum_of_log_inverse_beta():
    graphs = graph_pair(seed=3)
    prior = compute_prior_beta(graphs, beliefs=(0.9, 0.7))
    assert kl_upper_bound(prior) == pytest.approx(np.log(1.0 / prior).sum())


def test_eval_sample_is_the_noise_free_sigmoid():
    alpha = np.random.default_rng(0).normal(size=(5, 5))
    sample = sample_consensus(Tensor(alpha), tau=5.0)
    assert np.allclose(sample.value, 1.0 / (1.0 + np.exp(-alpha / 5.0)))


def test_train_sample_replays_a_fixed_noise_matrix():
    alpha = np.random.default_rng(1).normal(size=(4, 4))
    noise = np.random.default_rng(2).logistic(size=(4, 4))
    first = sample_consensus(Tensor(alpha), tau=2.0, noise=noise)
    second = sample_consensus(Tensor(alpha), tau=2.0, noise=noise)
    assert np.array_equal(first.value, second.value)
    assert np.allclose(
        first.value, 1.0 / (1.0 + np.exp(-(alpha + noise) / 2.0))
    )


def test_sample_consensus_validates_arguments():
    with pytest.raises(ValueError):
        sample_consensus(Tensor(np.zeros((2, 2))), tau=0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.floats(0.1, 100.0))
def test_relaxed_sample_stays_strictly_inside_unit_interval(seed, tau):
    rng = np.random.default_rng(seed)
    alpha = Tensor(rng.normal(scale=10.0, size=(6, 6)))
    s = sample_consensus(alpha, tau, logistic_noise(rng, (6, 6))).value
    assert np.all(np.isfinite(s))
    assert (s > 0.0).all() and (s < 1.0).all()


def test_larger_temperature_shrinks_sample_spread():
    alpha = Tensor(np.random.default_rng(4).normal(size=(30, 30)))
    spreads = []
    for tau in (0.5, 5.0, 50.0):
        draws = [
            sample_consensus(
                alpha, tau, logistic_noise(np.random.default_rng(i), (30, 30))
            ).value
            for i in range(40)
        ]
        spreads.append(np.var(np.stack(draws)))
    assert spreads[0] > spreads[1] > spreads[2]


def test_normalize_consensus_rows_sum_to_one():
    alpha = Tensor(np.random.default_rng(5).normal(size=(4, 4)))
    s_norm = normalize_consensus(sample_consensus(alpha, 5.0))
    assert np.allclose(s_norm.value.sum(axis=1), 1.0)


def test_infer_posterior_is_consistent_with_its_embeddings():
    net = PosteriorNet.create(d_in=7, hidden=6, dropout=0.0, seed=0)
    x = np.random.default_rng(6).uniform(size=(5, 7))
    post = infer_posterior(x, net)
    assert np.allclose(post.q_embed.value, post.k_embed.value @ net.w.value)
    assert np.allclose(post.alpha.value, post.k_embed.value @ post.q_embed.value.T)


def test_decode_adjacency_is_symmetric_sigmoid_gram():
    z = Tensor(np.random.default_rng(7).normal(size=(5, 3)))
    decoded = decode_adjacency(z).value
    assert np.allclose(decoded, decoded.T)
    assert np.allclose(decoded, 1.0 / (1.0 + np.exp(-z.value @ z.value.T)))


def test_elbo_composes_reconstruction_entropy_and_bound():
    graphs = graph_pair(seed=8)
    prior = compute_prior_beta(graphs, beliefs=(1.0, 1.0))
    z = Tensor(np.random.default_rng(9).normal(size=(6, 3)))
    sample = sample_consensus(
        Tensor(np.random.default_rng(10).normal(size=(6, 6))), 5.0
    )
    decoded = [decode_adjacency(z) for _ in graphs]

    got = elbo_loss(graphs, decoded, sample, kl_upper_bound(prior)).value
    manual = (
        -sum(binary_cross_entropy(g.adj, d).value for g, d in zip(graphs, decoded))
        + consensus_entropy(sample).value
        - kl_upper_bound(prior)
    )
    assert got == pytest.approx(manual)


def test_elbo_rejects_mismatched_decodings():
    graphs = graph_pair(seed=11)
    prior = compute_prior_beta(graphs, beliefs=(1.0, 1.0))
    sample = sample_consensus(Tensor(np.zeros((6, 6))), 5.0)
    with pytest.raises(ValueError):
        elbo_loss(
            graphs, [decode_adjacency(Tensor(np.zeros((6, 2))))], sample,
            kl_upper_bound(prior),
        )


def test_elbo_gradient_reaches_the_posterior_logits():
    graphs = graph_pair(seed=12)
    prior = compute_prior_beta(graphs, beliefs=(1.0, 1.0))
    alpha = Parameter(np.random.default_rng(13).normal(size=(6, 6)))
    z = Parameter(np.random.default_rng(14).normal(scale=0.3, size=(6, 3)))

    def loss_fn():
        sample = sample_consensus(alpha, 5.0)
        return elbo_loss(
            graphs, [decode_adjacency(z)] * 2, sample, kl_upper_bound(prior)
        )

    # h large enough that float64 cancellation stays well under the bound
    assert grad_check(loss_fn, [alpha, z], h=1e-4, max_entries=24) < 1e-5


def test_view_cross_entropy_drops_as_the_view_is_believed_more():
    graphs = graph_pair(n=10, seed=15)
    # two pinned companion views keep the prior slice valid at low belief
    values = [
        view_prior_cross_entropy(graphs[0], (bv, 0.5, 0.5), view=0)
        for bv in np.arange(0.1, 0.95, 0.1)
    ]
    assert all(later < earlier for earlier, later in zip(values, values[1:]))


def test_view_cross_entropy_rejects_a_degenerate_slice():
    graphs = graph_pair(n=10, seed=15)
    with pytest.raises(ValueError, match="degenerates"):
        view_prior_cross_entropy(graphs[0], (0.1, 0.5), view=0)


def test_view_cross_entropy_matches_entrywise_prior_slice():
    g = graph_pair(n=5, seed=16)[0]
    beliefs = (0.7, 0.6, 0.9)
    total = sum(beliefs)
    bv = beliefs[1]
    beta_edge = bv / total
    beta_non_edge = (bv - 1.0 + total) / total
    edges = g.adj.sum()
    manual = -(edges * np.log(beta_edge) + (g.n**2 - edges) * np.log(beta_non_edge))
    assert view_prior_cross_entropy(g, beliefs, view=1) == pytest.approx(manual)
