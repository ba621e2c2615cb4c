"""Variational generator for the consensus graph.

The edge prior is a Bernoulli field whose parameters come from belief-weighted
agreement between the observed graphs.  The posterior puts a logit on every
node pair via an attention-style product of global-feature embeddings, and is
sampled through the binary-concrete relaxation so gradients reach the
posterior net.  The ELBO combines per-view adjacency reconstruction, the
entropy of the relaxed sample, and a closed-form upper bound on the KL term.
"""

from dataclasses import dataclass

import numpy as np

from .nncore import (
    MLPSpec,
    Parameter,
    Tensor,
    bernoulli_entropy,
    binary_cross_entropy,
    init_params,
    mlp_apply,
)


@dataclass(frozen=True)
class PosteriorLogits:
    """Pairwise edge logits alpha = K Q^T with the embeddings that built them."""

    alpha: Tensor
    k_embed: Tensor
    q_embed: Tensor


class PosteriorNet:
    """Posterior over the consensus graph: an MLP on global features plus the
    square mixing matrix that produces the query embedding."""

    def __init__(self, spec, params, w):
        self.spec = spec
        self.params = params
        self.w = w

    @classmethod
    def create(cls, d_in, hidden, dropout=0.1, seed=0):
        spec = MLPSpec(
            layer_dims=(d_in, hidden, hidden),
            activations=("relu", "none"),
            dropout_rate=dropout,
            init_scheme="xavier",
        )
        mlp_seed, w_seed = np.random.SeedSequence(seed).spawn(2)
        params = init_params(spec, mlp_seed)
        bound = np.sqrt(6.0 / (hidden + hidden))
        w = Parameter(
            np.random.default_rng(w_seed).uniform(-bound, bound, (hidden, hidden))
        )
        return cls(spec, params, w)

    def parameters(self):
        return [*self.params, self.w]


def compute_prior_beta(graphs, beliefs, eps=1e-6):
    """Belief-weighted edge prior over all node pairs.

    Each view votes b^v for the states it observed and 1-b^v against; the
    normalized vote can exceed 1 when beliefs are small and edges absent, so
    the result is clamped into [eps, 1] to stay a valid Bernoulli parameter.
    Returns the n x n array of clamped probabilities.
    """
    if not graphs:
        raise ValueError("need at least one graph")
    if len(beliefs) != len(graphs):
        raise ValueError(f"{len(graphs)} graphs but {len(beliefs)} beliefs")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("graphs disagree on node count")
    b = np.asarray(beliefs, dtype=np.float64)
    if (b <= 0).any() or (b > 1).any():
        raise ValueError("beliefs must lie in (0, 1]")
    total = b.sum()
    if total == 0.0:
        raise ValueError("all beliefs are zero")
    votes = np.zeros((n, n))
    for g, bv in zip(graphs, b):
        votes += bv * g.adj + (1.0 - bv) * (1.0 - g.adj)
    return np.clip(votes / total, eps, 1.0)


def infer_posterior(x_global, net, rng=None):
    """K = f'(global features), Q = K W, alpha = K Q^T.  Dropout masks in
    f' come from ``rng``; without one the pass is deterministic."""
    k = mlp_apply(net.params, net.spec, x_global, rng=rng)
    q = k @ net.w
    alpha = k @ q.T
    return PosteriorLogits(alpha=alpha, k_embed=k, q_embed=q)


def logistic_noise(rng, shape):
    """Standard logistic draw log(U) - log(1-U), U ~ Uniform(0,1) clipped off
    exact 0 and 1 so both logs stay finite."""
    u = np.clip(rng.random(shape), 1e-12, 1.0 - 1e-12)
    return np.log(u) - np.log1p(-u)


def sample_consensus(alpha, tau, noise=None):
    """Relaxed edge weights sigmoid((alpha + noise) / tau) from the
    binary-concrete posterior over the logits ``alpha``.

    ``noise`` is a logistic draw (``logistic_noise``); without it the sample
    sits at the distribution median (U = 0.5) and is deterministic.  Outputs
    are nudged off exact 0/1 so downstream logs stay finite.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if noise is not None:
        alpha = alpha + noise
    return (alpha / tau).sigmoid().clip(1e-12, 1.0 - 1e-12)


def normalize_consensus(s):
    """Row-normalize the relaxed sample so it can drive message passing."""
    return s / s.sum(axis=1, keepdims=True)


def kl_upper_bound(beta):
    """Sum of log(1/beta) over all pairs of the prior ``beta``: the
    closed-form bound on the KL divergence from posterior to prior."""
    return float(-np.log(beta).sum())


def consensus_entropy(s):
    """Summed Bernoulli entropy of the relaxed weights."""
    return bernoulli_entropy(s)


def decode_adjacency(z):
    """Reconstruct an adjacency as sigmoid(Z Z^T); symmetric by construction."""
    return (z @ z.T).sigmoid()


def elbo_loss(graphs, decoded, s, kl_bound):
    """Evidence lower bound: reconstruction likelihood of every observed
    graph, plus sample entropy, minus the KL bound.  Training maximizes this,
    so it enters the total objective with a negative weight.

    ``s`` is the relaxed consensus sample.  ``kl_bound`` is the float
    ``kl_upper_bound(beta)``: it depends only on the graphs and beliefs, not
    on any parameter, so the caller computes it once per belief update."""
    if len(decoded) != len(graphs):
        raise ValueError(f"{len(graphs)} graphs but {len(decoded)} decodings")
    likelihood = 0.0
    for g, a_hat in zip(graphs, decoded):
        likelihood = likelihood - binary_cross_entropy(g.adj, a_hat)
    return likelihood + consensus_entropy(s) - kl_bound


def view_prior_cross_entropy(graph, beliefs, view):
    """Cross-entropy between one view's adjacency and its slice of the edge
    prior.

    Edges present in the view contribute log(sum_b / b^v) and absent ones
    log(sum_b / (b^v - 1 + sum_b)); the total strictly decreases as the
    view's belief grows, which is how belief encodes task relevance.
    """
    b = np.asarray(beliefs, dtype=np.float64)
    if (b <= 0).any() or (b > 1).any():
        raise ValueError("beliefs must lie in (0, 1]")
    total = b.sum()
    bv = b[view]
    if bv - 1.0 + total <= 0.0:
        raise ValueError(
            "prior slice degenerates: belief mass outside the view is too small"
        )
    n_sq = graph.n ** 2
    edges = graph.adj.sum()
    return float(
        n_sq * np.log(total)
        - edges * np.log(bv)
        - (n_sq - edges) * np.log(bv - 1.0 + total)
    )
