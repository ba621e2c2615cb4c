"""Variational generator for the consensus graph.

The edge prior is a Bernoulli field whose parameters come from belief-weighted
agreement between the observed graphs.  The posterior puts a logit on every
node pair via an attention-style product of global-feature embeddings, and is
sampled through the binary-concrete relaxation so gradients reach the
posterior net.  The ELBO combines per-view adjacency likelihoods (each view's
decoder logits, ``decode_adjacency``, scored by ``adjacency_nll``), the
entropy of the relaxed sample, and a closed-form upper bound on the KL term.

Two of those terms are constants of every default fit, and are formed
without an n x n array:

- ``decoder_certified`` proves in O(n d), from the embedding alone, that
  every logit of Z Z^T is positive and beyond the BCE clamp.  The view's
  likelihood is then ``decided_nll``: the edge and non-edge terms times
  their counts, with no logits and no tape node.  Otherwise the logits are
  decoded and ``adjacency_nll`` scores them: the plain sigmoid -> BCE chain,
  or the same two terms summed over an n x n array when every logit is
  decided and positive.
- The prior ``compute_prior_beta`` takes one value per edge pattern (which
  views hold the pair), so the KL bound is ``pattern_kl_bound``: a sum over
  the 2^V patterns of the fit-constant ``edge_pattern_counts`` times
  -log(prior).  ``compute_prior_beta`` and ``kl_upper_bound`` form the same
  bound from the n x n prior; they are its reference.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .nncore import (
    MLP,
    Parameter,
    Tensor,
    bernoulli_entropy,
    binary_cross_entropy,
    xavier_uniform,
)
from .nncore.tensor import (
    BCE_CLAMP, _bce_terms, _record, _row_blocks, _tracked, _unbroadcast, _wrap,
)

# the relaxed sample is nudged this far off exact 0 and 1
_SAMPLE_FLOOR = 1e-12
# the edge prior is clamped this far above 0, so that its log stays finite
_PRIOR_FLOOR = 1e-6


@dataclass
class PosteriorNet:
    """Posterior over the consensus graph: an MLP on global features plus the
    square mixing matrix that produces the query embedding."""

    mlp: MLP
    w: Parameter

    @classmethod
    def create(cls, d_in, hidden, dropout=0.1, seed=0):
        mlp_seed, w_seed = np.random.SeedSequence(seed).spawn(2)
        return cls(
            mlp=MLP.create(
                (d_in, hidden, hidden), ("relu", "none"), mlp_seed,
                dropout=dropout,
            ),
            w=Parameter(
                xavier_uniform(np.random.default_rng(w_seed), hidden, hidden)
            ),
        )

    def parameters(self):
        return [*self.mlp.params, self.w]


def _belief_array(beliefs):
    """``beliefs`` as a float64 array; ``ValueError`` unless each lies in
    (0, 1], which a NaN does not."""
    b = np.asarray(beliefs, dtype=np.float64)
    if not ((b > 0) & (b <= 1)).all():
        raise ValueError("beliefs must lie in (0, 1]")
    return b


def compute_prior_beta(graphs, beliefs):
    """Belief-weighted edge prior over all node pairs.

    Each view votes b^v for the states it observed and 1-b^v against; the
    normalized vote can exceed 1 when beliefs are small and edges absent, so
    the result is clamped into [1e-6, 1] to stay a valid Bernoulli parameter.
    Returns the n x n array of clamped probabilities.

    Each view's vote is densified for as long as it is added: an array of
    1 - b^v with b^v set on the view's edges.  A fit takes its KL bound from
    ``pattern_kl_bound`` instead, which forms the same values one per edge
    pattern; this n x n form is its reference in the tests and in ``mvgc
    verify theorem1``.
    """
    if not graphs:
        raise ValueError("need at least one graph")
    if len(beliefs) != len(graphs):
        raise ValueError(f"{len(graphs)} graphs but {len(beliefs)} beliefs")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("graphs disagree on node count")
    b = _belief_array(beliefs)

    def vote(g, bv):
        dense = np.full((n, n), 1.0 - bv)
        dense.reshape(-1)[np.ravel_multi_index(g.edges(), (n, n))] = bv
        return dense

    votes = vote(graphs[0], b[0])
    for g, bv in zip(graphs[1:], b[1:]):
        votes += vote(g, bv)
    votes /= b.sum()
    return np.clip(votes, _PRIOR_FLOOR, 1.0, out=votes)


def infer_posterior(x_global, net, rng=None):
    """The key and query embeddings (K, Q): K = f'(global features) and
    Q = K W.  The posterior's pairwise edge logits alpha = K Q^T are formed
    by ``sample_consensus``.  Dropout masks in f' come from ``rng``; without
    one the pass is deterministic."""
    k = net.mlp(x_global, rng=rng)
    return k, k @ net.w


def sample_consensus(k, q, tau, rng=None):
    """Relaxed edge weights sigmoid((alpha + noise) / tau) from the
    binary-concrete posterior over the logits alpha = K Q^T, for the
    posterior's embeddings ``k`` and ``q``.  A caller holding bare logits
    passes K = alpha and Q = I, which reproduces alpha bit for bit.

    With ``rng`` the noise is the standard logistic log(U) - log(1 - U),
    for U ~ Uniform(0, 1) from ``rng.random`` clipped off exact 0 and 1 so
    both logs stay finite.  U is drawn a row block at a time, which takes
    the same values from the stream as one n x n draw, and each block's
    noise is added into the sample's buffer, so no n x n noise array
    exists.  Without ``rng`` the sample sits at the distribution median
    (U = 0.5) and is deterministic.  Outputs are nudged off exact 0/1 so
    downstream logs stay finite.

    One tape node, computed in place on one n x n array: alpha is formed in
    the buffer that becomes the sample, so neither alpha nor the noise
    reaches the tape.  The node keeps the clipped sample, the boolean mask
    of unclipped entries and a copy of Q^T.  Where the mask holds, the
    clipped value equals the sigmoid, so the gradient G of alpha reads the
    sigmoid derivative from the sample, op by op in one n x n buffer (1 - S
    a row block at a time).  K and Q get G Q and (K^T G)^T as two pairs in
    that order, as the matmul and transpose nodes of K @ Q.T return them, so
    they round exactly as those nodes do.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    k, q = _wrap(k), _wrap(q)
    qt = q.value.T.copy()
    s = k.value @ qt
    if rng is not None:
        for rows in _row_blocks(s.shape):
            # in place, in two block arrays: the plain formula's four
            # temporaries raised an n=1600 fit's peak RSS by 1.5 MB
            u = rng.random(s[rows].shape)
            np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
            rest = np.negative(u)
            np.log1p(rest, out=rest)
            np.log(u, out=u)
            u -= rest
            s[rows] += u
    s /= tau
    special.expit(s, out=s)
    tk, tq = _tracked(k), _tracked(q)
    if not (tk or tq):
        return Tensor(np.clip(s, _SAMPLE_FLOOR, 1.0 - _SAMPLE_FLOOR, out=s))
    inside = (s >= _SAMPLE_FLOOR) & (s <= 1.0 - _SAMPLE_FLOOR)
    np.clip(s, _SAMPLE_FLOOR, 1.0 - _SAMPLE_FLOOR, out=s)

    def grad_fn(g):
        g = g * inside
        g *= s
        for rows in _row_blocks(s.shape):
            g[rows] *= 1.0 - s[rows]
        g /= tau
        if tk:
            yield k, g @ qt.T, True
        if tq:
            yield q, (k.value.T @ g).T, True

    return _record(Tensor(s), (k, q), grad_fn)


def normalize_consensus(s):
    """Row-normalize the relaxed sample so it can drive message passing.

    One tape node, which keeps the sample and its row sums r; the sample
    node keeps the sample anyway.  For the gradient G of S / r, S gets G / r
    and then the row term, the row sums of -G S / r^2 spread back over each
    row, as the quotient and the row sum of the chain give them.  The row
    term is formed a row block at a time and handed on as a broadcast view,
    so the backward makes one n x n array, G / r.
    """
    s = _wrap(s)
    sv = s.value
    r = sv.sum(axis=1, keepdims=True)
    out = Tensor(sv / r)

    def grad_fn(g):
        g_r = np.empty_like(r)
        for rows in _row_blocks(sv.shape):
            g_r[rows] = _unbroadcast(
                -g[rows] * sv[rows] / (r[rows] * r[rows]), g_r[rows].shape
            )
        yield s, g / r, True
        yield s, np.broadcast_to(g_r, sv.shape)

    return _record(out, (s,), grad_fn)


def kl_upper_bound(beta):
    """Sum of log(1/beta) over all pairs of the prior ``beta``: the
    closed-form bound on the KL divergence from posterior to prior.  The
    n x n reference of ``pattern_kl_bound``."""
    return float(-np.log(beta).sum())


def edge_pattern_counts(graphs):
    """How many node pairs hold each edge pattern: entry p counts the pairs
    that are edges of exactly the views v with bit v of p set.  The counts
    depend on the graphs alone, so a fit forms them once.  Pattern 0, the
    pairs no view holds, is the remainder of n^2."""
    if not graphs:
        raise ValueError("need at least one graph")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("graphs disagree on node count")
    keys = np.concatenate(
        [np.ravel_multi_index(g.edges(), (n, n)) for g in graphs]
    )
    bits = np.repeat(1 << np.arange(len(graphs)), [g.adj.nnz for g in graphs])
    pairs, pair_of = np.unique(keys, return_inverse=True)
    # each view holds a pair at most once, so a pair's bits sum to its pattern
    patterns = np.bincount(pair_of, weights=bits, minlength=pairs.size)
    counts = np.bincount(patterns.astype(np.int64), minlength=1 << len(graphs))
    counts[0] = n * n - pairs.size
    return counts


def pattern_kl_bound(counts, beliefs):
    """``kl_upper_bound(compute_prior_beta(graphs, beliefs))`` from the
    graphs' ``edge_pattern_counts``, with no n x n array.

    Each pattern's prior is formed by the ops ``compute_prior_beta`` applies
    to every pair of that pattern, view by view in the same order, so it is
    the same value bit for bit.  The bound is the sum of count x -log(prior)
    over the 2^V patterns; it differs from the n x n sum only in rounding.
    """
    b = _belief_array(beliefs)
    counts = np.asarray(counts)
    if counts.shape != (1 << b.size,):
        raise ValueError(
            f"{counts.size} pattern counts but {b.size} beliefs"
        )
    held = (np.arange(counts.size)[:, None] >> np.arange(b.size)) & 1
    votes = np.where(held[:, 0], b[0], 1.0 - b[0])
    for v in range(1, b.size):
        votes += np.where(held[:, v], b[v], 1.0 - b[v])
    votes /= b.sum()
    beta = np.clip(votes, _PRIOR_FLOOR, 1.0)
    return float(-(counts @ np.log(beta)))


def decode_adjacency(z):
    """Decoder logits Z Z^T, symmetric by construction; the reconstructed
    adjacency is their sigmoid, which ``adjacency_nll`` applies.

    The plain product ``z @ z.T``: the transpose node keeps one copy of
    Z^T, and the matmul node hands Z and Z^T their gradients."""
    z = _wrap(z)
    return z @ z.T


# beyond this |logit| the sigmoid lies within clamp / e of 0 or 1, outside
# [clamp, 1 - clamp] by a margin that dwarfs expit's rounding, so the clip
# decides the entry
_DECIDED_LOGIT = float(special.logit(1.0 - BCE_CLAMP)) + 1.0
# the terms of an edge and of a non-edge at an infinite positive logit
_EDGE_TERM, _NON_EDGE_TERM = _bce_terms(
    np.array([1.0, 0.0]), special.expit(np.array([np.inf, np.inf]))
)


def adjacency_nll(graph, logits):
    """Summed BCE of a Graph's 0/1 adjacency under the decoder
    sigmoid(logits): ``binary_cross_entropy`` of the dense adjacency and
    ``logits.sigmoid()``, its probabilities clamped into [BCE_CLAMP,
    1 - BCE_CLAMP] and its gradient blocked where the clamp engaged.  That
    chain keeps the logits, their sigmoid and the dense adjacency on the
    tape.

    When every logit exceeds ``_DECIDED_LOGIT`` (about 17.1; an infinite
    logit does, a NaN does not), the clamp alone sets every entry's term
    and its gradient is zero: the sum comes from ``_NON_EDGE_TERM``, with
    ``_EDGE_TERM`` written on the graph's edges, summed in the chain's
    n x n layout, untracked.  That is one reduction to test, no tape node,
    no backward, and no sigmoid or log over the n x n logits, and the value
    is the chain's bit for bit.  Every other input, negative decided logits
    included, takes the chain.  A fit calls this only when
    ``decoder_certified`` fails; otherwise ``decided_nll`` gives the decided
    value without the logits.
    """
    logits = _wrap(logits)
    lv = logits.value
    if not lv.min() > _DECIDED_LOGIT:
        return binary_cross_entropy(graph.adj.toarray(), logits.sigmoid())
    terms = np.full(lv.shape, _NON_EDGE_TERM)
    terms[graph.edges()] = _EDGE_TERM
    return Tensor(terms.sum())


# the certificate's margin for rounding, relative to the largest |z_i|^2
_CERTIFICATE_SLACK = 1e-9


def decoder_certified(z):
    """Whether every decoder logit z_i . z_j of the embedding ``z`` provably
    exceeds ``_DECIDED_LOGIT``, found in O(n d) without forming Z Z^T.

    Let u be Z's column sum, normalized, and split each row as
    z_i = a_i u + r_i, with a_i = z_i . u and rho_i = |r_i|.  Then
    z_i . z_j = a_i a_j + r_i . r_j >= a_i a_j - rho_i rho_j, so once every
    a_i is positive, every logit is at least min_i(a_i a_min - rho_i
    rho_max).  The certificate holds when that exceeds ``_DECIDED_LOGIT`` by
    1e-9 max |z_i|^2, a slack that covers the rounding of this bound and of
    the product.  rho is the norm of the residual itself: the root of
    |z_i|^2 - a_i^2 would cancel.  A non-finite entry, a zero column sum,
    a_min <= 0 or an overflow fails the certificate, without a warning.
    """
    z = _wrap(z).value
    with np.errstate(all="ignore"):
        u = z.sum(axis=0)
        norm = np.sqrt(u @ u)
        if not 0.0 < norm < math.inf:
            return False
        u /= norm
        a = z @ u
        a_min = a.min()
        if not a_min > 0.0:
            return False
        r = z - np.outer(a, u)
        rho = np.sqrt(np.einsum("ij,ij->i", r, r))
        slack = _CERTIFICATE_SLACK * np.einsum("ij,ij->i", z, z).max()
        return bool((a * a_min - rho * rho.max()).min() > _DECIDED_LOGIT + slack)


def decided_nll(graph):
    """``adjacency_nll`` of ``graph`` under logits that are all positive and
    beyond ``_DECIDED_LOGIT``, as ``decoder_certified`` proves them: nnz
    edge terms and n^2 - nnz non-edge terms, from the counts alone, with no
    logits and no n x n array.  Untracked, since the clamp gives each such
    entry a zero gradient.  It differs from the n x n sum only in rounding.
    """
    edges = graph.adj.nnz
    return Tensor(edges * _EDGE_TERM + (graph.n ** 2 - edges) * _NON_EDGE_TERM)


def elbo_loss(likelihood, s, kl_bound):
    """Evidence lower bound: the reconstruction likelihood of the observed
    graphs, plus sample entropy, minus the KL bound.  Training maximizes
    this, so it enters the total objective with a negative weight.

    ``likelihood`` is the sum over views of -``adjacency_nll`` of each
    graph under its decoder logits, which the caller scores one view at a
    time so that one n x n logits array exists at a time.  ``s`` is the
    relaxed consensus sample.  ``kl_bound`` is the float
    ``kl_upper_bound(beta)``: it depends only on the graphs and beliefs, not
    on any parameter, so the caller computes it once per belief update."""
    return likelihood + bernoulli_entropy(s) - kl_bound


def view_prior_cross_entropy(graph, beliefs, view):
    """Cross-entropy between one view's adjacency and its slice of the edge
    prior.

    Edges present in the view contribute log(sum_b / b^v) and absent ones
    log(sum_b / (b^v - 1 + sum_b)); the total strictly decreases as the
    view's belief grows, which is how belief encodes task relevance.
    """
    b = _belief_array(beliefs)
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
