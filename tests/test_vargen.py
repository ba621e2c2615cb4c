"""Edge prior, posterior sampling, and the bound-driven losses."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from mvgc.graph import Graph
from mvgc.nncore import tensor
from mvgc.nncore import (
    Parameter,
    Tensor,
    backward,
    bernoulli_entropy,
    binary_cross_entropy,
    grad_check,
)
from mvgc.vargen import (
    _DECIDED_LOGIT,
    PosteriorNet,
    adjacency_nll,
    compute_prior_beta,
    decode_adjacency,
    elbo_loss,
    infer_posterior,
    kl_upper_bound,
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


def bare_sample(alpha, tau, rng=None):
    """``sample_consensus`` of bare logits: K = alpha and Q = I."""
    return sample_consensus(alpha, np.eye(alpha.shape[0]), tau, rng=rng)


def two_log_noise(rng, shape):
    """The logistic noise the sample adds: log(U) - log(1 - U) of
    ``rng.random`` clipped off exact 0 and 1."""
    u = np.clip(rng.random(shape), 1e-12, 1.0 - 1e-12)
    return np.log(u) - np.log1p(-u)


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
        compute_prior_beta([g, g], beliefs=(np.nan, 1.0))
    with pytest.raises(ValueError):
        compute_prior_beta([g, Graph(np.zeros((2, 2)))], beliefs=(1.0, 1.0))


def test_kl_upper_bound_is_sum_of_log_inverse_beta():
    graphs = graph_pair(seed=3)
    prior = compute_prior_beta(graphs, beliefs=(0.9, 0.7))
    assert kl_upper_bound(prior) == pytest.approx(np.log(1.0 / prior).sum())


def test_eval_sample_is_the_noise_free_sigmoid():
    alpha = np.random.default_rng(0).normal(size=(5, 5))
    sample = bare_sample(Tensor(alpha), tau=5.0)
    assert np.allclose(sample.value, 1.0 / (1.0 + np.exp(-alpha / 5.0)))


def test_train_sample_replays_a_fixed_noise_matrix():
    alpha = np.random.default_rng(1).normal(size=(4, 4))
    first = bare_sample(Tensor(alpha), tau=2.0, rng=np.random.default_rng(2))
    second = bare_sample(Tensor(alpha), tau=2.0, rng=np.random.default_rng(2))
    assert np.array_equal(first.value, second.value)
    noise = two_log_noise(np.random.default_rng(2), (4, 4))
    assert np.allclose(
        first.value, 1.0 / (1.0 + np.exp(-(alpha + noise) / 2.0))
    )


def test_sample_consensus_validates_arguments():
    for tau in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            bare_sample(Tensor(np.zeros((2, 2))), tau=tau)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.floats(0.1, 100.0))
def test_relaxed_sample_stays_strictly_inside_unit_interval(seed, tau):
    rng = np.random.default_rng(seed)
    alpha = Tensor(rng.normal(scale=10.0, size=(6, 6)))
    s = bare_sample(alpha, tau, rng).value
    assert np.all(np.isfinite(s))
    assert (s > 0.0).all() and (s < 1.0).all()


@pytest.mark.parametrize("block", [7, 21])
def test_sample_noise_drawn_in_row_blocks_matches_the_two_log_formula_bit_for_bit(
    block
):
    # the noise is drawn one row at a time, then three rows at a time with
    # a shorter last block
    alpha = np.random.default_rng(4).normal(size=(7, 7))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor, "_BLOCK_ENTRIES", block)
        got = bare_sample(Tensor(alpha), 0.7, np.random.default_rng(3)).value
    noise = two_log_noise(np.random.default_rng(3), (7, 7))
    expected = np.clip(special.expit((alpha + noise) / 0.7), 1e-12, 1.0 - 1e-12)
    assert got.tobytes() == expected.tobytes()


def test_larger_temperature_shrinks_sample_spread():
    alpha = Tensor(np.random.default_rng(4).normal(size=(30, 30)))
    spreads = []
    for tau in (0.5, 5.0, 50.0):
        draws = [
            bare_sample(alpha, tau, np.random.default_rng(i)).value
            for i in range(40)
        ]
        spreads.append(np.var(np.stack(draws)))
    assert spreads[0] > spreads[1] > spreads[2]


def test_normalize_consensus_rows_sum_to_one():
    alpha = Tensor(np.random.default_rng(5).normal(size=(4, 4)))
    s_norm = normalize_consensus(bare_sample(alpha, 5.0))
    assert np.allclose(s_norm.value.sum(axis=1), 1.0)


def test_infer_posterior_is_consistent_with_its_embeddings():
    net = PosteriorNet.create(d_in=7, hidden=6, dropout=0.0, seed=0)
    x = np.random.default_rng(6).uniform(size=(5, 7))
    k, q = infer_posterior(x, net)
    assert np.allclose(q.value, k.value @ net.w.value)
    # the sample node forms the logits K Q^T itself
    alpha = k.value @ q.value.T
    assert np.allclose(
        sample_consensus(k, q, 5.0).value, bare_sample(alpha, 5.0).value
    )


def test_decode_adjacency_is_symmetric_sigmoid_gram():
    z = Tensor(np.random.default_rng(7).normal(size=(5, 3)))
    logits = decode_adjacency(z).value
    assert np.array_equal(logits, logits.T)
    assert np.allclose(
        special.expit(logits), 1.0 / (1.0 + np.exp(-z.value @ z.value.T))
    )


def test_elbo_composes_reconstruction_entropy_and_bound():
    graphs = graph_pair(seed=8)
    prior = compute_prior_beta(graphs, beliefs=(1.0, 1.0))
    z = Tensor(np.random.default_rng(9).normal(size=(6, 3)))
    sample = bare_sample(
        Tensor(np.random.default_rng(10).normal(size=(6, 6))), 5.0
    )
    decoded = [decode_adjacency(z) for _ in graphs]
    likelihood = 0.0
    for g, d in zip(graphs, decoded):
        likelihood = likelihood - adjacency_nll(g, d)

    got = elbo_loss(likelihood, sample, kl_upper_bound(prior)).value
    manual = (
        -sum(binary_cross_entropy(g.adj.toarray(), d.sigmoid()).value
             for g, d in zip(graphs, decoded))
        + bernoulli_entropy(sample).value
        - kl_upper_bound(prior)
    )
    assert got == pytest.approx(manual)


def test_elbo_gradient_reaches_the_posterior_logits():
    graphs = graph_pair(seed=12)
    prior = compute_prior_beta(graphs, beliefs=(1.0, 1.0))
    alpha = Parameter(np.random.default_rng(13).normal(size=(6, 6)))
    z = Parameter(np.random.default_rng(14).normal(scale=0.3, size=(6, 3)))

    def loss_fn():
        likelihood = 0.0
        for g in graphs:
            likelihood = likelihood - adjacency_nll(g, decode_adjacency(z))
        return elbo_loss(likelihood, bare_sample(alpha, 5.0), kl_upper_bound(prior))

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
    with pytest.raises(ValueError, match="beliefs must lie"):
        view_prior_cross_entropy(graphs[0], (np.nan, 1.0), view=1)


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


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _primitive_sample(k, q, tau, rng=None):
    """``sample_consensus`` as the chain of primitive ops its node fuses."""
    alpha = k @ q.T
    if rng is not None:
        alpha = alpha + two_log_noise(rng, alpha.shape)
    return (alpha / tau).sigmoid().clip(1e-12, 1.0 - 1e-12)


def _primitive_decode(z):
    """The primitive chain ``decode_adjacency`` runs, written out."""
    return z @ z.T


def _primitive_nll(graph, logits):
    """``adjacency_nll`` as the sigmoid -> clip -> BCE chain it replaces."""
    return binary_cross_entropy(graph.adj.toarray(), logits.sigmoid())


# logits whose sigmoid lands just inside and just outside each clip bound
_NEAR_BOUNDS = np.array([
    -27.631021115927545, -27.63102111592755, 27.631043237893362, 27.63104323789236,
])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([1.0, 0.7, 5.0]),
    st.sampled_from([1.0, 60.0]), st.booleans(), st.booleans(), st.booleans(),
)
@example(0, 4, 1.0, 1.0, False, False, True)
@example(0, 4, 1.0, 1.0, True, True, False)
def test_sample_node_matches_the_primitive_chain_bit_for_bit(
    seed, n, tau, scale, with_noise, other_first, planted
):
    # planted: K holds logits with entries next to the clip bounds and Q = I;
    # otherwise K and Q are n x 3 embeddings
    rng = np.random.default_rng(seed)
    if planted:
        k0 = rng.normal(scale=scale, size=(n, n))
        pick = rng.random(k0.shape) < 0.4
        k0[pick] = rng.choice(_NEAR_BOUNDS, size=pick.sum()) * tau
        q0 = np.eye(n)
    else:
        k0, q0 = rng.normal(scale=scale, size=(2, n, 3))
    noise_seed = int(rng.integers(2**32))
    weight = rng.normal(size=(n, n))

    def run(sample):
        k, q = Parameter(k0.copy()), Parameter(q0.copy())
        # each run draws its noise from an identically seeded generator
        noise_rng = np.random.default_rng(noise_seed) if with_noise else None
        out = sample(k, q, tau, noise_rng)
        # K and Q have a second consumer, so the order of their gradient
        # contributions shows in the bits
        terms = [(out * weight).sum(), (k * q).sum()]
        backward(terms[1] + terms[0] if other_first else terms[0] + terms[1])
        return out.value, k.grad, q.grad

    fused = run(sample_consensus)
    primitive = run(_primitive_sample)
    assert all(_same_bits(a, b) for a, b in zip(fused, primitive))


@pytest.mark.parametrize("block", [7, 21])
def test_sample_node_backward_in_row_blocks_matches_the_primitive_chain(block):
    # the backward forms 1 - S a row block at a time: one row, then three
    # rows with a shorter last block; scale 20 saturates some entries
    rng = np.random.default_rng(23)
    k0, q0 = rng.normal(scale=20.0, size=(2, 7, 3))
    weight = rng.normal(size=(7, 7))

    def run(sample):
        k, q = Parameter(k0.copy()), Parameter(q0.copy())
        out = sample(k, q, 0.7)
        backward((out * weight).sum())
        return out.value, k.grad, q.grad

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor, "_BLOCK_ENTRIES", block)
        fused = run(sample_consensus)
    primitive = run(_primitive_sample)
    assert all(_same_bits(a, b) for a, b in zip(fused, primitive))


def _primitive_normalize(s):
    """``normalize_consensus`` as the chain of primitive ops its node fuses."""
    return s / s.sum(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 7), st.sampled_from([1, 3, 1 << 16]),
    st.booleans(), st.sampled_from(["none", "before", "after"]),
)
@example(0, 7, 3, False, "before")
@example(0, 7, 1 << 16, True, "after")
def test_normalize_node_matches_the_primitive_chain_bit_for_bit(
    seed, n, block, transposed, entropy
):
    # block: entries per row block of the row term (one row, a few rows,
    # and every row at once); transposed: the normalized sample is read
    # through its transpose, so its gradient arrives column-major;
    # entropy: where the sample's second consumer, its entropy, is summed
    rng = np.random.default_rng(seed)
    s0 = rng.uniform(1e-3, 1.0, size=(n, n))
    x = rng.normal(size=(n, 3))

    def run(normalize):
        s = Parameter(s0.copy())
        norm = normalize(s)
        loss = ((norm.T if transposed else norm) @ x).sum() * 0.5
        if entropy == "before":
            loss = bernoulli_entropy(s) + loss
        elif entropy == "after":
            loss = loss + bernoulli_entropy(s)
        backward(loss)
        return norm.value, s.grad

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor, "_BLOCK_ENTRIES", block)
        fused = run(normalize_consensus)
    primitive = run(_primitive_normalize)
    assert all(_same_bits(a, b) for a, b in zip(fused, primitive))


def _square_float_arrays(held, n):
    return [obj for obj in held if isinstance(obj, np.ndarray)
            and obj.shape == (n, n) and obj.dtype == np.float64]


def test_sample_and_decode_nodes_keep_the_noise_and_intermediates_off_the_tape():
    rng = np.random.default_rng(17)
    k, q = Parameter(rng.normal(size=(4, 3))), Parameter(rng.normal(size=(4, 3)))
    sample = sample_consensus(k, q, 2.0, rng=rng)
    # of the float n x n arrays, the sample keeps only its own output, the
    # buffer the logits K Q^T and the noise were added in
    assert all(parent._grad_fn is None for parent in sample._parents)
    held = [cell.cell_contents for cell in sample._grad_fn.__closure__]
    big = _square_float_arrays(held, 4)
    assert len(big) == 1 and big[0] is sample.value

    # the decoder's tape, its nodes and what their gradient functions read,
    # holds Z and Z^T but no n x n array
    decoded = decode_adjacency(Parameter(rng.normal(size=(4, 3))))
    nodes, held = [decoded], []
    while nodes:
        node = nodes.pop()
        nodes.extend(node._parents)
        if node._grad_fn is not None:
            held.extend(cell.cell_contents
                        for cell in node._grad_fn.__closure__ or ())
    held = [obj.value if isinstance(obj, Tensor) else obj for obj in held]
    assert any(obj.shape == (3, 4) for obj in held if isinstance(obj, np.ndarray))
    assert not _square_float_arrays(held, 4)


def _edges(rng, n):
    return Graph((rng.random((n, n)) < 0.4).astype(np.float64))


def _decoder_input(rng, n, d, decided):
    """Z whose logits Z Z^T lie all within the decided bound ("none"), all
    beyond it ("all": a +-40 first column dominates every product;
    "positive": a +40 first column, so every logit is positive), or on
    both sides ("some")."""
    if decided == "none":
        return rng.uniform(-0.5, 0.5, size=(n, d)) * np.sqrt(17.0 / d)
    if decided == "some":
        return rng.normal(scale=3.0, size=(n, d))
    z = rng.uniform(-1.0, 1.0, size=(n, d))
    z[:, 0] = 40.0 if decided == "positive" else rng.choice([-40.0, 40.0], size=n)
    return z


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 5),
    st.sampled_from(["none", "some", "all", "positive"]), st.booleans(),
)
@example(0, 6, 3, "all", False)
@example(0, 6, 3, "positive", False)
@example(0, 6, 3, "none", True)
def test_likelihood_node_matches_the_primitive_chain_bit_for_bit(
    seed, n, d, decided, other_first
):
    rng = np.random.default_rng(seed)
    z0 = _decoder_input(rng, n, d, decided)
    graph = _edges(rng, n)
    logits = z0 @ z0.T
    above = np.abs(logits) > _DECIDED_LOGIT
    assert {
        "none": not above.any(), "all": above.all(), "positive": above.all()
    }.get(decided, True)

    def run(decode, nll):
        z = Parameter(z0.copy())
        value = nll(graph, decode(z))
        # z has a second consumer, so the order of its gradient
        # contributions shows in the bits
        terms = [value * 0.5, (z * z).sum()]
        backward(terms[1] + terms[0] if other_first else terms[0] + terms[1])
        return value, z.grad

    fused = run(decode_adjacency, adjacency_nll)
    primitive = run(_primitive_decode, _primitive_nll)
    assert _same_bits(fused[0].value, primitive[0].value)
    assert np.array_equal(fused[1], primitive[1])
    # the node skips the tape exactly when every logit exceeds the bound
    assert (fused[0]._grad_fn is None) == bool((logits > _DECIDED_LOGIT).all())


# logits on and next to the decided bound, beyond it, at infinity, and well
# inside it
_BOUND_LOGITS = np.array([
    _DECIDED_LOGIT, np.nextafter(_DECIDED_LOGIT, np.inf),
    np.nextafter(_DECIDED_LOGIT, 0.0), 40.0, np.inf, 16.0, 0.0,
])
_BOUND_LOGITS = np.concatenate([_BOUND_LOGITS, -_BOUND_LOGITS])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans(), st.booleans())
@example(0, 4, True, False)
@example(0, 4, True, True)
def test_likelihood_node_on_the_decided_bound_and_at_infinity(
    seed, n, beyond, positive
):
    # positive: only the pool's positive logits, so with beyond every
    # logit exceeds the bound and the node skips the tape
    rng = np.random.default_rng(seed)
    pool = _BOUND_LOGITS[np.abs(_BOUND_LOGITS) > _DECIDED_LOGIT] if beyond else _BOUND_LOGITS
    if positive:
        pool = pool[pool > 0.0]
    logits0 = rng.choice(pool, size=(n, n))
    graph = _edges(rng, n)

    def run(nll):
        logits = Parameter(logits0.copy())
        value = nll(graph, logits)
        backward(value * -1.5)
        return value.value, logits.grad

    fused, primitive = run(adjacency_nll), run(_primitive_nll)
    assert np.isfinite(fused[0])
    assert _same_bits(fused[0], primitive[0])
    assert np.array_equal(fused[1], primitive[1])


def test_a_nan_logit_is_not_decided():
    logits = np.full((3, 3), 50.0)
    logits[1, 2] = np.nan
    assert np.isnan(adjacency_nll(_edges(np.random.default_rng(18), 3), logits).value)
