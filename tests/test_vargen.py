"""Edge prior, posterior sampling, and the bound-driven losses."""

import tracemalloc

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
    _PRIOR_FLOOR,
    PosteriorNet,
    adjacency_nll,
    compute_prior_beta,
    decided_nll,
    decode_adjacency,
    decoder_certified,
    edge_pattern_counts,
    elbo_loss,
    infer_posterior,
    kl_upper_bound,
    normalize_consensus,
    pattern_kl_bound,
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


def _saturated_input(rng, n, d):
    """Z with a +40 first column, which dominates every product, so every
    logit of Z Z^T is positive and beyond the decided bound."""
    z = rng.uniform(-1.0, 1.0, size=(n, d))
    z[:, 0] = 40.0
    return z


def test_a_nan_logit_gives_a_nan_likelihood():
    logits = np.full((3, 3), 50.0)
    logits[1, 2] = np.nan
    graph = _edges(np.random.default_rng(18), 3)
    assert np.isnan(adjacency_nll(graph, Tensor(logits)).value)


def _near_threshold(rng, n, d, scale, noise, swing):
    """Rows of norm about sqrt(_DECIDED_LOGIT) * ``scale`` around one random
    direction u, each row off it by relative ``noise``; with ``swing``, the
    last row turned that many radians from u towards another direction."""
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    z = u + rng.normal(scale=noise, size=(n, d))
    if swing is not None:
        w = rng.normal(size=d)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        z[-1] = np.cos(swing) * u + np.sin(swing) * w
    return z * (np.sqrt(_DECIDED_LOGIT) * scale)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 6),
    st.floats(0.99, 1.2), st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.05, 0.3]),
    st.one_of(st.none(), st.floats(0.0, 2.0)),
)
@example(0, 5, 3, 1.1, 0.0, None)
@example(0, 5, 3, 1.1, 1e-3, 0.3)
@example(0, 5, 3, 1.0, 0.0, None)
def test_a_certified_decoder_has_every_logit_decided_and_positive(
    seed, n, d, scale, noise, swing
):
    z = _near_threshold(np.random.default_rng(seed), n, d, scale, noise, swing)
    if decoder_certified(z):
        assert (z @ z.T).min() > _DECIDED_LOGIT


def test_the_certificate_holds_for_a_saturated_decoder_and_not_at_the_bound():
    rng = np.random.default_rng(5)
    assert decoder_certified(_near_threshold(rng, 6, 4, 1.1, 1e-3, 0.2))
    assert decoder_certified(Tensor(_near_threshold(rng, 6, 4, 1.1, 0.0, None)))
    # every logit within rounding of the bound, or a row swung off to 90
    # degrees: the rounding slack or the row bound refuses it
    assert not decoder_certified(_near_threshold(rng, 6, 4, 1.0, 0.0, None))
    assert not decoder_certified(_near_threshold(rng, 6, 4, 3.0, 0.0, np.pi / 2))


def _overflowing():
    z = np.full((4, 3), 1e200)
    z[:, 1] = 1.0
    return z


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z", [
    np.where(np.eye(4, 3) > 0, np.nan, 10.0),
    np.where(np.eye(4, 3) > 0, np.inf, 10.0),
    np.where(np.eye(4, 3) > 0, -np.inf, 10.0),
    np.full((4, 3), np.inf),
    np.zeros((4, 3)),
    # a zero column sum from non-zero rows
    np.array([[10.0, 1.0], [-10.0, -1.0]]),
    # one row on the far side of u
    np.array([[10.0, 0.0], [10.0, 0.0], [-1.0, 0.0]]),
    _overflowing(),
    np.full((4, 3), 1e160),
], ids=["nan", "inf", "-inf", "all-inf", "zero", "zero-sum", "negative-a",
        "overflow", "overflowing-square"])
def test_the_certificate_refuses_without_a_warning(z):
    assert decoder_certified(z) is False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 5),
       st.floats(0.0, 1.0))
@example(0, 1, 1, 1.0)
@example(0, 7, 3, 0.0)
def test_the_count_form_likelihood_matches_the_n_by_n_sum(seed, n, d, density):
    rng = np.random.default_rng(seed)
    z = _saturated_input(rng, n, d)
    # self-loops included: the diagonal is drawn like any other pair
    graph = Graph((rng.random((n, n)) < density).astype(np.float64))
    assert decoder_certified(z)
    logits = decode_adjacency(z)
    assert logits.value.min() > _DECIDED_LOGIT
    want = adjacency_nll(graph, logits).value
    got = decided_nll(graph)
    assert got._grad_fn is None
    assert abs(got.value - want) <= 1e-12 * abs(want)


def test_edge_pattern_counts_count_each_pair_once():
    n = 3
    views = [
        Graph.from_edges(n, [0, 0, 2], [0, 1, 2]),
        Graph.from_edges(n, [0, 1, 2], [1, 0, 2]),
        Graph(np.zeros((n, n))),
    ]
    # (0,0) view 1; (0,1) views 1, 2; (1,0) view 2; (2,2) views 1, 2: the
    # pattern no view holds first, then the others in binary order, view 1
    # the lowest bit; the empty view 3 holds none of them
    held, counts = edge_pattern_counts(views)
    assert held.dtype == bool
    assert np.array_equal(
        held, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
    )
    assert np.array_equal(counts, [n * n - 4, 1, 1, 2])
    with pytest.raises(ValueError, match="at least one graph"):
        edge_pattern_counts([])
    with pytest.raises(ValueError, match="node count"):
        edge_pattern_counts([views[0], Graph(np.zeros((2, 2)))])
    with pytest.raises(ValueError, match="patterns over 3 views but 2 beliefs"):
        pattern_kl_bound((held, counts), (1.0, 1.0))
    with pytest.raises(ValueError, match="beliefs"):
        pattern_kl_bound((held, counts), (1.0, np.nan, 1.0))


def test_the_pattern_table_stays_small_for_many_views():
    # a table of every pattern of 20 views would hold 2^20 counts; ten
    # nodes have 100 pairs, so at most 101 patterns occur
    rng = np.random.default_rng(7)
    graphs = [
        Graph((rng.random((10, 10)) < 0.3).astype(np.float64))
        for _ in range(20)
    ]
    beliefs = rng.uniform(0.05, 1.0, size=20)
    tracemalloc.start()
    try:
        patterns = edge_pattern_counts(graphs)
        got = pattern_kl_bound(patterns, beliefs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert patterns[0].shape[0] <= 101
    want = kl_upper_bound(compute_prior_beta(graphs, beliefs))
    assert abs(got - want) <= 1e-12 * abs(want)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 4),
    st.floats(0.0, 1.0), st.data(),
)
@example(0, 6, 2, 0.5, None)
@example(3, 5, 4, 0.3, None)
def test_the_pattern_kl_bound_matches_the_n_by_n_bound(seed, n, views, density, data):
    rng = np.random.default_rng(seed)
    adjs = [(rng.random((n, n)) < density).astype(np.float64) for _ in range(views)]
    if data is None:
        # beliefs far apart clip the prior of the pairs only view 1 holds at
        # the floor; the last view is empty, and view 2 repeats view 1's
        # first row
        beliefs = [1e-9, *[1.0] * (views - 1)]
        adjs[-1] = np.zeros((n, n))
        if views > 2:
            adjs[1][0] = adjs[0][0]
    else:
        beliefs = data.draw(st.lists(
            st.one_of(st.floats(1e-9, 1e-5), st.floats(1e-5, 1.0)),
            min_size=views, max_size=views,
        ))
        overlap = data.draw(st.integers(0, views - 1))
        adjs[overlap] = np.maximum(adjs[overlap], adjs[0])
    graphs = [Graph(a) for a in adjs]
    prior = compute_prior_beta(graphs, beliefs)
    patterns = edge_pattern_counts(graphs)
    held, counts = patterns
    # every pattern listed after the first occurs, and none twice
    assert (counts[1:] > 0).all()
    assert np.unique(held, axis=0).shape == held.shape
    if data is None and views > 1:
        only_view_1 = (held == np.eye(1, views, dtype=bool)).all(axis=1)
        assert (prior.min() == _PRIOR_FLOOR) == only_view_1.any()
    assert counts.sum() == n * n
    want = kl_upper_bound(prior)
    assert abs(pattern_kl_bound(patterns, beliefs) - want) <= 1e-12 * abs(want)
