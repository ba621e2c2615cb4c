"""The sparse graph path against the dense code it replaced.

Each oracle below is the dense n x n implementation that held every view
graph as a float64 array; the sparse code must agree with it entry for
entry, and bit for bit wherever floats are produced.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from mvgc.dataio import MultiViewDataset, _load_edges, save_dataset
from mvgc.graph import Graph, hamming_distance, knn_graph
from mvgc.nncore import Parameter, backward, tensor
from mvgc.nncore.tensor import BCE_CLAMP, _bce_terms
from mvgc.vargen import _DECIDED_LOGIT, adjacency_nll, compute_prior_beta


def _dense_load_edges(lines, n, directed):
    adj = np.zeros((n, n))
    for i, j in lines:
        adj[i, j] = 1.0
        if not directed:
            adj[j, i] = 1.0
    np.fill_diagonal(adj, 1.0)
    return adj


def _dense_knn(x, k):
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    unit = x / np.where(norms == 0.0, 1.0, norms)
    # the cosines summed feature by feature in order, so that identical rows
    # are at identical distances; unit @ unit.T may round two entries of
    # identical rows apart, and then its order contradicts the tie rule
    dot = np.zeros((n, n))
    for column in unit.T:
        dot += np.outer(column, column)
    dist = 1.0 - dot
    np.fill_diagonal(dist, np.inf)
    adj = np.zeros((n, n))
    cols = np.broadcast_to(np.arange(n), (n, n))
    ranked = np.lexsort((cols, dist), axis=1)
    rows = np.repeat(np.arange(n), k)
    adj[rows, ranked[:, :k].reshape(-1)] = 1.0
    adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 1.0)
    return adj


def _dense_prior(adjs, beliefs, eps=1e-6):
    b = np.asarray(beliefs, dtype=np.float64)
    votes = np.zeros(adjs[0].shape)
    for adj, bv in zip(adjs, b):
        votes += np.where(adj > 0, bv, 1.0 - bv)
    return np.clip(votes / b.sum(), eps, 1.0)


def _dense_nll(adj, logits):
    """Value and gradient of the dense likelihood chain, sigmoid -> clamp ->
    BCE, under a gradient of -1.5."""
    lv = logits.value
    lo, hi = BCE_CLAMP, 1.0 - BCE_CLAMP
    a_hat = special.expit(lv)
    q = np.clip(a_hat, lo, hi)
    inside = (a_hat >= lo) & (a_hat <= hi)
    g = -1.5 * inside * ((q - adj) / (q * (1.0 - q)))
    # a leaf's gradient accumulates into zeros
    return _bce_terms(adj, a_hat).sum(), np.zeros_like(lv) + g * a_hat * (1.0 - a_hat)


def _dense_edge_file(adj, directed):
    rows, cols = np.nonzero(adj)
    keep = rows != cols
    if not directed:
        keep &= rows < cols
    return "".join(
        "%d\t%d\n" % edge for edge in zip(rows[keep].tolist(), cols[keep].tolist())
    )


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _random_adjacency(rng, n, density, symmetric):
    adj = (rng.random((n, n)) < density).astype(np.float64)
    return np.maximum(adj, adj.T) if symmetric else adj


_EDGE_LISTS = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
    )
)


@settings(max_examples=80, deadline=None)
@given(_EDGE_LISTS, st.booleans(), st.sampled_from(["{}", "+{}", "0_{}"]))
@example((3, [(0, 1), (0, 1), (2, 2), (1, 0)]), False, "{}")
@example((3, [(0, 1), (0, 1), (2, 2), (1, 0)]), True, "{}")
@example((2, []), False, "{}")
def test_loaded_edges_match_the_dense_loader(n_lines, directed, spelling):
    # ids are read with int(), so "+3" and "0_3" are ids as they were for the
    # dense loader
    n, lines = n_lines
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph_v1.tsv"
        path.write_text("".join(
            f"{spelling.format(i)}\t{spelling.format(j)}\n\n" for i, j in lines
        ))
        g = _load_edges(path, n, directed)
    assert g.adj.has_canonical_format and (g.adj.data == 1.0).all()
    assert np.array_equal(g.adj.toarray(), _dense_load_edges(lines, n, directed))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 8),
    st.sampled_from(["normal", "integers", "repeats"]), st.integers(1, 39),
    st.sampled_from([1, 3, None]),
)
# repeated rows that the n x n product puts at different distances
@example(seed=39, n=12, d=3, kind="repeats", k=2, rows=None)
@example(seed=11, n=20, d=3, kind="repeats", k=3, rows=1)
# distances that the block product and the ordered sums round apart
@example(seed=4, n=14, d=3, kind="integers", k=3, rows=None)
@example(seed=6, n=16, d=5, kind="integers", k=2, rows=1)
def test_knn_graph_matches_the_dense_builder(seed, n, d, kind, k, rows):
    rng = np.random.default_rng(seed)
    # small integer features repeat points and distances, so ties abound;
    # repeated and zero rows put exact ties at the k-th distance
    x = rng.integers(0, 3, size=(n, d)) if kind == "integers" else rng.normal(size=(n, d))
    if kind == "repeats":
        x[rng.integers(0, n, size=n // 2)] = x[rng.integers(0, n, size=n // 2)]
        x[rng.integers(0, n, size=n // 8)] = 0.0
    k = min(k, n - 1)
    # a block of one row, of a few rows, or of every row
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor, "_BLOCK_ENTRIES", (rows or n) * n)
        g = knn_graph(x, k)
    assert g.adj.has_canonical_format and (g.adj.data == 1.0).all()
    assert np.array_equal(g.adj.toarray(), _dense_knn(x, k))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.floats(0.0, 1.0))
def test_hamming_distance_matches_the_dense_count(seed, n, density):
    rng = np.random.default_rng(seed)
    a = _random_adjacency(rng, n, density, symmetric=False)
    b = _random_adjacency(rng, n, density, symmetric=False)
    assert hamming_distance(Graph(a), Graph(b)) == int(np.abs(a - b).sum())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 4),
    st.floats(0.0, 1.0), st.data(),
)
def test_prior_matches_the_dense_vote_bit_for_bit(seed, n, views, density, data):
    rng = np.random.default_rng(seed)
    adjs = [_random_adjacency(rng, n, density, symmetric=True) for _ in range(views)]
    beliefs = data.draw(st.lists(
        st.floats(0.01, 1.0), min_size=views, max_size=views
    ))
    got = compute_prior_beta([Graph(a) for a in adjs], beliefs)
    assert _same_bits(got, _dense_prior(adjs, beliefs))


# logits on and next to the decided bound, beyond it, at infinity, and well
# inside it
_LOGITS = np.array([
    _DECIDED_LOGIT, np.nextafter(_DECIDED_LOGIT, np.inf), 40.0, np.inf, 16.0,
    0.3, 0.0,
])
_LOGITS = np.concatenate([_LOGITS, -_LOGITS])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 7), st.floats(0.0, 1.0),
    st.booleans(), st.booleans(),
)
@example(0, 5, 0.4, True, False)
@example(0, 5, 0.4, True, True)
@example(0, 5, 0.4, False, False)
def test_likelihood_matches_the_dense_node_bit_for_bit(
    seed, n, density, decided, positive
):
    # positive: only the pool's positive logits
    rng = np.random.default_rng(seed)
    pool = _LOGITS[np.abs(_LOGITS) > _DECIDED_LOGIT] if decided else _LOGITS
    if positive:
        pool = pool[pool > 0.0]
    logits0 = rng.choice(pool, size=(n, n))
    adj = _random_adjacency(rng, n, density, symmetric=False)
    logits = Parameter(logits0.copy())
    value = adjacency_nll(Graph(adj), logits)
    backward(value * -1.5)
    expected_value, expected_grad = _dense_nll(adj, logits)
    assert _same_bits(value.value, expected_value)
    assert _same_bits(logits.grad, expected_grad)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 3),
    st.floats(0.0, 1.0), st.booleans(),
)
def test_saved_dataset_bytes_match_the_dense_writer(seed, n, views, density, directed):
    rng = np.random.default_rng(seed)
    adjs = [_random_adjacency(rng, n, density, symmetric=not directed)
            for _ in range(views)]
    for adj in adjs:
        np.fill_diagonal(adj, 1.0)
    x = rng.random((n, 2))
    dataset = MultiViewDataset(
        views=tuple((x, Graph(adj)) for adj in adjs), labels=None, c=1,
    )
    dense_directed = any(not np.array_equal(adj, adj.T) for adj in adjs)
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(dataset, tmp)
        meta = (Path(tmp) / "meta").read_text()
        assert meta.endswith(
            f"directed={'true' if dense_directed else 'false'}\n"
        )
        for v, adj in enumerate(adjs, start=1):
            written = (Path(tmp) / f"graph_v{v}.tsv").read_text()
            assert written == _dense_edge_file(adj, dense_directed)
