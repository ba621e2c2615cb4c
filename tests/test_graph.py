"""Graph containers and deterministic transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from mvgc.graph import (
    Graph,
    add_self_loops,
    hamming_distance,
    knn_graph,
    row_normalize,
)


def random_adjacency(n, seed, density=0.3):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, k=1).astype(np.float64)
    return Graph(upper + upper.T)


def test_graph_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        Graph(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Graph(np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        Graph(sparse.csr_array(np.full((2, 2), 0.5)))
    with pytest.raises(ValueError):
        Graph(sparse.csr_array(np.ones((3, 2))))


def _stored(matrix):
    """The stored entries in storage order, stored zeros included."""
    coo = sparse.coo_array(matrix)
    return coo.data.tolist(), coo.row.tolist(), coo.col.tolist()


@pytest.mark.parametrize(
    "make",
    [
        # a stored zero and an unsorted row
        lambda: sparse.coo_array(
            ([1.0, 0.0, 1.0], ([1, 0, 0], [0, 1, 0])), shape=(2, 2)
        ),
        # a CSR with sorted, unique indices but a stored zero
        lambda: sparse.csr_array(
            ([1.0, 0.0, 1.0], [0, 1, 0], [0, 2, 3]), shape=(2, 2)
        ),
        # a CSR with no stored zero but unsorted indices
        lambda: sparse.csr_array(([1.0, 1.0], [1, 0], [0, 2, 2]), shape=(2, 2)),
    ],
)
def test_graph_from_a_sparse_matrix_is_canonical_and_leaves_it_alone(make):
    matrix, expected = make(), make().toarray()
    g = Graph(matrix)
    assert g.adj is not matrix
    assert g.adj.has_canonical_format and (g.adj.data == 1.0).all()
    assert np.array_equal(g.adj.toarray(), expected)
    assert _stored(matrix) == _stored(make())


def test_a_canonical_csr_is_held_as_given():
    adj = Graph.from_edges(3, np.array([0, 1, 2]), np.array([1, 0, 2])).adj
    assert Graph(adj).adj is adj


def test_add_self_loops_sets_diagonal_only():
    g = random_adjacency(6, seed=0)
    looped = add_self_loops(g).adj.toarray()
    assert np.array_equal(np.diag(looped), np.ones(6))
    off = ~np.eye(6, dtype=bool)
    assert np.array_equal(looped[off], g.adj.toarray()[off])


def test_row_normalize_rows_sum_to_one():
    g = add_self_loops(random_adjacency(8, seed=1))
    norm = row_normalize(g)
    assert np.allclose(norm.sum(axis=1), 1.0)
    assert (norm >= 0).all()


def test_row_normalize_leaves_zero_rows_and_warns():
    # no self-loops, so node 0 has no edge at all
    g = Graph(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]))
    with pytest.warns(UserWarning):
        norm = row_normalize(g)
    assert np.array_equal(norm[0], [0.0, 0.0, 0.0])
    assert np.allclose(norm[1], [0.5, 0.0, 0.5])
    assert np.allclose(norm[2], 1.0 / 3.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 2**16))
def test_hamming_is_a_metric_on_random_triples(s1, s2, s3):
    g1, g2, g3 = (random_adjacency(7, seed=s) for s in (s1, s2, s3))
    d12 = hamming_distance(g1, g2)
    assert d12 == hamming_distance(g2, g1)
    assert (d12 == 0) == np.array_equal(g1.adj.toarray(), g2.adj.toarray())
    assert hamming_distance(g1, g3) <= d12 + hamming_distance(g2, g3)


def test_hamming_counts_disagreeing_entries():
    g1 = Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    g2 = Graph(np.array([[0.0, 0.0], [0.0, 0.0]]))
    assert hamming_distance(g1, g2) == 2


def test_hamming_rejects_size_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(random_adjacency(4, 0), random_adjacency(5, 0))


def test_knn_graph_is_symmetric_with_self_loops():
    x = np.random.default_rng(2).normal(size=(20, 5))
    adj = knn_graph(x, k=4).adj.toarray()
    assert np.array_equal(adj, adj.T)
    assert np.array_equal(np.diag(adj), np.ones(20))
    # union symmetrization only ever adds neighbours
    assert (adj.sum(axis=1) >= 5).all()


def test_knn_graph_prefers_lower_index_on_ties():
    # three copies of the same point: ties everywhere, resolved by index
    x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    g = knn_graph(x, k=1)
    assert g.adj[1, 0] == 1.0
    assert g.adj[2, 0] == 1.0
    assert g.adj[3, 0] == 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_knn_graph_rejects_a_non_finite_feature(value):
    x = np.zeros((4, 2))
    x[2, 1] = value
    with pytest.raises(ValueError, match="features must be finite"):
        knn_graph(x, k=1)


def test_knn_graph_validates_k():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        knn_graph(x, k=0)
    with pytest.raises(ValueError):
        knn_graph(x, k=4)
