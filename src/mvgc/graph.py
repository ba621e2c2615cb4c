"""Binary graphs and deterministic transformations on them.

A graph is held sparse from load to loss: view graphs carry a few dozen
edges per node, so a dense n x n float64 array per view would be the
largest thing a fit keeps.  Code that needs dense arithmetic over all pairs
densifies the adjacency for as long as that arithmetic runs and no longer.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class Graph:
    """n x n binary adjacency, held as a ``scipy.sparse`` CSR array of unit
    entries in canonical form: sorted column indices, no duplicates and no
    stored zeros.  Built from a dense or sparse 0/1 matrix, or from edge
    index arrays with ``from_edges``.  A matrix already in that form is held
    as given, not copied."""

    adj: sparse.csr_array

    def __post_init__(self):
        if sparse.issparse(self.adj):
            adj = self.adj
            canonical = (
                isinstance(adj, sparse.csr_array) and adj.dtype == np.float64
                and adj.has_canonical_format and adj.data.all()
            )
            if not canonical:
                # a copy, so canonicalizing leaves the caller's matrix alone
                adj = sparse.csr_array(adj, dtype=np.float64, copy=True)
                adj.sum_duplicates()
                adj.eliminate_zeros()
            values = adj.data
        else:
            values = np.asarray(self.adj, dtype=np.float64)
            adj = values
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        if not np.isin(values, (0.0, 1.0)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if not sparse.issparse(adj):
            adj = sparse.csr_array(adj)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, n, rows, cols):
        """The graph on ``n`` nodes with an edge from each ``rows[e]`` to
        ``cols[e]``; a pair listed more than once is one edge."""
        # unique by sort and compare: numpy's hash-based np.unique is
        # slower at a few thousand edges
        keys = np.sort(np.ravel_multi_index((rows, cols), (n, n)))
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        rows, cols = np.divmod(keys[first], n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(sparse.csr_array((np.ones(cols.size), cols, indptr), shape=(n, n)))

    @property
    def n(self):
        return self.adj.shape[0]

    def edges(self):
        """(rows, cols): the edges' index arrays in row-major order, the
        order ``np.nonzero`` gives for the dense adjacency."""
        adj = self.adj
        return np.repeat(np.arange(self.n), np.diff(adj.indptr)), adj.indices


def add_self_loops(g):
    """Force a unit diagonal; off-diagonal entries are untouched."""
    rows, cols = g.edges()
    diag = np.arange(g.n)
    return Graph.from_edges(
        g.n, np.concatenate([rows, diag]), np.concatenate([cols, diag])
    )


def row_normalize(g):
    """Divide each row of a Graph's adjacency by its sum, and return the dense
    row-stochastic array.

    A row summing to zero cannot happen once self-loops are in place; without
    them it is left as zeros and flagged with a warning.
    """
    values = g.adj.toarray()
    sums = values.sum(axis=1, keepdims=True)
    zero_rows = sums[:, 0] == 0.0
    if zero_rows.any():
        warnings.warn(
            f"{int(zero_rows.sum())} all-zero rows left unnormalized",
            stacklevel=2,
        )
        sums = np.where(sums == 0.0, 1.0, sums)
    return values / sums


def hamming_distance(g1, g2):
    """Number of entries on which the two adjacencies disagree."""
    if g1.n != g2.n:
        raise ValueError(f"size mismatch: {g1.n} vs {g2.n}")
    return int((g1.adj != g2.adj).nnz)


def knn_graph(x, k):
    """Cosine k-nearest-neighbour graph over the rows of ``x``.

    Each node links to its k nearest other nodes (ties broken by lower node
    index), self-loops are added, and the result is symmetrized by union.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if k >= n:
        raise ValueError(f"k={k} must be below the node count {n}")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    unit = x / np.where(norms == 0.0, 1.0, norms)
    dist = 1.0 - unit @ unit.T
    np.fill_diagonal(dist, np.inf)
    cols = np.broadcast_to(np.arange(n), (n, n))
    # stable order: distance first, then node index
    near = np.lexsort((cols, dist), axis=1)[:, :k].reshape(-1)
    nodes = np.arange(n)
    rows = np.repeat(nodes, k)
    # each neighbour pair in both directions, plus the diagonal
    return Graph.from_edges(
        n, np.concatenate([rows, near, nodes]), np.concatenate([near, rows, nodes])
    )
