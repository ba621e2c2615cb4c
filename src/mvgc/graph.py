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

from .nncore.tensor import _row_blocks


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


# Two sums of the same d products of unit-vector entries, rounded in any
# order, each lie within d unit roundoffs of the exact dot product, and the
# subtraction from 1 rounds once more; so two such distances differ by at
# most (d + 2) eps, and a gap wider than twice that cannot be reordered.
# Four times keeps a factor of two to spare.
_SLACK = 4.0 * np.finfo(np.float64).eps


def knn_graph(x, k):
    """Cosine k-nearest-neighbour graph over the rows of ``x``.

    Each node links to its k nearest other nodes (ties broken by lower node
    index), self-loops are added, and the result is symmetrized by union.

    The distances are taken a row block at a time, so no n x n array is
    formed.  A distance is ``1 - u . v`` for the unit rows u and v, summed
    over the features in order (``_settle``), so identical rows are at
    identical distances and the tie rule is exact.  A block's matrix product
    rounds in other orders, so it decides a row's neighbours only where the
    gap after the row's k-th distance is too wide for rounding to close
    (``_SLACK``); in the other rows it decides all but the columns within
    that margin of the k-th distance.  Raises ``ValueError`` for a
    non-finite feature, on which no distance is defined.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if k <= 0:
        raise ValueError("k must be positive")
    if k >= n:
        raise ValueError(f"k={k} must be below the node count {n}")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    unit = x / np.where(norms == 0.0, 1.0, norms)
    slack = _SLACK * (d + 2)
    nodes = np.arange(n)
    near = np.empty((n, k), dtype=np.int64)
    for block in _row_blocks((n, n)):
        own = nodes[block]
        dist = 1.0 - unit[block] @ unit.T
        dist[np.arange(own.size), own] = np.inf
        # the k nearest go first, in no order, and the (k+1)-th follows;
        # k < n, and a row's own distance is the largest
        ranked = np.argpartition(dist, k, axis=1)
        near[block] = ranked[:, :k]
        kth = np.take_along_axis(dist, ranked[:, :k], axis=1).max(axis=1)
        gap = np.take_along_axis(dist, ranked[:, k:k + 1], axis=1)[:, 0] - kth
        close = gap <= slack
        if close.any():
            near[own[close]] = _settle(unit, own[close], dist[close], kth[close], k, slack)
    near = near.reshape(-1)
    rows = np.repeat(nodes, k)
    # each neighbour pair in both directions, plus the diagonal
    return Graph.from_edges(
        n, np.concatenate([rows, near, nodes]), np.concatenate([near, rows, nodes])
    )


def _settle(unit, own, dist, kth, k, slack):
    """The k nearest columns of nodes ``own``, whose block distances are
    ``dist`` and k-th block distances ``kth``.  A column nearer than the
    k-th by more than ``slack`` is in, and one farther by more than it is
    out, whatever the summation order; the columns between fill the
    remaining places in order of their ordered-sum distance, the lower index
    first among equals."""
    keep = dist < kth[:, None] - slack
    for i, node in enumerate(own):
        band = np.flatnonzero(np.abs(dist[i] - kth[i]) <= slack)
        # one rounding per product and one per sum, in feature order; a
        # feature where the node is 0 adds a zero, so it is skipped
        features = np.flatnonzero(unit[node])
        products = unit[np.ix_(band, features)] * unit[node, features]
        dots = (np.cumsum(products, axis=1)[:, -1] if features.size
                else np.zeros(band.size))
        places = k - np.count_nonzero(keep[i])
        keep[i, band[np.argsort(1.0 - dots, kind="stable")[:places]]] = True
    return np.nonzero(keep)[1].reshape(-1, k)
