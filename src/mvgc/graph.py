"""Binary graphs and deterministic transformations on them."""

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Graph:
    """n x n binary adjacency.  Entries are stored as float64 {0, 1}."""

    adj: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adj, dtype=np.float64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        if not np.isin(adj, (0.0, 1.0)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adj", adj)

    @property
    def n(self):
        return self.adj.shape[0]


def add_self_loops(g):
    """Force a unit diagonal; off-diagonal entries are untouched."""
    adj = g.adj.copy()
    np.fill_diagonal(adj, 1.0)
    return Graph(adj)


def row_normalize(g):
    """Divide each row by its sum.  Accepts a Graph or a nonnegative array
    and returns the row-stochastic array.

    A row summing to zero cannot happen once self-loops are in place; for
    relaxed inputs it is left as zeros and flagged with a warning.
    """
    values = g.adj if isinstance(g, Graph) else np.asarray(g, dtype=np.float64)
    if (values < 0).any():
        raise ValueError("row_normalize expects nonnegative entries")
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
    return int(np.abs(g1.adj - g2.adj).sum())


def knn_graph(x, k, metric="cosine"):
    """k-nearest-neighbour graph over the rows of ``x``.

    Each node links to its k nearest other nodes (ties broken by lower node
    index), self-loops are added, and the result is symmetrized by union.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if k >= n:
        raise ValueError(f"k={k} must be below the node count {n}")
    if metric == "cosine":
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        unit = x / np.where(norms == 0.0, 1.0, norms)
        dist = 1.0 - unit @ unit.T
    elif metric == "euclidean":
        sq = (x * x).sum(axis=1)
        dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * x @ x.T, 0.0))
    else:
        raise ValueError(f"unknown metric {metric!r}")

    np.fill_diagonal(dist, np.inf)
    adj = np.zeros((n, n))
    cols = np.broadcast_to(np.arange(n), (n, n))
    # stable order: distance first, then node index
    ranked = np.lexsort((cols, dist), axis=1)
    rows = np.repeat(np.arange(n), k)
    adj[rows, ranked[:, :k].reshape(-1)] = 1.0
    adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 1.0)
    return Graph(adj)
