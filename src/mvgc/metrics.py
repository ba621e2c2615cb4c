"""Clustering evaluation: NMI, ARI, accuracy and F1 under optimal matching."""

import numpy as np
from scipy.optimize import linear_sum_assignment


def _as_labels(a, name):
    a = np.asarray(a)
    if a.ndim != 1 or a.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty 1-d label vector")
    return a


def contingency(a, b):
    """Joint count table of two labelings: entry (i, j) counts the points
    carrying the i-th distinct value of ``a`` and the j-th of ``b``."""
    a = _as_labels(a, "a")
    b = _as_labels(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"label lengths differ: {a.shape[0]} vs {b.shape[0]}")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def _entropy(counts, n):
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(a, b):
    """Mutual information normalized by the geometric mean of the entropies.

    Two single-cluster labelings are identical partitions, hence 1; if exactly
    one side is a single cluster the partitions differ and the score is 0.
    """
    table = contingency(a, b)
    n = int(table.sum())
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    h_a = _entropy(rows, n)
    h_b = _entropy(cols, n)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    nz = table > 0
    joint = table[nz] / n
    outer = np.outer(rows, cols)[nz] / (n * n)
    mi = float((joint * np.log(joint / outer)).sum())
    return float(np.clip(mi / np.sqrt(h_a * h_b), 0.0, 1.0))


def _pairs(counts):
    counts = counts.astype(np.float64)
    return float((counts * (counts - 1.0) / 2.0).sum())


def ari(a, b):
    """Pair-counting Rand index, adjusted for chance.  Degenerate cases where
    the adjustment denominator vanishes occur only for identical partitions
    (both trivial), so they score 1."""
    table = contingency(a, b)
    n = int(table.sum())
    index = _pairs(table.reshape(-1))
    sum_a = _pairs(table.sum(axis=1))
    sum_b = _pairs(table.sum(axis=0))
    total = n * (n - 1) / 2.0
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


def _matching(table):
    """The (class, cluster) pairs of a one-to-one matching of the table's
    rows to its columns with the largest matched count.  It is solved on the
    table zero-padded to a square, which fixes how ties between equally good
    matchings break; pairs that touch the padding are dropped."""
    size = max(table.shape)
    padded = np.zeros((size, size))
    padded[: table.shape[0], : table.shape[1]] = -table
    rows, cols = linear_sum_assignment(padded)
    real = (rows < table.shape[0]) & (cols < table.shape[1])
    return rows[real], cols[real]


def acc(a_true, b_pred):
    """Fraction of points matched under the best bijection between predicted
    clusters and true classes."""
    table = contingency(a_true, b_pred)
    rows, cols = _matching(table)
    return float(table[rows, cols].sum()) / int(table.sum())


def f1(a_true, b_pred):
    """Macro F1 over true classes after mapping predicted clusters to classes
    with the same optimal matching as ``acc``.  Classes that no predicted
    cluster maps to score 0 and still enter the average."""
    table = contingency(a_true, b_pred)
    actual, predicted = table.sum(axis=1), table.sum(axis=0)
    scores = np.zeros(table.shape[0])
    for k, j in zip(*_matching(table)):
        tp = float(table[k, j])
        if tp > 0.0:
            precision = tp / float(predicted[j])
            recall = tp / float(actual[k])
            scores[k] = 2.0 * precision * recall / (precision + recall)
    return float(np.mean(scores))


def score(truth, pred):
    """The four scores a run reports: NMI, ARI, ACC and F1 of ``pred``
    against ``truth``, keyed by lower-case name."""
    return {
        "nmi": nmi(truth, pred),
        "ari": ari(truth, pred),
        "acc": acc(truth, pred),
        "f1": f1(truth, pred),
    }
