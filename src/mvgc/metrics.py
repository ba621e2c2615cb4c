"""Clustering evaluation: NMI, ARI, accuracy and F1 under optimal matching."""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class Contingency:
    """Joint count table of two labelings plus its marginals."""

    table: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    n: int


def _as_labels(a, name):
    a = np.asarray(a)
    if a.ndim != 1 or a.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty 1-d label vector")
    return a


def contingency(a, b):
    a = _as_labels(a, "a")
    b = _as_labels(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"label lengths differ: {a.shape[0]} vs {b.shape[0]}")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return Contingency(
        table=table,
        row_marginals=table.sum(axis=1),
        col_marginals=table.sum(axis=0),
        n=a.shape[0],
    )


def _entropy(counts, n):
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(a, b):
    """Mutual information normalized by the geometric mean of the entropies.

    Two single-cluster labelings are identical partitions, hence 1; if exactly
    one side is a single cluster the partitions differ and the score is 0.
    """
    ct = contingency(a, b)
    h_a = _entropy(ct.row_marginals, ct.n)
    h_b = _entropy(ct.col_marginals, ct.n)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    nz = ct.table > 0
    joint = ct.table[nz] / ct.n
    outer = np.outer(ct.row_marginals, ct.col_marginals)[nz] / (ct.n * ct.n)
    mi = float((joint * np.log(joint / outer)).sum())
    return float(np.clip(mi / np.sqrt(h_a * h_b), 0.0, 1.0))


def _pairs(counts):
    counts = counts.astype(np.float64)
    return float((counts * (counts - 1.0) / 2.0).sum())


def ari(a, b):
    """Pair-counting Rand index, adjusted for chance.  Degenerate cases where
    the adjustment denominator vanishes occur only for identical partitions
    (both trivial), so they score 1."""
    ct = contingency(a, b)
    index = _pairs(ct.table.reshape(-1))
    sum_a = _pairs(ct.row_marginals)
    sum_b = _pairs(ct.col_marginals)
    total = ct.n * (ct.n - 1) / 2.0
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


def hungarian(cost):
    """Minimum-cost perfect matching on the square zero-padding of ``cost``.

    Returns the matched column for every row of the padded table.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if not np.isfinite(cost).all():
        raise ValueError("costs must be finite")
    rows, cols = cost.shape
    size = max(rows, cols)
    padded = np.zeros((size, size))
    padded[:rows, :cols] = cost
    row_ind, col_ind = linear_sum_assignment(padded)
    assignment = np.empty(size, dtype=int)
    assignment[row_ind] = col_ind
    return assignment


def _match_predicted_to_true(ct):
    """Map each predicted cluster to a true class by maximizing matched mass;
    predicted clusters landing on padding rows map to nothing (-1)."""
    c_true, c_pred = ct.table.shape
    row_for_col = np.full(max(c_true, c_pred), -1, dtype=int)
    col_of_row = hungarian(-ct.table.astype(np.float64))
    for row, col in enumerate(col_of_row):
        if row < c_true and col < c_pred:
            row_for_col[col] = row
    return row_for_col[:c_pred]


def acc(a_true, b_pred):
    """Fraction of points matched under the best bijection between predicted
    clusters and true classes."""
    ct = contingency(a_true, b_pred)
    mapping = _match_predicted_to_true(ct)
    matched = sum(
        ct.table[mapping[j], j] for j in range(ct.table.shape[1]) if mapping[j] >= 0
    )
    return float(matched) / ct.n


def f1(a_true, b_pred):
    """Macro F1 over true classes after mapping predicted clusters to classes
    with the same optimal matching as ``acc``.  Classes that no predicted
    cluster maps to score 0 and still enter the average."""
    ct = contingency(a_true, b_pred)
    mapping = _match_predicted_to_true(ct)
    c_true, c_pred = ct.table.shape
    scores = []
    for k in range(c_true):
        cols = [j for j in range(c_pred) if mapping[j] == k]
        tp = float(sum(ct.table[k, j] for j in cols))
        predicted = float(sum(ct.col_marginals[j] for j in cols))
        actual = float(ct.row_marginals[k])
        if tp == 0.0:
            scores.append(0.0)
            continue
        precision = tp / predicted
        recall = tp / actual
        scores.append(2.0 * precision * recall / (precision + recall))
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
