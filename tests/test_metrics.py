"""Label-comparison scores checked against brute force and a second library."""

from itertools import permutations

import numpy as np
import pytest

from mvgc.metrics import acc, ari, contingency, f1, nmi


def random_labelings(seed, n=40, c_a=4, c_b=5):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, c_a, size=n)
    b = rng.integers(0, c_b, size=n)
    # force both sides non-degenerate
    a[:c_a] = np.arange(c_a)
    b[:c_b] = np.arange(c_b)
    return a, b


def exhaustive_acc(a, b):
    table = contingency(a, b)
    size = max(table.shape)
    padded = np.zeros((size, size))
    padded[: table.shape[0], : table.shape[1]] = table
    best = max(
        sum(padded[perm[j], j] for j in range(size))
        for perm in permutations(range(size))
    )
    return best / table.sum()


def best_matchings(table):
    """The largest matched count over every one-to-one matching on the
    zero-padded square table, and each matching that reaches it as its
    (class, cluster) pairs inside the table."""
    rows, cols = table.shape
    size = max(rows, cols)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[:rows, :cols] = table
    best, matchings = -1, []
    for perm in permutations(range(size)):
        count = sum(int(padded[perm[j], j]) for j in range(size))
        pairs = [(perm[j], j) for j in range(cols) if perm[j] < rows]
        if count > best:
            best, matchings = count, [pairs]
        elif count == best:
            matchings.append(pairs)
    return best, matchings


def macro_f1(table, pairs):
    """Mean over true classes of 2·tp / (class size + cluster size); an
    unmatched class scores 0."""
    total = 0.0
    for k, j in pairs:
        total += 2.0 * table[k, j] / (table[k, :].sum() + table[:, j].sum())
    return total / table.shape[0]


def test_contingency_counts_joint_occurrences():
    table = contingency([0, 0, 1, 1, 2], [1, 1, 0, 1, 0])
    assert table.dtype == np.int64
    assert table.tolist() == [[0, 2], [1, 1], [1, 0]]


def test_contingency_relabels_arbitrary_label_values():
    table = contingency(["x", "y", "x"], [7, 7, 3])
    assert table.sum() == 3
    assert table.shape == (2, 2)


def test_contingency_validates_inputs():
    with pytest.raises(ValueError):
        contingency([], [])
    with pytest.raises(ValueError):
        contingency([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        contingency(np.zeros((2, 2)), np.zeros(4))


@pytest.mark.parametrize("seed", range(8))
def test_nmi_matches_reference_library(seed):
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    a, b = random_labelings(seed)
    expected = sklearn_metrics.normalized_mutual_info_score(
        a, b, average_method="geometric"
    )
    assert nmi(a, b) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_ari_matches_reference_library(seed):
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    a, b = random_labelings(seed)
    assert ari(a, b) == pytest.approx(
        sklearn_metrics.adjusted_rand_score(a, b), abs=1e-10
    )


def test_nmi_perfect_and_independent_extremes():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert nmi(a, a) == pytest.approx(1.0)
    assert nmi(a, (a + 1) % 3) == pytest.approx(1.0)  # relabeling is free
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0)


def test_nmi_degenerate_conventions():
    assert nmi([3, 3, 3], [1, 1, 1]) == 1.0
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
    assert nmi([0, 1, 2], [5, 5, 5]) == 0.0


def test_ari_extremes_and_degenerate_convention():
    a = np.array([0, 0, 1, 1])
    assert ari(a, a) == pytest.approx(1.0)
    assert ari([1, 1, 1], [2, 2, 2]) == 1.0
    # independent partitions sit near zero and may dip below it
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) < 0.1


@pytest.mark.parametrize("seed", range(10))
def test_acc_equals_exhaustive_permutation_search(seed):
    a, b = random_labelings(seed, n=25, c_a=3, c_b=4)
    assert acc(a, b) == pytest.approx(exhaustive_acc(a, b), abs=0.0)


def test_acc_handles_more_predicted_clusters_than_classes():
    a = [0, 0, 0, 1, 1, 1]
    b = [0, 0, 1, 2, 2, 3]
    assert acc(a, b) == pytest.approx(exhaustive_acc(a, b), abs=0.0)


def test_acc_perfect_under_relabeling():
    a = np.array([0, 1, 2, 0, 1, 2])
    assert acc(a, (a + 2) % 3) == pytest.approx(1.0)


def test_f1_known_three_class_case():
    a = [0, 0, 0, 1, 1, 2]
    b = [0, 0, 1, 1, 1, 2]
    # matched classes score 0.8, 0.8, 1.0
    assert f1(a, b) == pytest.approx(13.0 / 15.0)
    assert acc(a, b) == pytest.approx(5.0 / 6.0)


def test_f1_counts_unmatched_classes_as_zero():
    assert f1([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(1.0 / 3.0)


def test_f1_perfect_prediction():
    a = [0, 1, 1, 2]
    assert f1(a, a) == pytest.approx(1.0)


def test_acc_and_f1_agree_with_every_best_matching_on_random_labelings():
    rng = np.random.default_rng(0)
    rectangular = 0
    for _ in range(400):
        n = int(rng.integers(1, 13))
        a = rng.integers(0, int(rng.integers(1, 6)), size=n)
        b = rng.integers(0, int(rng.integers(1, 6)), size=n)
        table = contingency(a, b)
        rectangular += table.shape[0] != table.shape[1]
        best, matchings = best_matchings(table)
        assert acc(a, b) == best / n
        score = f1(a, b)
        assert min(abs(score - macro_f1(table, pairs)) for pairs in matchings) <= 1e-12
    assert rectangular > 100


def test_f1_breaks_ties_on_the_zero_padded_square():
    # table [[1, 1], [1, 0], [0, 2]]: two matchings tie at 3 matched points;
    # the padded solve gives the first cluster to class 1 (F1 22/45), a
    # rectangular solve gives it to class 0 (F1 13/30)
    a, b = [0, 1, 0, 2, 2], [0, 0, 1, 1, 1]
    assert f1(a, b) == pytest.approx(22.0 / 45.0, rel=1e-12, abs=0.0)
    assert acc(a, b) == 0.6
