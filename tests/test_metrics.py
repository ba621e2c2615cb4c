"""Label-comparison scores checked against brute force and a second library."""

from itertools import permutations

import numpy as np
import pytest

from mvgc.metrics import acc, ari, contingency, f1, hungarian, nmi


def random_labelings(seed, n=40, c_a=4, c_b=5):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, c_a, size=n)
    b = rng.integers(0, c_b, size=n)
    # force both sides non-degenerate
    a[:c_a] = np.arange(c_a)
    b[:c_b] = np.arange(c_b)
    return a, b


def exhaustive_acc(a, b):
    ct = contingency(a, b)
    size = max(ct.table.shape)
    padded = np.zeros((size, size))
    padded[: ct.table.shape[0], : ct.table.shape[1]] = ct.table
    best = max(
        sum(padded[perm[j], j] for j in range(size))
        for perm in permutations(range(size))
    )
    return best / ct.n


def test_contingency_counts_joint_occurrences():
    ct = contingency([0, 0, 1, 1, 2], [1, 1, 0, 1, 0])
    assert ct.table.tolist() == [[0, 2], [1, 1], [1, 0]]
    assert ct.row_marginals.tolist() == [2, 2, 1]
    assert ct.col_marginals.tolist() == [2, 3]
    assert ct.n == 5


def test_contingency_relabels_arbitrary_label_values():
    ct = contingency(["x", "y", "x"], [7, 7, 3])
    assert ct.table.sum() == 3
    assert ct.table.shape == (2, 2)


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


def test_hungarian_square_known_optimum():
    cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    assignment = hungarian(cost)
    assert assignment.tolist() == [1, 0, 2]
    assert cost[np.arange(3), assignment].sum() == 5.0


def test_hungarian_pads_rectangular_costs():
    assignment = hungarian(np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]))
    assert len(assignment) == 3
    assert sorted(assignment.tolist()) == [0, 1, 2]
    assert assignment[0] == 0 and assignment[1] == 1


def test_hungarian_rejects_nonfinite_costs():
    with pytest.raises(ValueError):
        hungarian(np.array([[np.inf, 1.0], [1.0, 0.0]]))
