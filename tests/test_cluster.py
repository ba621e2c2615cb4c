"""k-means, belief updates, fusion, and the soft-assignment losses."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvgc.cluster import (
    ClusterResult,
    clustering_loss,
    fuse,
    kmeans,
    soft_assignment,
    target_distribution,
    update_beliefs,
)
from mvgc.metrics import nmi
from mvgc.nncore import Parameter, Tensor, backward, concat, grad_check
from mvgc.nncore.tensor import _wrap


def blobs(seed=0, n_per=20, c=3, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = np.eye(c) * 10.0
    points = np.concatenate(
        [centers[k] + spread * rng.normal(size=(n_per, c)) for k in range(c)]
    )
    labels = np.repeat(np.arange(c), n_per)
    return points, labels


def test_kmeans_recovers_separated_blobs():
    z, truth = blobs(seed=1)
    result = kmeans(z, 3, seed=0)
    assert nmi(truth, result.labels) == pytest.approx(1.0)


def test_kmeans_with_one_point_per_cluster_has_zero_inertia():
    z = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    result = kmeans(z, 3, seed=0)
    assert result.inertia == pytest.approx(0.0)
    assert sorted(result.labels) == [0, 1, 2]


def test_kmeans_is_deterministic_per_seed():
    z, _ = blobs(seed=2)
    first = kmeans(z, 3, seed=5)
    second = kmeans(z, 3, seed=5)
    assert np.array_equal(first.labels, second.labels)
    assert np.array_equal(first.centroids, second.centroids)


def test_kmeans_restarts_never_hurt_inertia():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(60, 4))
    single = kmeans(z, 5, seed=0, restarts=1).inertia
    many = kmeans(z, 5, seed=0, restarts=10).inertia
    assert many <= single + 1e-12


def test_kmeans_fills_every_cluster_on_degenerate_data():
    # more clusters than distinct locations: rescue must still fill all four
    z = np.repeat(np.array([[0.0, 0.0], [10.0, 10.0]]), 12, axis=0)
    z = z + 1e-9 * np.random.default_rng(4).normal(size=z.shape)
    result = kmeans(z, 4, seed=0)
    assert len(np.unique(result.labels)) == 4


def test_kmeans_validates_cluster_count():
    z = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(z, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans(z, 4, seed=0)


def test_kmeans_names_a_restart_count_below_one():
    z = np.zeros((3, 2))
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts must be positive"):
            kmeans(z, 2, seed=0, restarts=restarts)


def _reference_kmeans(z, c, seed=0, restarts=10, max_iter=300, tol=1e-6):
    """k-means with the restarts run one after another, each reading z for
    every seeding step and every Lloyd step: the oracle for ``kmeans``."""
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    z_sq = (z * z).sum(axis=1)

    def point_d2(idx):
        d2 = z_sq + z_sq[idx] - 2.0 * (z @ z[idx])
        np.maximum(d2, 0.0, out=d2)
        return d2

    def assign(centroids):
        d2 = z_sq[:, None] + (centroids * centroids).sum(axis=1) - 2.0 * (z @ centroids.T)
        np.maximum(d2, 0.0, out=d2)
        return d2.argmin(axis=1), d2.min(axis=1)

    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        chosen = np.empty(c, dtype=int)
        chosen[0] = rng.integers(n)
        d2 = point_d2(chosen[0])
        for j in range(1, c):
            total = float(d2.sum())
            if total > 0.0:
                cdf = np.cumsum(d2)
                idx = min(
                    int(np.searchsorted(cdf, rng.random() * total, side="right")),
                    n - 1,
                )
            else:
                mask = np.ones(n, dtype=bool)
                mask[chosen[:j]] = False
                free = np.flatnonzero(mask)
                idx = int(free[0]) if free.size else 0
            chosen[j] = idx
            np.minimum(d2, point_d2(idx), out=d2)
        centroids = z[chosen].copy()

        prev_inertia = np.inf
        for _ in range(max_iter):
            labels, fit = assign(centroids)
            counts = np.bincount(labels, minlength=c)
            for j in np.flatnonzero(counts == 0):
                if fit.max() > 0.0:
                    stray = int(fit.argmax())
                else:
                    stray = next(i for i in range(n) if counts[labels[i]] > 1)
                labels[stray] = j
                fit[stray] = 0.0
                counts = np.bincount(labels, minlength=c)
            inertia = float(fit.sum())
            members = np.zeros((c, n))
            members[labels, np.arange(n)] = 1.0
            centroids = (members @ z) / counts[:, None]
            if prev_inertia - inertia <= tol * max(abs(prev_inertia), 1e-12):
                break
            prev_inertia = inertia
        labels, fit = assign(centroids)
        inertia = float(fit.sum())
        if best is None or inertia < best.inertia:
            best = ClusterResult(labels=labels, centroids=centroids, inertia=inertia)
    return best


@st.composite
def kmeans_problems(draw):
    """Small integer-valued point sets with repeated rows.  Integer
    coordinates make every seeding distance and centroid sum exact, so the
    summation order inside BLAS, which differs between one product per
    restart and one for all restarts, cannot move a ++ draw or a centroid."""
    d = draw(st.integers(1, 4))
    distinct = draw(st.integers(1, 8))
    pool = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d),
        min_size=distinct, max_size=distinct,
    ))
    rows = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=24))
    z = np.array(pool, dtype=np.float64)[rows]
    n = len(rows)
    c = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return z, c


@settings(max_examples=200, deadline=None)
@given(
    kmeans_problems(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 10]),
    st.sampled_from([(300, 1e-6), (300, 0.0), (2, 0.0), (1, 1e-6), (0, 1e-6)]),
)
# one location, three clusters: the ++ draw takes the total == 0 fallback
# and two clusters start empty, so the rescue runs
@example((np.zeros((5, 2)), 3), 0, 10, (300, 1e-6))
# a cluster empties after the first update, while the fits differ, so the
# rescue's choice of point shows in the labels
@example((np.array([[0.0], [1], [-1], [-1], [1], [2], [-2], [-2]]), 6), 0, 1, (300, 0.0))
# the two restarts converge after different numbers of Lloyd steps
@example((np.array([[-3.0, 0], [-3, 2], [3, 1], [-3, 0], [-1, 2], [2, 2], [-3, 3],
                    [1, 0], [-1, 0], [-2, 2], [-3, 0], [1, 1]]), 4), 0, 2, (300, 0.0))
def test_kmeans_matches_restarts_run_one_after_another(problem, seed, restarts, stop):
    z, c = problem
    max_iter, tol = stop
    with np.errstate(invalid="ignore", divide="ignore"):
        expected = _reference_kmeans(z, c, seed, restarts, max_iter, tol)
        got = kmeans(z, c, seed=seed, restarts=restarts, max_iter=max_iter, tol=tol)
    assert np.array_equal(got.labels, expected.labels)
    assert np.array_equal(got.centroids, expected.centroids, equal_nan=True)
    if np.isnan(expected.inertia):
        assert np.isnan(got.inertia)
    else:
        assert got.inertia == pytest.approx(expected.inertia, rel=1e-12, abs=1e-300)


def test_kmeans_with_more_clusters_than_distinct_rows_stays_finite():
    # every fit is 0, so each empty cluster takes a point from a cluster
    # that keeps another member instead of all sharing the worst-fit point
    result = kmeans(np.zeros((5, 2)), 3)
    assert np.isfinite(result.centroids).all()
    assert result.inertia == 0.0
    assert np.array_equal(result.labels, np.zeros(5, dtype=int))


def test_fuse_scales_each_view_by_its_belief():
    z0 = np.ones((3, 2))
    z1 = np.full((3, 2), 2.0)
    fused = fuse([z0, z1], (1.0, 0.5))
    # plain arrays are constants: the fusion records no tape node
    assert fused._grad_fn is None and fused._parents == ()
    assert np.allclose(fused.value[:, :2], 1.0)
    assert np.allclose(fused.value[:, 2:], 1.0)


def test_fuse_with_unit_beliefs_is_plain_concatenation():
    rng = np.random.default_rng(5)
    z0, z1 = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    fused = fuse([z0, z1], (1.0, 1.0))
    assert fused._grad_fn is None and fused._parents == ()
    assert np.array_equal(fused.value, np.concatenate([z0, z1], axis=1))


def test_fuse_keeps_gradients_for_tensor_inputs():
    z = Parameter(np.random.default_rng(6).normal(size=(3, 2)))

    def loss_fn():
        fused = fuse([z, z * 2.0], (1.0, 0.5))
        return (fused * fused).sum()

    assert grad_check(loss_fn, [z], h=1e-6) < 1e-8


def test_fuse_rejects_belief_count_mismatch():
    with pytest.raises(ValueError):
        fuse([np.zeros((2, 2))], (1.0, 0.5))


def test_fuse_rejects_embeddings_it_cannot_concatenate():
    with pytest.raises(ValueError, match="nothing to fuse"):
        fuse([], ())
    with pytest.raises(ValueError, match="cannot fuse"):
        fuse([np.zeros((2, 2)), np.zeros((3, 2))], (1.0, 0.5))
    with pytest.raises(ValueError, match="cannot fuse"):
        fuse([Tensor(np.zeros((1, 2))), np.zeros((3, 2))], (1.0, 0.5))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _primitive_fuse(embeddings, b):
    """``fuse`` as the chain of primitive ops its node replaces."""
    return concat([_wrap(z) * bv for z, bv in zip(embeddings, b)])


def _primitive_soft_assignment(z, centroids):
    """``soft_assignment`` as the chain of primitive ops its node replaces;
    returns q."""
    z = _wrap(z)
    z_sq = (z * z).sum(axis=1, keepdims=True)
    d2 = z_sq - 2.0 * (z @ centroids.T) + (centroids * centroids).sum(axis=1)
    kernel = (1.0 + d2) ** -1.0
    return kernel / kernel.sum(axis=1, keepdims=True)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fuse_node_matches_the_primitive_chain_bit_for_bit(data):
    views = data.draw(st.integers(1, 3), label="views")
    n = data.draw(st.integers(1, 5), label="rows")
    widths = data.draw(st.lists(st.integers(1, 4), min_size=views, max_size=views))
    b = data.draw(st.lists(
        st.sampled_from([1.0, 0.5, 0.3137, 1e-12]), min_size=views, max_size=views,
    ))
    # "param": a Parameter of its own; "constant": a plain array; an int:
    # the same input as that earlier view
    kinds = [
        data.draw(st.sampled_from(["param", "constant", *range(v)]), label=f"view {v}")
        for v in range(views)
    ]
    other_first = data.draw(st.booleans(), label="other consumer first")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    starts = [rng.normal(size=(n, w)) for w in widths]

    def run(fuse_fn):
        params = [Parameter(v.copy()) for v in starts]
        inputs = []
        for v, kind in enumerate(kinds):
            if kind == "param":
                inputs.append(params[v])
            elif kind == "constant":
                inputs.append(starts[v])
            else:
                inputs.append(inputs[kind])
        out = fuse_fn(inputs, b)
        weight = np.random.default_rng(seed + 1).normal(size=out.shape)
        # every Parameter has a second consumer, so the order of its
        # gradient contributions shows in the bits
        terms = [(out * weight).sum(), sum((p * p).sum() for p in params)]
        backward(terms[1] + terms[0] if other_first else terms[0] + terms[1])
        return [out.value] + [p.grad for p in params]

    fused = run(fuse)
    primitive = run(_primitive_fuse)
    assert all(_same_bits(x, y) for x, y in zip(fused, primitive))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4),
    st.integers(1, 4), st.sampled_from([0.3, 1.0, 30.0]),
    st.sampled_from(["none", "before", "after", "fused"]),
)
@example(0, 5, 3, 2, 1.0, "fused")
@example(0, 1, 1, 1, 1.0, "none")
def test_soft_assignment_node_matches_the_primitive_chain_bit_for_bit(
    seed, n, d, c, scale, other
):
    # other: where z has another consumer, if any: a term summed before or
    # after the clustering loss, or, as in training, a fusion of z with a
    # second view whose own soft assignment is scored too
    rng = np.random.default_rng(seed)
    z0, z1 = rng.normal(scale=scale, size=(2, n, d))
    centroids = rng.normal(scale=scale, size=(c, d))
    wide = rng.normal(scale=scale, size=(c, 2 * d))
    p = rng.uniform(0.01, 1.0, size=(n, c))
    p /= p.sum(axis=1, keepdims=True)

    def run(assign, fuse_fn):
        z, w = Parameter(z0.copy()), Parameter(z1.copy())
        loss = clustering_loss(p, [assign(z, centroids)], assign(w, centroids))
        if other == "before":
            loss = (z * w).sum() + loss
        elif other == "after":
            loss = loss + (z * w).sum()
        elif other == "fused":
            zbar = fuse_fn([z, w], (1.0, 0.25))
            loss = clustering_loss(p, [assign(z, centroids)], assign(zbar, wide)) + loss
        backward(loss)
        return loss.value, z.grad, w.grad

    fused = run(soft_assignment, fuse)
    primitive = run(_primitive_soft_assignment, _primitive_fuse)
    assert all(_same_bits(x, y) for x, y in zip(fused, primitive))


def test_soft_assignment_keeps_no_copy_of_z_shape():
    z = Parameter(np.random.default_rng(9).normal(size=(5, 3)))
    q = soft_assignment(z, np.zeros((2, 3)))
    held = [cell.cell_contents for cell in q._grad_fn.__closure__]
    shaped = [obj for obj in held if isinstance(obj, np.ndarray) and obj.shape == (5, 3)]
    assert q._parents == (z,)
    assert shaped == [] or all(obj is z.value for obj in shaped)


def test_update_beliefs_normalizes_by_the_best_view():
    pseudo = np.array([0, 0, 1, 1, 2, 2])
    aligned = pseudo.copy()
    scrambled = np.array([0, 1, 0, 1, 0, 1])
    beliefs = update_beliefs(pseudo, [aligned, scrambled], rho=1.0)
    assert beliefs[0] == pytest.approx(1.0)
    assert beliefs[1] == pytest.approx(nmi(pseudo, scrambled))


def test_update_beliefs_rho_zero_trusts_everything():
    pseudo = np.array([0, 0, 1, 1])
    beliefs = update_beliefs(pseudo, [pseudo, np.array([0, 1, 0, 1])], rho=0.0)
    assert beliefs == (1.0, 1.0)


def test_update_beliefs_large_rho_binarizes():
    pseudo = np.array([0, 0, 1, 1, 2, 2])
    noisy = np.array([0, 0, 1, 2, 2, 1])
    beliefs = update_beliefs(pseudo, [pseudo, noisy], rho=200.0)
    assert beliefs[0] == 1.0
    assert beliefs[1] < 1e-6


def test_update_beliefs_all_zero_scores_fall_back_to_ones():
    pseudo = np.array([0, 0, 1, 1])
    constant = np.zeros(4, dtype=int)
    beliefs = update_beliefs(pseudo, [constant, constant], rho=1.0)
    assert beliefs == (1.0, 1.0)


def test_update_beliefs_floors_vanishing_scores():
    pseudo = np.array([0, 0, 1, 1])
    beliefs = update_beliefs(pseudo, [pseudo, np.zeros(4, dtype=int)], rho=1.0)
    assert beliefs[1] >= 1e-12


@pytest.mark.parametrize("rho", [-1.0, float("nan"), float("inf")])
def test_update_beliefs_names_a_rho_outside_its_range(rho):
    pseudo = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match="rho must be nonnegative and finite"):
        update_beliefs(pseudo, [pseudo, np.array([0, 1, 0, 1])], rho=rho)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.floats(0.0, 8.0))
def test_update_beliefs_keeps_values_in_unit_interval(seed, rho):
    rng = np.random.default_rng(seed)
    pseudo = rng.integers(0, 3, size=12)
    views = [rng.integers(0, 3, size=12) for _ in range(3)]
    beliefs = update_beliefs(pseudo, views, rho)
    assert all(0.0 < b <= 1.0 for b in beliefs)
    assert max(beliefs) == pytest.approx(1.0)


def test_soft_assignment_single_centroid_is_all_ones():
    z = np.random.default_rng(7).normal(size=(4, 2))
    q = soft_assignment(z, z.mean(axis=0, keepdims=True)).value
    assert np.allclose(q, 1.0)


def test_soft_assignment_splits_equidistant_points_evenly():
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])
    q = soft_assignment(np.array([[0.0, 0.0]]), centroids).value
    assert np.allclose(q, 0.5)


def test_soft_assignment_weights_follow_inverse_distance_kernel():
    centroids = np.array([[0.0], [1.0]])
    q = soft_assignment(np.array([[0.0]]), centroids).value
    # kernel 1 against kernel 1/2
    assert np.allclose(q, [[2.0 / 3.0, 1.0 / 3.0]])


def test_target_distribution_matches_two_stage_formula():
    rng = np.random.default_rng(8)
    q = rng.uniform(0.05, 1.0, size=(6, 3))
    q = q / q.sum(axis=1, keepdims=True)
    sharpened = q**2 / q.sum(axis=0)
    manual = sharpened / sharpened.sum(axis=1, keepdims=True)
    assert np.allclose(target_distribution(q), manual)
    assert np.allclose(target_distribution(q).sum(axis=1), 1.0)


def test_clustering_loss_sums_global_and_per_view_divergences():
    rng = np.random.default_rng(9)

    def simplex(shape):
        raw = rng.uniform(0.1, 1.0, size=shape)
        return raw / raw.sum(axis=1, keepdims=True)

    p = simplex((5, 3))
    q_global = Tensor(simplex((5, 3)))
    q_views = [Tensor(simplex((5, 3))) for _ in range(2)]
    loss = clustering_loss(p, q_views, q_global).value

    def kl(p_arr, q_arr):
        return (p_arr * (np.log(p_arr) - np.log(q_arr))).sum()

    manual = kl(p, q_global.value) + sum(kl(p, q.value) for q in q_views)
    assert loss == pytest.approx(manual)


def test_clustering_loss_is_zero_when_everything_matches_the_target():
    p = np.full((4, 2), 0.5)
    q = Tensor(np.full((4, 2), 0.5))
    assert clustering_loss(p, [q], q).value == pytest.approx(0.0)
