"""Fusion, k-means, self-supervised belief updates, and the clustering loss.

k-means runs all its restarts together: each ++ seeding step and each Lloyd
step reads the embedding once for every restart, through one matrix product.

The beliefs are a plain tuple, one float in (0, 1] per view, and a soft
assignment a plain n x c Tensor.  Fusion and the Student's-t soft
assignment (DEC, Xie et al. 2016) run on every epoch's tape, each as one
node.  The fusion scales each view straight into its columns of the fused
array and keeps only the views; the soft assignment keeps its input, the
centroids and three n x c arrays, and forms z * z only to sum it.  Each
hands its inputs the gradient pairs of the primitive chain it replaces, in
that chain's order, so gradients come out bit for bit as the chain's.
"""

import math
from dataclasses import dataclass

import numpy as np

from .metrics import nmi
from .nncore import Tensor
from .nncore.tensor import _record, _tracked, _unbroadcast, _wrap

_BELIEF_FLOOR = 1e-12


@dataclass(frozen=True)
class ClusterResult:
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float


def fuse(embeddings, beliefs):
    """Concatenate the views' embeddings, each scaled by its belief, as a
    Tensor.

    Takes Tensors or plain arrays, in dataset view order; a plain array is
    a constant, so fusing only plain arrays records no tape node.  Each view
    is scaled straight into its columns of one float64 array.  With a
    tracked view, that array is one tape node that keeps only the views:
    view v gets its columns of the gradient times b^v, in view order, as the
    per-view products and the concat they feed give it.
    """
    if len(beliefs) != len(embeddings):
        raise ValueError(f"{len(embeddings)} embeddings but {len(beliefs)} beliefs")
    if not embeddings:
        raise ValueError("nothing to fuse")
    embeddings = [_wrap(z) for z in embeddings]
    values = [z.value for z in embeddings]
    rows = values[0].shape[0]
    if any(v.ndim != 2 or v.shape[0] != rows for v in values):
        raise ValueError(
            f"cannot fuse embeddings of shapes {[v.shape for v in values]}"
        )
    ends = np.cumsum([v.shape[1] for v in values])
    columns = [slice(end - v.shape[1], end) for v, end in zip(values, ends)]
    fused = np.empty((rows, int(ends[-1])))
    for v, bv, cols in zip(values, beliefs, columns):
        np.multiply(v, bv, out=fused[:, cols])
    tracked = [
        (z, bv, cols)
        for z, bv, cols in zip(embeddings, beliefs, columns) if _tracked(z)
    ]

    def grad_fn(g):
        for z, bv, cols in tracked:
            yield z, g[:, cols] * bv, True

    return _record(Tensor(fused), tuple(embeddings), grad_fn)


def _seed_d2(z, z_sq, idx):
    """Squared distances from z[idx[r]] to every point, one row per restart."""
    d2 = z_sq + z_sq[idx][:, None] - 2.0 * (z[idx] @ z.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeans_pp_init(z, c, rngs, z_sq):
    """Distance-squared seeding for every restart at once, each drawing from
    its own rng by inverse cdf; degenerate weights fall back to the lowest
    unchosen index so duplicates cannot stall the draw.  Returns the
    restarts x c x d initial centroids."""
    n = z.shape[0]
    chosen = np.empty((len(rngs), c), dtype=int)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    d2 = _seed_d2(z, z_sq, chosen[:, 0])
    for j in range(1, c):
        totals = d2.sum(axis=1)
        cdf = np.cumsum(d2, axis=1)
        for r, rng in enumerate(rngs):
            if totals[r] > 0.0:
                draw = rng.random() * totals[r]
                idx = min(int(np.searchsorted(cdf[r], draw, side="right")), n - 1)
            else:
                mask = np.ones(n, dtype=bool)
                mask[chosen[r, :j]] = False
                free = np.flatnonzero(mask)
                idx = int(free[0]) if free.size else 0
            chosen[r, j] = idx
        np.minimum(d2, _seed_d2(z, z_sq, chosen[:, j]), out=d2)
    return z[chosen]


def _assign(z, z_sq, centroids):
    """Nearest centroid of every point under each restart's centroids
    (restarts x c x d), from one n x (restarts * c) product.  Returns labels
    and squared distances as restarts x n arrays."""
    runs, c, _ = centroids.shape
    flat = centroids.reshape(runs * c, -1)
    d2 = z_sq[:, None] + (flat * flat).sum(axis=1) - 2.0 * (z @ flat.T)
    np.maximum(d2, 0.0, out=d2)
    d2 = d2.reshape(-1, runs, c)
    labels = d2.argmin(axis=2)
    # the minimum column by column: numpy's min over a short last axis is
    # several times slower
    fit = d2[:, :, 0].copy()
    for j in range(1, c):
        np.minimum(fit, d2[:, :, j], out=fit)
    return np.ascontiguousarray(labels.T), np.ascontiguousarray(fit.T)


def _stray(labels, fit, counts):
    """The point a deterministic rescue hands an empty cluster: the worst
    fit while any fit is positive; once every point sits on its centroid,
    the lowest-index point whose cluster keeps another member, so the rescue
    never empties a cluster (c > n is rejected, so such a point exists)."""
    if fit.max() > 0.0:
        return int(fit.argmax())
    return int(np.flatnonzero(counts[labels] > 1)[0])


def _lloyd(z, centroids, max_iter, tol, z_sq):
    """Lloyd steps for every restart together.  A restart leaves the batch
    when its stop test holds, which is after its first update: the previous
    inertia starts at inf, and inf - x <= tol * inf.  Returns labels
    (restarts x n), the centroids and each restart's inertia."""
    runs, c, _ = centroids.shape
    n = z.shape[0]
    prev_inertia = np.full(runs, np.inf)
    active = np.arange(runs)
    for _ in range(max_iter):
        labels, fit = _assign(z, z_sq, centroids[active])
        offsets = c * np.arange(active.size)[:, None]
        counts = np.bincount(
            (labels + offsets).ravel(), minlength=active.size * c
        ).reshape(-1, c)
        for r in np.flatnonzero((counts == 0).any(axis=1)):
            for j in np.flatnonzero(counts[r] == 0):
                stray = _stray(labels[r], fit[r], counts[r])
                labels[r, stray] = j
                fit[r, stray] = 0.0
                counts[r] = np.bincount(labels[r], minlength=c)
        inertia = fit.sum(axis=1)
        members = np.zeros((active.size * c, n))
        members[(labels + offsets).ravel(), np.tile(np.arange(n), active.size)] = 1.0
        sums = members @ z
        sums /= counts.reshape(-1, 1)
        centroids[active] = sums.reshape(active.size, c, -1)
        prev = prev_inertia[active]
        with np.errstate(invalid="ignore"):
            done = prev - inertia <= tol * np.maximum(np.abs(prev), 1e-12)
        prev_inertia[active] = inertia
        active = active[~done]
        if active.size == 0:
            break
    labels, fit = _assign(z, z_sq, centroids)
    return labels, centroids, fit.sum(axis=1)


def kmeans(z, c, seed=0, restarts=10, max_iter=300, tol=1e-6):
    """Best-inertia k-means over seeded ++ restarts; deterministic given seed.

    Each restart draws from its own rng stream and stops after one Lloyd
    update (see ``_lloyd``); the first with the lowest inertia wins, as if
    they ran in turn, though they run together (see the module docstring).
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    if c > n:
        raise ValueError(f"cannot form {c} clusters from {n} points")
    if c <= 0:
        raise ValueError("cluster count must be positive")
    if restarts <= 0:
        raise ValueError("restarts must be positive")
    z_sq = (z * z).sum(axis=1)
    rngs = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(restarts)
    ]
    centroids = _kmeans_pp_init(z, c, rngs, z_sq)
    labels, centroids, inertia = _lloyd(z, centroids, max_iter, tol, z_sq)
    best = 0
    for r in range(1, restarts):
        if inertia[r] < inertia[best]:
            best = r
    return ClusterResult(
        labels=labels[best].copy(), centroids=centroids[best].copy(),
        inertia=float(inertia[best]),
    )


def update_beliefs(pseudo_labels, clusterings, rho):
    """One float per view: the agreement of its own clustering with the
    pseudo labels, normalized by the best view's and softened by exponent rho."""
    if not 0 <= rho < math.inf:
        raise ValueError("rho must be nonnegative and finite")
    scores = np.array([nmi(pseudo_labels, labels) for labels in clusterings])
    top = scores.max()
    if top <= 0.0:
        b = np.ones(len(clusterings))
    else:
        b = np.maximum((scores / top) ** rho, _BELIEF_FLOOR)
    return tuple(float(v) for v in b)


def soft_assignment(z, centroids):
    """Student's-t responsibilities (one degree of freedom) of each row of z
    toward constant centroids C, as one n x c Tensor q:

        q = kernel / kernel.sum(1),  kernel = (1 + d2) ** -1,
        d2 = |z|^2 - 2 z C^T + |C|^2.

    One tape node, which keeps z, the centroids and three small arrays, 1 +
    d2, the kernel and its row sums, but not z * z.  Its backward runs the
    chain's gradient ops and hands z the chain's three pairs in the chain's
    order: the row-norm term g_|z|^2 * z twice, as the product z * z does,
    then the cross term (-2 g_d2) C.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    z = _wrap(z)
    zv = z.value
    sq_shape = (zv.shape[0], 1)
    cross = zv @ centroids.T
    cross *= 2.0
    shifted = (zv * zv).sum(axis=1, keepdims=True) - cross
    del cross
    shifted += (centroids * centroids).sum(axis=1)
    shifted += 1.0
    kernel = shifted ** -1.0
    k_sum = kernel.sum(axis=1, keepdims=True)
    q = Tensor(kernel / k_sum)

    def grad_fn(g):
        g_sum = _unbroadcast(-g * kernel / (k_sum * k_sum), k_sum.shape)
        g_d2 = g / k_sum
        g_d2 += g_sum
        g_d2 = g_d2 * -1.0 * shifted ** -2.0
        g_cross = -g_d2 * 2.0
        g_z = _unbroadcast(g_d2, sq_shape) * zv
        del g_d2
        yield z, g_z
        yield z, g_z
        del g_z
        yield z, g_cross @ centroids, True

    return _record(q, (z,), grad_fn)


def target_distribution(q):
    """Sharpen soft assignments: square, normalize by cluster mass, then
    re-normalize each row."""
    q = np.asarray(q, dtype=np.float64)
    weight = q ** 2 / q.sum(axis=0, keepdims=True)
    return weight / weight.sum(axis=1, keepdims=True)


def clustering_loss(p_global, q_views, q_global):
    """KL from the constant global target to each view's soft assignment and
    to the global one.  Gradients flow through the Q's only."""
    p = np.asarray(p_global, dtype=np.float64)
    # 0 log 0 = 0: zero-probability targets contribute nothing
    log_p = np.log(np.where(p > 0.0, p, 1.0))

    def kl(q):
        return (p * (log_p - _wrap(q).log())).sum()

    loss = kl(q_global)
    for q in q_views:
        loss = loss + kl(q)
    return loss
