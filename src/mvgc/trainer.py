"""Full-batch training loop tying the generator, encoders, and clustering
objectives together.

Each epoch runs the same forward pass (``_forward``) twice.  The eval pass
(the consensus at its noise-free median, no dropout, no tape) produces the
embeddings that drive k-means: pseudo labels from the fused embedding under
the previous epoch's beliefs, per-view labels for the belief update, and the
centroids the soft assignments are anchored to.  The train pass (frozen
logistic noise, dropout) then builds the differentiable objective

    total = L_r + gamma_c * L_c - gamma_E * L_E

where L_r reconstructs the per-view and global features, L_c pulls soft
assignments toward a sharpened target, and L_E is the evidence bound on the
consensus-graph posterior: ``build_loss`` scores each view's adjacency in
turn and hands the summed likelihood to ``elbo_loss``.  A view whose
embedding passes ``decoder_certified`` is scored from its edge count
(``decided_nll``); any other is decoded and scored by ``adjacency_nll``.
The belief update itself is never differentiated through; beliefs, one
float per view, are loss constants refreshed each epoch.

Everything that does not depend on the parameters is computed once, outside
the loss: ``init_state`` message-passes each view's features along its own
graph and counts the node pairs of each edge pattern, both for the whole
fit, and ``prepare_epoch`` computes the epoch's KL bound from those counts
and the incoming beliefs.  ``build_loss`` builds only the differentiable
graph; the sample node draws the epoch's concrete noise from its own
stream a row block at a time, into the sample's buffer, so no n x n noise
array exists and no n x n array outlives the stage that reads it last.
The consensus branch divides each hop's product by the sample's row sums,
so the tape holds no row-normalized copy of the sample.
"""

import ctypes
from dataclasses import dataclass

import numpy as np

from .cluster import (
    clustering_loss,
    fuse,
    kmeans,
    soft_assignment,
    target_distribution,
    update_beliefs,
)
from .encoder import (
    ViewEncoder,
    encode_view,
    message_pass,
    reconstruction_loss,
    reconstruction_loss_global,
)
from .graph import add_self_loops, row_normalize
# acc, ari, f1 and nmi, and compute_prior_beta below, stay bound here:
# perfbench's traced run wraps them by these names
from .metrics import acc, ari, f1, nmi, score  # noqa: F401
from .nncore import MLP, OptimizerState, adam_step, no_grad, zero_grads
from .vargen import compute_prior_beta  # noqa: F401
from .vargen import (
    PosteriorNet,
    adjacency_nll,
    decode_adjacency,
    decided_nll,
    decoder_certified,
    edge_pattern_counts,
    elbo_loss,
    infer_posterior,
    normalize_consensus,
    pattern_kl_bound,
    sample_consensus,
)


class TrainingError(Exception):
    """Raised when an epoch produces a non-finite loss term or gradient, or
    the trained model a non-finite final embedding."""


# fixed codes keep the per-(epoch, purpose) RNG streams disjoint
_PURPOSE_CODES = {"noise": 0, "dropout": 1, "pseudo": 2, "global": 3, "final": 4}
_VIEW_CODE_BASE = 16


def _purpose_code(purpose, view=None):
    if view is not None:
        return _VIEW_CODE_BASE + view
    return _PURPOSE_CODES[purpose]


def rng_stream(seed, epoch, purpose):
    """Deterministic generator for one (epoch, purpose) slot."""
    return np.random.default_rng((seed, epoch, _purpose_code(purpose)))


def derived_seed(seed, epoch, purpose, view=None):
    """Integer seed for components that reseed internally (k-means restarts)."""
    sequence = np.random.SeedSequence((seed, epoch, _purpose_code(purpose, view)))
    return int(sequence.generate_state(1)[0])


@dataclass
class TrainState:
    """Everything that persists across epochs: parameter groups, beliefs,
    the optimizer, and two constants of the fit: ``specific``, each view's
    features message-passed along its own normalized graph (an n x d_v
    array), and ``edge_patterns``, the graphs' ``edge_pattern_counts``: the
    edge patterns that occur and how many node pairs hold each.

    The optimizer holds every parameter's value and gradient in its flat
    store, in ``parameters()`` order."""

    posterior: PosteriorNet
    encoders: list
    global_decoder: MLP
    specific: list
    edge_patterns: tuple
    beliefs: tuple
    optimizer: OptimizerState
    epoch: int = 0

    def parameter_groups(self):
        """(name, parameters) per group, in optimizer order; encoders are
        numbered from 1, as the views' files are."""
        return [
            ("posterior", self.posterior.parameters()),
            *((f"encoder {v}", enc.parameters())
              for v, enc in enumerate(self.encoders, start=1)),
            ("global decoder", self.global_decoder.params),
        ]

    def parameters(self):
        return [p for _, group in self.parameter_groups() for p in group]


@dataclass(frozen=True)
class EpochArtifacts:
    """Constants for one epoch's loss: the KL bound of the prior under the
    incoming beliefs, the updated beliefs for fusion, and cluster structure
    from the eval pass."""

    kl_bound: float
    beliefs: tuple
    pseudo_labels: np.ndarray
    view_centroids: tuple
    global_centroids: np.ndarray


@dataclass(frozen=True)
class FitResult:
    labels: np.ndarray
    metrics: object
    beliefs_history: list
    loss_history: list
    zbar: np.ndarray
    z_views: list
    consensus: np.ndarray


def init_state(dataset, config):
    """Build parameter groups and optimizer for a dataset under a config."""
    seeds = np.random.SeedSequence(config.seed).generate_state(
        dataset.num_views + 2
    )
    d_global = dataset.x_global.shape[1]
    posterior = PosteriorNet.create(
        d_global, config.hidden, dropout=config.dropout, seed=int(seeds[0])
    )
    # the posterior net's mirror: query embedding -> global features
    global_decoder = MLP.create(
        (config.hidden, config.hidden, d_global), ("relu", "sigmoid"),
        int(seeds[1]),
    )
    encoders = [
        ViewEncoder.create(
            x.shape[1], config.hidden, config.embed_dim, seed=int(seeds[2 + v])
        )
        for v, (x, _) in enumerate(dataset.views)
    ]
    state = TrainState(
        posterior=posterior,
        encoders=encoders,
        global_decoder=global_decoder,
        specific=[
            message_pass(x, row_normalize(add_self_loops(g)), config.order).value
            for x, g in dataset.views
        ],
        edge_patterns=edge_pattern_counts(dataset.graphs),
        beliefs=(1.0,) * dataset.num_views,
        optimizer=None,
    )
    state.optimizer = OptimizerState(state.parameters(), lr=config.lr)
    return state


def _forward(state, dataset, config, noise_rng=None, dropout_rng=None):
    """Posterior query embedding, consensus sample and per-view embeddings,
    as Tensors.

    ``noise_rng`` is passed straight to the sample node, which draws from
    it the logistic noise that perturbs the concrete sample (otherwise it
    sits at the posterior median).  ``dropout_rng`` draws the posterior
    net's dropout masks (otherwise there is none).  Returns (q_embed,
    sample, z_views).
    """
    k, q = infer_posterior(dataset.x_global, state.posterior, rng=dropout_rng)
    sample = sample_consensus(k, q, config.tau, rng=noise_rng)
    r = normalize_consensus(sample)
    z_views = [
        encode_view(x, specific, sample, r, enc, config.order)
        for (x, _), specific, enc in zip(dataset.views, state.specific, state.encoders)
    ]
    return q, sample, z_views


def _forward_eval(state, dataset, config):
    """Deterministic pass, with no tape: consensus probabilities and
    per-view embeddings as plain arrays."""
    with no_grad():
        _, sample, z_views = _forward(state, dataset, config)
    return sample.value, [z.value for z in z_views]


def prepare_epoch(state, dataset, config):
    """Refresh the epoch's constants from an eval-mode pass.

    Pseudo labels cluster the fusion under the incoming beliefs; the belief
    update then rescores every view before the global centroids are drawn
    from the re-fused embedding.  The KL bound uses the incoming beliefs.
    """
    seed, epoch = config.seed, state.epoch
    _, z_views = _forward_eval(state, dataset, config)
    pseudo = kmeans(
        fuse(z_views, state.beliefs).value, dataset.c,
        seed=derived_seed(seed, epoch, "pseudo"), restarts=config.restarts,
    )
    view_results = [
        kmeans(z, dataset.c, seed=derived_seed(seed, epoch, "view", view=v),
               restarts=config.restarts)
        for v, z in enumerate(z_views)
    ]
    beliefs = update_beliefs(
        pseudo.labels, [r.labels for r in view_results], config.rho
    )
    global_result = kmeans(
        fuse(z_views, beliefs).value, dataset.c,
        seed=derived_seed(seed, epoch, "global"), restarts=config.restarts,
    )
    return EpochArtifacts(
        kl_bound=pattern_kl_bound(state.edge_patterns, state.beliefs),
        beliefs=beliefs,
        pseudo_labels=pseudo.labels,
        view_centroids=tuple(r.centroids for r in view_results),
        global_centroids=global_result.centroids,
    )


def build_loss(state, dataset, config, artifacts, p_global=None):
    """Differentiable objective for one epoch given frozen artifacts.

    ``p_global`` overrides the sharpened target; by default it is computed
    from the current global assignment and treated as a constant.  Returns
    (total, named terms, the target actually used) so callers can re-evaluate
    the loss with the target pinned.
    """
    q_embed, sample, z_views = _forward(
        state, dataset, config,
        noise_rng=rng_stream(config.seed, state.epoch, "noise"),
        dropout_rng=rng_stream(config.seed, state.epoch, "dropout"),
    )

    l_r = reconstruction_loss_global(dataset.x_global, q_embed, state.global_decoder)
    for (x, _), z, enc in zip(dataset.views, z_views, state.encoders):
        l_r = l_r + reconstruction_loss(x, z, enc)

    # a certified view forms no logits; any other view's logits are freed
    # once scored, before the next is decoded
    likelihood = 0.0
    for g, z in zip(dataset.graphs, z_views):
        if decoder_certified(z):
            nll = decided_nll(g)
        else:
            nll = adjacency_nll(g, decode_adjacency(z))
        likelihood = likelihood - nll
    l_e = elbo_loss(likelihood, sample, artifacts.kl_bound)

    zbar = fuse(z_views, artifacts.beliefs)
    q_views = [
        soft_assignment(z, centroids)
        for z, centroids in zip(z_views, artifacts.view_centroids)
    ]
    q_global = soft_assignment(zbar, artifacts.global_centroids)
    if p_global is None:
        p_global = target_distribution(q_global.value)
    l_c = clustering_loss(p_global, q_views, q_global)

    total = l_r + config.gamma_c * l_c - config.gamma_e * l_e
    parts = {"reconstruction": l_r, "clustering": l_c, "elbo": l_e,
             "total": total}
    return total, parts, p_global


def train_epoch(state, dataset, config):
    """One optimization step; returns the epoch report.

    The report carries the scalar losses, the refreshed beliefs, and the
    pseudo labels that drove the belief update.
    """
    artifacts = prepare_epoch(state, dataset, config)
    total, parts, _ = build_loss(state, dataset, config, artifacts)
    report = {}
    for name, term in parts.items():
        value = float(term.value)
        if not np.isfinite(value):
            raise TrainingError(
                f"epoch {state.epoch}: loss term {name!r} is {value}"
            )
        report[name] = value
    zero_grads(state.optimizer)
    total.backward()
    _check_gradients(state)
    adam_step(state.optimizer)
    state.beliefs = artifacts.beliefs
    state.epoch += 1
    report["beliefs"] = artifacts.beliefs
    report["pseudo_labels"] = artifacts.pseudo_labels
    return report


def _check_gradients(state):
    """Raise ``TrainingError`` naming the epoch and parameter group of the
    first non-finite gradient, before Adam spreads it into every moment.

    One squared norm of the optimizer's flat gradient: a finite norm proves
    every entry finite.  Only a non-finite one (possibly an overflow of
    finite entries) scans the groups entry by entry."""
    g = state.optimizer.grads
    if np.isfinite(np.vdot(g, g)):
        return
    for name, params in state.parameter_groups():
        if not all(np.isfinite(p.grad).all() for p in params):
            raise TrainingError(
                f"epoch {state.epoch}: {name} gradient is not finite"
            )


# glibc's mallopt parameter numbers, the freed heap kept at the top, the
# free top that triggers a trim (the largest int mallopt takes), and the
# size from which a block gets its own mapping (the upper limit glibc
# documents for it)
_M_TRIM_THRESHOLD = -1
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
_TOP_PAD_BYTES = 64 << 20
_TRIM_THRESHOLD_BYTES = (1 << 31) - 1
_MMAP_THRESHOLD_BYTES = 32 << 20


def _keep_freed_heap():
    """Ask the C allocator to reuse freed arrays instead of returning them to
    the OS: keep the freed top of the heap (trim only past 2 GiB of it, and
    then keep 64 MiB), and serve blocks below 32 MiB from the heap rather
    than from a mapping of their own.

    Every epoch frees its whole tape, most of it during ``backward``.  By
    default glibc hands the top of the heap back to the OS, and the next
    epoch faults the same pages in again: at n=200 (2-vCPU Xeon VM) that
    was about 15k page faults and 35-45 ms of system time per 140 ms epoch.
    A 64 MiB top pad alone still trims a larger free top down to 64 MiB, so
    an n=1600 epoch, whose tape holds about 130 MB, faulted about 9k pages
    back in each time (a 4-epoch fit: 52-57k minor faults, 26k with the
    trim threshold set).  Setting either also stops glibc from adjusting its
    mmap threshold, which stays wherever earlier frees left it (128 KiB in a
    fresh process), so an n x 512 or n x n array may be mapped, unmapped and
    faulted in afresh on every use.  Pinning the threshold at 32 MiB, the
    upper limit glibc documents and the ceiling of its own dynamic
    threshold, keeps the n x n arrays up to n of about 2000 on the heap.  A
    C library without ``mallopt`` keeps its own policy.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def fit(dataset, config, callback=None):
    """Train for ``config.epochs`` epochs and cluster the final embedding.

    Final labels come from k-means on the eval-mode fusion, which must be
    finite (``TrainingError`` otherwise).  When the dataset carries ground
    truth the standard four metrics are attached.  ``callback`` (epoch,
    report) fires after every epoch.
    """
    _keep_freed_heap()
    state = init_state(dataset, config)
    beliefs_history = [state.beliefs]
    loss_history = []
    for epoch in range(config.epochs):
        report = train_epoch(state, dataset, config)
        beliefs_history.append(report["beliefs"])
        loss_history.append(
            (report["reconstruction"], report["clustering"], report["elbo"])
        )
        if callback is not None:
            callback(epoch, report)
    consensus, z_views = _forward_eval(state, dataset, config)
    zbar = fuse(z_views, state.beliefs).value
    if not np.isfinite(zbar).all():
        raise TrainingError("final embedding is not finite")
    final = kmeans(
        zbar, dataset.c,
        seed=derived_seed(config.seed, state.epoch, "final"),
        restarts=config.restarts,
    )
    return FitResult(
        labels=final.labels,
        metrics=None if dataset.labels is None else score(dataset.labels, final.labels),
        beliefs_history=beliefs_history,
        loss_history=loss_history,
        zbar=zbar,
        z_views=z_views,
        consensus=consensus,
    )
