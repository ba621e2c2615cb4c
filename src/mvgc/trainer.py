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
consensus-graph posterior.  The belief update itself is never differentiated
through; beliefs enter the loss as constants refreshed once per epoch.

Everything that does not depend on the parameters is computed once, outside
the loss: ``init_state`` message-passes each view's features along its own
graph for the whole fit, and ``prepare_epoch`` computes the epoch's KL bound
(from the incoming beliefs) and its concrete-noise draw.  ``build_loss``
builds only the differentiable graph.
"""

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .cluster import (
    Beliefs,
    clustering_loss,
    fuse,
    kmeans,
    soft_assignment,
    target_distribution,
    update_beliefs,
)
from .encoder import (
    GlobalDecoder,
    ViewEncoder,
    encode_view,
    message_pass,
    reconstruction_loss,
    reconstruction_loss_global,
)
from .graph import add_self_loops, row_normalize
# acc, ari, f1 and nmi stay bound here: perfbench's traced run wraps them by
# these names
from .metrics import acc, ari, f1, nmi, score  # noqa: F401
from .nncore import OptimizerState, adam_step, no_grad, zero_grads
from .vargen import (
    PosteriorNet,
    compute_prior_beta,
    decode_adjacency,
    elbo_loss,
    infer_posterior,
    kl_upper_bound,
    logistic_noise,
    normalize_consensus,
    sample_consensus,
)


class TrainingError(Exception):
    """Raised when an epoch produces a non-finite loss term, or the trained
    model a non-finite final embedding."""


# fixed codes keep the per-(epoch, purpose) RNG streams disjoint
_PURPOSE_CODES = {"noise": 0, "dropout": 1, "pseudo": 2, "global": 3, "final": 4}
_VIEW_CODE_BASE = 16


def _purpose_code(purpose, view=None):
    if view is not None:
        return _VIEW_CODE_BASE + view
    return _PURPOSE_CODES[purpose]


def rng_stream(seed, epoch, purpose, view=None):
    """Deterministic generator for one (epoch, purpose) slot."""
    return np.random.default_rng((seed, epoch, _purpose_code(purpose, view)))


def derived_seed(seed, epoch, purpose, view=None):
    """Integer seed for components that reseed internally (k-means restarts)."""
    sequence = np.random.SeedSequence((seed, epoch, _purpose_code(purpose, view)))
    return int(sequence.generate_state(1)[0])


@dataclass
class TrainState:
    """Everything that persists across epochs: parameter groups, beliefs,
    optimizer moments, and ``specific``, each view's features message-passed
    along its own normalized graph (an n x d_v array, constant for the fit)."""

    posterior: PosteriorNet
    encoders: list
    global_decoder: GlobalDecoder
    specific: list
    beliefs: Beliefs
    optimizer: OptimizerState
    epoch: int = 0

    def parameters(self):
        params = list(self.posterior.parameters())
        for enc in self.encoders:
            params.extend(enc.parameters())
        params.extend(self.global_decoder.parameters())
        return params


@dataclass(frozen=True)
class EpochArtifacts:
    """Constants for one epoch's loss: the KL bound of the prior under the
    incoming beliefs, the updated beliefs for fusion, cluster structure from
    the eval pass, and the frozen concrete-noise draw."""

    kl_bound: float
    beliefs: Beliefs
    pseudo_labels: np.ndarray
    view_labels: tuple
    view_centroids: tuple
    global_centroids: np.ndarray
    noise: np.ndarray


@dataclass(frozen=True)
class FitResult:
    labels: np.ndarray
    metrics: object
    beliefs_history: list
    loss_history: list
    zbar: np.ndarray
    z_views: list
    consensus: np.ndarray
    inertia: float
    state: TrainState = field(repr=False, default=None)


def init_state(dataset, config):
    """Build parameter groups and optimizer for a dataset under a config."""
    seeds = np.random.SeedSequence(config.seed).generate_state(
        dataset.num_views + 2
    )
    d_global = dataset.x_global.shape[1]
    posterior = PosteriorNet.create(
        d_global, config.hidden, dropout=config.dropout, seed=int(seeds[0])
    )
    global_decoder = GlobalDecoder.create(
        config.hidden, config.hidden, d_global, seed=int(seeds[1])
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
        beliefs=Beliefs.initial(dataset.num_views, config.rho),
        optimizer=None,
    )
    state.optimizer = OptimizerState(state.parameters(), lr=config.lr)
    return state


def _forward(state, dataset, config, noise=None, dropout_rng=None):
    """Posterior, consensus sample and per-view embeddings, as Tensors.

    ``noise`` perturbs the concrete sample (otherwise it sits at the
    posterior median) and ``dropout_rng`` draws the posterior net's dropout
    masks (otherwise there is none).  Returns (logits, sample, z_views).
    """
    logits = infer_posterior(dataset.x_global, state.posterior, rng=dropout_rng)
    sample = sample_consensus(logits.alpha, config.tau, noise=noise)
    s_norm = normalize_consensus(sample)
    z_views = [
        encode_view(x, specific, s_norm, enc, config.order)
        for (x, _), specific, enc in zip(dataset.views, state.specific, state.encoders)
    ]
    return logits, sample, z_views


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
        fuse(z_views, state.beliefs), dataset.c,
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
        fuse(z_views, beliefs), dataset.c,
        seed=derived_seed(seed, epoch, "global"), restarts=config.restarts,
    )
    return EpochArtifacts(
        kl_bound=kl_upper_bound(
            compute_prior_beta(dataset.graphs, state.beliefs.b)
        ),
        beliefs=beliefs,
        pseudo_labels=pseudo.labels,
        view_labels=tuple(r.labels for r in view_results),
        view_centroids=tuple(r.centroids for r in view_results),
        global_centroids=global_result.centroids,
        noise=logistic_noise(
            rng_stream(seed, epoch, "noise"), (dataset.n, dataset.n)
        ),
    )


def build_loss(state, dataset, config, artifacts, p_global=None):
    """Differentiable objective for one epoch given frozen artifacts.

    ``p_global`` overrides the sharpened target; by default it is computed
    from the current global assignment and treated as a constant.  Returns
    (total, named terms, the target actually used) so callers can re-evaluate
    the loss with the target pinned.
    """
    logits, sample, z_views = _forward(
        state, dataset, config, noise=artifacts.noise,
        dropout_rng=rng_stream(config.seed, state.epoch, "dropout"),
    )

    l_r = reconstruction_loss_global(
        dataset.x_global, logits.q_embed, state.global_decoder
    )
    for (x, _), z, enc in zip(dataset.views, z_views, state.encoders):
        l_r = l_r + reconstruction_loss(x, z, enc)

    decoded = [decode_adjacency(z) for z in z_views]
    l_e = elbo_loss(dataset.graphs, decoded, sample, artifacts.kl_bound)

    zbar = fuse(z_views, artifacts.beliefs)
    q_views = [
        soft_assignment(z, centroids)
        for z, centroids in zip(z_views, artifacts.view_centroids)
    ]
    q_global = soft_assignment(zbar, artifacts.global_centroids)
    if p_global is None:
        p_global = target_distribution(q_global.q.value)
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
    params = state.parameters()
    zero_grads(params)
    total.backward()
    adam_step(state.optimizer)
    state.beliefs = artifacts.beliefs
    state.epoch += 1
    report["beliefs"] = artifacts.beliefs.b
    report["pseudo_labels"] = artifacts.pseudo_labels
    return report


# glibc's mallopt parameter number for M_TOP_PAD, and the freed heap it keeps
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 64 << 20


def _keep_freed_heap():
    """Ask the C allocator to keep up to 64 MiB of freed heap for reuse.

    Every epoch frees its whole tape when the loss is dropped.  By default
    glibc then hands the top of the heap back to the OS, and the next epoch
    faults the same pages in again: at n=200 (2-vCPU Xeon VM) that was about
    15k page faults and 35-45 ms of system time per 140 ms epoch.  A C
    library without ``mallopt`` keeps its own policy.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


def fit(dataset, config, callback=None):
    """Train for ``config.epochs`` epochs and cluster the final embedding.

    Final labels come from k-means on the eval-mode fusion, which must be
    finite (``TrainingError`` otherwise).  When the dataset carries ground
    truth the standard four metrics are attached.  ``callback`` (epoch,
    report) fires after every epoch.
    """
    _keep_freed_heap()
    state = init_state(dataset, config)
    beliefs_history = [state.beliefs.b]
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
    zbar = fuse(z_views, state.beliefs)
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
        inertia=final.inertia,
        state=state,
    )
