"""Training loop wiring: seeding, epoch mechanics, and full-fit behavior."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from mvgc import trainer
from mvgc.dataio import RunConfig, generate_sbm
from mvgc.graph import add_self_loops, row_normalize
from mvgc.nncore import Tensor
from mvgc.trainer import (
    TrainingError,
    build_loss,
    derived_seed,
    fit,
    init_state,
    prepare_epoch,
    rng_stream,
    train_epoch,
)
from mvgc.vargen import (
    adjacency_nll,
    compute_prior_beta,
    decided_nll,
    decode_adjacency,
    edge_pattern_counts,
    elbo_loss,
    kl_upper_bound,
)


def toy_dataset(seed=0, n=24, noisy_view=None):
    return generate_sbm(
        n=n, c=2, V=2, p_in=0.8, p_out=0.05, feature_dim=6,
        noisy_view=noisy_view, seed=seed,
    )


def toy_config(**overrides):
    base = dict(hidden=8, embed_dim=4, epochs=3, restarts=2, knn_k=3, seed=1)
    base.update(overrides)
    return RunConfig(**base)


def test_rng_stream_replays_and_separates_slots():
    first = rng_stream(0, 3, "noise").random(5)
    assert np.array_equal(first, rng_stream(0, 3, "noise").random(5))
    assert not np.array_equal(first, rng_stream(0, 3, "dropout").random(5))
    assert not np.array_equal(first, rng_stream(0, 4, "noise").random(5))
    assert not np.array_equal(first, rng_stream(1, 3, "noise").random(5))


def test_derived_seed_is_stable_and_slot_specific():
    assert derived_seed(2, 5, "pseudo") == derived_seed(2, 5, "pseudo")
    slots = {
        derived_seed(2, 5, "pseudo"),
        derived_seed(2, 5, "global"),
        derived_seed(2, 5, "view", view=0),
        derived_seed(2, 5, "view", view=1),
        derived_seed(2, 6, "pseudo"),
    }
    assert len(slots) == 5


def test_init_state_wires_every_parameter_group():
    dataset = toy_dataset()
    state = init_state(dataset, toy_config())
    assert state.beliefs == (1.0, 1.0)
    assert state.epoch == 0
    params = state.parameters()
    assert len(params) == len(state.optimizer.params)
    assert all(p is q for p, q in zip(params, state.optimizer.params))
    # each view's own-graph branch, message-passed once along its
    # row-normalized graph (order 2 in toy_config)
    for (x, g), specific in zip(dataset.views, state.specific):
        a = row_normalize(add_self_loops(g))
        assert np.allclose(a.sum(axis=1), 1.0)
        assert np.allclose(specific, 2.0 * x + a @ x + a @ (a @ x))


def _assert_parameters_view_the_store(state):
    """Each parameter's value and grad is the slice of the optimizer's flat
    buffers at its place in ``parameters()`` order."""
    opt = state.optimizer
    start = 0
    for p in state.parameters():
        stop = start + p.value.size
        for array, store in ((p.value, opt.values), (p.grad, opt.grads)):
            assert array.base is store
            assert array.ctypes.data == store[start:stop].ctypes.data
            assert array.shape == p.value.shape
        start = stop
    assert start == opt.values.size == opt.grads.size == opt.m.size == opt.v.size


def test_the_criterion_5_model_lives_in_one_flat_store():
    dataset = generate_sbm(n=200, c=4, V=2, p_in=0.25, p_out=0.01,
                           feature_noise=0.3, seed=0)
    config = RunConfig(seed=0, epochs=1)
    state = init_state(dataset, config)
    assert len(state.parameters()) == 25
    assert state.optimizer.values.size > 1_900_000
    _assert_parameters_view_the_store(state)
    train_epoch(state, dataset, config)
    _assert_parameters_view_the_store(state)
    assert state.optimizer.step == 1 and state.optimizer.grads.any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_gradients_names_the_epoch_and_group_of_a_bad_entry(bad):
    state = init_state(toy_dataset(), toy_config())
    state.epoch = 7
    names = [name for name, _ in state.parameter_groups()]
    assert names == ["posterior", "encoder 1", "encoder 2", "global decoder"]
    for name, params in state.parameter_groups():
        state.optimizer.grads.fill(0.0)
        params[-1].grad.flat[-1] = bad
        with pytest.raises(TrainingError,
                           match=f"^epoch 7: {name} gradient is not finite$"):
            trainer._check_gradients(state)
    # finite entries whose squared norm overflows pass
    state.optimizer.grads.fill(1e200)
    trainer._check_gradients(state)


def test_train_epoch_reports_finite_losses_and_advances():
    dataset = toy_dataset()
    state = init_state(dataset, toy_config())
    report = train_epoch(state, dataset, toy_config())
    assert state.epoch == 1
    for key in ("reconstruction", "clustering", "elbo", "total"):
        assert np.isfinite(report[key])
    assert len(report["beliefs"]) == 2
    assert report["pseudo_labels"].shape == (dataset.n,)


def test_zero_loss_weights_reduce_total_to_reconstruction():
    dataset = toy_dataset()
    config = toy_config(gamma_c=0.0, gamma_e=0.0)
    state = init_state(dataset, config)
    artifacts = prepare_epoch(state, dataset, config)
    _, parts, _ = build_loss(state, dataset, config, artifacts)
    assert parts["total"].value == parts["reconstruction"].value


def _tape_arrays(root):
    """Every array reachable from a tape: the values of its nodes and
    whatever their gradient closures hold, each counted once by the buffer
    it views."""
    seen, buffers = set(), {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            stack.append(obj.value)
            stack.extend(obj._parents)
            for cell in getattr(obj._grad_fn, "__closure__", None) or ():
                stack.append(cell.cell_contents)
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return list(buffers.values())


def _square_tape_arrays(dataset, config, decoder_shift=0.0):
    """The float n x n arrays on the tape after ``build_loss``, with
    ``decoder_shift`` added first to the output bias of each encoder's
    first embedding column, so that every embedding moves along one common
    direction.

    n = 24 differs from every other width (hidden 8, embed 4, features 6
    and 12), so an n x n array is one of the dense consensus or decoder
    stages: the sample, its row normalization and one decoder logits array
    per view."""
    state = init_state(dataset, config)
    for enc in state.encoders:
        enc.f.params[-1].value[0, 0] += decoder_shift
    total, _, _ = build_loss(
        state, dataset, config, prepare_epoch(state, dataset, config)
    )
    return [
        a for a in _tape_arrays(total)
        if a.shape == (dataset.n, dataset.n) and a.dtype == np.float64
    ]


def test_the_tape_holds_two_plus_three_v_square_float_arrays():
    # the toy's decoder is not saturated: its smallest |logit| is about 1.2,
    # so every view's likelihood is the sigmoid -> BCE chain, which keeps the
    # logits, their sigmoid and the dense adjacency
    dataset = toy_dataset()
    square = _square_tape_arrays(dataset, toy_config(dropout=0.3))
    assert len(square) == 2 + 3 * dataset.num_views


def test_a_saturated_decoder_leaves_no_square_array_on_the_tape(monkeypatch):
    # shifted by +40 along the first column, both views' embeddings are
    # certified, so no decoder logits are formed; the posterior logits
    # K Q^T are the sample's own buffer
    real_certify = trainer.decoder_certified
    verdicts = []

    def certify(z):
        verdicts.append(real_certify(z))
        return verdicts[-1]

    monkeypatch.setattr(trainer, "decoder_certified", certify)
    dataset = toy_dataset()
    square = _square_tape_arrays(dataset, toy_config(dropout=0.3), decoder_shift=40.0)
    assert verdicts == [True] * dataset.num_views
    assert len(square) == 2


def test_the_tape_holds_no_copy_of_an_embedding_or_of_the_fusion():
    # embed_dim 5 and zbar's width 10 differ from every other width (n 24,
    # hidden 8, features 6 and 12, c 2): the (n, 5) arrays on the tape can
    # only be the views' embeddings and their copies, and the (n, 10) ones
    # zbar and its copies.  Fusion and the soft assignments keep only their
    # inputs, so there is one of each per view and one zbar.
    dataset = toy_dataset()
    config = toy_config(embed_dim=5)
    state = init_state(dataset, config)
    total, _, _ = build_loss(
        state, dataset, config, prepare_epoch(state, dataset, config)
    )
    arrays = _tape_arrays(total)
    n = dataset.n
    views = [a for a in arrays if a.shape == (n, 5)]
    fused = [a for a in arrays if a.shape == (n, 10)]
    assert len(views) == dataset.num_views
    assert len(fused) == 1


def test_neither_the_epoch_artifacts_nor_a_graph_hold_a_square_array():
    dataset = toy_dataset()
    config = toy_config()
    artifacts = prepare_epoch(init_state(dataset, config), dataset, config)
    held = list(vars(artifacts).values())
    held += [a for values in held if isinstance(values, tuple) for a in values]
    for g in dataset.graphs:
        assert sparse.issparse(g.adj)
        held += list(vars(g).values())
        held += [g.adj.data, g.adj.indices, g.adj.indptr]
    assert not any(
        isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[0] == dataset.n
        and a.shape[1] == dataset.n
        for a in held
    )


def _poison_the_decoder(monkeypatch, certify):
    """Decode every logit to 50 but one NaN, and certify views by
    ``certify``: a certified view is scored without decoding, so the
    poisoned decoder runs only on the uncertified path."""
    real_decode = trainer.decode_adjacency

    def poisoned_decode(z):
        logits = real_decode(z)
        # every entry decided but one NaN, which must not count as decided
        logits.value[...] = 50.0
        logits.value[0, 1] = np.nan
        return logits

    monkeypatch.setattr(trainer, "decoder_certified", certify)
    monkeypatch.setattr(trainer, "decode_adjacency", poisoned_decode)


def test_a_nan_decoder_logit_fails_the_epoch(monkeypatch):
    _poison_the_decoder(monkeypatch, lambda z: False)
    with pytest.raises(TrainingError, match="^epoch 0: loss term 'elbo' is nan$"):
        fit(toy_dataset(), toy_config(epochs=2))


def test_a_nan_in_the_embedding_fails_the_certificate(monkeypatch):
    real_certify = trainer.decoder_certified

    def certify(z):
        # the toy embedding, saturated by a +40 first column, is certified;
        # with the NaN the decoder will hold, it is refused
        poisoned = z.value.copy()
        poisoned[:, 0] += 40.0
        assert real_certify(poisoned) is True
        poisoned[0, 0] = np.nan
        certified = real_certify(poisoned)
        assert certified is False
        return certified

    _poison_the_decoder(monkeypatch, certify)
    with pytest.raises(TrainingError, match="^epoch 0: loss term 'elbo' is nan$"):
        fit(toy_dataset(), toy_config(epochs=2))


def test_an_uncertified_view_is_scored_as_before_bit_for_bit(monkeypatch):
    dataset, config = toy_dataset(), toy_config()
    state = init_state(dataset, config)
    artifacts = prepare_epoch(state, dataset, config)
    monkeypatch.setattr(trainer, "decoder_certified", lambda z: False)
    _, parts, _ = build_loss(state, dataset, config, artifacts)
    _, sample, z_views = trainer._forward(
        state, dataset, config,
        noise_rng=rng_stream(config.seed, state.epoch, "noise"),
        dropout_rng=rng_stream(config.seed, state.epoch, "dropout"),
    )
    likelihood = 0.0
    for g, z in zip(dataset.graphs, z_views):
        likelihood = likelihood - adjacency_nll(g, decode_adjacency(z))
    want = elbo_loss(likelihood, sample, artifacts.kl_bound)
    assert parts["elbo"].value.tobytes() == want.value.tobytes()


def test_a_certified_view_is_scored_from_its_edge_count(monkeypatch):
    dataset, config = toy_dataset(), toy_config()
    state = init_state(dataset, config)
    artifacts = prepare_epoch(state, dataset, config)
    monkeypatch.setattr(trainer, "decoder_certified", lambda z: True)

    def no_decode(z):
        raise AssertionError("a certified view was decoded")

    monkeypatch.setattr(trainer, "decode_adjacency", no_decode)
    _, parts, _ = build_loss(state, dataset, config, artifacts)
    _, sample, _ = trainer._forward(
        state, dataset, config,
        noise_rng=rng_stream(config.seed, state.epoch, "noise"),
        dropout_rng=rng_stream(config.seed, state.epoch, "dropout"),
    )
    likelihood = 0.0
    for g in dataset.graphs:
        likelihood = likelihood - decided_nll(g)
    want = elbo_loss(likelihood, sample, artifacts.kl_bound)
    assert parts["elbo"].value.tobytes() == want.value.tobytes()


def test_the_epoch_kl_bound_comes_from_the_edge_pattern_counts():
    dataset, config = toy_dataset(noisy_view=1), toy_config(epochs=2)
    state = init_state(dataset, config)
    for got, want in zip(state.edge_patterns, edge_pattern_counts(dataset.graphs)):
        assert np.array_equal(got, want)
    for _ in range(2):
        want = kl_upper_bound(compute_prior_beta(dataset.graphs, state.beliefs))
        got = prepare_epoch(state, dataset, config).kl_bound
        assert abs(got - want) <= 1e-12 * abs(want)
        train_epoch(state, dataset, config)
    assert state.beliefs != (1.0, 1.0)


def test_rho_zero_freezes_unit_beliefs_and_plain_fusion():
    dataset = toy_dataset()
    result = fit(dataset, toy_config(rho=0.0))
    assert all(row == (1.0, 1.0) for row in result.beliefs_history)
    assert np.array_equal(result.zbar, np.concatenate(result.z_views, axis=1))


def test_nan_parameter_aborts_naming_the_bad_term():
    dataset = toy_dataset()
    config = toy_config()
    state = init_state(dataset, config)
    state.parameters()[0].value[0, 0] = np.nan
    with pytest.raises(TrainingError, match="loss term 'reconstruction' is nan"):
        train_epoch(state, dataset, config)


def test_nan_after_the_last_step_fails_the_fit(monkeypatch):
    real_step = trainer.adam_step

    def poisoned_step(optimizer):
        real_step(optimizer)
        optimizer.params[0].value[0, 0] = np.nan

    monkeypatch.setattr(trainer, "adam_step", poisoned_step)
    with pytest.raises(TrainingError, match="final embedding is not finite"):
        fit(toy_dataset(), toy_config(epochs=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_fails_the_epoch_that_made_it(monkeypatch, bad):
    states = []
    real_init, real_zero = trainer.init_state, trainer.zero_grads

    def recorded_init(dataset, config):
        states.append(real_init(dataset, config))
        return states[-1]

    def poisoned_zero(params):
        real_zero(params)
        if states[0].epoch == 0:
            # backward accumulates into the zeroed gradient, so the value stays
            states[0].encoders[1].parameters()[0].grad[0, 0] = bad

    monkeypatch.setattr(trainer, "init_state", recorded_init)
    monkeypatch.setattr(trainer, "zero_grads", poisoned_zero)
    epochs_done = []
    with pytest.raises(TrainingError, match="^epoch 0: encoder 2 gradient is not finite$"):
        fit(toy_dataset(), toy_config(epochs=3),
            callback=lambda epoch, report: epochs_done.append(epoch))
    assert epochs_done == []
    assert states[0].optimizer.step == 0


def test_fit_histories_metrics_and_shapes():
    dataset = toy_dataset()
    config = toy_config()
    result = fit(dataset, config)
    assert len(result.beliefs_history) == config.epochs + 1
    assert result.beliefs_history[0] == (1.0, 1.0)
    assert len(result.loss_history) == config.epochs
    assert all(len(row) == 3 for row in result.loss_history)
    assert result.labels.shape == (dataset.n,)
    assert result.zbar.shape == (dataset.n, 2 * config.embed_dim)
    assert result.consensus.shape == (dataset.n, dataset.n)
    assert result.consensus.min() > 0.0 and result.consensus.max() < 1.0
    assert set(result.metrics) == {"nmi", "ari", "acc", "f1"}
    for key in ("nmi", "acc", "f1"):
        assert 0.0 <= result.metrics[key] <= 1.0


def test_fit_is_deterministic_for_a_fixed_seed():
    dataset = toy_dataset()
    config = toy_config()
    first = fit(dataset, config)
    second = fit(dataset, config)
    assert np.array_equal(first.labels, second.labels)
    assert np.array_equal(first.zbar, second.zbar)
    assert first.beliefs_history == second.beliefs_history
    assert first.loss_history == second.loss_history


def test_fit_seed_changes_the_trajectory():
    dataset = toy_dataset()
    first = fit(dataset, toy_config(seed=1, epochs=1))
    second = fit(dataset, toy_config(seed=2, epochs=1))
    assert not np.array_equal(first.zbar, second.zbar)


def test_fit_without_labels_reports_no_metrics():
    dataset = replace(toy_dataset(), labels=None)
    result = fit(dataset, toy_config(epochs=1))
    assert result.metrics is None
    assert result.labels.shape == (dataset.n,)


@pytest.mark.parametrize("order", [0, 1, 3])
def test_fit_supports_any_message_passing_depth(order):
    dataset = toy_dataset()
    result = fit(dataset, toy_config(epochs=1, order=order))
    assert result.labels.shape == (dataset.n,)


def test_fit_callback_fires_once_per_epoch():
    seen = []
    fit(toy_dataset(), toy_config(), callback=lambda epoch, report: seen.append(epoch))
    assert seen == [0, 1, 2]
