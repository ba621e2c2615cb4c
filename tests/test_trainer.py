"""Training loop wiring: seeding, epoch mechanics, and full-fit behavior."""

from dataclasses import replace

import numpy as np
import pytest

from mvgc import trainer
from mvgc.dataio import RunConfig, generate_sbm
from mvgc.graph import add_self_loops, row_normalize
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
    assert state.beliefs.b == (1.0, 1.0)
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
    assert result.inertia >= 0.0


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
