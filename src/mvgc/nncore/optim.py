"""Adaptive-moment optimizer over Parameter lists."""

import numpy as np


class OptimizerState:
    """First/second moment accumulators plus step counter for a fixed
    parameter list."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        # reusable per-parameter workspace; adam_step stays allocation-free
        self._scratch = [np.empty_like(p.value) for p in self.params]


def adam_step(state):
    """One bias-corrected adaptive-moment update from accumulated grads."""
    state.step += 1
    t = state.step
    correct1 = 1.0 - state.beta1 ** t
    correct2 = 1.0 - state.beta2 ** t
    for p, m, v, scratch in zip(state.params, state.m, state.v, state._scratch):
        g = p.grad
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=scratch)
        m += scratch
        v *= state.beta2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - state.beta2
        v += scratch
        # scratch becomes the update: lr/correct1 * m / (sqrt(v/correct2) + eps)
        np.divide(v, correct2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.eps
        np.divide(m, scratch, out=scratch)
        scratch *= state.lr / correct1
        p.value -= scratch
