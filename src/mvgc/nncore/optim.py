"""Adaptive-moment optimizer over one flat parameter store.

``OptimizerState`` moves its parameters into four flat float64 buffers:
``values`` and ``grads``, and the moments ``m`` and ``v``.  Each
``Parameter.value`` and ``.grad`` becomes a view of its slice, in the order
of the parameter list.  From then on a parameter's arrays are written in
place (``p.value[...] = x``, ``p.grad += g``), never rebound: ``adam_step``
raises ``RuntimeError`` on a rebound array rather than step a store the
parameter no longer reads.

``zero_grads`` zeroes every gradient with one fill of ``grads``.
``adam_step`` walks the flat buffers one block of ``_BLOCK_ENTRIES``
entries at a time with one block of scratch, so a block's arrays stay in
cache.  Every op is elementwise, so the update is bit for bit that of a
loop over the parameters.

The moment decay rates ``BETA1`` and ``BETA2`` and the denominator's ``EPS``
are the usual constants; only the learning rate is a setting.
"""

import numpy as np

from .tensor import _BLOCK_ENTRIES

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class OptimizerState:
    """The flat store of a fixed parameter list, its first/second moment
    accumulators, the step counter and one block of scratch."""

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = float(lr)
        self.step = 0
        total = sum(p.value.size for p in self.params)
        self.values = np.empty(total)
        self.grads = np.empty(total)
        start = 0
        for p in self.params:
            stop = start + p.value.size
            value = self.values[start:stop].reshape(p.value.shape)
            grad = self.grads[start:stop].reshape(p.value.shape)
            value[...] = p.value
            grad[...] = p.grad
            # rebinding frees the parameter's own arrays
            p.value, p.grad = value, grad
            start = stop
        # allocated after those arrays are freed, so the heap can hand their
        # memory to the moments rather than keep it as holes
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        # one block of workspace; adam_step stays allocation-free
        self._scratch = np.empty(max(1, min(_BLOCK_ENTRIES, total)))


def _check_attached(state):
    """Raise ``RuntimeError`` if a parameter's value or gradient was rebound
    to an array outside the store."""
    for i, p in enumerate(state.params):
        if p.value.base is not state.values or p.grad.base is not state.grads:
            raise RuntimeError(
                f"adam_step: parameter {i} {p.value.shape} no longer shares "
                "the optimizer's store; write its value and grad in place "
                "instead of rebinding them"
            )


def adam_step(state):
    """One bias-corrected adaptive-moment update from accumulated grads."""
    _check_attached(state)
    state.step += 1
    t = state.step
    correct1 = 1.0 - BETA1 ** t
    correct2 = 1.0 - BETA2 ** t
    block = state._scratch.size
    for start in range(0, state.values.size, block):
        part = slice(start, start + block)
        g, m, v = state.grads[part], state.m[part], state.v[part]
        scratch = state._scratch[:g.size]
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=scratch)
        m += scratch
        v *= BETA2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - BETA2
        v += scratch
        # scratch becomes the update: lr/correct1 * m / (sqrt(v/correct2) + eps)
        np.divide(v, correct2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS
        np.divide(m, scratch, out=scratch)
        scratch *= state.lr / correct1
        state.values[part] -= scratch


def zero_grads(state):
    """Zero every gradient of an ``OptimizerState``: one fill of its flat
    gradient buffer."""
    state.grads.fill(0.0)
