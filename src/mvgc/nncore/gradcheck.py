"""Finite-difference verification of reverse-mode gradients."""

import numpy as np

from .tensor import backward


def grad_check(loss_fn, params, h=1e-5, max_entries=64, rng=None):
    """Compare analytic gradients of ``loss_fn()`` against central differences.

    ``loss_fn`` is a zero-argument closure over ``params`` that rebuilds the
    loss expression from the current parameter values; it must be
    deterministic (eval mode, fixed sampling noise).  For each parameter up to
    ``max_entries`` entries are probed (all of them when the parameter is
    small).  Returns the maximum over probed entries of

        |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    params = list(params)
    rng = np.random.default_rng(0) if rng is None else rng

    for p in params:
        p.grad[...] = 0.0
    backward(loss_fn())
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.value.reshape(-1)
        size = flat.shape[0]
        if size <= max_entries:
            idx = np.arange(size)
        else:
            idx = rng.choice(size, size=max_entries, replace=False)
        for i in idx:
            kept = flat[i]
            flat[i] = kept + h
            plus = float(loss_fn().value)
            flat[i] = kept - h
            minus = float(loss_fn().value)
            flat[i] = kept
            numeric = (plus - minus) / (2.0 * h)
            ai = a.reshape(-1)[i]
            err = abs(ai - numeric) / max(1e-8, abs(ai) + abs(numeric))
            if err > worst:
                worst = err
    return worst
