"""MLP building blocks: layer specs, seeded initialization, forward pass.

Each layer is one tape node: the affine map, the activation and the dropout
mask run in place on one array, and the node keeps only the layer's output
and its boolean dropout mask for the backward.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .tensor import Parameter, Tensor, _record, _tracked, _unbroadcast, _wrap

_ACTIVATIONS = ("relu", "sigmoid", "none")
_INIT_SCHEMES = ("xavier", "kaiming")


@dataclass(frozen=True)
class MLPSpec:
    """Shape and behaviour of a feed-forward stack.

    ``layer_dims`` runs input -> hidden ... -> output; ``activations`` names
    one nonlinearity per weight layer.  Dropout (inverted convention) is
    applied after each layer's activation when ``mlp_apply`` gets an rng.
    """

    layer_dims: tuple
    activations: tuple
    dropout_rate: float = 0.0
    init_scheme: str = "xavier"

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(dims) < 2:
            raise ValueError("layer_dims needs at least input and output")
        if any(d <= 0 for d in dims):
            raise ValueError(f"zero-width layer in {dims}")
        if len(self.activations) != len(dims) - 1:
            raise ValueError(
                f"expected {len(dims) - 1} activations, got {len(self.activations)}"
            )
        for a in self.activations:
            if a not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.init_scheme not in _INIT_SCHEMES:
            raise ValueError(f"unknown init scheme {self.init_scheme!r}")

    @property
    def num_layers(self):
        return len(self.layer_dims) - 1


def init_params(spec, seed):
    """Seeded weight/bias parameters for ``spec``: [W0, b0, W1, b1, ...].

    Xavier draws uniform on (-a, a) with a = sqrt(6/(fan_in+fan_out)), so the
    entry variance is 2/(fan_in+fan_out); kaiming draws normal with variance
    2/fan_in.  Biases start at zero.  Equal seeds give bit-identical values.
    """
    rng = np.random.default_rng(seed)
    params = []
    for fan_in, fan_out in zip(spec.layer_dims[:-1], spec.layer_dims[1:]):
        if spec.init_scheme == "xavier":
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        params.append(Parameter(w))
        params.append(Parameter(np.zeros((1, fan_out))))
    return params


def _keep_mask(shape, rate, rng):
    """Boolean dropout mask: True where an entry survives."""
    return rng.random(shape) >= rate


def _inverted(keep, rate):
    """Inverted-dropout multiplier of a keep mask: 0 for a dropped entry,
    1/(1-rate) else.  Used only by ``dropout``, the layer's reference."""
    return keep / (1.0 - rate)


def dropout(x, rate, rng):
    """Inverted dropout: zero a ``rate`` fraction and rescale the survivors.
    The reference chain of the dropout that ``_layer`` fuses."""
    return x * _inverted(_keep_mask(x.value.shape, rate, rng), rate)


def _layer(h, w, b, activation, rate, rng):
    """One layer as one tape node: activation(h @ w + b), then inverted
    dropout when ``rng`` is given.

    The node keeps the output and the boolean keep mask, an eighth of the
    float multiplier's bytes.  Forward and backward both multiply by the
    mask, then in place by the scalar 1/(1-rate): bit for bit the product
    with the multiplier ``keep / (1 - rate)``, since multiplying by a boolean
    is exact and the multiplier's kept entries are that rounded scalar.
    The relu derivative is read from the output: out > 0 exactly where the
    pre-activation is, except where dropout zeroed the entry, and there the
    masked gradient is already a signed zero that either factor keeps.  The
    sigmoid derivative is read from the sigmoid values, which are the output
    unless dropout rescaled them.
    """
    y = h.value @ w.value
    y += b.value
    if activation == "relu":
        np.maximum(y, 0.0, out=y)
    elif activation == "sigmoid":
        special.expit(y, out=y)
    act, keep, scale = y, None, 1.0 / (1.0 - rate)
    if rng is not None:
        keep = _keep_mask(y.shape, rate, rng)
        y = act * keep if activation == "sigmoid" else np.multiply(act, keep, out=act)
        y *= scale
    th, tw, tb = _tracked(h), _tracked(w), _tracked(b)

    def grad_fn(g):
        if keep is not None:
            g = g * keep
            g *= scale
        if activation == "relu":
            g = g * (y > 0)
        elif activation == "sigmoid":
            g = g * act * (1.0 - act)
        if tb:
            yield b, _unbroadcast(g, b.value.shape)
        if th:
            yield h, g @ w.value.T, True
        if tw:
            yield w, h.value.T @ g, True

    return _record(Tensor(y), (h, w, b), grad_fn)


def mlp_apply(params, spec, x, rng=None):
    """Run the stack on ``x`` (n rows).  Dropout masks come from ``rng``;
    without one, or at rate 0, the pass is deterministic."""
    h = _wrap(x)
    if h.value.ndim != 2 or h.value.shape[1] != spec.layer_dims[0]:
        raise ValueError(
            f"input shape {h.value.shape} does not match mlp input width "
            f"{spec.layer_dims[0]}"
        )
    if len(params) != 2 * spec.num_layers:
        raise ValueError("parameter list does not match spec")
    if spec.dropout_rate == 0.0:
        rng = None
    for layer in range(spec.num_layers):
        h = _layer(
            h, params[2 * layer], params[2 * layer + 1],
            spec.activations[layer], spec.dropout_rate, rng,
        )
    return h
