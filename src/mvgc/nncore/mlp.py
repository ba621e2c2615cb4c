"""Feed-forward stacks: one ``MLP`` object holds a stack's activations, its
dropout rate and its seeded parameters, and calling it runs the forward pass.

Each layer is one tape node: the affine map, the activation and the dropout
mask run in place on one array, and the node keeps only the layer's output
and its boolean dropout mask for the backward.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .tensor import Parameter, Tensor, _record, _tracked, _unbroadcast, _wrap

_ACTIVATIONS = ("relu", "sigmoid", "none")


def xavier_uniform(rng, fan_in, fan_out):
    """A fan_in x fan_out weight drawn uniform on (-a, a) with
    a = sqrt(6/(fan_in+fan_out)), so the entry variance is
    2/(fan_in+fan_out)."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def kaiming_normal(rng, fan_in, fan_out):
    """A fan_in x fan_out weight drawn normal with variance 2/fan_in."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))


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


@dataclass(frozen=True)
class MLP:
    """A feed-forward stack: one activation per weight layer, the dropout
    rate, and the parameters ``[W0, b0, W1, b1, ...]``.

    Calling it on an input of n rows runs the layers; dropout (inverted
    convention) follows each layer's activation when the call gets an rng.
    """

    activations: tuple
    dropout: float
    params: tuple

    @classmethod
    def create(cls, layer_dims, activations, seed, dropout=0.0,
               init=xavier_uniform):
        """The stack ``layer_dims`` (input -> hidden ... -> output) with one
        of ``activations`` per weight layer.  Each weight is drawn by
        ``init`` (``xavier_uniform`` or ``kaiming_normal``) from one
        generator seeded with ``seed``, layer by layer; biases start at zero.
        Equal seeds give bit-identical values."""
        dims = tuple(int(d) for d in layer_dims)
        activations = tuple(activations)
        if len(dims) < 2:
            raise ValueError("layer_dims needs at least input and output")
        if any(d <= 0 for d in dims):
            raise ValueError(f"zero-width layer in {dims}")
        if len(activations) != len(dims) - 1:
            raise ValueError(
                f"expected {len(dims) - 1} activations, got {len(activations)}"
            )
        for a in activations:
            if a not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        rng = np.random.default_rng(seed)
        params = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            params.append(Parameter(init(rng, fan_in, fan_out)))
            params.append(Parameter(np.zeros((1, fan_out))))
        return cls(activations=activations, dropout=dropout, params=tuple(params))

    def __call__(self, x, rng=None):
        """Run the stack on ``x`` (n rows).  Dropout masks come from
        ``rng``; without one, or at rate 0, the pass is deterministic."""
        h = _wrap(x)
        width = self.params[0].value.shape[0]
        if h.value.ndim != 2 or h.value.shape[1] != width:
            raise ValueError(
                f"input shape {h.value.shape} does not match mlp input width "
                f"{width}"
            )
        if self.dropout == 0.0:
            rng = None
        for w, b, activation in zip(
            self.params[0::2], self.params[1::2], self.activations
        ):
            h = _layer(h, w, b, activation, self.dropout, rng)
        return h
