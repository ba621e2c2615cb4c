"""MLP building blocks: layer specs, seeded initialization, forward pass."""

from dataclasses import dataclass

import numpy as np

from .tensor import Parameter, _wrap

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


def dropout(x, rate, rng):
    """Inverted dropout: zero a ``rate`` fraction and rescale the survivors."""
    mask = (rng.random(x.value.shape) >= rate) / (1.0 - rate)
    return x * mask


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
    use_dropout = rng is not None and spec.dropout_rate > 0.0
    for layer in range(spec.num_layers):
        w, b = params[2 * layer], params[2 * layer + 1]
        h = h @ w + b
        act = spec.activations[layer]
        if act == "relu":
            h = h.relu()
        elif act == "sigmoid":
            h = h.sigmoid()
        if use_dropout:
            h = dropout(h, spec.dropout_rate, rng)
    return h
