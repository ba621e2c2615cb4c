"""Parameter-free message passing and the per-view encode/decode stacks.

Message passing needs no weights: features are pushed ``order`` times along a
row-stochastic graph and summed across hops with a residual copy of the
input.  Each view then compresses the concatenation of its specific-graph and
consensus-graph embeddings through a small MLP.  The specific-graph branch
has no parameters and a fixed graph, so the caller computes it once and
passes it in, as in SGC's precomputed propagation (Wu et al. 2019).
Mirror-shaped decoders reconstruct the view features (and the global
features from the posterior query embedding), giving the BCE terms that keep
embeddings informative.
"""

from dataclasses import dataclass

import numpy as np

from .nncore import (
    MLPSpec,
    binary_cross_entropy,
    concat,
    init_params,
    mlp_apply,
)
from .nncore.tensor import _wrap


@dataclass
class ViewEncoder:
    """Encoder f_v plus its mirrored feature decoder for one view."""

    f_spec: MLPSpec
    f_params: list
    dec_spec: MLPSpec
    dec_params: list

    @classmethod
    def create(cls, d_v, hidden, embed_dim, seed=0):
        f_spec = MLPSpec(
            layer_dims=(2 * d_v, hidden, embed_dim),
            activations=("relu", "none"),
            init_scheme="kaiming",
        )
        dec_spec = MLPSpec(
            layer_dims=(embed_dim, hidden, d_v),
            activations=("relu", "sigmoid"),
            init_scheme="kaiming",
        )
        f_seed, dec_seed = np.random.SeedSequence(seed).spawn(2)
        return cls(
            f_spec=f_spec,
            f_params=init_params(f_spec, f_seed),
            dec_spec=dec_spec,
            dec_params=init_params(dec_spec, dec_seed),
        )

    def parameters(self):
        return [*self.f_params, *self.dec_params]


@dataclass
class GlobalDecoder:
    """Mirror of the posterior net: maps the query embedding back to the
    concatenated global features."""

    spec: MLPSpec
    params: list

    @classmethod
    def create(cls, q_width, hidden, d_global, seed=0):
        spec = MLPSpec(
            layer_dims=(q_width, hidden, d_global),
            activations=("relu", "sigmoid"),
            init_scheme="xavier",
        )
        return cls(spec=spec, params=init_params(spec, seed))

    def parameters(self):
        return list(self.params)


def message_pass(x, a_norm, order):
    """(sum of the first ``order`` graph powers, plus two identity copies,
    applied to x) via iterated products: acc <- A acc; out <- out + acc."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    a = _wrap(a_norm)
    x = _wrap(x)
    if a.value.shape[0] != a.value.shape[1] or a.value.shape[1] != x.value.shape[0]:
        raise ValueError(
            f"graph {a.value.shape} does not act on features {x.value.shape}"
        )
    acc = x
    out = 2.0 * x
    for _ in range(order):
        acc = a @ acc
        out = out + acc
    return out


def encode_view(x_v, specific_v, s_norm, enc, order):
    """Embed one view: message-pass its features along the consensus graph,
    concatenate with ``specific_v`` (the same features already message-passed
    along the view's own graph, ``message_pass(x_v, a_norm_v, order)``), and
    compress through f_v."""
    consensus = message_pass(x_v, s_norm, order)
    return mlp_apply(
        enc.f_params, enc.f_spec, concat([specific_v, consensus], axis=1)
    )


def _check_unit_interval(x, what):
    x = np.asarray(x)
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError(f"{what} must be scaled into [0, 1] before BCE")


def reconstruction_loss(x_v, z_v, enc):
    """BCE between the view's features and their decoding from z_v."""
    _check_unit_interval(x_v, "view features")
    decoded = mlp_apply(enc.dec_params, enc.dec_spec, z_v)
    return binary_cross_entropy(np.asarray(x_v, dtype=np.float64), decoded)


def reconstruction_loss_global(x_global, q_embed, dec):
    """BCE between the global features and their decoding from the query
    embedding."""
    _check_unit_interval(x_global, "global features")
    decoded = mlp_apply(dec.params, dec.spec, q_embed)
    return binary_cross_entropy(np.asarray(x_global, dtype=np.float64), decoded)
