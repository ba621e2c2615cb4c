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

from .nncore import MLP, binary_cross_entropy, concat, kaiming_normal
from .nncore.tensor import _wrap


@dataclass
class ViewEncoder:
    """Encoder f_v plus its mirrored feature decoder for one view."""

    f: MLP
    dec: MLP

    @classmethod
    def create(cls, d_v, hidden, embed_dim, seed=0):
        f_seed, dec_seed = np.random.SeedSequence(seed).spawn(2)
        return cls(
            f=MLP.create(
                (2 * d_v, hidden, embed_dim), ("relu", "none"), f_seed,
                init=kaiming_normal,
            ),
            dec=MLP.create(
                (embed_dim, hidden, d_v), ("relu", "sigmoid"), dec_seed,
                init=kaiming_normal,
            ),
        )

    def parameters(self):
        return [*self.f.params, *self.dec.params]


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
    return enc.f(concat([specific_v, consensus]))


def reconstruction_loss(x_v, z_v, enc):
    """BCE between the view's features and their decoding from z_v; the
    dataset holds the features in [0, 1]."""
    return binary_cross_entropy(x_v, enc.dec(z_v))


def reconstruction_loss_global(x_global, q_embed, dec):
    """BCE between the global features and their decoding from the query
    embedding by ``dec``, the global decoder, the posterior net's mirror."""
    return binary_cross_entropy(x_global, dec(q_embed))
