"""Deterministic differentiable-numerics substrate: tensors with reverse-mode
gradients, MLPs with dropout, seeded init, adaptive-moment updates.

Every tape op is a ``Tensor`` method.  The functions exported here that
build tape nodes are the nodes no method covers (``concat``, the fused BCE
and entropy) and ``dropout``, the MLP layer's reference chain.  An ``MLP``
holds one feed-forward stack: ``MLP.create`` validates its shape and draws
its parameters with ``xavier_uniform`` or ``kaiming_normal``, and calling it
records one tape node per layer.

An ``OptimizerState`` keeps its parameters' values and gradients in one flat
store, each ``Parameter.value`` and ``.grad`` a view of it.  Code that holds
the optimizer writes those arrays in place and never rebinds them, and
clears every gradient at once with ``zero_grads``.
"""

from .tensor import (
    Parameter,
    Tensor,
    backward,
    bernoulli_entropy,
    binary_cross_entropy,
    concat,
    no_grad,
)
from .mlp import MLP, dropout, kaiming_normal, xavier_uniform
from .optim import OptimizerState, adam_step, zero_grads
from .gradcheck import grad_check

__all__ = [
    "MLP",
    "OptimizerState",
    "Parameter",
    "Tensor",
    "adam_step",
    "backward",
    "bernoulli_entropy",
    "binary_cross_entropy",
    "concat",
    "dropout",
    "grad_check",
    "kaiming_normal",
    "no_grad",
    "xavier_uniform",
    "zero_grads",
]
