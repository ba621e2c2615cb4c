"""Deterministic differentiable-numerics substrate: tensors with reverse-mode
gradients, MLPs with dropout, seeded init, adaptive-moment updates.

Every tape op is a ``Tensor`` method.  The functions exported here that
build tape nodes are the nodes no method covers (``concat``, the fused BCE
and entropy, ``mlp_apply``) and ``dropout``, the MLP layer's reference chain.

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
from .mlp import MLPSpec, dropout, init_params, mlp_apply
from .optim import OptimizerState, adam_step, zero_grads
from .gradcheck import grad_check

__all__ = [
    "MLPSpec",
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
    "init_params",
    "mlp_apply",
    "no_grad",
    "zero_grads",
]
