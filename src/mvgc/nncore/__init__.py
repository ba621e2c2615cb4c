"""Deterministic differentiable-numerics substrate: tensors with reverse-mode
gradients, MLPs with dropout, seeded init, adaptive-moment updates."""

from .tensor import (
    Parameter,
    Tensor,
    backward,
    bernoulli_entropy,
    binary_cross_entropy,
    concat,
    no_grad,
    zero_grads,
)
from .mlp import MLPSpec, dropout, init_params, mlp_apply
from .optim import OptimizerState, adam_step
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
