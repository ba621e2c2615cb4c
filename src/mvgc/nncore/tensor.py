"""Reverse-mode automatic differentiation over dense float64 matrices.

A Tensor wraps a numpy array together with an optional tape node.  Every
operation that touches a tracked input records its parents and a closure
mapping the output gradient to input gradients; ``backward`` walks that
dynamic tape once in reverse topological order and then drops it.  Only the
operations the pipeline needs are implemented; broadcasting is supported for
elementwise ops and bias rows, nothing fancier.

A gradient closure may capture its inputs and plain arrays, never the output
Tensor it is attached to: that would make a reference cycle (out -> grad_fn
-> out), and the tape would then outlive the loss until the cycle collector
runs.  Ops whose gradient needs their own result capture the result array.

Inside ``no_grad()`` nothing is tracked, so no op records a tape node: a pass
whose values are all the caller reads builds no tape at all.

Everything is float64.  Given identical inputs and seeds the forward values
and gradients are bit-identical across runs.
"""

from contextlib import contextmanager

import numpy as np
from scipy import special

# False inside no_grad(); read only by _tracked
_recording = True


class Tensor:
    """Dense float64 array plus gradient bookkeeping.

    ``requires_grad`` marks a leaf whose gradient should be accumulated into
    ``.grad`` by ``backward``.  Interior nodes keep their parents and a
    gradient closure instead.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_grad_fn")

    # keep numpy from elementwise-broadcasting over Tensor operands; binary
    # ops with an ndarray on the left must fall back to our reflected methods
    __array_ufunc__ = None

    def __init__(self, value, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.value) if self.requires_grad else None
        self._parents = ()
        self._grad_fn = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.value.shape}{flag})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __pow__(self, exponent):
        return power(self, exponent)

    # -- shape and reductions -----------------------------------------------

    def transpose(self):
        return transpose(self)

    @property
    def T(self):
        return transpose(self)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    # -- elementwise nonlinearities ------------------------------------------

    def log(self):
        return log(self)

    def exp(self):
        return exp(self)

    def sigmoid(self):
        return sigmoid(self)

    def relu(self):
        return relu(self)

    def clip(self, low, high):
        return clip(self, low, high)

    def backward(self):
        backward(self)


class Parameter(Tensor):
    """Trainable leaf: value plus an accumulated gradient of the same shape."""

    def __init__(self, value):
        super().__init__(value, requires_grad=True)

    def zero_grad(self):
        self.grad[...] = 0.0


def zero_grads(params):
    for p in params:
        p.zero_grad()


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


@contextmanager
def no_grad():
    """Build no tape inside the block: every result is a constant Tensor.
    The previous setting comes back on exit, also when the block raises."""
    global _recording
    saved = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = saved


def _tracked(t):
    return _recording and (t.requires_grad or t._grad_fn is not None)


def _record(out, parents, grad_fn):
    """Attach a tape node to ``out`` if any parent is tracked."""
    if any(_tracked(p) for p in parents):
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value + b.value)
    ta, tb = _tracked(a), _tracked(b)
    if not (ta or tb):
        return out

    def grad_fn(g):
        pairs = []
        if ta:
            pairs.append((a, _unbroadcast(g, a.value.shape)))
        if tb:
            pairs.append((b, _unbroadcast(g, b.value.shape)))
        return pairs

    return _record(out, (a, b), grad_fn)


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value - b.value)
    ta, tb = _tracked(a), _tracked(b)
    if not (ta or tb):
        return out

    def grad_fn(g):
        pairs = []
        if ta:
            pairs.append((a, _unbroadcast(g, a.value.shape)))
        if tb:
            pairs.append((b, _unbroadcast(-g, b.value.shape)))
        return pairs

    return _record(out, (a, b), grad_fn)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value * b.value)
    ta, tb = _tracked(a), _tracked(b)
    if not (ta or tb):
        return out

    def grad_fn(g):
        pairs = []
        if ta:
            pairs.append((a, _unbroadcast(g * b.value, a.value.shape)))
        if tb:
            pairs.append((b, _unbroadcast(g * a.value, b.value.shape)))
        return pairs

    return _record(out, (a, b), grad_fn)


def div(a, b):
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value / b.value)
    ta, tb = _tracked(a), _tracked(b)
    if not (ta or tb):
        return out

    def grad_fn(g):
        pairs = []
        if ta:
            pairs.append((a, _unbroadcast(g / b.value, a.value.shape)))
        if tb:
            pairs.append(
                (b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))
            )
        return pairs

    return _record(out, (a, b), grad_fn)


def neg(a):
    a = _wrap(a)
    out = Tensor(-a.value)
    return _record(out, (a,), lambda g: ((a, -g),))


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError(
            f"matmul expects 2-d operands, got {a.value.shape} @ {b.value.shape}"
        )
    out = Tensor(a.value @ b.value)
    ta, tb = _tracked(a), _tracked(b)
    if not (ta or tb):
        return out

    def grad_fn(g):
        pairs = []
        if ta:
            pairs.append((a, g @ b.value.T))
        if tb:
            pairs.append((b, a.value.T @ g))
        return pairs

    return _record(out, (a, b), grad_fn)


def transpose(a):
    a = _wrap(a)
    out = Tensor(a.value.T.copy())
    return _record(out, (a,), lambda g: ((a, g.T),))


def tensor_sum(a, axis=None, keepdims=False):
    a = _wrap(a)
    out = Tensor(a.value.sum(axis=axis, keepdims=keepdims))

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return ((a, np.broadcast_to(g, a.value.shape).copy()),)

    return _record(out, (a,), grad_fn)


def log(a):
    a = _wrap(a)
    out = Tensor(np.log(a.value))
    return _record(out, (a,), lambda g: ((a, g / a.value),))


def exp(a):
    a = _wrap(a)
    e = np.exp(a.value)
    return _record(Tensor(e), (a,), lambda g: ((a, g * e),))


def sigmoid(a):
    a = _wrap(a)
    # expit is the overflow-safe logistic; saturation to exact 0/1 in
    # float64 is expected for |x| beyond ~37
    s = special.expit(a.value)
    return _record(Tensor(s), (a,), lambda g: ((a, g * s * (1.0 - s)),))


def relu(a):
    a = _wrap(a)
    out = Tensor(np.maximum(a.value, 0.0))
    return _record(out, (a,), lambda g: ((a, g * (a.value > 0)),))


def power(a, exponent):
    a = _wrap(a)
    p = float(exponent)
    out = Tensor(a.value ** p)
    return _record(
        out, (a,), lambda g: ((a, g * p * a.value ** (p - 1.0)),)
    )


def clip(a, low, high):
    """Clamp values into [low, high]; gradient is blocked where clamped."""
    a = _wrap(a)
    out = Tensor(np.clip(a.value, low, high))
    if not _tracked(a):
        return out
    inside = (a.value >= low) & (a.value <= high)
    return _record(out, (a,), lambda g: ((a, g * inside),))


def concat(tensors, axis=1):
    tensors = [_wrap(t) for t in tensors]
    out = Tensor(np.concatenate([t.value for t in tensors], axis=axis))
    offsets = np.cumsum([0] + [t.value.shape[axis] for t in tensors])

    def grad_fn(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(
            (t, np.moveaxis(moved[offsets[i]:offsets[i + 1]], 0, axis).copy())
            for i, t in enumerate(tensors)
        )

    return _record(out, tuple(tensors), grad_fn)


def binary_cross_entropy(target, prediction, clamp=1e-7):
    """Summed BCE between a constant target in [0,1] and predicted probabilities.

    Predictions are clamped into [clamp, 1-clamp] before the logs so that
    saturated values stay finite; the gradient is blocked where the clamp
    engaged.  Fused into one tape node: the BCE sits on every epoch's hot
    path several times over.
    """
    target = np.asarray(target, dtype=np.float64)
    pred = _wrap(prediction)
    q = np.clip(pred.value, clamp, 1.0 - clamp)
    out = Tensor(-(target * np.log(q) + (1.0 - target) * np.log1p(-q)).sum())
    if not _tracked(pred):
        return out

    def grad_fn(g):
        inside = (pred.value >= clamp) & (pred.value <= 1.0 - clamp)
        return ((pred, g * inside * ((q - target) / (q * (1.0 - q)))),)

    return _record(out, (pred,), grad_fn)


def bernoulli_entropy(p):
    """Summed entropy of independent Bernoulli variables with probabilities
    ``p``; the caller keeps ``p`` strictly inside (0, 1)."""
    a = _wrap(p)
    v = a.value
    out = Tensor(-(v * np.log(v) + (1.0 - v) * np.log1p(-v)).sum())
    if not _tracked(a):
        return out

    def grad_fn(g):
        return ((a, g * (np.log1p(-v) - np.log(v))),)

    return _record(out, (a,), grad_fn)


def backward(loss):
    """Accumulate d(loss)/d(leaf) into every reachable Parameter's ``.grad``.

    The loss must be scalar.  Gradients add up across repeated backward calls
    until ``zero_grad``.  The tape lives only as long as the loss expression
    itself; dropping the loss frees it.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.value.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")

    # iterative post-order over the tape
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited and _tracked(parent):
                stack.append((parent, False))

    grads = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad += g
        if node._grad_fn is None:
            continue
        for parent, pg in node._grad_fn(g):
            if not _tracked(parent):
                continue
            held = grads.get(id(parent))
            grads[id(parent)] = pg if held is None else held + pg
