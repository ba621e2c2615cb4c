"""Reverse-mode automatic differentiation over dense float64 matrices.

A Tensor wraps a numpy array together with an optional tape node.  Every
operation that touches a tracked input records its parents and a closure
mapping the output gradient to input gradients; ``backward`` walks that
dynamic tape once in reverse topological order.  Each op is one ``Tensor``
method, its only definition; an ndarray or a number may stand on the left of
``+``, ``-`` and ``*`` only.  Broadcasting is supported for elementwise ops
and bias rows, nothing fancier.  ``relu``, ``clip``, ``/``, ``**`` and
``sum`` over an axis serve only the reference chains that tests check fused
nodes against bit for bit; each names its node.

A gradient closure keeps only what its own backward reads: its parents and
the plain arrays it needs.  It never captures the output Tensor it is
attached to: that would make a reference cycle (out -> grad_fn -> out), and
the tape would then outlive the loss until the cycle collector runs.  Ops
whose gradient needs their own result capture the result array.  Where a
chain of ops runs on every epoch over n x d or n x n arrays, one fused node
replaces it, so its intermediates never reach the tape:

- here: ``binary_cross_entropy``, and ``bernoulli_entropy``, whose forward
  and backward each fill one array the size of its input;
- each layer of an ``MLP`` (``mlp``): affine map, activation and dropout,
  keeping a boolean dropout mask;
- in ``mvgc.vargen``: the concrete sample, which also forms the posterior
  logits K Q^T in the buffer that becomes the sample, so neither the logits
  nor the noise reach the tape; its row normalization, which forms the row
  term of its backward a row block at a time;
- in ``mvgc.cluster``: the fusion, which keeps no scaled copy of a view, and
  the soft assignment, which keeps z and n x c arrays but not z * z.

A fused node hands its parents the pairs the chain would, in the chain's
order, so the walk sums them in the same order and the gradients come out
bit for bit.  A gradient function returns its (parent, gradient) pairs or
yields them one at a time; a generator lets the walk add each pair in
before the next is made.  A pair may carry a third item, True, when its
function made the array for that pair alone and keeps no other use of it:
the array is handed over, and the walk may add later pairs into it.

Every op records its node through ``_record``, which attaches it only when
a parent is tracked.  The concrete sample alone asks ``_tracked`` first, to
skip forming a mask that serves the backward alone.

The clamped BCE has one home, ``binary_cross_entropy``; its per-entry terms
``_bce_terms`` also give ``mvgc.vargen`` the constant terms of an edge and a
non-edge at an infinite positive logit.  A view whose decoder logits are
certified positive and beyond logit(1 - clamp) + 1 is scored from those two
constants and its edge count, with no logits and no node; any other view's
likelihood is the plain sigmoid -> BCE chain.

``backward`` consumes the tape node by node: once a node has passed its
gradient on, its closure and parent links are dropped, so each intermediate
array is freed as soon as nothing later in the walk reads it.  A consumed
loss cannot be walked again.  A node reached by several pairs gets their
sum in place, in an array handed over or else in one the walk makes at the
second pair; the walk writes into no other array a gradient function
returns.

Inside ``no_grad()`` nothing is tracked, so no op records a tape node: a pass
whose values are all the caller reads builds no tape at all.

Everything is float64.  Given identical inputs and seeds the forward values
and gradients are bit-identical across runs.
"""

import operator
from contextlib import contextmanager

import numpy as np
from scipy import special

# False inside no_grad(); read only by _tracked
_recording = True


class Tensor:
    """Dense float64 array plus gradient bookkeeping.

    A plain Tensor is a constant, or an interior node that keeps its parents
    and a gradient closure.  The only leaf ``backward`` accumulates a
    gradient into is a ``Parameter``, whose ``requires_grad`` is True.
    """

    __slots__ = ("value", "grad", "_parents", "_grad_fn", "__weakref__")

    # keep numpy from elementwise-broadcasting over Tensor operands: an
    # ndarray on the left of + - * falls back to the reflected method, and
    # on the left of / or @ raises TypeError
    __array_ufunc__ = None

    requires_grad = False

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._grad_fn = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"{type(self).__name__}(shape={self.value.shape})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return _binary(
            operator.add, self, other, lambda g, av, bv: g, lambda g, av, bv: g
        )

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(
            operator.sub, self, other, lambda g, av, bv: g, lambda g, av, bv: -g
        )

    def __rsub__(self, other):
        return _wrap(other) - self

    def __mul__(self, other):
        return _binary(
            operator.mul, self, other,
            lambda g, av, bv: g * bv, lambda g, av, bv: g * av,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        # reference chain of the row normalization and the soft assignment
        return _binary(
            operator.truediv, self, other,
            lambda g, av, bv: g / bv, lambda g, av, bv: -g * av / (bv * bv),
        )

    def __matmul__(self, other):
        a, b = self, _wrap(other)
        if a.value.ndim != 2 or b.value.ndim != 2:
            raise ValueError(
                f"matmul expects 2-d operands, got {a.value.shape} @ {b.value.shape}"
            )
        out = Tensor(a.value @ b.value)
        ta, tb = _tracked(a), _tracked(b)

        def grad_fn(g):
            if ta:
                yield a, g @ b.value.T, True
            if tb:
                yield b, a.value.T @ g, True

        return _record(out, (a, b), grad_fn)

    def __pow__(self, exponent):
        # reference chain of the soft assignment's Student-t kernel
        p = float(exponent)
        out = Tensor(self.value ** p)
        return _record(
            out, (self,), lambda g: ((self, g * p * self.value ** (p - 1.0)),)
        )

    # -- shape and reductions -----------------------------------------------

    @property
    def T(self):
        out = Tensor(self.value.T.copy())
        return _record(out, (self,), lambda g: ((self, g.T),))

    def sum(self, axis=None, keepdims=False):
        # axis, keepdims: reference chains of row normalization, soft assignment
        out = Tensor(self.value.sum(axis=axis, keepdims=keepdims))

        def grad_fn(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return ((self, np.broadcast_to(g, self.value.shape).copy()),)

        return _record(out, (self,), grad_fn)

    # -- elementwise nonlinearities ------------------------------------------

    def log(self):
        out = Tensor(np.log(self.value))
        return _record(out, (self,), lambda g: ((self, g / self.value),))

    def sigmoid(self):
        # expit is the overflow-safe logistic; saturation to exact 0/1 in
        # float64 is expected for |x| beyond ~37
        s = special.expit(self.value)
        return _record(Tensor(s), (self,), lambda g: ((self, g * s * (1.0 - s)),))

    def relu(self):
        # reference chain of the MLP layer node
        out = Tensor(np.maximum(self.value, 0.0))
        return _record(out, (self,), lambda g: ((self, g * (self.value > 0)),))

    def clip(self, low, high):
        """Clamp values into [low, high]; gradient is blocked where clamped.
        Reference chain of the concrete sample."""
        out = Tensor(np.clip(self.value, low, high))
        inside = (self.value >= low) & (self.value <= high)
        return _record(out, (self,), lambda g: ((self, g * inside),))

    def backward(self):
        backward(self)


class Parameter(Tensor):
    """Trainable leaf: value plus an accumulated gradient of the same shape.

    An ``OptimizerState`` built over a parameter turns its ``value`` and
    ``grad`` into views of the optimizer's flat store.  Write them in place
    (``p.value[...] = x``; ``backward`` adds into ``p.grad``), never rebind
    them: a rebound array is no longer the one the optimizer steps.
    """

    requires_grad = True

    def __init__(self, value):
        super().__init__(value)
        self.grad = np.zeros_like(self.value)


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


# a row block holds about this many entries, so that the temporaries of a
# blockwise pass stay in cache
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(shape):
    """Slices over the first axis of an array of ``shape``, each covering
    about ``_BLOCK_ENTRIES`` entries; one index over everything for a 0-d
    shape."""
    if not shape:
        yield ...
        return
    step = max(1, _BLOCK_ENTRIES // max(1, int(np.prod(shape[1:]))))
    for start in range(0, shape[0], step):
        yield slice(start, start + step)


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


def _binary(op, a, b, slope_a, slope_b):
    """``op(a, b)`` for Tensors or arrays under numpy broadcasting, as one
    tape node: ``slope_a(g, av, bv)`` and ``slope_b(g, av, bv)`` give the
    gradients of a and b for the output gradient g, each summed back to its
    operand's shape."""
    a, b = _wrap(a), _wrap(b)
    out = Tensor(op(a.value, b.value))
    ta, tb = _tracked(a), _tracked(b)

    def grad_fn(g):
        av, bv = a.value, b.value
        pairs = []
        if ta:
            pairs.append((a, _unbroadcast(slope_a(g, av, bv), av.shape)))
        if tb:
            pairs.append((b, _unbroadcast(slope_b(g, av, bv), bv.shape)))
        return pairs

    return _record(out, (a, b), grad_fn)


def concat(tensors):
    """2-d ``tensors`` side by side; each tracked one gets its columns of the
    gradient, in order, and a constant none."""
    tensors = [_wrap(t) for t in tensors]
    out = Tensor(np.concatenate([t.value for t in tensors], axis=1))
    ends = np.cumsum([t.value.shape[1] for t in tensors])
    tracked = [
        (t, slice(end - t.value.shape[1], end))
        for t, end in zip(tensors, ends) if _tracked(t)
    ]

    def grad_fn(g):
        for t, cols in tracked:
            yield t, g[:, cols].copy()

    return _record(out, tuple(tensors), grad_fn)


# a BCE clamps its probabilities this far off exact 0 and 1 before the logs
BCE_CLAMP = 1e-7


def _bce_terms(target, p):
    """Per-entry BCE of targets ``target`` under probabilities ``p``, clamped
    into [BCE_CLAMP, 1 - BCE_CLAMP] before the logs."""
    q = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return -(target * np.log(q) + (1.0 - target) * np.log1p(-q))


def binary_cross_entropy(target, prediction):
    """Summed BCE between a constant target in [0,1] and predicted probabilities.

    Predictions are clamped into [BCE_CLAMP, 1 - BCE_CLAMP] before the logs
    so that saturated values stay finite; the gradient is blocked where the
    clamp engaged.  Fused into one tape node: every epoch scores each
    feature reconstruction with it.
    """
    target = np.asarray(target, dtype=np.float64)
    pred = _wrap(prediction)
    out = Tensor(_bce_terms(target, pred.value).sum())

    def grad_fn(g):
        # the clamped copy is recomputed here rather than kept
        p = pred.value
        q = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
        inside = (p >= BCE_CLAMP) & (p <= 1.0 - BCE_CLAMP)
        return ((pred, g * inside * ((q - target) / (q * (1.0 - q)))),)

    return _record(out, (pred,), grad_fn)


def _entropy_terms(v):
    """v log v + (1 - v) log(1 - v), the chain's elementwise ops filling one
    array of ``v``'s layout, the second term a row block at a time."""
    terms = np.log(v, out=np.empty_like(v))
    terms *= v
    for rows in _row_blocks(v.shape):
        rest = np.log1p(-v[rows])
        rest *= 1.0 - v[rows]
        terms[rows] += rest
    return terms


def bernoulli_entropy(p):
    """Summed entropy of independent Bernoulli variables with probabilities
    ``p``; the caller keeps ``p`` strictly inside (0, 1).

    Forward and backward each fill one array of ``p``'s shape and sum or
    return it whole, so the chain's value and gradient come out bit for bit
    with no further array of that size."""
    a = _wrap(p)
    v = a.value
    out = Tensor(-_entropy_terms(v).sum())

    def grad_fn(g):
        # g (log(1 - v) - log v)
        slope = np.negative(v, out=np.empty_like(v))
        np.log1p(slope, out=slope)
        for rows in _row_blocks(v.shape):
            slope[rows] -= np.log(v[rows])
        slope *= g
        yield a, slope, True

    return _record(out, (a,), grad_fn)


_CONSUMED = (
    "backward: the tape was consumed by an earlier backward; build the loss again"
)


def _consumed(g):
    """Gradient function left on a node whose tape ``backward`` has freed;
    ``backward`` refuses such a node before it walks, so this never runs."""
    raise RuntimeError(_CONSUMED)


def backward(loss):
    """Accumulate d(loss)/d(leaf) in place into every reachable Parameter's
    ``.grad``.

    The loss must be scalar.  Gradients add up across backward calls on
    separately built losses until they are zeroed.  The walk consumes the tape:
    each node drops its gradient closure and parent links as soon as it has
    passed its gradient on, so the intermediates it alone kept alive are
    freed before ``backward`` returns.  Walking a consumed loss again, or a
    new expression built on a consumed node, raises ``RuntimeError`` before
    any gradient is touched; rebuild the loss instead.
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
        if node._grad_fn is _consumed:
            raise RuntimeError(_CONSUMED)
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited and _tracked(parent):
                stack.append((parent, False))

    # reverse post-order, popping each node so the list stops holding it
    grads = {id(loss): np.ones((), dtype=np.float64)}
    # the nodes whose gradient the walk may add into: a sum it made, or an
    # array a gradient function handed over.  Any other pair's array may be
    # shared, as add hands one g to both parents, or kept by its function.
    owned = set()
    while order:
        node = order.pop()
        grad_fn = node._grad_fn
        if grad_fn is not None:
            node._grad_fn = _consumed
            node._parents = ()
        g = grads.pop(id(node), None)
        owned.discard(id(node))
        if g is None:
            continue
        if node.requires_grad:
            node.grad += g
        if grad_fn is None:
            continue
        pairs = grad_fn(g)
        g = None
        for parent, pg, *handed in pairs:
            handed = handed == [True]
            key = id(parent)
            if _tracked(parent):
                held = grads.get(key)
                if held is None:
                    grads[key] = pg
                    if handed:
                        owned.add(key)
                elif key in owned:
                    # a 0-d sum is a numpy scalar, which += rebinds
                    held += pg
                    grads[key] = held
                elif handed:
                    pg += held
                    grads[key] = pg
                    owned.add(key)
                else:
                    grads[key] = held + pg
                    owned.add(key)
                held = None
            # drop the pair before a generator makes the next one
            parent = pg = None
