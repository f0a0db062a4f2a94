"""Minimal reverse-mode autodiff over float64 numpy arrays.

A dynamic tape: every op builds a Tensor node holding its value, its parent
nodes and a closure that routes an upstream gradient to the parents. The op
set is what the model compositions here need, six ops: weighted_sum (a
weighted sum of same-shape tensors as one node), dense_stack (a chain of
dense layers as one node), block_affine, concat_cols and the
mse_rows/quad_rows reductions; inside `no_grad` none records a graph.
Everything is double precision and the graph walk is deterministic, so
repeated runs with the same seeds reproduce results bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "constant",
    "backward",
    "weighted_sum",
    "no_grad",
    "dense_stack",
    "block_affine",
    "concat_cols",
    "mse_rows",
    "quad_rows",
]


class Tensor:
    """One node in the tape. `value` is a float64 ndarray, `grad` accumulates
    the gradient of whatever scalar `backward` was called on."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, value, requires_grad=False, parents=(), grad_fn=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._grad_fn = grad_fn

    @property
    def shape(self):
        return self.value.shape

    def item(self):
        return float(self.value)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable leaf."""

    __slots__ = ("name",)

    def __init__(self, value, name=""):
        super().__init__(np.array(value, dtype=np.float64), requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def constant(value):
    return Tensor(value, requires_grad=False)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else constant(x)


def _accumulate(node, g):
    """Add `g` to node.grad. Callers build `g` only for a node that
    requires grad, so no gradient is made to be thrown away."""
    if node.grad is None:
        # a fresh array with the bits of zeros + g (so -0.0 becomes +0.0):
        # a later += must never write into an upstream gradient
        node.grad = g + 0.0
    else:
        node.grad += g


def _store(node, g):
    """`_accumulate` for a `g` the caller built fresh and holds nowhere
    else: a first gradient is stored as it is, without the copy."""
    if node.grad is None:
        node.grad = g
    else:
        node.grad += g


class no_grad:
    """Scope in which ops record no graph (no parents, no closure), so
    intermediates are freed once consumed. Scopes nest, and leaving one
    restores the state it found, also on an exception."""

    active = False

    def __enter__(self):
        self._outer, no_grad.active = no_grad.active, True

    def __exit__(self, *exc):
        no_grad.active = self._outer


def _recording(parents):
    """Whether an op on `parents` records a graph."""
    return not no_grad.active and any(p.requires_grad for p in parents)


def _node(value, parents, grad_fn):
    req = _recording(parents)
    return Tensor(value, requires_grad=req, parents=parents if req else (),
                  grad_fn=grad_fn if req else None)


def backward(root, seed=None):
    """Accumulate d(root)/d(node) into node.grad for every node that
    requires grad. `seed` defaults to ones, so a scalar root gets 1.0;
    passing an explicit seed lets a non-scalar root act as a boundary
    (split-learning style second-stage backprop)."""
    if seed is None:
        seed = np.ones_like(root.value)
    else:
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != root.value.shape:
            raise ValueError(
                f"seed shape {seed.shape} does not match root {root.value.shape}")

    # Iterative post-order topological sort; recursion would overflow on
    # long rollout chains.
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    if root.requires_grad:
        _accumulate(root, seed)
    for node in reversed(topo):
        if node._grad_fn is not None and node.grad is not None:
            node._grad_fn(node.grad)


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def weighted_sum(terms, weights, scale=1.0):
    """scale * (terms[0] w0 + terms[1] w1 + ...) over same-shape tensors, as
    one node: the forward forms terms[0] * w0, adds each later term * w left
    to right and then multiplies by `scale`; backward hands each trained
    term (g * scale) * w. Terms of unequal shape, or a weight count that
    differs from the term count, raise ValueError."""
    terms = [_as_tensor(t) for t in terms]
    weights = [float(w) for w in weights]
    scale = float(scale)
    if not terms or len(weights) != len(terms):
        raise ValueError(f"{len(weights)} weights for {len(terms)} terms")
    shapes = {t.value.shape for t in terms}
    if len(shapes) > 1:
        raise ValueError(f"terms of unequal shapes {sorted(shapes)}")
    out_val = terms[0].value * weights[0]
    for t, w in zip(terms[1:], weights[1:]):
        out_val = out_val + t.value * w

    def grad_fn(g):
        g = g * scale
        for t, w in zip(terms, weights):
            if t.requires_grad:
                _accumulate(t, g * w)

    return _node(out_val * scale, tuple(terms), grad_fn)


def dense_stack(x, weights, biases, relu_flags):
    """A chain of dense layers as one node: layer i maps h to
    h @ weights[i].T + biases[i], then relu where relu_flags[i]. Each layer
    is built in place on its product, with `Network.predict`'s relu
    `np.maximum(out, 0.0, out=out)`, so a NaN pre-activation stays NaN and
    reaches the loss check. Under `no_grad` nothing is kept; when recording,
    each layer's input and relu mask are, and backward does the arithmetic
    of one affine and one relu node per layer, in their order.

    Backward stores the weight, bias and input gradients it builds fresh
    without `_accumulate`'s `+ 0.0` copy, so a stored zero may be -0.0. No
    kept bit depends on a zero's sign: a parameter's Adam moments start at
    +0.0, and an input gradient passes through the copying ops upstream. A
    pre-activation is never -0.0 (a bias starts at +0.0, and `p -= step`
    cannot make -0.0), so the relu gives +0.0 for every non-positive,
    non-NaN one."""
    x = _as_tensor(x)
    parents = (x, *weights, *biases)
    record = _recording(parents)
    inputs, masks = [], []
    out = x.value
    for w, b, relu in zip(weights, biases, relu_flags):
        if record:
            inputs.append(out)
        out = out @ w.value.T
        out += b.value
        if relu:
            np.maximum(out, 0.0, out=out)
        if record:
            masks.append(out > 0.0 if relu else None)
    if not record:
        return Tensor(out)

    def grad_fn(g):
        for i in reversed(range(len(inputs))):
            w, b = weights[i], biases[i]
            if masks[i] is not None:
                g = g * masks[i]
            if w.requires_grad:
                _store(w, g.T @ inputs[i])
            if b.requires_grad:
                _store(b, g.sum(axis=0))
            if i:
                g = g @ w.value
            elif x.requires_grad:
                _store(x, g @ w.value)

    return Tensor(out, requires_grad=True, parents=parents, grad_fn=grad_fn)


def block_affine(a, b, k, split):
    """a @ K1.T + b @ K2.T where k = [K1 | K2] is column-split at `split`.

    This is the linear evolution step of the latent models: one matrix
    parameter k of shape (d_out, split + q) acting on a (n, split) and
    b (n, q) jointly."""
    a, b, k = _as_tensor(a), _as_tensor(b), _as_tensor(k)
    k1 = k.value[:, :split]
    k2 = k.value[:, split:]
    out_val = a.value @ k1.T + b.value @ k2.T

    def grad_fn(g):
        if a.requires_grad:
            _accumulate(a, g @ k1)
        if b.requires_grad:
            _accumulate(b, g @ k2)
        if k.requires_grad:
            _accumulate(k, np.concatenate([g.T @ a.value, g.T @ b.value],
                                          axis=1))

    return _node(out_val, (a, b, k), grad_fn)


def concat_cols(parts):
    """Concatenate (n, k_i) tensors along axis 1."""
    parts = [_as_tensor(p) for p in parts]
    out_val = np.concatenate([p.value for p in parts], axis=1)
    widths = [p.value.shape[1] for p in parts]

    def grad_fn(g):
        off = 0
        for p, k in zip(parts, widths):
            if p.requires_grad:
                _accumulate(p, g[:, off:off + k])
            off += k

    return _node(out_val, tuple(parts), grad_fn)


# ---------------------------------------------------------------------------
# reductions used by the losses
# ---------------------------------------------------------------------------

def mse_rows(a, b):
    """Mean over rows of the squared euclidean row difference:
    (1/n) sum_i ||a_i - b_i||^2. Returns a scalar tensor."""
    a, b = _as_tensor(a), _as_tensor(b)
    diff = a.value - b.value
    n = diff.shape[0]
    out_val = np.array((diff * diff).sum() / n)

    def grad_fn(g):
        c = 2.0 * float(g) / n
        if a.requires_grad:
            _accumulate(a, c * diff)
        if b.requires_grad:
            _accumulate(b, -c * diff)

    return _node(out_val, (a, b), grad_fn)


def quad_rows(x, q):
    """Row-wise quadratic form x_i^T q x_i for x (n, d), q (d, d) -> (n,)."""
    x, q = _as_tensor(x), _as_tensor(q)
    xq = x.value @ q.value
    out_val = (xq * x.value).sum(axis=1)

    def grad_fn(g):
        gcol = g[:, None]
        if x.requires_grad:
            _accumulate(x, gcol * (x.value @ (q.value + q.value.T)))
        if q.requires_grad:
            _accumulate(q, x.value.T @ (x.value * gcol))

    return _node(out_val, (x, q), grad_fn)
