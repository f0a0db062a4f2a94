"""Minimal reverse-mode autodiff over float64 numpy arrays.

A dynamic tape: every op builds a Tensor node holding its value, its parent
nodes and a closure that routes an upstream gradient to the parents. The op
set is what the model compositions here need: add, scale, add_scalars,
dense_stack (a chain of dense layers as one node), block_affine, concat_cols
and the mse_rows/quad_rows reductions; inside `no_grad` none records a
graph. Everything is double precision and the graph walk is deterministic,
so repeated runs with the same seeds reproduce results bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "constant",
    "backward",
    "add",
    "scale",
    "add_scalars",
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


def _unbroadcast(g, shape):
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


class no_grad:
    """Scope in which ops record no graph (no parents, no closure), so
    intermediates are freed once consumed. Scopes nest, and leaving one
    restores the state it found, also on an exception."""

    active = False

    def __enter__(self):
        self._outer, no_grad.active = no_grad.active, True

    def __exit__(self, *exc):
        no_grad.active = self._outer


def _node(value, parents, grad_fn):
    req = not no_grad.active and any(p.requires_grad for p in parents)
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

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_val = a.value + b.value

    def grad_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.value.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.value.shape))

    return _node(out_val, (a, b), grad_fn)


def scale(a, s):
    a = _as_tensor(a)
    s = float(s)

    def grad_fn(g):
        _accumulate(a, g * s)

    return _node(a.value * s, (a,), grad_fn)


def add_scalars(terms):
    """Sum of scalar tensors. Used to combine weighted loss terms."""
    out = terms[0]
    for t in terms[1:]:
        out = add(out, t)
    return out


def dense_stack(x, weights, biases, relu_flags):
    """A chain of dense layers as one node: layer i maps h to
    h @ weights[i].T + biases[i], then relu where relu_flags[i]. Only each
    layer's input and relu mask are kept for backward, which does the
    arithmetic of one affine and one relu node per layer, in their order.
    It skips those nodes' `+ 0.0` after each product: that only turned a
    -0.0 into +0.0, and no kept bit depends on a zero's sign, which only a
    sum of zeros passes on and `_accumulate`'s `g + 0.0` clears."""
    x = _as_tensor(x)
    inputs, masks = [], []
    out = x.value
    for w, b, relu in zip(weights, biases, relu_flags):
        inputs.append(out)
        out = out @ w.value.T + b.value
        masks.append(out > 0.0 if relu else None)
        if relu:
            out = np.where(masks[-1], out, 0.0)

    def grad_fn(g):
        for i in reversed(range(len(inputs))):
            w, b = weights[i], biases[i]
            if masks[i] is not None:
                g = g * masks[i]
            if w.requires_grad:
                _accumulate(w, g.T @ inputs[i])
            if b.requires_grad:
                _accumulate(b, g.sum(axis=0))
            if i:
                g = g @ w.value
            elif x.requires_grad:
                _accumulate(x, g @ w.value)

    return _node(out, (x, *weights, *biases), grad_fn)


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
