"""Dense network stack: layers, He-style init, Adam, JSON serialization.

Networks are plain lists of fully connected layers with relu or linear
activations. Forward passes come in two flavors: `forward` builds one tape
node for the whole stack (autodiff.dense_stack) for training, `predict` is
a numpy-only fast path for inference (plant loops, packet fills, scoring)
where no gradients are wanted. `predict` binds each layer's transposed
weights, bias and relu flag once, when the network is built, so a
one-sample call in the closed loop pays for little but its products. Both
build each layer in place on its product with the same relu, so they give
the same bits. Adam keeps its moments in two flat buffers and steps every
parameter in one elementwise pass; a parameter without a gradient makes
the step raise.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, dense_stack

ACTIVATIONS = ("relu", "linear")

SERIAL_FORMAT = "koopcontrol-network-v1"
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's decay rates and guard

# predict's relu floor: a float64 array, which np.maximum takes without
# converting a Python scalar on every call
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def init_weights(d_out, d_in, rng):
    """Gaussian fan-in init, w ~ N(0, 2/d_in). Biases are zero elsewhere."""
    return rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_out, d_in))


class DenseLayer:
    def __init__(self, weights, biases, activation):
        weights = np.asarray(weights, dtype=np.float64)
        biases = np.asarray(biases, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("layer weights must be 2-D (d_out, d_in)")
        if biases.shape != (weights.shape[0],):
            raise ValueError(
                f"bias shape {biases.shape} does not match d_out {weights.shape[0]}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.w = Parameter(weights)
        self.b = Parameter(biases)
        self.activation = activation

    @property
    def d_in(self):
        return self.w.value.shape[1]

    @property
    def d_out(self):
        return self.w.value.shape[0]


class Network:
    """Ordered dense layers with audited shapes."""

    def __init__(self, layers):
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.d_in != prev.d_out:
                raise ValueError(
                    f"layer dims do not chain: {prev.d_out} -> {nxt.d_in}")
        self.layers = list(layers)
        # what predict multiplies by, bound once: a view of each weight
        # matrix's transpose, the bias and the relu flag. Adam and every
        # other update change parameter values in place, so the views
        # follow them.
        self._bound = [(layer.w.value.T, layer.b.value,
                        layer.activation == "relu") for layer in self.layers]

    @property
    def d_in(self):
        return self.layers[0].d_in

    @property
    def d_out(self):
        return self.layers[-1].d_out

    def parameters(self):
        params = []
        for layer in self.layers:
            params.append(layer.w)
            params.append(layer.b)
        return params

    def forward(self, x):
        """Tape forward for an (n, d_in) Tensor or array: one tape node."""
        return dense_stack(x, [layer.w for layer in self.layers],
                           [layer.b for layer in self.layers],
                           [layer.activation == "relu"
                            for layer in self.layers])

    def predict(self, x):
        """Inference path, no graph, for a sample (d_in,), rows (n, d_in)
        or a stack (k, n, d_in). A sample gets the bits of the row
        (1, d_in), and each (n, d_in) matrix of a stack those of its own.

        A sample or rows multiply through np.dot, which skips the ufunc
        dispatch np.matmul pays on every layer and gives the same bits (the
        network tests check it on trained weights). A stack keeps
        np.matmul: np.dot would fold it into one (k n, d_in) block, whose
        rows need not have each matrix's own bits."""
        out = np.asarray(x, dtype=np.float64)
        product = np.matmul if out.ndim > 2 else np.dot
        for wt, b, relu in self._bound:
            out = product(out, wt)
            out += b
            if relu:
                np.maximum(out, _ZERO, out=out)
        return out


def make_mlp(dims, rng):
    """Build a network from a dim chain [d0, d1, ..., dk]: relu hidden
    layers and a linear output layer."""
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    layers = []
    for i in range(len(dims) - 1):
        act = "linear" if i == len(dims) - 2 else "relu"
        layers.append(DenseLayer(
            init_weights(dims[i + 1], dims[i], rng),
            np.zeros(dims[i + 1]),
            act,
        ))
    return Network(layers)


def _slot_views(flat, params):
    """Views of the flat array `flat`, one per parameter in order, each
    shaped like its parameter."""
    views, start = [], 0
    for p in params:
        views.append(flat[start:start + p.value.size].reshape(p.value.shape))
        start += p.value.size
    return views


class Adam:
    """Adam at step size `lr` and the fixed BETA1, BETA2 and EPS, with bias
    correction and one shared step counter. The moments live in two flat
    buffers, one entry per parameter scalar, and `m[i]`, `v[i]` are the
    views of slot i, shaped like its parameter. Every step updates every
    slot, so each needs a gradient."""

    def __init__(self, params, lr=1e-4):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self._m = np.zeros(sum(p.value.size for p in self.params))
        self._v = np.zeros_like(self._m)
        self.m = _slot_views(self._m, self.params)
        self.v = _slot_views(self._v, self.params)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """Apply one update to every param from its accumulated .grad. A
        missing or wrong-shape gradient rejects the whole step before any
        state changes. The update is one elementwise pass over the
        concatenated gradients and the two moment buffers; each op rounds
        per element, so every scalar gets the bits of a per-slot update."""
        for p in self.params:
            if p.grad is None:
                raise ValueError(f"{p!r} has no gradient")
            if np.shape(p.grad) != p.value.shape:
                raise ValueError(f"grad shape {np.shape(p.grad)} does not "
                                 f"match param {p.value.shape}")
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        g = np.concatenate([np.ravel(p.grad) for p in self.params],
                           dtype=np.float64)
        m, v = self._m, self._v
        # m <- b1 m + (1 - b1) g, v <- b2 v + (1 - b2) g^2 and
        # p <- p - lr m_hat / (sqrt(v_hat) + eps), op for op in place
        m *= BETA1
        m += (1.0 - BETA1) * g
        gg = g * g
        gg *= 1.0 - BETA2
        v *= BETA2
        v += gg
        denom = v / b2t
        np.sqrt(denom, out=denom)
        denom += EPS
        step = m / b1t
        step *= self.lr
        step /= denom
        for p, delta in zip(self.params, _slot_views(step, self.params)):
            p.value -= delta


# ---------------------------------------------------------------------------
# serialization: flat JSON, bitwise round-trip (json floats use repr, which
# is the shortest exact representation)
# ---------------------------------------------------------------------------

def network_to_dict(net):
    return {
        "format": SERIAL_FORMAT,
        "layers": [
            {
                "activation": layer.activation,
                "weights": layer.w.value.tolist(),
                "biases": layer.b.value.tolist(),
            }
            for layer in net.layers
        ],
    }


def network_from_dict(data):
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != SERIAL_FORMAT:
        raise ValueError(f"unknown network format {fmt!r}")
    layers = [
        DenseLayer(np.array(entry["weights"], dtype=np.float64),
                   np.array(entry["biases"], dtype=np.float64),
                   entry["activation"])
        for entry in data["layers"]
    ]
    return Network(layers)
