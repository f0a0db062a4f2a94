"""Gradient-tape unit tests: every op against central finite differences."""

import itertools

import numpy as np
import pytest

from koopcontrol import autodiff as ad
from koopcontrol import neural
from gradcheck import check_params, fd_gradient, max_rel_error

RNG = np.random.default_rng(1234)


def _param(*shape):
    return ad.Parameter(RNG.normal(size=shape))


def test_weighted_sum_gradients():
    a = _param(2, 2)
    b = _param(2, 2)

    def loss():
        t1 = ad.mse_rows(a, ad.constant(np.zeros((2, 2))))
        t2 = ad.mse_rows(b, ad.constant(np.ones((2, 2))))
        return ad.weighted_sum([t1, t2], [0.5, 2.0])

    check_params(loss, [a, b])


def test_weighted_sum_is_the_left_fold_then_the_scale_bitwise():
    a, b, c = _param(3, 2), _param(3, 2), _param(3, 2)
    out = ad.weighted_sum([a, b, c], [0.3, -1.7, 2.9], scale=0.7)
    expected = (a.value * 0.3 + b.value * -1.7 + c.value * 2.9) * 0.7
    assert out.value.tobytes() == expected.tobytes()
    seed = RNG.normal(size=(3, 2))
    ad.backward(out, seed=seed)
    for p, w in ((a, 0.3), (b, -1.7), (c, 2.9)):
        assert p.grad.tobytes() == ((seed * 0.7) * w).tobytes()


def test_weighted_sum_rejects_unequal_shapes_and_weight_counts():
    # no broadcasting: numpy would broadcast the forward and hand back a
    # gradient of the wrong shape
    for shapes in ([(3, 4), (4,)], [(3, 4), (1, 4)], [(), (1,)]):
        with pytest.raises(ValueError, match="shape"):
            ad.weighted_sum([_param(*s) for s in shapes], [1.0, 1.0])
    for weights in ([1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="weights"):
            ad.weighted_sum([_param(2), _param(2)], weights)
    with pytest.raises(ValueError, match="weights"):
        ad.weighted_sum([], [])


def _affine(x, w, b):
    return ad.dense_stack(x, [w], [b], [False])


def _relu(x):
    """relu alone: one identity layer, whose matmul reproduces x exactly."""
    d = x.shape[1]
    return ad.dense_stack(x, [ad.constant(np.eye(d))],
                          [ad.constant(np.zeros(d))], [True])


def test_affine_gradients():
    x = _param(6, 3)
    w = _param(4, 3)
    b = _param(4)

    def loss():
        return ad.mse_rows(_affine(x, w, b), ad.constant(np.zeros((6, 4))))

    check_params(loss, [x, w, b])


def test_relu_gradients_away_from_kink():
    x = ad.Parameter(RNG.normal(size=(5, 4)))
    # keep values off zero so the FD probe does not straddle the kink
    x.value[np.abs(x.value) < 1e-2] = 0.1

    def loss():
        return ad.mse_rows(_relu(x), ad.constant(np.zeros((5, 4))))

    check_params(loss, [x])


def test_relu_zero_subgradient():
    x = ad.Parameter(np.array([[-1.0, 0.0, 2.0]]))
    out = _relu(x)
    ad.backward(ad.mse_rows(out, ad.constant(np.zeros((1, 3)))))
    assert x.grad[0, 0] == 0.0
    assert x.grad[0, 1] == 0.0      # subgradient at 0 taken as 0
    assert x.grad[0, 2] != 0.0


# ---------------------------------------------------------------------------
# dense_stack against the tape it replaced: one affine and one relu node per
# layer, kept here as the oracle
# ---------------------------------------------------------------------------

def _tape_affine(x, w, b):
    x, w, b = ad._as_tensor(x), ad._as_tensor(w), ad._as_tensor(b)

    def grad_fn(g):
        if x.requires_grad:
            ad._accumulate(x, g @ w.value)
        if w.requires_grad:
            ad._accumulate(w, g.T @ x.value)
        if b.requires_grad:
            ad._accumulate(b, g.sum(axis=0))

    return ad._node(x.value @ w.value.T + b.value, (x, w, b), grad_fn)


def _tape_relu(x):
    x = ad._as_tensor(x)
    mask = x.value > 0.0

    def grad_fn(g):
        ad._accumulate(x, g * mask)

    return ad._node(np.where(mask, x.value, 0.0), (x,), grad_fn)


def _tape_forward(net, x):
    out = x
    for layer in net.layers:
        out = _tape_affine(out, layer.w, layer.b)
        if layer.activation == "relu":
            out = _tape_relu(out)
    return out


def _graph_bits(forward, uses, trained_input, last_relu, seed):
    """Value and every gradient of a graph in which one network is applied
    `uses` times, as the decoder is in "general" mode, all as bytes. Each
    use takes its own constant input, or its own node on one shared trained
    input, whose gradient then sums the uses in the tape's order."""
    rng = np.random.default_rng(7)
    net = neural.make_mlp([5, 16, 8, 3], rng)
    if last_relu:
        net.layers[-1].activation = "relu"
    if trained_input:
        inputs = [ad.Parameter(rng.normal(size=(7, 5)))]
        fed = [ad.weighted_sum(inputs, [1.0 + 0.5 * k]) for k in range(uses)]
    else:
        inputs = []
        fed = [ad.constant(rng.normal(size=(7, 5))) for _ in range(uses)]
    outs = [forward(net, x) for x in fed]
    if seed is not None:
        root = outs[0] if uses == 1 else ad.concat_cols(outs)
        ad.backward(root, seed=seed(root.shape))
    else:
        terms = [ad.mse_rows(out, ad.constant(np.ones((7, 3))))
                 for out in outs]
        root = ad.weighted_sum(terms, [0.5 + k for k in range(uses)])
        ad.backward(root)
    leaves = net.parameters() + inputs
    return ([o.value.tobytes() for o in outs] + [root.value.tobytes()]
            + [p.grad.tobytes() for p in leaves])


@pytest.mark.parametrize("uses", [1, 2, 4])
@pytest.mark.parametrize("trained_input", [False, True])
def test_dense_stack_matches_per_layer_tape_bitwise(uses, trained_input):
    expected = _graph_bits(_tape_forward, uses, trained_input, False, None)
    assert _graph_bits(neural.Network.forward, uses, trained_input, False,
                       None) == expected


@pytest.mark.parametrize("uses", [1, 2])
def test_dense_stack_negative_zero_upstream_gradient_bitwise(uses):
    # -0.0 entries in the backward seed, and the -0.0 that a relu mask
    # makes of a negative gradient, end in the old tape's bits
    def seed(shape):
        g = np.random.default_rng(8).normal(size=shape)
        g[:, ::2] = -0.0
        return g

    for last_relu in (False, True):
        expected = _graph_bits(_tape_forward, uses, True, last_relu, seed)
        assert _graph_bits(neural.Network.forward, uses, True, last_relu,
                           seed) == expected


# ---------------------------------------------------------------------------
# no_grad
# ---------------------------------------------------------------------------

def _small_graph():
    net = neural.make_mlp([3, 4, 2], np.random.default_rng(3))
    x = ad.Parameter(np.random.default_rng(4).normal(size=(5, 3)))
    k = ad.Parameter(np.random.default_rng(5).normal(size=(2, 5)))
    hidden = net.forward(x)
    stepped = ad.block_affine(hidden, x, k, 2)
    cols = ad.concat_cols([stepped, hidden])
    loss = ad.weighted_sum([
        ad.mse_rows(cols, ad.constant(np.ones((5, 4)))),
        ad.mse_rows(ad.quad_rows(hidden, ad.constant(np.eye(2))),
                    ad.constant(np.zeros(5))),
        ad.mse_rows(ad.weighted_sum([hidden, k.value.T[:, :2]], [1.0, 1.0]),
                    hidden)], [0.5, 1.0, 1.0])
    return [hidden, stepped, cols, loss]


def test_no_grad_builds_no_graph_with_the_same_values():
    with_graph = _small_graph()
    assert all(n.requires_grad and n._parents for n in with_graph)
    with ad.no_grad():
        without = _small_graph()
    for node, ref in zip(without, with_graph):
        assert node.requires_grad is False
        assert node._parents == () and node._grad_fn is None
        assert node.value.tobytes() == ref.value.tobytes()


def test_no_grad_scopes_nest_and_restore_on_exception():
    def graph_built():
        return ad.weighted_sum([ad.Parameter(np.ones(2))],
                               [2.0]).requires_grad

    with ad.no_grad():
        with ad.no_grad():
            assert not graph_built()
        assert not graph_built()
    assert graph_built()
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            with ad.no_grad():
                raise RuntimeError("boom")
    assert graph_built()


def test_block_affine_matches_explicit_blocks():
    a = _param(4, 3)
    b = _param(4, 2)
    k = _param(3, 5)
    expected = a.value @ k.value[:, :3].T + b.value @ k.value[:, 3:].T
    out = ad.block_affine(a, b, k, split=3)
    assert np.allclose(out.value, expected, atol=1e-14)

    def loss():
        return ad.mse_rows(ad.block_affine(a, b, k, split=3),
                           ad.constant(np.ones((4, 3))))

    check_params(loss, [a, b, k])


def test_concat_cols_gradients():
    a = _param(3, 2)
    b = _param(3, 3)
    target = np.concatenate([np.zeros((3, 2)), np.ones((3, 3))], axis=1)
    assert np.array_equal(ad.concat_cols([a, b]).value,
                          np.concatenate([a.value, b.value], axis=1))

    def loss():
        return ad.mse_rows(ad.concat_cols([a, b]), ad.constant(target))

    check_params(loss, [a, b])


def test_mse_rows_1d_gradients():
    a = _param(7)
    b = _param(7)
    assert np.isclose(ad.mse_rows(a, b).item(),
                      np.mean((a.value - b.value) ** 2), rtol=1e-14)

    def loss():
        return ad.mse_rows(a, b)

    check_params(loss, [a, b])


def test_quad_rows_value_and_gradients():
    x = _param(4, 3)
    q = _param(3, 3)
    out = ad.quad_rows(x, q)
    expected = np.einsum("ij,jk,ik->i", x.value, q.value, x.value)
    assert np.allclose(out.value, expected, atol=1e-12)

    def loss():
        return ad.mse_rows(ad.quad_rows(x, q), ad.constant(np.zeros(4)))

    check_params(loss, [x, q])


def test_gradient_accumulates_across_reuse():
    a = ad.Parameter(np.array([[2.0]]))
    out = ad.weighted_sum([a, a], [1.0, 1.0])     # d(out)/da = 2
    ad.backward(ad.mse_rows(out, ad.constant(np.zeros((1, 1)))))
    # loss = (2a)^2, d/da = 8a = 16
    assert np.isclose(a.grad[0, 0], 16.0)


def test_first_gradient_is_a_fresh_positive_zero_copy():
    # a sum of x and x hands x two gradients: the first one stored on x
    # must be an array of its own, or the second += would write into the
    # array it was handed
    x = ad.Parameter(np.zeros((1, 3)))
    out = ad.weighted_sum([x, x], [1.0, 1.0])
    ad.backward(out, seed=np.array([[0.5, 1.5, -2.0]]))
    assert out.grad.tolist() == [[0.5, 1.5, -2.0]]
    assert x.grad.tolist() == [[1.0, 3.0, -4.0]]
    assert x.grad is not out.grad
    # a -0.0 gradient is stored as +0.0, as adding it to zeros does
    y = ad.Parameter(np.ones(2))
    ad.backward(ad.weighted_sum([y], [-1.0]), seed=np.array([0.0, 2.0]))
    assert y.grad.tolist() == [0.0, -2.0]
    assert not np.signbit(y.grad[0])


def test_backward_explicit_seed_is_boundary_gradient():
    a = _param(3, 2)
    w = _param(4, 2)
    b = _param(4)
    hidden = _affine(a, w, b)
    seed = RNG.normal(size=(3, 4))
    ad.backward(hidden, seed=seed)
    assert np.allclose(a.grad, seed @ w.value, atol=1e-12)
    assert np.allclose(w.grad, seed.T @ a.value, atol=1e-12)
    assert np.allclose(b.grad, seed.sum(axis=0), atol=1e-12)


def test_backward_seed_shape_mismatch_raises():
    a = _param(3, 2)
    with pytest.raises(ValueError):
        ad.backward(ad.weighted_sum([a], [2.0]), seed=np.ones((2, 3)))


def test_constants_collect_no_gradient():
    a = _param(2, 2)
    c = ad.constant(np.ones((2, 2)))
    ad.backward(ad.mse_rows(ad.weighted_sum([a, c], [1.0, 1.0]),
                            ad.constant(np.zeros((2, 2)))))
    assert c.grad is None
    assert a.grad is not None


def test_long_chain_does_not_overflow_stack():
    x = ad.Parameter(np.array([[1.0]]))
    node = x
    for _ in range(5000):
        node = ad.weighted_sum([node], [1.0001])
    ad.backward(ad.mse_rows(node, ad.constant(np.zeros((1, 1)))))
    assert np.isfinite(x.grad[0, 0])


def test_fd_helper_agrees_with_hand_derivative():
    p = ad.Parameter(np.array([3.0]))
    grad = fd_gradient(lambda: float(p.value[0] ** 2), p)
    assert max_rel_error(grad, np.array([6.0])) < 1e-8


def checked_accumulate(monkeypatch):
    """Wrap `_accumulate` and `_store` so that a gradient handed over for a
    node that needs none fails the test."""
    for name in ("_accumulate", "_store"):
        def checked(node, g, add=getattr(ad, name)):
            assert node.requires_grad, f"gradient built for {node!r}"
            add(node, g)

        monkeypatch.setattr(ad, name, checked)


MULTI_PARENT_OPS = {
    "affine": (_affine, [(6, 3), (4, 3), (4,)]),
    "block_affine": (lambda a, b, k: ad.block_affine(a, b, k, 3),
                     [(6, 3), (6, 2), (4, 5)]),
    "concat_cols": (lambda a, b: ad.concat_cols([a, b]), [(6, 3), (6, 2)]),
    "dense_stack": (lambda x, w1, b1, w2, b2: ad.dense_stack(
        x, [w1, w2], [b1, b2], [True, False]),
        [(6, 3), (5, 3), (5,), (4, 5), (4,)]),
    "mse_rows": (ad.mse_rows, [(6, 3), (6, 3)]),
    "quad_rows": (ad.quad_rows, [(6, 3), (3, 3)]),
    "weighted_sum": (lambda a, b, c: ad.weighted_sum(
        [a, b, c], [0.5, -2.0, 1.5], scale=0.25), [(6, 3), (6, 3), (6, 3)]),
}


@pytest.mark.parametrize("name", sorted(MULTI_PARENT_OPS))
def test_no_gradient_is_built_for_a_constant_parent(monkeypatch, name):
    # with any mix of constant and trained parents, no gradient reaches a
    # constant, and each trained parent's gradient has the bits it has when
    # every parent is trained (so all parent gradients are built)
    op, shapes = MULTI_PARENT_OPS[name]
    rng = np.random.default_rng(5)
    values = [rng.normal(size=s) for s in shapes]

    def grads(trained):
        leaves = [ad.Parameter(v) if i in trained else ad.constant(v)
                  for i, v in enumerate(values)]
        out = op(*leaves)
        ad.backward(out, seed=np.random.default_rng(6).normal(
            size=out.shape))
        return {i: leaves[i].grad for i in trained}

    every = grads(set(range(len(values))))
    checked_accumulate(monkeypatch)
    for k in range(1, len(values)):
        for trained in itertools.combinations(range(len(values)), k):
            for i, g in grads(set(trained)).items():
                assert g.tobytes() == every[i].tobytes(), (trained, i)
