"""Gradient-tape unit tests: every op against central finite differences."""

import itertools

import numpy as np
import pytest

from koopcontrol import autodiff as ad
from gradcheck import check_params, fd_gradient, max_rel_error

RNG = np.random.default_rng(1234)


def _param(*shape):
    return ad.Parameter(RNG.normal(size=shape))


def test_add_broadcast_gradients():
    a = _param(3, 4)
    b = _param(4)          # broadcasts across rows

    def loss():
        return ad.mse_rows(ad.add(a, b), ad.constant(np.zeros((3, 4))))

    check_params(loss, [a, b])


def test_scale_and_add_scalars():
    a = _param(2, 2)
    b = _param(2, 2)

    def loss():
        t1 = ad.mse_rows(a, ad.constant(np.zeros((2, 2))))
        t2 = ad.mse_rows(b, ad.constant(np.ones((2, 2))))
        return ad.add_scalars([ad.scale(t1, 0.5), ad.scale(t2, 2.0)])

    check_params(loss, [a, b])


def test_affine_gradients():
    x = _param(6, 3)
    w = _param(4, 3)
    b = _param(4)

    def loss():
        return ad.mse_rows(ad.affine(x, w, b), ad.constant(np.zeros((6, 4))))

    check_params(loss, [x, w, b])


def test_relu_gradients_away_from_kink():
    x = ad.Parameter(RNG.normal(size=(5, 4)))
    # keep values off zero so the FD probe does not straddle the kink
    x.value[np.abs(x.value) < 1e-2] = 0.1

    def loss():
        return ad.mse_rows(ad.relu(x), ad.constant(np.zeros((5, 4))))

    check_params(loss, [x])


def test_relu_zero_subgradient():
    x = ad.Parameter(np.array([[-1.0, 0.0, 2.0]]))
    out = ad.relu(x)
    ad.backward(ad.mse_rows(out, ad.constant(np.zeros((1, 3)))))
    assert x.grad[0, 0] == 0.0
    assert x.grad[0, 1] == 0.0      # subgradient at 0 taken as 0
    assert x.grad[0, 2] != 0.0


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
    out = ad.add(a, a)     # d(out)/da = 2
    ad.backward(ad.mse_rows(out, ad.constant(np.zeros((1, 1)))))
    # loss = (2a)^2, d/da = 8a = 16
    assert np.isclose(a.grad[0, 0], 16.0)


def test_first_gradient_is_a_fresh_positive_zero_copy():
    # add(x, x) routes the same upstream array to x twice: the first
    # gradient stored on x must not alias it, or the second += would write
    # into the upstream node's gradient
    x = ad.Parameter(np.zeros((1, 3)))
    out = ad.add(x, x)
    ad.backward(out, seed=np.array([[0.5, 1.5, -2.0]]))
    assert out.grad.tolist() == [[0.5, 1.5, -2.0]]
    assert x.grad.tolist() == [[1.0, 3.0, -4.0]]
    assert x.grad is not out.grad
    # a -0.0 gradient is stored as +0.0, as adding it to zeros does
    y = ad.Parameter(np.ones(2))
    ad.backward(ad.scale(y, -1.0), seed=np.array([0.0, 2.0]))
    assert y.grad.tolist() == [0.0, -2.0]
    assert not np.signbit(y.grad[0])


def test_backward_explicit_seed_is_boundary_gradient():
    a = _param(3, 2)
    w = _param(4, 2)
    b = _param(4)
    hidden = ad.affine(a, w, b)
    seed = RNG.normal(size=(3, 4))
    ad.backward(hidden, seed=seed)
    assert np.allclose(a.grad, seed @ w.value, atol=1e-12)
    assert np.allclose(w.grad, seed.T @ a.value, atol=1e-12)
    assert np.allclose(b.grad, seed.sum(axis=0), atol=1e-12)


def test_backward_seed_shape_mismatch_raises():
    a = _param(3, 2)
    with pytest.raises(ValueError):
        ad.backward(ad.scale(a, 2.0), seed=np.ones((2, 3)))


def test_constants_collect_no_gradient():
    a = _param(2, 2)
    c = ad.constant(np.ones((2, 2)))
    ad.backward(ad.mse_rows(ad.add(a, c), ad.constant(np.zeros((2, 2)))))
    assert c.grad is None
    assert a.grad is not None


def test_long_chain_does_not_overflow_stack():
    x = ad.Parameter(np.array([[1.0]]))
    node = x
    for _ in range(5000):
        node = ad.scale(node, 1.0001)
    ad.backward(ad.mse_rows(node, ad.constant(np.zeros((1, 1)))))
    assert np.isfinite(x.grad[0, 0])


def test_unbroadcast_sums_over_expanded_axes():
    g = np.ones((4, 3))
    assert ad._unbroadcast(g, (3,)).shape == (3,)
    assert np.allclose(ad._unbroadcast(g, (3,)), 4.0)
    assert ad._unbroadcast(g, (1, 3)).shape == (1, 3)


def test_fd_helper_agrees_with_hand_derivative():
    p = ad.Parameter(np.array([3.0]))
    grad = fd_gradient(lambda: float(p.value[0] ** 2), p)
    assert max_rel_error(grad, np.array([6.0])) < 1e-8


def checked_accumulate(monkeypatch):
    """Wrap `_accumulate` so that a gradient handed over for a node that
    needs none fails the test."""
    accumulate = ad._accumulate

    def checked(node, g):
        assert node.requires_grad, f"gradient built for {node!r}"
        accumulate(node, g)

    monkeypatch.setattr(ad, "_accumulate", checked)


MULTI_PARENT_OPS = {
    "add": (ad.add, [(6, 3), (3,)]),
    "affine": (ad.affine, [(6, 3), (4, 3), (4,)]),
    "block_affine": (lambda a, b, k: ad.block_affine(a, b, k, 3),
                     [(6, 3), (6, 2), (4, 5)]),
    "concat_cols": (lambda a, b: ad.concat_cols([a, b]), [(6, 3), (6, 2)]),
    "mse_rows": (ad.mse_rows, [(6, 3), (6, 3)]),
    "quad_rows": (ad.quad_rows, [(6, 3), (3, 3)]),
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
