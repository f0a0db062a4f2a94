"""Network building blocks: init statistics, forward paths, Adam, serialization."""

import json

import numpy as np
import pytest

from koopcontrol import autodiff as ad
from koopcontrol import neural


def test_init_weights_moments():
    rng = np.random.default_rng(77)
    w = neural.init_weights(50, 2, rng)
    assert w.shape == (50, 2)
    draws = neural.init_weights(500, 100, np.random.default_rng(7)).ravel()
    # var = 2/d_in = 0.02; 50000 draws, se(var) ~ var*sqrt(2/n)
    var = draws.var()
    se = 0.02 * np.sqrt(2.0 / draws.size)
    assert abs(var - 0.02) < 3.0 * se
    assert abs(draws.mean()) < 3.0 * np.sqrt(0.02 / draws.size)


def test_init_weights_deterministic_per_seed():
    a = neural.init_weights(4, 3, np.random.default_rng(5))
    b = neural.init_weights(4, 3, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_identity_linear_layer_passes_through():
    layer = neural.DenseLayer(np.eye(3), np.zeros(3), "linear")
    net = neural.Network([layer])
    x = np.array([[0.3, -1.2, 4.0]])
    assert np.array_equal(net.predict(x), x)


def test_relu_layer_clips_negative():
    layer = neural.DenseLayer(np.eye(2), np.zeros(2), "relu")
    net = neural.Network([layer])
    out = net.predict(np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 2.0]])


def test_predict_handles_single_sample_vector():
    # a sample runs the loop a row (1, d_in) runs, and one window of a
    # (k, 1, d_in) stack, with the same bits; at the widths of a toy net
    # and of the default encoder and decoder
    rng = np.random.default_rng(0)
    for dims in ([3, 5, 2], [4, 128, 64, 32, 4], [5, 5, 5, 32, 64, 128, 4]):
        net = neural.make_mlp(dims, rng)
        xs = rng.normal(size=(9, dims[0]))
        stack = net.predict(xs[:, None, :])
        for i, x in enumerate(xs):
            flat = net.predict(x)
            assert flat.shape == (dims[-1],)
            assert flat.tobytes() == net.predict(x[None, :])[0].tobytes()
            assert flat.tobytes() == stack[i, 0].tobytes()


def _trained(dims, seed, steps=20):
    """A make_mlp network after `steps` Adam steps on a random regression,
    and its optimizer."""
    rng = np.random.default_rng(seed)
    net = neural.make_mlp(dims, rng)
    opt = neural.Adam(net.parameters(), lr=1e-2)
    x = rng.normal(size=(64, dims[0]))
    y = rng.normal(size=(64, dims[-1]))
    for _ in range(steps):
        ad.backward(ad.mse_rows(net.forward(x), y))
        opt.step()
        opt.zero_grad()
    return net, opt


def _matmul_reference(net, x):
    """predict as np.matmul writes it, each layer read from its parameter."""
    out = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        out = np.matmul(out, layer.w.value.T)
        out += layer.b.value
        if layer.activation == "relu":
            np.maximum(out, 0.0, out=out)
    return out


@pytest.mark.parametrize("dims", [[4, 128, 64, 32, 4],
                                  [5, 5, 5, 32, 64, 128, 4]])
def test_predict_keeps_the_matmul_bits_on_trained_weights(dims):
    # a sample has the bits of its (1, d_in) row, rows those of np.matmul
    # at every row count, and each (n, d_in) matrix of a (k, n, d_in) stack
    # those of predicting it alone, at the default encoder's and decoder's
    # widths on trained weights
    net, _ = _trained(dims, seed=len(dims))
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 31, 32, 50, 64, 100, 1024):
        rows = rng.normal(size=(n, dims[0])) * rng.uniform(0.01, 10.0)
        got = net.predict(rows)
        assert got.tobytes() == _matmul_reference(net, rows).tobytes()
        for i in range(min(n, 8)):
            sample = net.predict(rows[i])
            assert sample.shape == (dims[-1],)
            assert sample.tobytes() == net.predict(rows[i:i + 1])[0].tobytes()
            assert sample.tobytes() == \
                _matmul_reference(net, rows[i]).tobytes()
    for n in (1, 3, 64):
        stack = rng.normal(size=(5, n, dims[0]))
        got = net.predict(stack)
        assert got.tobytes() == _matmul_reference(net, stack).tobytes()
        for i in range(5):
            assert got[i].tobytes() == net.predict(stack[i]).tobytes()


def test_predict_follows_adam_steps():
    # predict reads the parameters it bound at construction, which Adam
    # steps in place: after more steps it has the bits of a network built
    # afresh from the stepped weights
    net, opt = _trained([4, 128, 64, 32, 4], seed=1, steps=1)
    x = np.random.default_rng(2).normal(size=(10, 4))
    before = net.predict(x)
    net.parameters()[0].grad = np.ones((128, 4))
    for p in net.parameters()[1:]:
        p.grad = np.full(p.value.shape, 0.5)
    opt.step()
    fresh = neural.network_from_dict(neural.network_to_dict(net))
    assert not np.array_equal(net.predict(x), before)
    assert net.predict(x).tobytes() == fresh.predict(x).tobytes()
    assert net.predict(x[0]).tobytes() == fresh.predict(x[0]).tobytes()


def test_forward_tape_matches_predict():
    # recorded or under no_grad, the tape forward has the bits of predict
    # on (n, d_in) rows, at the widths of a toy net and of the default
    # encoder; under no_grad it keeps nothing
    rng = np.random.default_rng(3)
    for dims in ([4, 8, 3], [4, 128, 64, 32, 4]):
        net = neural.make_mlp(dims, rng)
        for n in (1, 6, 64):
            x = rng.normal(size=(n, dims[0]))
            inp = ad.constant(x)
            out = net.forward(inp)
            assert out.value.tobytes() == net.predict(x).tobytes()
            # the whole stack is one tape node on the input and the
            # parameters
            assert out._parents == (inp, *[l.w for l in net.layers],
                                    *[l.b for l in net.layers])
            with ad.no_grad():
                free = net.forward(inp)
            assert free.value.tobytes() == out.value.tobytes()
            assert not free.requires_grad
            assert free._parents == () and free._grad_fn is None


def test_nan_weight_reaches_the_output_on_both_paths():
    # a relu passes a NaN pre-activation on, on the tape as in predict, so
    # a non-finite weight row reaches the loss check
    net = neural.make_mlp([2, 3, 1], np.random.default_rng(0))
    net.layers[0].w.value[1, 0] = np.nan
    x = np.random.default_rng(1).normal(size=(4, 2))
    out = net.forward(x).value
    assert np.isnan(out).all()
    assert out.tobytes() == net.predict(x).tobytes()


def test_make_mlp_shapes_and_activations():
    net = neural.make_mlp([4, 128, 64, 32, 2], np.random.default_rng(1))
    assert net.d_in == 4 and net.d_out == 2
    assert [l.activation for l in net.layers] == ["relu"] * 3 + ["linear"]
    assert [l.d_out for l in net.layers] == [128, 64, 32, 2]
    # parameters in layer order, weights before biases
    params = net.parameters()
    assert len(params) == 8
    assert params[0].value.shape == (128, 4)
    assert params[1].value.shape == (128,)


def test_network_rejects_chain_mismatch():
    l1 = neural.DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu")
    l2 = neural.DenseLayer(np.zeros((4, 5)), np.zeros(4), "linear")
    with pytest.raises(ValueError):
        neural.Network([l1, l2])


def test_dense_layer_rejects_unknown_activation():
    with pytest.raises(ValueError):
        neural.DenseLayer(np.zeros((2, 2)), np.zeros(2), "tanh")


def test_adam_first_step_magnitude():
    # First step with gradient 1: m_hat = 1, v_hat = 1, so
    # delta = -lr/(1 + eps) = -9.9999999e-5 at lr = 1e-4.
    p = ad.Parameter(np.array([1.0]))
    opt = neural.Adam([p], lr=1e-4)
    p.grad = np.array([1.0])
    opt.step()
    delta = p.value[0] - 1.0
    assert np.isclose(delta, -1e-4 / (1.0 + 1e-8), rtol=0, atol=1e-12)
    assert -1e-4 < delta < -9.9999e-5
    # sign-following at any magnitude: |delta| ~ lr for g = 0.1 too
    p2 = ad.Parameter(np.array([1.0]))
    opt2 = neural.Adam([p2], lr=1e-4)
    p2.grad = np.array([0.1])
    opt2.step()
    assert np.isclose(p2.value[0] - 1.0, -1e-4, rtol=1e-6)


def test_adam_none_gradient_leaves_param_untouched():
    # every slot is stepped, so a missing gradient rejects the whole step:
    # the parameters, the moments and the step counter stay as they were
    p1 = ad.Parameter(np.array([1.0]))
    p2 = ad.Parameter(np.array([2.0]))
    opt = neural.Adam([p1, p2], lr=1e-2)
    p1.grad, p2.grad = np.array([1.0]), np.array([-3.0])
    opt.step()
    before = [a.copy() for a in (p1.value, p2.value, opt._m, opt._v)]
    p1.grad, p2.grad = np.array([1.0]), None
    with pytest.raises(ValueError, match="no gradient"):
        opt.step()
    assert opt.t == 1
    for a, b in zip((p1.value, p2.value, opt._m, opt._v), before):
        assert a.tobytes() == b.tobytes()


def test_adam_shared_step_counter_bias_correction():
    # Two steps with the same gradient: the second update is smaller than
    # the first would be repeated, due to v accumulating.
    p = ad.Parameter(np.array([0.0]))
    opt = neural.Adam([p], lr=1e-3)
    p.grad = np.array([1.0])
    opt.step()
    first = p.value[0]
    p.grad = np.array([1.0])
    opt.step()
    assert opt.t == 2
    assert p.value[0] < first < 0.0


def test_adam_rejects_shape_mismatch():
    # a rejected step leaves the optimizer untouched, even when another
    # parameter's gradient is fine: the next valid step is a first step
    rng = np.random.default_rng(2)
    w0, v0 = rng.normal(size=(2, 2)), rng.normal(size=3)
    p, q = ad.Parameter(w0.copy()), ad.Parameter(v0.copy())
    opt = neural.Adam([q, p], lr=1e-2)
    g_p, g_q = rng.normal(size=(2, 2)), rng.normal(size=3)
    for wrong in (np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 1))):
        q.grad, p.grad = g_q, wrong
        with pytest.raises(ValueError):
            opt.step()
    assert opt.t == 0
    assert all(not m.any() for m in opt.m + opt.v)
    assert np.array_equal(p.value, w0) and np.array_equal(q.value, v0)

    p.grad = g_p
    opt.step()
    fp, fq = ad.Parameter(w0.copy()), ad.Parameter(v0.copy())
    fresh = neural.Adam([fq, fp], lr=1e-2)
    fq.grad, fp.grad = g_q, g_p
    fresh.step()
    assert opt.t == fresh.t == 1
    assert np.array_equal(p.value, fp.value)
    assert np.array_equal(q.value, fq.value)


def test_adam_matches_reference_trajectory():
    # hand-rolled reference implementation over a few steps
    rng = np.random.default_rng(11)
    w0 = rng.normal(size=(3, 2))
    grads = [rng.normal(size=(3, 2)) for _ in range(5)]

    p = ad.Parameter(w0.copy())
    opt = neural.Adam([p], lr=3e-3)
    for g in grads:
        p.grad = g.copy()
        opt.step()

    # the textbook expressions, in the order of operations the optimizer
    # promises, so the trajectory must agree to the last bit
    m = np.zeros_like(w0)
    v = np.zeros_like(w0)
    ref = w0.copy()
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        ref -= 3e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.array_equal(p.value, ref)
    assert np.array_equal(opt.m[0], m) and np.array_equal(opt.v[0], v)


def _per_slot_adam_step(params, m, v, t, lr, beta1=0.9, beta2=0.999,
                        eps=1e-8):
    """One step of the per-slot loop Adam.step ran before its flat pass,
    op for op, kept as the oracle; `m` and `v` are per-slot arrays."""
    b1t = 1.0 - beta1 ** t
    b2t = 1.0 - beta2 ** t
    for i, p in enumerate(params):
        g = np.asarray(p.grad, dtype=np.float64)
        mi, vi = m[i], v[i]
        mi *= beta1
        mi += (1.0 - beta1) * g
        gg = g * g
        gg *= 1.0 - beta2
        vi *= beta2
        vi += gg
        denom = vi / b2t
        np.sqrt(denom, out=denom)
        denom += eps
        step = mi / b1t
        step *= lr
        step /= denom
        p.value -= step


def test_adam_flat_pass_matches_per_slot_oracle_bitwise():
    # slots of different shapes and gradient scales: parameters and moments
    # keep the per-slot loop's bits
    rng = np.random.default_rng(21)
    shapes = [(5,), (3, 4), (2, 3, 2), (1,), (4, 1)]
    init = [rng.normal(size=s) for s in shapes]
    params = [ad.Parameter(w.copy()) for w in init]
    opt = neural.Adam(params, lr=3e-3)
    ref = [ad.Parameter(w.copy()) for w in init]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t in range(1, 9):
        for i, (p, r) in enumerate(zip(params, ref)):
            g = rng.normal(size=shapes[i]) * 10.0 ** rng.integers(-6, 4)
            g.flat[0] = 0.0
            p.grad = g.copy()
            r.grad = g
        opt.step()
        _per_slot_adam_step(ref, m, v, t, lr=3e-3)
        assert opt.t == t
        for i, (p, r) in enumerate(zip(params, ref)):
            assert p.value.tobytes() == r.value.tobytes(), (t, i)
            assert opt.m[i].shape == opt.v[i].shape == shapes[i]
            assert opt.m[i].tobytes() == m[i].tobytes(), (t, i)
            assert opt.v[i].tobytes() == v[i].tobytes(), (t, i)


def test_serialization_bitwise_roundtrip():
    net = neural.make_mlp([3, 16, 8, 2], np.random.default_rng(9))
    loaded = neural.network_from_dict(
        json.loads(json.dumps(neural.network_to_dict(net))))
    for a, b in zip(net.parameters(), loaded.parameters()):
        assert np.array_equal(a.value, b.value)
    x = np.random.default_rng(10).normal(size=(4, 3))
    assert np.array_equal(net.predict(x), loaded.predict(x))


def test_load_rejects_wrong_format():
    with pytest.raises(ValueError):
        neural.network_from_dict({"format": "something-else", "layers": []})
