"""Koopman model tests: latent algebra against closed forms, loss semantics
on exactly-consistent linear constructions, gradient checks, serialization."""

import json

import numpy as np
import pytest

from koopcontrol import autodiff as ad
from koopcontrol import koopman, neural
from gradcheck import check_params


def _linear_net(w, activation="linear"):
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    return neural.Network([neural.DenseLayer(w, np.zeros(w.shape[0]),
                                             activation)])


def passthrough_sensing(a, b):
    """Identity encoder (d = p) and a decoder that reads the latent part
    back out, with K = [A | B]: the model is exactly the linear plant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d, q = a.shape[0], b.shape[1]
    enc = _linear_net(np.eye(d))
    dec = _linear_net(np.hstack([np.eye(d), np.zeros((d, q))]))
    k = ad.Parameter(np.hstack([a, b]))
    return koopman.SensingModel(enc, k, dec, ad.Parameter(np.eye(d)))


def passthrough_controlling(sensing, k21, k22):
    k21 = np.atleast_2d(np.asarray(k21, dtype=np.float64))
    k22 = np.atleast_2d(np.asarray(k22, dtype=np.float64))
    d, q = sensing.d, sensing.q
    dec = _linear_net(np.hstack([np.eye(d), np.zeros((d, q))]))
    return koopman.ControllingModel(sensing.encoder,
                                    ad.Parameter(np.hstack([k21, k22])), dec)


def _linear_windows(a, b, k21=None, k22=None, n=6, depth=3, seed=0,
                    scale=1.0):
    """(states, actions) windows from x_{t+1} = A x_t + B u_t. When (k21,
    k22) is given, actions follow u_{t+1} = K21 x_t + K22 u_t; otherwise
    random."""
    rng = np.random.default_rng(seed)
    d, q = a.shape[0], b.shape[1]
    states = np.zeros((n, depth + 1, d))
    actions = np.zeros((n, depth + 1, q))
    for i in range(n):
        x = rng.normal(size=d) * scale
        u = rng.normal(size=q) * scale
        for t in range(depth + 1):
            states[i, t] = x
            actions[i, t] = u
            x = a @ x + b @ u
            u = (k21 @ states[i, t] + k22 @ u) if k21 is not None \
                else rng.normal(size=q) * scale
    return states, actions


def predict_states(model, latent, u, controls):
    """Oracle of the state prediction of one anchor, one sample at a time:
    from g(x_m) = `latent` with u_m = `u` in force, each step advances the
    latent with the control in force, then decodes [latent; next control],
    the next control taken from the recorded `controls` (one row per step,
    times m+1..m+k). Returns (k, p) predicted states for m+1..m+k.
    experiments.evaluate_prediction predicts every anchor in one stack and
    is checked against this, bit for bit."""
    states = []
    for c in controls:
        latent = koopman.latent_step(model, latent, u)
        u = c
        states.append(model.decode(np.concatenate([latent, u])))
    return np.array(states)


def micro_model(seed=0, p=4, d=2, q=1):
    rng = np.random.default_rng(seed)
    return koopman.SensingModel.build(p=p, d=d, q=q, rng=rng,
                                      encoder_hidden=(8, 8))


# ---------------------------------------------------------------------------
# coefficients and psd projection
# ---------------------------------------------------------------------------

def test_default_coefficients():
    assert koopman.SENSING_WEIGHTS == (0.5, 1.0, 0.5, 1.0)
    assert koopman.CONTROLLING_WEIGHTS == (0.5, 1.0, 0.5)


def test_project_psd_clips_and_is_idempotent():
    m = np.array([[1.0, 0.0], [0.0, -2.0]])
    out = koopman.project_psd(m)
    assert np.allclose(out, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    again = koopman.project_psd(out)
    assert np.allclose(out, again, atol=1e-12)
    # non-symmetric input is symmetrized first
    asym = np.array([[2.0, 1.0], [0.0, 2.0]])
    out2 = koopman.project_psd(asym)
    assert np.allclose(out2, out2.T)
    assert np.min(np.linalg.eigvalsh(out2)) >= -1e-12


# ---------------------------------------------------------------------------
# latent algebra
# ---------------------------------------------------------------------------

def test_latent_step_hand_value():
    model = passthrough_sensing(np.array([[2.0]]), np.array([[3.0]]))
    out = koopman.latent_step(model, np.array([1.0]), np.array([1.0]))
    assert np.isclose(out[0], 5.0, atol=1e-15)


def test_stacked_latent_step_matches_single_steps_bit_for_bit():
    # each row of a stack is its own matrix-vector product: the bits of a
    # 1-D step per row, at the latent widths training uses and wider, for
    # the sensing blocks [K11 | K12] and the action blocks [K21' | K22']
    rng = np.random.default_rng(21)
    for d, q, k in ((4, 1, 1), (4, 1, 37), (2, 1, 5), (8, 2, 64), (33, 3, 9)):
        model = micro_model(seed=d + k, d=d, q=q)
        ctrl = koopman.ControllingModel.build(model, rng)
        lats, us = rng.normal(size=(k, d)), rng.normal(size=(k, q))
        for m, k1, k2 in ((model, model.k11, model.k12),
                          (ctrl, ctrl.k21, ctrl.k22)):
            stacked = koopman.latent_step(m, lats, us)
            assert stacked.shape == (k, k1.shape[0])
            for i in range(k):
                one = k1 @ lats[i] + k2 @ us[i]
                assert stacked[i].tobytes() == one.tobytes()
                assert koopman.latent_step(m, lats[i], us[i]).tobytes() \
                    == one.tobytes()
        assert koopman.action_step is koopman.latent_step


def test_rollout_matches_matrix_power_expansion():
    # the latent after m composed steps must equal
    # K11^m g + sum_j K11^(m-1-j) K12 u_j, computed by an independent
    # matrix-power oracle, at every m along a four-control rollout
    rng = np.random.default_rng(3)
    a = rng.normal(scale=0.5, size=(3, 3))
    b = rng.normal(size=(3, 1))
    model = passthrough_sensing(a, b)
    g = rng.normal(size=3)
    controls = rng.normal(size=(4, 1))
    lat = g
    for m in range(1, 5):
        lat = koopman.latent_step(model, lat, controls[m - 1])
        expect = np.linalg.matrix_power(a, m) @ g
        for j in range(m):
            expect = expect + (np.linalg.matrix_power(a, m - 1 - j)
                               @ b @ controls[j])
        assert np.allclose(lat, expect, atol=1e-12)


def test_predict_states_is_composed_latent_steps():
    rng = np.random.default_rng(9)
    a = rng.normal(scale=0.4, size=(2, 2))
    b = rng.normal(size=(2, 1))
    model = passthrough_sensing(a, b)
    x = rng.normal(size=2)
    controls = rng.normal(size=(2, 1))
    preds = predict_states(model, x, [0.7], controls)
    lat1 = koopman.latent_step(model, x, [0.7])
    lat2 = koopman.latent_step(model, lat1, controls[0])
    assert np.array_equal(
        preds[0], model.decode(np.concatenate([lat1, controls[0]])))
    assert np.array_equal(
        preds[1], model.decode(np.concatenate([lat2, controls[1]])))


def test_predict_states_exact_on_linear_plant():
    rng = np.random.default_rng(12)
    a = rng.normal(scale=0.4, size=(3, 3))
    b = rng.normal(size=(3, 1))
    model = passthrough_sensing(a, b)
    x = rng.normal(size=3)
    u0 = rng.normal(size=1)
    controls = rng.normal(size=(5, 1))
    preds = predict_states(model, x, u0, controls)
    truth = []
    xs, us = x, u0
    for k in range(5):
        xs = a @ xs + b @ us
        truth.append(xs)
        us = controls[k]
    # the prediction at depth k decodes the latent advanced with the control
    # in force; on the pass-through wiring that is the plant state exactly
    assert np.allclose(preds, truth, atol=1e-10)


def test_action_step_and_predict_actions_depth_one():
    model_s = passthrough_sensing(np.eye(2) * 0.5, np.ones((2, 1)))
    model_c = passthrough_controlling(model_s, np.array([[1.0, -1.0]]),
                                      np.array([[0.5]]))
    lat = np.array([2.0, 1.0])
    u = np.array([0.4])
    stepped = koopman.action_step(model_c, lat, u)
    assert np.isclose(stepped[0], 2.0 - 1.0 + 0.2)
    # one call is one step
    pred = [koopman.predict_actions(model_c, u, lat)]
    assert np.array_equal(pred, [stepped])


def test_predict_actions_hold_vs_advance_vs_recorded():
    # one action step per call: "hold" repeats the anchor latent,
    # "recorded" feeds a given sequence, and "advance" takes a latent step
    # on each predicted action, as the actuator does
    rng = np.random.default_rng(4)
    a = rng.normal(scale=0.5, size=(2, 2))
    b = rng.normal(size=(2, 1))
    sens = passthrough_sensing(a, b)
    ctrl = passthrough_controlling(sens, rng.normal(size=(1, 2)),
                                   np.array([[0.8]]))
    lat0 = rng.normal(size=2)
    u0 = rng.normal(size=1)

    hold, u = [], u0
    for _ in range(3):
        u = koopman.predict_actions(ctrl, u, lat0)
        hold.append(u)
    hold = np.array(hold)
    u = u0
    expect_hold = []
    for _ in range(3):
        u = ctrl.k21 @ lat0 + ctrl.k22 @ u
        expect_hold.append(u)
    assert hold.shape == (3, 1)
    assert np.allclose(hold, expect_hold, atol=1e-12)

    lat, u = lat0, u0
    adv = []
    for _ in range(3):
        u = koopman.predict_actions(ctrl, u, lat)
        adv.append(u)
        lat = koopman.latent_step(sens, lat, u)
    lat, u = lat0, u0
    expect_adv = []
    for _ in range(3):
        u = ctrl.k21 @ lat + ctrl.k22 @ u
        expect_adv.append(u)
        lat = a @ lat + b @ u
    assert np.allclose(adv, expect_adv, atol=1e-12)

    lats = rng.normal(size=(3, 2))
    rec, u = [], u0
    for lat in lats:
        u = koopman.predict_actions(ctrl, u, lat)
        rec.append(u)
    u = u0
    expect_rec = []
    for k in range(3):
        u = ctrl.k21 @ lats[k] + ctrl.k22 @ u
        expect_rec.append(u)
    assert np.allclose(rec, expect_rec, atol=1e-12)


# ---------------------------------------------------------------------------
# losses on exactly self-consistent data
# ---------------------------------------------------------------------------

def _stable_pair(rng, d=3, q=1):
    a = rng.normal(scale=0.4, size=(d, d))
    b = rng.normal(size=(d, q))
    return a, b


def test_sensing_losses_vanish_on_consistent_linear_model():
    rng = np.random.default_rng(100)
    a, b = _stable_pair(rng)
    model = passthrough_sensing(a, b)
    states, actions = _linear_windows(a, b, n=8, depth=1, seed=7)
    total, terms = koopman.total_sensing_loss(model, states, actions,
                                              q_x=np.eye(3),
                                              return_terms=True)
    for name, t in terms.items():
        assert float(t.value) < 1e-20, f"{name} nonzero on consistent data"
    assert float(total.value) < 1e-20


def test_controlling_losses_vanish_on_consistent_linear_model():
    rng = np.random.default_rng(101)
    a, b = _stable_pair(rng)
    k21 = rng.normal(scale=0.3, size=(1, 3))
    k22 = np.array([[0.5]])
    sens = passthrough_sensing(a, b)
    model = passthrough_controlling(sens, k21, k22)
    states, actions = _linear_windows(a, b, k21=k21, k22=k22, n=8, depth=1,
                                      seed=8)
    total, terms = koopman.total_controlling_loss(model, states, actions,
                                                  return_terms=True)
    for name, t in terms.items():
        assert float(t.value) < 1e-20, f"{name} nonzero on consistent data"
    assert float(total.value) < 1e-20


def test_latent_evolution_loss_hand_computed_scalar():
    # d = q = 1, M_d = 2: the rollout from the anchor is
    # k11^2 g0 + k11 k12 u0 + k12 u1; targets are the encodings g1, g2
    k11, k12 = 0.7, 0.3
    model = passthrough_sensing(np.array([[k11]]), np.array([[k12]]))
    states = np.array([[[1.0], [2.0], [-1.0]]])
    actions = np.array([[[0.5], [-0.4], [0.2]]])
    loss = koopman.loss_latent_evolution(
        model, actions, koopman.encode_windows(model, states))
    roll = k11 * (k11 * 1.0 + k12 * 0.5) + k12 * (-0.4)
    expect = 0.5 * ((2.0 - roll) ** 2 + (-1.0 - roll) ** 2)
    assert np.isclose(float(loss.value), expect, atol=1e-12)


def test_cost_consistency_hand_values():
    # encoder maps x=2 to g=1; Q_x makes x^T Q_x x = 2 and the cost matrix
    # is 1, so the loss is (2 - 1)^2 = 1
    enc = _linear_net(np.array([[0.5]]))
    dec = _linear_net(np.array([[1.0, 0.0]]))
    model = koopman.SensingModel(enc, ad.Parameter(np.array([[1.0, 0.0]])),
                                 dec, ad.Parameter(np.array([[1.0]])))
    states = np.array([[[2.0], [0.0]]])
    latents = koopman.encode_windows(model, states)
    loss = koopman.loss_cost_consistency(model, states, np.array([[0.5]]),
                                         latents)
    assert np.isclose(float(loss.value), 1.0, atol=1e-12)
    # matching quadratic forms zero it out
    model.cost.value[:] = np.array([[2.0]])
    loss0 = koopman.loss_cost_consistency(model, states, np.array([[0.5]]),
                                          latents)
    assert np.isclose(float(loss0.value), 0.0, atol=1e-15)


def test_total_sensing_loss_is_weighted_sum_of_terms():
    model = micro_model(seed=5)
    states, actions = _linear_windows(np.eye(4) * 0.5, np.ones((4, 1)), n=6,
                                      depth=2, seed=11)
    total, terms = koopman.total_sensing_loss(model, states, actions,
                                              return_terms=True)
    expect = (0.5 * float(terms["l1"].value) + float(terms["l2"].value)
              + 0.5 * float(terms["l3"].value) + float(terms["l4"].value))
    assert np.isclose(float(total.value), expect, rtol=1e-12)
    # and with unit sub-losses that combination is 0.5+2+1.5+4 = 8 style
    c1, c2, c3, c4 = koopman.SENSING_WEIGHTS
    assert c1 * 1 + c2 * 2 + c3 * 3 + c4 * 4 == 8.0


def test_total_controlling_loss_is_weighted_sum_of_terms():
    rng = np.random.default_rng(6)
    sens = micro_model(seed=6)
    model = koopman.ControllingModel.build(sens, rng)
    states, actions = _linear_windows(np.eye(4) * 0.5, np.ones((4, 1)), n=5,
                                      depth=2, seed=13)
    total, terms = koopman.total_controlling_loss(model, states, actions,
                                                  return_terms=True)
    expect = (0.5 * float(terms["l1"].value) + float(terms["l2"].value)
              + 0.5 * float(terms["l3"].value))
    assert np.isclose(float(total.value), expect, rtol=1e-12)


# ---------------------------------------------------------------------------
# gradients through the full losses
# ---------------------------------------------------------------------------
# Finite differences are only valid away from relu kinks; with zero-init
# biases an input that switches a whole layer off lands preactivations at
# exactly 0. Seeds below were screened so every configuration keeps a
# healthy margin (checked at two step sizes).

GRADCHECK_SENSING_SEED = 6
GRADCHECK_CONTROLLING_SEED = 8


def gradcheck_sensing_case(depth):
    model = micro_model(seed=GRADCHECK_SENSING_SEED)
    windows = _linear_windows(np.eye(4) * 0.3, np.ones((4, 1)) * 0.5, n=4,
                              depth=depth, seed=GRADCHECK_SENSING_SEED + 1000,
                              scale=0.6)
    return model, windows


def gradcheck_controlling_case(depth):
    seed = GRADCHECK_CONTROLLING_SEED
    sens = micro_model(seed=seed)
    model = koopman.ControllingModel.build(sens,
                                           np.random.default_rng(seed + 500))
    windows = _linear_windows(np.eye(4) * 0.3, np.ones((4, 1)) * 0.5, n=4,
                              depth=depth, seed=seed + 2000, scale=0.6)
    return model, windows


@pytest.mark.parametrize("depth", [1, 3])
def test_sensing_loss_gradients_match_finite_differences(depth):
    model, (states, actions) = gradcheck_sensing_case(depth)

    def loss():
        return koopman.total_sensing_loss(model, states, actions)

    check_params(loss, model.parameters())


@pytest.mark.parametrize("depth", [1, 3])
def test_controlling_loss_gradients_match_finite_differences(depth):
    model, (states, actions) = gradcheck_controlling_case(depth)

    def loss():
        return koopman.total_controlling_loss(model, states, actions)

    check_params(loss, model.parameters())


def _recorded_nodes(root):
    """Number of op nodes (nodes with a backward closure) in root's graph."""
    seen, stack, ops = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops += node._grad_fn is not None
            stack.extend(node._parents)
    return ops


@pytest.mark.parametrize("depth,sensing,controlling",
                         [(1, 16, 11), (3, 26, 19)])
def test_loss_graphs_record_one_node_per_weighted_sum(depth, sensing,
                                                      controlling):
    # each weighted sum of the losses (depth mean, total) is one node: the
    # sensing loss encodes its latents in-graph, the controlling loss takes
    # them as constants, as its trainer feeds them
    model, (states, actions) = gradcheck_sensing_case(depth)
    assert _recorded_nodes(koopman.total_sensing_loss(
        model, states, actions)) == sensing
    cmodel, (states, actions) = gradcheck_controlling_case(depth)
    latents = [ad.constant(cmodel.encode(states[:, t, :]))
               for t in range(states.shape[1])]
    assert _recorded_nodes(koopman.total_controlling_loss(
        cmodel, states, actions, latents=latents)) == controlling


def test_reconstruction_leaves_koopman_and_cost_grad_unset():
    model = micro_model(seed=45)
    states, actions = _linear_windows(np.eye(4) * 0.3, np.ones((4, 1)), n=3,
                                      depth=1, seed=23)
    # reconstruction touches encoder and decoder but not koopman or cost
    ad.backward(koopman.loss_reconstruction(
        model, states, actions, koopman.encode_windows(model, states)))
    assert model.koopman.grad is None
    assert model.cost.grad is None
    enc_first = model.encoder_parameters()[0]
    assert not np.allclose(enc_first.grad, 0.0)


# ---------------------------------------------------------------------------
# model construction and serialization
# ---------------------------------------------------------------------------

def test_build_architecture_dimensions():
    model = koopman.SensingModel.build(p=4, d=3, q=1,
                                       rng=np.random.default_rng(0))
    assert model.encoder.d_in == 4 and model.encoder.d_out == 3
    assert [l.d_out for l in model.encoder.layers] == [128, 64, 32, 3]
    # decoder: two leading (d+q)-wide layers, then the mirrored encoder
    assert model.decoder.d_in == 4 and model.decoder.d_out == 4
    assert [l.d_out for l in model.decoder.layers] == [4, 4, 32, 64, 128, 4]
    assert model.koopman.value.shape == (3, 4)
    assert model.cost.value.shape == (3, 3)


def test_build_koopman_init_near_block_identity():
    model = koopman.SensingModel.build(p=4, d=3, q=1,
                                       rng=np.random.default_rng(1))
    assert np.allclose(model.k11, np.eye(3), atol=0.1)
    assert np.allclose(model.k12, 0.0, atol=0.1)
    ctrl = koopman.ControllingModel.build(model, np.random.default_rng(2))
    assert np.allclose(ctrl.k22, np.eye(1), atol=0.1)
    assert np.allclose(ctrl.k21, 0.0, atol=0.1)
    assert ctrl.encoder is model.encoder


def test_server_vs_encoder_parameter_partition():
    model = koopman.SensingModel.build(p=4, d=2, q=1,
                                       rng=np.random.default_rng(3))
    enc = set(map(id, model.encoder_parameters()))
    srv = set(map(id, model.server_parameters()))
    assert not enc & srv
    assert set(map(id, model.parameters())) == enc | srv
    assert id(model.koopman) in srv and id(model.cost) in srv
    ctrl = koopman.ControllingModel.build(model, np.random.default_rng(4))
    local = set(map(id, ctrl.local_parameters()))
    assert id(ctrl.koopman) in local
    assert not local & enc


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = koopman.SensingModel.build(p=4, d=2, q=1,
                                       rng=np.random.default_rng(10),
                                       encoder_hidden=(8, 8))
    path = tmp_path / "sensing.json"
    koopman.save_checkpoint(model, path)
    loaded = koopman.load_checkpoint(path)
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(a.value, b.value)
    x = np.random.default_rng(11).normal(size=4)
    assert np.array_equal(model.encode(x), loaded.encode(x))
    # the training schedule lives in the run's config, not the checkpoint
    with open(path) as fh:
        assert not {"depth", "schedule_mode"} & set(json.load(fh))


@pytest.mark.parametrize("depth,mode", [(3, "general"), (None, None)])
def test_checkpoint_with_schedule_keys_loads_bitwise(tmp_path, depth, mode):
    # files written before the schedule left the checkpoint carry `depth`
    # and `schedule_mode` (null when saved without a schedule)
    sens = koopman.SensingModel.build(p=4, d=2, q=1,
                                      rng=np.random.default_rng(14),
                                      encoder_hidden=(8, 8))
    ctrl = koopman.ControllingModel.build(sens, np.random.default_rng(15))
    for model in (sens, ctrl):
        data = koopman.checkpoint_to_dict(model)
        data.update(depth=depth, schedule_mode=mode)
        path = tmp_path / f"{data['kind']}.json"
        path.write_text(json.dumps(data))
        loaded = koopman.load_checkpoint(path)
        assert type(loaded) is type(model)
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.value.tobytes() == b.value.tobytes()


def test_controlling_checkpoint_reshares_encoder(tmp_path):
    sens = koopman.SensingModel.build(p=4, d=2, q=1,
                                      rng=np.random.default_rng(12),
                                      encoder_hidden=(8, 8))
    ctrl = koopman.ControllingModel.build(sens, np.random.default_rng(13))
    path = tmp_path / "controlling.json"
    koopman.save_checkpoint(ctrl, path)
    loaded = koopman.load_checkpoint(path, encoder=sens.encoder)
    assert loaded.encoder is sens.encoder
    assert np.array_equal(loaded.koopman.value, ctrl.koopman.value)
    # without re-sharing, the stored encoder copy is used and equal in value
    fresh = koopman.load_checkpoint(path)
    assert fresh.encoder is not sens.encoder
    for a, b in zip(fresh.encoder.parameters(), sens.encoder.parameters()):
        assert np.array_equal(a.value, b.value)
