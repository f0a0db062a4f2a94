"""Acceptance gate: one test per numbered criterion, at stated tolerances.

Criteria 1-4 and 8 are exact-oracle checks (gradients, DARE, dynamics,
channel statistics, protocol equivalence). Criterion 7 runs the predictive
closed loop under scripted downlink losses on the exact linear model of
the plant, so it trains nothing. All run in seconds. Criteria 5 (prediction
NRMSE against SNR) and 6 (latent-LQR regulation) need trained models that
regulate and have no test yet, and criterion 7 is still to be repeated on
a trained model. `pytest tests/test_acceptance.py -v` prints one pass/fail
line per criterion.
"""
import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from koopcontrol import (channel, control, datasets, dynamics, experiments,
                         koopman, metrics, protocol)
from gradcheck import check_params
from test_control import _random_stabilizable
from test_koopman import (gradcheck_controlling_case, gradcheck_sensing_case,
                          passthrough_controlling, passthrough_sensing)


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients of both training losses
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    worst = 0.0
    for depth in (1, 3):
        model, windows = gradcheck_sensing_case(depth)
        worst = max(worst, check_params(
            lambda: koopman.total_sensing_loss(model, *windows),
            model.parameters(), tol=1e-5))
        cmodel, cwindows = gradcheck_controlling_case(depth)
        worst = max(worst, check_params(
            lambda: koopman.total_controlling_loss(cmodel, *cwindows),
            cmodel.parameters(), tol=1e-5))
    elapsed = time.monotonic() - t0
    assert worst < 1e-5, f"worst gradient relative error {worst:.2e}"
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# criterion 2: DARE solver against closed forms and random systems
# ---------------------------------------------------------------------------

def test_criterion_2_dare_oracle():
    t0 = time.monotonic()
    # geometric series: A=0.5, B=0 -> P = sum 0.25^k = 4/3, K = 0
    sol = control.solve_dare(np.array([[0.5]]), np.array([[0.0]]),
                             np.eye(1), np.eye(1))
    assert abs(sol.p[0, 0] - 4.0 / 3.0) < 1e-9
    # golden ratio: A=B=Q=R=1 -> P^2 - P - 1 = 0
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    sol = control.solve_dare(np.eye(1), np.eye(1), np.eye(1), np.eye(1))
    assert abs(sol.p[0, 0] - phi) < 1e-9
    assert abs(sol.gain[0, 0] - (phi - 1.0)) < 1e-9

    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = _random_stabilizable(rng)
        sol = control.solve_dare(a, b, np.eye(3), np.eye(1))
        res = control.dare_residual(sol.p, a, b, np.eye(3), np.eye(1))
        assert res < 1e-10, f"DARE residual {res:.2e}"
        assert control.spectral_radius(a - b @ sol.gain) < 1.0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"DARE oracle took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# criterion 3: plant dynamics oracles
# ---------------------------------------------------------------------------

# linearization of the cart-pole field at the origin, frozen from an
# independent symbolic derivation at the default parameters
A_C_ORIGIN = np.array([[0.0, 1.0, 0.0, 0.0],
                       [0.0, 0.4, 2.0, 0.0],
                       [0.0, 0.0, 0.0, 1.0],
                       [0.0, -2.0, -60.0, 0.0]])
B_C_ORIGIN = np.array([[0.0], [0.2], [0.0], [1.0]])


def test_criterion_3_dynamics_oracles():
    # equilibrium is a fixed point of the continuous field
    assert np.max(np.abs(dynamics.cartpole_derivative(
        np.zeros(4), 0.0))) < 1e-12
    x_eq = dynamics.step_plant(np.zeros(4), 0.0)
    assert np.max(np.abs(x_eq)) < 1e-12

    # observed convergence order of the integrator on the real field
    x0 = np.array([0.1, -0.2, 0.3, 0.1])

    def integrate(h, t_end=0.32):
        x = x0.copy()
        for _ in range(int(round(t_end / h))):
            x = dynamics.rk4_step(dynamics.cartpole_derivative, x, 0.5, h)
        return x

    ref = integrate(0.0005)
    err_coarse = np.linalg.norm(integrate(0.02) - ref)
    err_fine = np.linalg.norm(integrate(0.01) - ref)
    order = math.log2(err_coarse / err_fine)
    assert abs(order - 4.0) < 0.3, f"observed order {order:.3f}"

    # numeric Jacobian against the frozen symbolic linearization
    a_num, b_num = dynamics.numeric_jacobian(
        dynamics.cartpole_derivative, np.zeros(4), np.zeros(1))
    assert np.allclose(a_num, A_C_ORIGIN, atol=1e-6)
    assert np.allclose(b_num, B_C_ORIGIN, atol=1e-6)
    assert abs(a_num[1, 1] - 0.4) < 1e-6      # dvdot/dv at defaults
    assert abs(b_num[1, 0] - 0.2) < 1e-6      # dvdot/du at defaults


# ---------------------------------------------------------------------------
# criterion 4: outage statistics and rate identities
# ---------------------------------------------------------------------------

def test_criterion_4_channel_oracle():
    t0 = time.monotonic()
    param_sets = [(-10.0, 4), (-3.0, 8), (0.0, 8), (5.0, 2), (10.0, 4)]
    n = 200_000
    rng = np.random.default_rng(11)
    for target_db, n_scalars in param_sets:
        cfg = channel.ChannelConfig(snr_db=target_db)
        bits = channel.payload_bits(n_scalars)
        p = channel.outage_probability(cfg, bits)
        assert 1e-4 < p < 1.0 - 1e-4   # non-degenerate comparison
        s_min = channel.min_decodable_snr(bits)
        draws = np.array([channel.sample_snr(cfg, rng) for _ in range(n)])
        p_hat = float(np.mean(draws < s_min))
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(p_hat - p) < 3.0 * sigma, (
            f"outage {p_hat:.5f} vs {p:.5f} at {target_db} dB")

    # rate identities: log2(1+snr) at snr = 0, 1, 3
    assert channel.shannon_rate(0.0, 1e6) == 0.0
    assert channel.shannon_rate(1.0, 1e6) == 1e6
    assert channel.shannon_rate(3.0, 2e6) == 4e6
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0, f"channel oracle took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# criterion 7: predicting through downlink outages beats holding
# ---------------------------------------------------------------------------

def test_criterion_7_prediction_beats_hold_under_downlink_bursts():
    """The actuator rides out downlink outages better by predicting its
    commands than by holding the last one.

    The model is the exact linear plant: `passthrough_sensing(A_d, B_d)`
    and `passthrough_controlling(sens, -K A_d, -K B_d)`, with (K, A_d, B_d)
    the desk baseline's LQR gain and Euler discretization, so the action
    model is the one the loop obeys. 1000 loops from x0 = 0.05 * 1 at
    noise_var = 0; the uplink is ideal and the downlink loses loops 30-49
    of every 50 (a burst that starts at loop 0 would leave the actuator
    cold, with nothing to predict from). The runs are deterministic; the
    MSCEs measured are 0.0102154 with no loss, 0.0102182 for `predict`
    with `advance`, 0.0115245 for `predict` with `hold` and 0.0116354 for
    the `hold` fallback. So advance/hold reads 0.878 against the bound
    0.95, and advance/no-loss 1.0003 against the bound 1.01."""
    base = experiments.build_baseline(experiments.desk_preset())
    k, a_d, b_d = base.gain, base.a_d, base.b_d
    sens = passthrough_sensing(a_d, b_d)
    system = protocol.ControlSystem(
        noise_var=0.0, sensing=sens, gain=k,
        controlling=passthrough_controlling(sens, -k @ a_d, -k @ b_d))
    bursts = [m for m in range(1000) if m % 50 >= 30]

    def msce(lost, fallback="predict", mode="advance"):
        res = protocol.run_phase2_loop(
            system, channel.IdealLink(),
            channel.ScriptedLossLink(channel.IdealLink(), lost),
            protocol.Phase2Config(n_loops=1000, action_fallback=fallback,
                                  action_predict_mode=mode,
                                  x0=(0.05,) * 4))
        return metrics.msce(res.states[1:], np.zeros(dynamics.STATE_DIM))

    advance, hold = msce(bursts), msce(bursts, fallback="hold")
    no_loss = msce([])
    assert advance / hold <= 0.95, (advance, hold)
    assert advance / no_loss <= 1.01, (advance, no_loss)


# ---------------------------------------------------------------------------
# criterion 8: split/centralized equivalence and loop bookkeeping
# ---------------------------------------------------------------------------

def _acceptance_windows(n, depth, seed):
    rng = np.random.default_rng(seed)
    a = np.eye(4) * 0.4
    b = np.ones((4, 1)) * 0.3
    states = np.empty((n, depth + 1, 4))
    actions = rng.normal(scale=0.5, size=(n, depth + 1, 1))
    states[:, 0] = rng.normal(scale=0.5, size=(n, 4))
    for j in range(depth):
        states[:, j + 1] = states[:, j] @ a.T + actions[:, j] @ b.T
    return states, actions


def test_criterion_8_protocol_equivalence():
    # split phase-1 training over an ideal link is bitwise identical to
    # the same optimization run centrally
    def make_trainer(uplink):
        model = koopman.SensingModel.build(p=4, d=2, q=1,
                                           rng=np.random.default_rng(3),
                                           encoder_hidden=(8, 8))
        trainer = protocol.SensingTrainer(
            model, _acceptance_windows(24, 1, 0),
            _acceptance_windows(8, 1, 1),
            protocol.TrainSettings(lr=1e-3, batch_size=8), 42, uplink=uplink)
        return model, trainer

    m_split, t_split = make_trainer(channel.IdealLink())
    m_central, t_central = make_trainer(None)
    for _ in range(3):
        s_split = t_split.run_epoch()
        s_central = t_central.run_epoch()
        assert s_split.train_loss == s_central.train_loss
        assert s_split.val_loss == s_central.val_loss
    for a, b in zip(m_split.parameters(), m_central.parameters()):
        assert np.array_equal(a.value, b.value)

    # routing exclusivity and consecutive-loss bookkeeping under random
    # loss patterns in the closed loop
    rng = np.random.default_rng(808)
    sens = passthrough_sensing(np.eye(4) * 0.99, np.full((4, 1), 0.02))
    ctrl = passthrough_controlling(sens, np.full((1, 4), -0.05),
                                   np.array([[0.6]]))
    gain = np.array([[0.05, 0.05, 0.05, 0.05]])
    system = protocol.ControlSystem(
        noise_var=0.0, sensing=sens, gain=gain,
        controlling=ctrl)
    n_loops = 40
    for _ in range(1000):
        up_lost = rng.choice(n_loops, size=rng.integers(0, 25),
                             replace=False)
        down_lost = rng.choice(n_loops, size=rng.integers(0, 25),
                               replace=False)
        res = protocol.run_phase2_loop(
            system, channel.ScriptedLossLink(channel.IdealLink(), up_lost),
            channel.ScriptedLossLink(channel.IdealLink(), down_lost),
            protocol.Phase2Config(n_loops=n_loops, x0=(0.02,) * 4))
        run = 0
        for m, rec in enumerate(res.records):
            # exactly one source per side, tied to the delivery flags
            if rec.uplink_delivered:
                assert rec.state_source == "received"
                assert rec.state_depth == 0
            else:
                assert rec.state_source in ("predicted", "cold")
            if rec.downlink_delivered:
                assert rec.action_source == "received"
                assert rec.action_depth == 0
                run = 0
            else:
                assert rec.action_source in ("predicted", "held", "cold")
                run += 1
                assert rec.action_depth == run
        # the records reproduce the metric on the same delivery sequence
        flags = [rec.downlink_delivered for rec in res.records]
        depths = [rec.action_depth for rec in res.records]
        last_ok = max((m for m, f in enumerate(flags) if f), default=None)
        if last_ok is None:
            assert metrics.consecutive_lost(flags) == len(flags)
        else:
            assert metrics.consecutive_lost(flags) == max(
                depths[:last_ok + 1], default=0)
