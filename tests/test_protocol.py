"""Protocol tests: split training equivalence, loss compensation, phase-2
closed-loop routing."""

import json
import tracemalloc

import numpy as np
import pytest

from koopcontrol import autodiff, channel, datasets, dynamics, koopman, protocol
from test_autodiff import checked_accumulate
from test_koopman import (_linear_windows, micro_model, passthrough_sensing,
                          passthrough_controlling)


def ideal():
    return channel.IdealLink()


def scripted(lost):
    return channel.ScriptedLossLink(channel.IdealLink(), lost)


# ---------------------------------------------------------------------------
# early stopping
# ---------------------------------------------------------------------------

class _ScriptedTrainer:
    """Validation losses read off a script, one per epoch."""

    def __init__(self, val_losses, **settings):
        self.val_losses = list(val_losses)
        self.settings = protocol.TrainSettings(**settings)
        self.epoch = 0

    def run_epoch(self):
        self.epoch += 1
        return protocol.EpochStats(epoch=self.epoch, train_loss=1.0,
                                   val_loss=self.val_losses[self.epoch - 1],
                                   batches=1)


def _stop_epoch(val_losses, patience=2, **settings):
    """The epoch a scripted run stops early at, or None when it runs out
    of epochs."""
    res = protocol.fit_with_early_stopping(_ScriptedTrainer(
        val_losses, max_epochs=len(val_losses), patience=patience,
        **settings))
    assert res.history[-1].epoch == res.epochs
    return res.epochs if res.stopped_early else None


def test_early_stopping_trace(monkeypatch):
    # the first value sets the best; 0.9 clearly improves on it; 0.89995
    # improves by 5e-5 < MIN_DELTA (stale 1), and 0.8999 improves on the
    # best, 0.9, by a hair under 1e-4 in floating point (stale 2 = patience)
    assert protocol.MIN_DELTA == 1e-4
    assert _stop_epoch((1.0, 0.9, 0.89995, 0.8999)) == 4
    assert _stop_epoch((1.0, 0.9, 0.89995)) is None
    monkeypatch.setattr(protocol, "MIN_DELTA", 1e-5)
    assert _stop_epoch((1.0, 0.9, 0.89995, 0.8999)) is None


def test_early_stopping_reset_on_improvement():
    assert _stop_epoch((1.0, 0.99995, 0.5, 0.49995, 0.4999)) == 5
    assert _stop_epoch((1.0, 0.99995, 0.5, 0.49995)) is None
    # a NaN loss never improves, not even as the first value
    assert _stop_epoch((1.0, float("nan"), float("nan"))) == 3
    assert _stop_epoch((float("nan"), 0.5, 0.1)) == 3


def test_early_stopping_validation():
    with pytest.raises(ValueError, match="patience"):
        protocol.TrainSettings(patience=0)


# ---------------------------------------------------------------------------
# split sensing trainer
# ---------------------------------------------------------------------------

def _micro_windows(n=24, depth=1, seed=0):
    return _linear_windows(np.eye(4) * 0.4, np.ones((4, 1)) * 0.3, n=n,
                           depth=depth, seed=seed, scale=0.5)


def _trainer(model, uplink, depth=1, seed=0, max_epochs=100):
    return protocol.SensingTrainer(
        model, _micro_windows(n=24, depth=depth, seed=seed),
        _micro_windows(n=8, depth=depth, seed=seed + 1),
        protocol.TrainSettings(lr=1e-3, batch_size=8, max_epochs=max_epochs),
        42, uplink=uplink)


def test_split_ideal_link_matches_centralized_bitwise():
    m_split = micro_model(seed=3)
    m_central = micro_model(seed=3)
    t_split = _trainer(m_split, ideal())
    t_central = _trainer(m_central, None)
    for _ in range(3):
        s_split = t_split.run_epoch()
        s_central = t_central.run_epoch()
        assert s_split.train_loss == s_central.train_loss
        assert s_split.val_loss == s_central.val_loss
    for a, b in zip(m_split.parameters(), m_central.parameters()):
        assert np.array_equal(a.value, b.value), "split diverged from centralized"
    # the split run actually sent packets; the centralized one did not
    assert t_split.epoch == 3


def test_nan_encoder_weight_stops_sensing_training():
    # one non-finite hidden weight makes the batch loss NaN, which raises
    # instead of training on a relu that swallowed it
    model = micro_model(seed=3)
    model.encoder.layers[0].w.value[2, 1] = np.nan
    with pytest.raises(FloatingPointError):
        _trainer(model, None).run_epoch()


def test_split_epoch_packet_accounting():
    model = micro_model(seed=4)
    trainer = _trainer(model, ideal())
    stats = trainer.run_epoch()
    # 24 windows of 2 samples each
    assert stats.packets_sent == 48
    assert stats.packets_lost == 0
    assert stats.windows_dropped == 0
    assert stats.batches == 3
    central = _trainer(micro_model(seed=4), None)
    assert central.run_epoch().packets_sent == 0


def test_split_drops_windows_with_lost_anchor():
    model = micro_model(seed=5)
    # first batch streams 8 windows x 2 packets; lose window 0's first
    # packet (index 0) and window 3's second packet (index 7)
    trainer = _trainer(model, scripted([0, 7]))
    stats = trainer.run_epoch()
    assert stats.packets_lost == 2
    # only the anchor loss drops a window; the interior loss is filled in
    assert stats.windows_dropped == 1


def test_transport_fills_interior_losses_with_rollout():
    a = np.eye(2) * 0.5
    b = np.ones((2, 1)) * 0.25
    model = passthrough_sensing(a, b)
    states, actions = windows = _linear_windows(a, b, n=1, depth=2, seed=3)
    link = scripted([1])   # lose the middle packet of the only window
    trainer = protocol.SensingTrainer(model, windows, windows,
                                      protocol.TrainSettings(), 0, uplink=link)
    lat_vals = np.stack([model.encode(states[:, j, :])
                         for j in range(3)], axis=1)
    kept, recv_lat, recv_states, mask, lost = trainer._transport(
        lat_vals, states, actions)
    assert lost == 1
    assert list(kept) == [0]
    assert mask[0].tolist() == [True, False, True]
    # fill rolls the latent forward from sample 0 with the recorded action
    expect = a @ lat_vals[0, 0] + b @ actions[0, 0]
    assert np.allclose(recv_lat[0, 1], expect, atol=1e-12)
    assert np.allclose(recv_states[0, 1], expect, atol=1e-12)
    # delivered samples pass through untouched
    assert np.array_equal(recv_lat[0, 2], lat_vals[0, 2])


def test_transport_fill_matches_matrix_power_oracle():
    # a latent filled M samples past the last delivery j0 must equal
    # K11^M g + sum_k K11^(M-1-k) K12 u_(j0+k), computed by an independent
    # matrix-power expansion; window 0 loses samples 1-2 and window 1
    # samples 2-3 of its 4 (depth 3)
    rng = np.random.default_rng(0)
    a = rng.normal(scale=0.4, size=(3, 3))
    b = rng.normal(size=(3, 1))
    model = passthrough_sensing(a, b)
    states, actions = windows = _linear_windows(a, b, n=2, depth=3, seed=4)
    trainer = protocol.SensingTrainer(model, windows, windows,
                                      protocol.TrainSettings(), 0,
                                      uplink=scripted([1, 2, 6, 7]))
    lat_vals = np.stack([model.encode(states[:, j, :])
                         for j in range(4)], axis=1)
    kept, recv_lat, recv_states, mask, lost = trainer._transport(
        lat_vals, states, actions)
    assert lost == 4 and list(kept) == [0, 1]
    for i, j0, filled in ((0, 0, (1, 2)), (1, 1, (2, 3))):
        for j in filled:
            depth = j - j0
            expect = np.linalg.matrix_power(a, depth) @ lat_vals[i, j0]
            for k in range(depth):
                expect = expect + (np.linalg.matrix_power(a, depth - 1 - k)
                                   @ b @ actions[i, j0 + k])
            assert not mask[i, j]
            assert np.allclose(recv_lat[i, j], expect, atol=1e-12)
            # pass-through decoder reads the latent back out
            assert np.allclose(recv_states[i, j], expect, atol=1e-12)
    assert np.array_equal(recv_lat[0, 3], lat_vals[0, 3])


def _fill_reference(model, latent, u, decode_u):
    """One single-row interior fill as first written: a 1-D latent step,
    then a decode of the 1-D [latent; command]."""
    lat = model.k11 @ np.ravel(latent) + model.k12 @ np.ravel(u)
    return lat, model.decode(np.concatenate([lat, np.ravel(decode_u)]))


def _transport_reference(model, uplink, latent_vals, states, actions):
    """Per-packet uplink as first written: one packet built, sent and
    written back per (window, time) sample, then the interior fills one
    window sample at a time."""
    b, t, d = states.shape[0], states.shape[1], model.d
    bits = channel.payload_bits(model.d + model.p)
    recv_lat = np.zeros_like(latent_vals)
    recv_states = np.zeros_like(states)
    mask = np.zeros((b, t), dtype=bool)
    lost = 0
    for i in range(b):
        for j in range(t):
            pkt = np.concatenate([latent_vals[i, j], states[i, j]])
            out = uplink.transmit(pkt, bits)
            if out.delivered:
                recv_lat[i, j] = out.payload[:d]
                recv_states[i, j] = out.payload[d:]
                mask[i, j] = True
            else:
                lost += 1
    kept = np.flatnonzero(mask[:, 0])
    for i in kept:
        for j in range(1, t):
            if not mask[i, j]:
                recv_lat[i, j], recv_states[i, j] = _fill_reference(
                    model, recv_lat[i, j - 1], actions[i, j - 1],
                    decode_u=actions[i, j])
    return kept, recv_lat, recv_states, mask, lost


def test_stacked_fill_matches_single_row_fills_bit_for_bit():
    # a stack of k fills decodes each row as its own (1, d+q) product, so it
    # has the bits of k single-row fills, at any stack size
    rng = np.random.default_rng(8)
    for d, k in ((4, 1), (4, 23), (2, 64)):
        model = koopman.SensingModel.build(p=4, d=d, q=1, rng=rng)
        lats, us, next_us = (rng.normal(size=(k, w)) for w in (d, 1, 1))
        lat, state = protocol.handle_missing_state(model, lats, us, next_us)
        assert lat.shape == (k, d) and state.shape == (k, 4)
        for i in range(k):
            want_lat, want_state = _fill_reference(model, lats[i], us[i],
                                                   next_us[i])
            assert lat[i].tobytes() == want_lat.tobytes()
            assert state[i].tobytes() == want_state.tobytes()


def test_transport_matches_per_packet_reference_bit_for_bit():
    # -10 dB: about a fifth of the packets are lost, so windows are dropped
    # and interior samples filled; the noisy payloads, the fills and the
    # link's generator state must all match the per-packet loop
    cfg = channel.ChannelConfig(snr_db=-10.0)
    model = micro_model(seed=6)
    states, actions = windows = _micro_windows(n=40, depth=3, seed=6)
    lat_vals = np.stack([model.encode(states[:, j, :])
                         for j in range(4)], axis=1)
    for seed in (1, 2, 3):
        link = channel.FadingLink(cfg, seed)
        trainer = protocol.SensingTrainer(model, windows, windows,
                                          protocol.TrainSettings(), 0,
                                          uplink=link)
        got = trainer._transport(lat_vals, states, actions)
        ref_link = channel.FadingLink(cfg, seed)
        want = _transport_reference(model, ref_link, lat_vals, states,
                                    actions)
        kept, recv_lat, recv_states, mask, lost = got
        assert 0 < lost < 160 and 0 < kept.size < 40
        assert (~mask[kept, 1:]).any()           # some fills happened
        assert lost == want[4]
        for g, w in zip(got[:4], want[:4]):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert link.rng.bit_generator.state == ref_link.rng.bit_generator.state


def test_training_result_properties():
    stats = [protocol.EpochStats(epoch=i + 1, train_loss=1.0,
                                 val_loss=v, batches=1)
             for i, v in enumerate([0.5, 0.4, float("nan"), 0.45])]
    res = protocol.TrainingResult(history=stats, stopped_early=False)
    assert res.epochs == 4
    assert res.best_val == 0.4
    empty = protocol.TrainingResult(history=[], stopped_early=False)
    assert np.isnan(empty.best_val)


def test_fit_with_early_stopping_budget_and_callback():
    model = micro_model(seed=9)
    trainer = _trainer(model, None, max_epochs=3)
    seen = []
    res = protocol.fit_with_early_stopping(trainer, on_epoch=seen.append)
    assert res.epochs == 3
    assert [s.epoch for s in seen] == [1, 2, 3]
    assert res.history == seen


def test_fit_with_early_stopping_fires_on_plateau():
    res = protocol.fit_with_early_stopping(_ScriptedTrainer(
        [1.0] * 50, max_epochs=50, patience=3))
    assert res.stopped_early is True
    assert res.epochs == 4   # first epoch sets best, then 3 stale epochs


# ---------------------------------------------------------------------------
# actuator side
# ---------------------------------------------------------------------------

def _tiny_trajectories(n=2, length=12, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(datasets.Trajectory(rng.normal(size=(length, 4)),
                                       rng.normal(size=(length, 1))))
    return out


def test_receive_action_stream_masks_and_payloads():
    trajs = _tiny_trajectories(n=2, length=4)
    link = scripted([1, 6])   # second packet of traj 0, third of traj 1
    received = protocol.receive_action_stream(trajs, link)
    r0, r1 = received
    a0, a1 = r0.actions, r1.actions
    assert (~np.isnan(a0[:, 0])).tolist() == [True, False, True, True]
    assert (~np.isnan(a1[:, 0])).tolist() == [True, True, False, True]
    assert np.array_equal(a0[0], trajs[0].actions[0])
    assert np.all(np.isnan(a0[1]))
    # the true states ride along; the recorded actions are not written
    assert r0.states is trajs[0].states and r1.states is trajs[1].states
    assert not np.isnan(trajs[0].actions).any()


def _action_stream_reference(trajectories, link, q=1):
    """The downlink action stream as first written: one `transmit` call
    and one write-back per recorded command."""
    bits = channel.payload_bits(q)
    received = []
    for traj in trajectories:
        acts = np.zeros_like(traj.actions)
        mask = np.zeros(len(traj), dtype=bool)
        for m in range(len(traj)):
            out = link.transmit(traj.actions[m], bits)
            if out.delivered:
                acts[m] = out.payload
                mask[m] = True
        received.append((acts, mask))
    return received


@pytest.mark.parametrize("noise_model", channel.NOISE_MODELS)
def test_receive_action_stream_matches_per_packet_reference(noise_model):
    cfg = channel.ChannelConfig(snr_db=-10.0, noise_model=noise_model)
    trajs = _tiny_trajectories(n=3, length=200, seed=4)
    trajs[1].actions[50:60] = 0.0
    for seed in (0, 7, 2024):
        link, ref = channel.FadingLink(cfg, seed), channel.FadingLink(cfg, seed)
        got = protocol.receive_action_stream(trajs, link)
        want = _action_stream_reference(trajs, ref)
        masks = [~np.isnan(traj.actions[:, 0]) for traj in got]
        for traj, mask, (want_acts, want_mask) in zip(got, masks, want):
            assert mask.tolist() == want_mask.tolist()
            assert traj.actions[mask].tobytes() == \
                want_acts[want_mask].tobytes()
        assert not all(m.all() for m in masks)
        assert link.rng.bit_generator.state == ref.rng.bit_generator.state


def test_controlling_windows_drop_lossy():
    traj = datasets.Trajectory(np.arange(20, dtype=float).reshape(5, 4),
                               np.arange(5, dtype=float).reshape(5, 1))
    lost = traj.actions.copy()
    lost[1] = np.nan
    received = datasets.Trajectory(traj.states, lost)
    ws, wa = protocol.controlling_windows([received], depth=1)
    # windows (0,1) and (1,2) touch the lost packet and are dropped
    assert ws.shape == (2, 2, 4)
    assert np.array_equal(wa[0].ravel(), [2.0, 3.0])
    assert np.array_equal(wa[1].ravel(), [3.0, 4.0])
    with pytest.raises(ValueError):
        protocol.controlling_windows(
            [datasets.Trajectory(traj.states, np.full((5, 1), np.nan))],
            depth=1)


def _controlling_windows_reference(trajectories, received, depth):
    """The actuator's windows as first written: per trajectory, the windows
    of (true states, received actions) whose every packet arrived, from the
    (received actions, delivered mask) pairs the downlink returned."""
    s_parts, a_parts = [], []
    for traj, (acts, mask) in zip(trajectories, received):
        idx = datasets.window_index(len(traj), depth)
        keep = mask[idx].all(axis=1)
        if keep.any():
            s_parts.append(traj.states[idx[keep]])
            a_parts.append(acts[idx[keep]])
    return np.concatenate(s_parts), np.concatenate(a_parts)


@pytest.mark.parametrize("depth", [1, 3])
def test_controlling_windows_match_per_trajectory_reference(depth):
    # a scripted downlink over fading: the stream as the actuator received
    # it, cut by extract_windows, keeps the bits and order of the windows
    # the per-trajectory mask loop kept, short trajectories included
    cfg = channel.ChannelConfig(snr_db=0.0)
    trajs = _tiny_trajectories(n=4, length=30, seed=6)
    trajs.insert(2, _tiny_trajectories(n=1, length=depth, seed=7)[0])
    lost = [3, 4, 31, 58, 59, 60, 80, 100]
    got_link = channel.ScriptedLossLink(channel.FadingLink(cfg, 3), lost)
    ref_link = channel.ScriptedLossLink(channel.FadingLink(cfg, 3), lost)
    received = protocol.receive_action_stream(trajs, got_link)
    ref = []
    for traj in trajs:
        mask, acts = ref_link.transmit_rows(traj.actions,
                                            channel.payload_bits(1))
        ref.append((acts, mask))
    ws, wa = protocol.controlling_windows(received, depth)
    want_s, want_a = _controlling_windows_reference(trajs, ref, depth)
    assert ws.shape == want_s.shape and wa.shape == want_a.shape
    assert ws.tobytes() == want_s.tobytes()
    assert wa.tobytes() == want_a.tobytes()
    assert 0 < len(ws) < sum(len(t) - depth for t in trajs)


def test_controlling_trainer_moves_only_local_params():
    sens = micro_model(seed=10)
    model = koopman.ControllingModel.build(sens, np.random.default_rng(11))
    windows = _micro_windows(n=16)
    trainer = protocol.ControllingTrainer(
        model, windows, windows,
        protocol.TrainSettings(lr=1e-3, batch_size=8), 0)
    enc_before = [p.value.copy() for p in sens.encoder.parameters()]
    sens_koop_before = sens.koopman.value.copy()
    local_before = [p.value.copy() for p in model.local_parameters()]
    stats = trainer.run_epoch()
    assert np.isfinite(stats.train_loss)
    for p, before in zip(sens.encoder.parameters(), enc_before):
        assert np.array_equal(p.value, before)
    assert np.array_equal(sens.koopman.value, sens_koop_before)
    moved = any(not np.array_equal(p.value, b)
                for p, b in zip(model.local_parameters(), local_before))
    assert moved


@pytest.mark.parametrize("n, batch_size", [(333, 64), (333, 50), (40, 64)])
def test_controlling_trainer_encodes_its_windows_once_bit_for_bit(
        monkeypatch, n, batch_size):
    # the trainer encodes its training windows when built, in blocks of
    # batch_size; over three shuffled epochs without a batch cap (333
    # windows leave a short last batch at both sizes, 40 are all short of
    # one batch) it trains the bits of encoding every batch as it comes,
    # at the default encoder's widths, and encodes only the short batches
    def build():
        sens = koopman.SensingModel.build(4, 4, 1, np.random.default_rng(40))
        model = koopman.ControllingModel.build(sens,
                                               np.random.default_rng(41))
        rng = np.random.default_rng(42)
        train = (rng.normal(size=(n, 2, 4)), rng.normal(size=(n, 2, 1)))
        val = (rng.normal(size=(40, 2, 4)), rng.normal(size=(40, 2, 1)))
        return protocol.ControllingTrainer(
            model, train, val,
            protocol.TrainSettings(lr=1e-3, batch_size=batch_size), 3)

    cached, fresh = build(), build()

    def per_batch_step(idx, stats):
        loss = fresh._loss(fresh.train_states[idx], fresh.train_actions[idx])
        autodiff.backward(loss)
        fresh.opt.step()
        fresh.opt.zero_grad()
        return float(loss.value)

    monkeypatch.setattr(fresh, "_batch_step", per_batch_step)
    encodes = []
    predict = cached.model.encoder.predict
    monkeypatch.setattr(cached.model.encoder, "predict",
                        lambda x: encodes.append(len(x)) or predict(x))
    got = [cached.run_epoch() for _ in range(3)]
    want = [fresh.run_epoch() for _ in range(3)]
    assert got == want
    for a, b in zip(cached.model.local_parameters(),
                    fresh.model.local_parameters()):
        assert a.value.tobytes() == b.value.tobytes()
    # two window columns per short batch, one short batch per epoch
    assert encodes == [n % batch_size] * 6


def test_training_builds_no_gradient_it_drops(monkeypatch):
    # the encoder's raw-state input, the loss targets and the actions need
    # no gradient, so the tape builds none for them; and the controlling
    # loss's parameter gradients have the same bits as when its detached
    # latents are leaves that require grad (every parent gradient built)
    checked_accumulate(monkeypatch)
    trainer = _trainer(micro_model(seed=6), scripted([1, 4, 9]), depth=2)
    assert np.isfinite(trainer.run_epoch().train_loss)

    sens = micro_model(seed=10)
    model = koopman.ControllingModel.build(sens, np.random.default_rng(11))
    states, actions = _micro_windows(n=16, depth=2)
    latents = [model.encode(states[:, j, :]) for j in range(3)]

    def grads(requires_grad):
        leaves = [autodiff.Tensor(z, requires_grad=requires_grad)
                  for z in latents]
        autodiff.backward(koopman.total_controlling_loss(
            model, states, actions, latents=leaves))
        out = [p.grad.copy() for p in model.local_parameters()]
        for p in model.local_parameters():
            p.grad = None
        return out

    for got, want in zip(grads(False), grads(True)):
        assert got.tobytes() == want.tobytes()


def test_controlling_trainer_loss_decreases():
    sens = micro_model(seed=12)
    model = koopman.ControllingModel.build(sens, np.random.default_rng(13))
    windows = _micro_windows(n=32, seed=5)
    trainer = protocol.ControllingTrainer(
        model, windows, windows,
        protocol.TrainSettings(lr=1e-2, batch_size=8), 0)
    first = trainer.run_epoch().val_loss
    for _ in range(4):
        last = trainer.run_epoch().val_loss
    assert last < first


# ---------------------------------------------------------------------------
# validation scoring
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", [protocol.SensingTrainer,
                                 protocol.ControllingTrainer])
def test_validation_scores_without_a_graph_bitwise(monkeypatch, cls):
    # three chunks of at most 16 windows; each is scored with no graph
    # behind its loss, and the mean has the bits of graph-built scores
    monkeypatch.setattr(protocol, "VALIDATION_CHUNK", 16)
    model = micro_model(seed=14)
    if cls is protocol.ControllingTrainer:
        model = koopman.ControllingModel.build(model,
                                               np.random.default_rng(15))
    trainer = cls(model, _micro_windows(n=8, depth=2),
                  _micro_windows(n=40, depth=2, seed=16),
                  protocol.TrainSettings(lr=1e-3, batch_size=8), 0)
    loss_fn, roots = trainer._loss, []

    def recording(states, actions, *latents):
        roots.append(loss_fn(states, actions, *latents))
        return roots[-1]

    monkeypatch.setattr(trainer, "_loss", recording)
    got = trainer.validation_loss()
    assert len(roots) == 3
    assert all(r._parents == () and not r.requires_grad for r in roots)

    states, actions = trainer.val_states, trainer.val_actions
    graphs = [loss_fn(states[s:s + 16], actions[s:s + 16])
              for s in range(0, 40, 16)]
    assert all(g._parents for g in graphs)
    want = sum(float(g.value) * min(16, 40 - s)
               for g, s in zip(graphs, range(0, 40, 16))) / 40
    assert got == want


def test_controlling_validation_latents_cached_at_build_stay_exact(
        monkeypatch):
    # the trainer encodes its validation chunks once; after an epoch has
    # stepped the model, scoring from those latents gives the bits of
    # scoring that encodes every chunk again
    monkeypatch.setattr(protocol, "VALIDATION_CHUNK", 16)
    model = koopman.ControllingModel.build(micro_model(seed=14),
                                           np.random.default_rng(15))
    trainer = protocol.ControllingTrainer(
        model, _micro_windows(n=24, depth=2),
        _micro_windows(n=40, depth=2, seed=16),
        protocol.TrainSettings(lr=1e-3, batch_size=8), 0)
    before = model.koopman.value.copy()
    stats = trainer.run_epoch()
    assert not np.array_equal(model.koopman.value, before)
    fresh = protocol._validation_loss(
        lambda s, a: trainer._loss(s, a),
        protocol._chunks(trainer.val_states, trainer.val_actions))
    assert len(trainer._val_chunks) == 3
    assert trainer.validation_loss() == stats.val_loss == fresh


def test_sensing_validation_peak_memory():
    # about 1,000 windows at the benchmark's model size (latent 4, encoder
    # 128-64-32, depth 1): with a loss graph kept per chunk the scoring
    # peaks near 15 MB, without one near 3 MB
    rng = np.random.default_rng(17)
    model = koopman.SensingModel.build(p=4, d=4, q=1, rng=rng)
    windows = (rng.normal(size=(1000, 2, 4)), rng.normal(size=(1000, 2, 1)))
    trainer = protocol.SensingTrainer(model, windows, windows,
                                      protocol.TrainSettings(), 0)
    trainer.validation_loss()
    tracemalloc.start()
    try:
        trainer.validation_loss()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6, f"validation scoring peaked at {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# phase 2 closed loop
# ---------------------------------------------------------------------------

X0 = (0.02,) * 4   # the plant state most phase-2 tests start from
GAIN = np.array([[0.1, 0.2, 0.1, 0.05]])   # and the latent LQR gain


def _cartpole_like_stub():
    """Pass-through stub sized to the real plant (d = p = 4)."""
    rng = np.random.default_rng(20)
    a = np.eye(4) + 0.01 * rng.normal(scale=0.1, size=(4, 4))
    b = rng.normal(scale=0.05, size=(4, 1))
    return passthrough_sensing(a, b)


def test_phase2_ideal_links_match_offline_rollout():
    sens = _cartpole_like_stub()
    x0 = np.array([0.05, 0.0, -0.02, 0.0])
    res = protocol.run_phase2_loop(
        sens, GAIN, None, ideal(), ideal(),
        protocol.Phase2Config(n_loops=20, x0=tuple(x0)))
    # replay the loop without any transport
    x = tuple(x0.tolist())
    for m in range(20):
        u = np.atleast_1d(-GAIN @ sens.encode(x))
        assert np.array_equal(res.commands[m], u)
        assert np.array_equal(res.applied[m], u)
        x = dynamics.step_plant(x, u)
        assert np.array_equal(res.states[m + 1], x)
    for rec in res.records:
        assert rec.uplink_delivered is True
        assert rec.downlink_delivered is True
        assert rec.state_source == "received"
        assert rec.action_source == "received"
        assert rec.state_depth == 0 and rec.action_depth == 0


def _array_step(x, u, noise_var, rng):
    """The plant step on a state array: rk4_step over cartpole_derivative,
    the divergence bound, then one normal block added to the array."""
    nxt = dynamics.rk4_step(dynamics.cartpole_derivative, x, u,
                            dynamics.TAU_O)
    if not np.all(np.abs(nxt) <= dynamics.DIVERGENCE_BOUND):
        raise dynamics.IntegrationDivergedError("diverged")
    if noise_var > 0.0:
        nxt = nxt + rng.normal(0.0, np.sqrt(noise_var), size=nxt.shape)
    return nxt


def _phase2_reference(sensing, gain, controlling, uplink, downlink, config,
                      noise_var, plant_rng):
    """The phase-2 loop written out on a state array stepped by
    _array_step, with the gain negated for every command."""
    x = np.array(config.x0, dtype=np.float64)
    n, q = config.n_loops, sensing.q
    up_bits, down_bits = channel.payload_bits(sensing.d), \
        channel.payload_bits(q)
    states = [x]
    commands, applied = np.zeros((n, q)), np.zeros((n, q))
    records = []
    ctrl_lat = act_lat = None
    ctrl_depth = down_losses = 0
    for m in range(n):
        g = sensing.encode(x)
        up = None
        if config.uplink_refresh or m == 0:
            up = uplink.transmit(g, up_bits)
        if up is not None and up.delivered:
            ctrl_lat, ctrl_depth, state_source = up.payload, 0, "received"
        elif ctrl_lat is not None:
            ctrl_lat = koopman.latent_step(sensing, ctrl_lat, commands[m - 1])
            ctrl_depth, state_source = ctrl_depth + 1, "predicted"
        else:
            state_source = "cold"
        u_cmd = -gain @ ctrl_lat if ctrl_lat is not None else np.zeros(q)
        commands[m] = u_cmd
        down = downlink.transmit(u_cmd, down_bits)
        if down.delivered:
            u_app, down_losses, action_source = down.payload, 0, "received"
            act_lat = g
        else:
            down_losses += 1
            if controlling is not None and act_lat is not None:
                u_app = koopman.predict_actions(controlling, applied[m - 1],
                                                act_lat)
                if config.action_predict_mode == "advance":
                    act_lat = koopman.latent_step(sensing, act_lat, u_app)
                action_source = "predicted"
            elif m > 0:
                u_app, action_source = applied[m - 1], "held"
            else:
                u_app, action_source = np.zeros(q), "cold"
        applied[m] = u_app
        records.append(protocol.LoopRecord(
            m, None if up is None else up.delivered, down.delivered,
            state_source, ctrl_depth, action_source, down_losses,
            None if up is None else up.tau_comm, down.tau_comm,
            channel.TAU_COMP))
        x = _array_step(x, u_app, noise_var, plant_rng)
        states.append(x)
    return np.array(states), commands, applied, records


@pytest.mark.parametrize("noise_var", [0.0, 1e-4])
@pytest.mark.parametrize("control", [
    {}, {"action_predict_mode": "advance"},
    {"action_predict_mode": "advance", "uplink_refresh": False},
    {"controlling": None}, {"uplink_refresh": False}])
def test_phase2_loop_matches_the_array_loop_bit_for_bit(noise_var, control):
    # the loop carries the plant as floats and negates the gain once; its
    # states, commands, applied commands and records have the bits of the
    # loop on a state array, over fading links at -10 dB, where losses of
    # both kinds come up; each policy is run, and the hold reference with
    # no controlling model
    control = dict(control)
    rng = np.random.default_rng(31)
    sens = koopman.SensingModel.build(4, 4, 1, rng)
    ctrl = koopman.ControllingModel.build(sens, rng)
    ctrl = control.pop("controlling", ctrl)
    config = protocol.Phase2Config(n_loops=300, x0=X0, **control)
    link = channel.ChannelConfig(snr_db=-10.0)

    def run(loop):
        return loop(sens, GAIN, ctrl, channel.FadingLink(link, 5),
                    channel.FadingLink(link, 6), config, noise_var,
                    np.random.default_rng(7) if noise_var else None)

    res = run(protocol.run_phase2_loop)
    states, commands, applied, records = run(_phase2_reference)
    assert res.states.tobytes() == states.tobytes()
    assert res.commands.tobytes() == commands.tobytes()
    assert res.applied.tobytes() == applied.tobytes()
    assert res.records == records
    sources = {r.action_source for r in records}
    assert "received" in sources and len(sources) >= 2


def test_phase2_routing_exclusivity_under_losses():
    sens = _cartpole_like_stub()
    ctrl = passthrough_controlling(sens, np.zeros((1, 4)),
                                   np.array([[1.0]]))
    rng = np.random.default_rng(7)
    up = channel.ScriptedLossLink(ideal(),
                                  rng.choice(60, size=18, replace=False))
    down = channel.ScriptedLossLink(ideal(),
                                    rng.choice(60, size=18, replace=False))
    res = protocol.run_phase2_loop(sens, GAIN, ctrl, up, down,
                                   protocol.Phase2Config(n_loops=60))
    for rec in res.records:
        # exactly one source per side per loop, tied to the delivery flag
        assert rec.state_source in ("received", "predicted", "cold")
        assert rec.action_source in ("received", "predicted", "held", "cold")
        if rec.uplink_delivered:
            assert rec.state_source == "received" and rec.state_depth == 0
        else:
            assert rec.state_source != "received"
        if rec.downlink_delivered:
            assert rec.action_source == "received" and rec.action_depth == 0
        else:
            assert rec.action_source != "received"
            assert rec.action_depth >= 1
    assert any(r.state_source == "predicted" for r in res.records)
    assert any(r.action_source == "predicted" for r in res.records)


def test_phase2_action_prediction_depth_tracks_burst():
    sens4 = _cartpole_like_stub()
    ctrl4 = passthrough_controlling(sens4, np.full((1, 4), -0.05),
                                    np.array([[0.6]]))
    res = protocol.run_phase2_loop(sens4, GAIN, ctrl4, ideal(),
                                   scripted([3, 4, 5]),
                                   protocol.Phase2Config(n_loops=8, x0=X0))
    depths = [r.action_depth for r in res.records]
    assert depths == [0, 0, 0, 1, 2, 3, 0, 0]
    # the predicted command at depth k equals the k-step action rollout
    # from the latent and command of the last delivery (loop 2)
    lat = sens4.encode(res.states[2])
    u = res.applied[2]
    for m in (3, 4, 5):
        u = koopman.action_step(ctrl4, lat, u)
        assert np.allclose(res.applied[m], u, atol=1e-12)
        assert res.records[m].action_source == "predicted"


def test_phase2_action_prediction_matches_replay_from_last_delivery():
    # downlink bursts of 1..10 losses, each followed by one delivery; every
    # predicted command must equal, bit for bit, a replay of the whole
    # prediction from the last delivery, in both latent modes
    sens4 = _cartpole_like_stub()
    ctrl4 = passthrough_controlling(sens4, np.full((1, 4), -0.05),
                                    np.array([[0.6]]))
    lost, m = [], 1
    for burst in range(1, 11):
        lost += range(m, m + burst)
        m += burst + 1
    applied = {}
    for mode in protocol.PHASE2_PREDICT_MODES:
        res = protocol.run_phase2_loop(
            sens4, GAIN, ctrl4, ideal(), scripted(lost),
            protocol.Phase2Config(n_loops=m, action_predict_mode=mode, x0=X0))
        applied[mode] = res.applied
        anchor = None
        for rec in res.records:
            if rec.downlink_delivered:
                assert rec.action_source == "received"
                assert rec.action_depth == 0
                anchor = rec.index
                continue
            assert rec.action_source == "predicted"
            assert rec.action_depth == rec.index - anchor
            lat = sens4.encode(res.states[anchor])
            u = res.applied[anchor]
            for _ in range(rec.action_depth):
                u = koopman.action_step(ctrl4, lat, u)
                if mode == "advance":
                    lat = koopman.latent_step(sens4, lat, u)
            assert np.array_equal(res.applied[rec.index], u)
        assert max(r.action_depth for r in res.records) == 10
    # the advancing latent changes the commands after the first lost loop
    assert np.array_equal(applied["hold"][:2], applied["advance"][:2])
    assert not np.array_equal(applied["hold"], applied["advance"])


def test_phase2_hold_fallback_and_cold_start():
    sens4 = _cartpole_like_stub()
    down = scripted([0, 3])
    res = protocol.run_phase2_loop(
        sens4, GAIN, None, ideal(), down,
        protocol.Phase2Config(n_loops=6, x0=X0))
    # loop 0 lost with nothing to hold: cold zero
    assert res.records[0].action_source == "cold"
    assert res.applied[0] == pytest.approx(0.0)
    assert res.records[3].action_source == "held"
    assert np.array_equal(res.applied[3], res.applied[2])


def test_phase2_pure_prediction_mode():
    sens4 = _cartpole_like_stub()
    res = protocol.run_phase2_loop(
        sens4, GAIN, None, ideal(), ideal(),
        protocol.Phase2Config(n_loops=5, uplink_refresh=False, x0=X0))
    recs = res.records
    assert recs[0].uplink_delivered is True
    assert recs[0].state_source == "received"
    for rec in recs[1:]:
        assert rec.uplink_delivered is None
        assert rec.state_source == "predicted"
        assert rec.tau_comm_up is None
    assert [r.state_depth for r in recs] == [0, 1, 2, 3, 4]
    # latent estimate evolves through the Koopman blocks with the issued
    # commands; commands therefore follow the model, not the plant
    lat = sens4.encode(res.states[0])
    for m in range(5):
        assert np.array_equal(res.commands[m], -GAIN @ lat)
        lat = koopman.latent_step(sens4, lat, res.commands[m])
    # uplink bursts of 1..5 losses with refresh on: every predicted command
    # is, bit for bit, a replay from the latent of the last delivery
    lost, m = [], 1
    for burst in range(1, 6):
        lost += range(m, m + burst)
        m += burst + 1
    res = protocol.run_phase2_loop(sens4, GAIN, None, scripted(lost), ideal(),
                                   protocol.Phase2Config(n_loops=m, x0=X0))
    for rec in res.records:
        if rec.uplink_delivered:
            anchor = rec.index
            continue
        assert rec.state_source == "predicted"
        assert rec.state_depth == rec.index - anchor
        lat = sens4.encode(res.states[anchor])
        for k in range(anchor, rec.index):
            lat = koopman.latent_step(sens4, lat, res.commands[k])
        assert np.array_equal(res.commands[rec.index], -GAIN @ lat)
    assert max(r.state_depth for r in res.records) == 5


def test_phase2_config_validation():
    for field, value in (("action_predict_mode", "recorded"),
                         ("action_predict_mode", "nonsense"),
                         ("n_loops", 0),
                         ("n_loops", -3),
                         ("x0", (0.05,)),
                         ("x0", (0.0, 0.0, float("nan"), 0.0)),
                         ("r", -1.0),
                         ("r", 0.0),
                         ("r", float("nan"))):
        with pytest.raises(ValueError, match=field):
            protocol.Phase2Config(**{field: value})
    for mode in protocol.PHASE2_PREDICT_MODES:
        protocol.Phase2Config(action_predict_mode=mode)


def test_phase2_encodes_once_per_loop(monkeypatch):
    sens = _cartpole_like_stub()
    calls = []
    predict = sens.encoder.predict

    def counted(x):
        calls.append(1)
        return predict(x)

    monkeypatch.setattr(sens.encoder, "predict", counted)
    protocol.run_phase2_loop(sens, GAIN, None, ideal(), ideal(),
                             protocol.Phase2Config(n_loops=15, x0=X0))
    assert len(calls) == 15


def test_write_records_roundtrip(tmp_path):
    sens4 = _cartpole_like_stub()
    res = protocol.run_phase2_loop(sens4, GAIN, None, ideal(), scripted([1]),
                                   protocol.Phase2Config(n_loops=3, x0=X0))
    path = tmp_path / "loops.ndjson"
    protocol.write_records(res, path)

    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    # strict JSON: no NaN or Infinity; the forced loss drew no airtime
    lines = [json.loads(l, parse_constant=refuse)
             for l in path.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["index"] == 0
    assert lines[1]["downlink_delivered"] is False
    assert lines[1]["tau_comm_down"] is None
    assert lines[0]["state"] == pytest.approx([0.02] * 4)
    for key in ("tau_comm_up", "tau_comm_down", "tau_comp", "command",
                "applied", "state_source", "action_source"):
        assert key in lines[0]
