"""Fading-link model tests: path loss, SNR, rate, outage, packet corruption."""

import dataclasses
import math

import numpy as np
import pytest

from koopcontrol import channel, dynamics


def test_payload_bits_layout():
    # 32 bits per scalar plus one 64-bit header
    assert channel.payload_bits(1) == 96
    assert channel.payload_bits(5) == 224
    assert channel.payload_bits(0) == 64
    with pytest.raises(ValueError):
        channel.payload_bits(-1)


def test_dbm_conversion():
    assert np.isclose(channel.dbm_to_watts(30.0), 1.0)
    assert np.isclose(channel.dbm_to_watts(20.0), 0.1)
    assert np.isclose(channel.dbm_to_watts(0.0), 1e-3)


def _path_loss_db():
    return channel.PL0_DB + 10.0 * channel.ETA * math.log10(
        channel.DISTANCE / channel.D0)


def test_path_loss_hand_value():
    # eta=3, D=100, D0=1, PL(D0)=30 dB -> 30 + 10*3*log10(100) = 90 dB
    assert (channel.PL0_DB, channel.DISTANCE, channel.D0, channel.ETA) == \
        (30.0, 100.0, 1.0, 3.0)
    assert np.isclose(_path_loss_db(), 90.0, atol=1e-12)
    # 90 dB of loss: the mean SNR is the power ratio scaled by 1e-9
    assert np.isclose(channel.ChannelConfig().mean_snr,
                      1e-9 * channel.P_T / channel.N_C, rtol=1e-12)


def test_mean_snr_consistent_with_path_loss():
    pl_db = _path_loss_db()
    # mean snr = P_t / (N_c * PL_linear)
    pl_lin = 10.0 ** (pl_db / 10.0)
    assert np.isclose(channel.ChannelConfig().mean_snr,
                      channel.P_T / (channel.N_C * pl_lin), rtol=1e-12)


def test_shannon_rate_identities():
    assert channel.shannon_rate(0.0, 1e6) == 0.0
    assert np.isclose(channel.shannon_rate(1.0, 1e6), 1e6)       # log2(2)=1
    assert np.isclose(channel.shannon_rate(3.0, 2e6), 4e6)       # 2*log2(4)
    with pytest.raises(ValueError):
        channel.shannon_rate(-0.5, 1e6)


def test_min_decodable_snr_budget():
    bits = channel.payload_bits(4)    # 192 bits in 9 ms at 1 MHz
    s = channel.min_decodable_snr(bits)
    assert np.isclose(s, 2.0 ** (bits / 9000.0) - 1.0, rtol=1e-12)


def _written_out_mean_snr(snr_db):
    """The mean SNR as the radio's formulas were first written, with the
    radio's values written out: 20 dBm, 4e-14 W of noise, 30 dB at 1 m,
    100 m, exponent 3; a target first back-solves the noise power."""
    p_t, n_c = 10.0 ** (20.0 / 10.0) * 1e-3, 4e-14
    pl0_db, d, d0, eta = 30.0, 100.0, 1.0, 3.0
    if snr_db is not None:
        target = 10.0 ** (snr_db / 10.0)
        n_c = (10.0 ** (-pl0_db / 10.0)
               * p_t
               * (d0 / d) ** eta) / target
    return (10.0 ** (-pl0_db / 10.0)
            * (p_t / n_c)
            * (d0 / d) ** eta)


def _written_out_min_decodable_snr(bits):
    """2^(bits / (W (tau_o - tau_comp))) - 1 at 1 MHz, 10 ms and 1 ms."""
    budget = 0.01 - 0.001
    return 2.0 ** (bits / (1e6 * budget)) - 1.0


@pytest.mark.parametrize("snr_db", [None, -10.0, -3.0, 0.0, 10.0, 20.0, 60.0])
def test_channel_numbers_match_the_written_out_formulas_bit_for_bit(snr_db):
    cfg = channel.ChannelConfig(snr_db=snr_db)
    mean = _written_out_mean_snr(snr_db)
    assert cfg.mean_snr == mean
    for n_scalars in (1, 4, 8, 12):
        bits = channel.payload_bits(n_scalars)
        s_min = _written_out_min_decodable_snr(bits)
        assert channel.min_decodable_snr(bits) == s_min
        assert channel.outage_probability(cfg, bits) == \
            1.0 - math.exp(-s_min / mean)


def test_outage_closed_form_is_exponential_cdf():
    cfg = channel.ChannelConfig(snr_db=0.0)
    bits = channel.payload_bits(5)
    s_min = channel.min_decodable_snr(bits)
    expected = 1.0 - math.exp(-s_min / cfg.mean_snr)
    assert np.isclose(channel.outage_probability(cfg, bits), expected,
                      rtol=1e-12)


def test_outage_monotone_in_packet_size_and_snr():
    cfg10 = channel.ChannelConfig(snr_db=10.0)
    cfg20 = channel.ChannelConfig(snr_db=20.0)
    small = channel.payload_bits(2)
    large = channel.payload_bits(50)
    assert (channel.outage_probability(cfg10, small)
            < channel.outage_probability(cfg10, large))
    assert (channel.outage_probability(cfg20, small)
            < channel.outage_probability(cfg10, small))


def test_outage_matches_monte_carlo():
    cfg = channel.ChannelConfig(snr_db=0.0)
    bits = channel.payload_bits(8)
    p = channel.outage_probability(cfg, bits)
    rng = np.random.default_rng(5150)
    n = 50_000
    lost = sum(
        not channel.transmit(cfg, np.ones(8), bits, rng).delivered
        for _ in range(n))
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(lost / n - p) < 4.0 * sigma


def test_target_snr_backsolve_round_trip():
    for target in (-10.0, 0.0, 10.0, 20.0):
        cfg = channel.ChannelConfig(snr_db=target)
        got_db = 10.0 * math.log10(cfg.mean_snr)
        assert np.isclose(got_db, target, atol=1e-9)


@pytest.mark.parametrize("snr_db", [-4000.0, 3090.0, 1e5, float("nan"),
                                    float("inf"), float("-inf")])
def test_snr_target_outside_the_float_range_is_refused(snr_db):
    # no finite, positive mean SNR: a ValueError naming the field, not an
    # ArithmeticError from the back-solve
    with pytest.raises(ValueError, match=r"^snr_db "):
        channel.ChannelConfig(snr_db=snr_db)


def test_transmit_delivery_and_erasure_paths():
    # -10 dB target: outage ~9%, so 2000 draws see both outcomes
    cfg = channel.ChannelConfig(snr_db=-10.0, noise_model="noiseless")
    rng = np.random.default_rng(8)
    payload = np.array([1.0, -2.0, 3.0])
    bits = channel.payload_bits(3)
    saw_loss = saw_delivery = False
    for _ in range(2000):
        out = channel.transmit(cfg, payload, bits, rng)
        if out.delivered:
            saw_delivery = True
            assert np.array_equal(out.payload, payload)
            assert out.tau_comm <= dynamics.TAU_O - channel.TAU_COMP
            assert out.tau_comm == bits / out.rate
        else:
            saw_loss = True
            assert out.payload is None
            assert out.tau_comm > dynamics.TAU_O - channel.TAU_COMP
    assert saw_delivery and saw_loss


def test_transmit_does_not_alias_payload():
    cfg = channel.ChannelConfig(snr_db=60.0, noise_model="noiseless")
    payload = np.zeros(2)
    out = channel.transmit(cfg, payload, 96, np.random.default_rng(0))
    assert out.delivered
    out.payload[0] = 99.0
    assert payload[0] == 0.0


def test_snr_scaled_noise_variance():
    # with a huge mean SNR every packet lands; per-packet noise variance is
    # mean_square(payload)/snr_draw, checked against the recorded draw
    cfg = channel.ChannelConfig(snr_db=60.0)
    rng = np.random.default_rng(31)
    payload = np.full(100_000, 2.0)    # mean square 4
    out = channel.transmit(cfg, payload, 96, rng)
    assert out.delivered
    sample_var = np.var(out.payload - payload)
    expected = 4.0 / out.snr
    assert abs(sample_var - expected) / expected < 0.05
    assert np.isclose(out.noise_std, math.sqrt(expected), rtol=1e-12)


def test_unknown_noise_model_rejected():
    with pytest.raises(ValueError):
        channel.ChannelConfig(noise_model="laplace")


def test_fading_link_stream_independent_and_reproducible():
    cfg = channel.ChannelConfig(snr_db=0.0)
    a = channel.FadingLink(cfg, seed=404)
    b = channel.FadingLink(cfg, seed=404)
    seq_a = [a.transmit(np.ones(2), 128).snr for _ in range(64)]
    seq_b = [b.transmit(np.ones(2), 128).snr for _ in range(64)]
    assert seq_a == seq_b
    c = channel.FadingLink(cfg, seed=405)
    seq_c = [c.transmit(np.ones(2), 128).snr for _ in range(64)]
    assert seq_a != seq_c


def test_ideal_link_passthrough():
    out = channel.IdealLink().transmit(np.array([3.0, 4.0]), 128)
    assert out.delivered
    assert np.array_equal(out.payload, [3.0, 4.0])
    assert out.tau_comm == 0.0
    assert math.isinf(out.snr)
    block = np.arange(6.0).reshape(3, 2)
    mask, received = channel.IdealLink().transmit_rows(block, 128)
    assert mask.tolist() == [True] * 3
    assert np.array_equal(received, block) and received is not block


def test_scripted_loss_link_forces_chosen_indices():
    link = channel.ScriptedLossLink(channel.IdealLink(), lost_indices=[1, 3])
    outcomes = [link.transmit(np.ones(1), 96).delivered for _ in range(5)]
    assert outcomes == [True, False, True, False, True]
    assert link.calls == 5


def _transmit_reference(config, payload, bits, rng):
    """The per-packet link as first written: np.mean for the mean square
    and the mean SNR and airtime budget recomputed on every call."""
    payload = np.asarray(payload, dtype=np.float64)
    mean = _written_out_mean_snr(config.snr_db)
    snr = mean * rng.exponential(1.0)
    rate = 1e6 * math.log2(1.0 + snr)
    tau_comm = bits / rate if rate > 0.0 else math.inf
    if tau_comm > 0.01 - 0.001:
        return False, None, snr, rate, tau_comm, 0.0
    if config.noise_model == "noiseless":
        std = 0.0
    else:
        mean_sq = float(np.mean(payload * payload))
        std = math.sqrt(mean_sq / snr) if mean_sq > 0.0 else 0.0
    received = payload + rng.normal(0.0, std, size=payload.shape) \
        if std > 0.0 else payload.copy()
    return True, received, snr, rate, tau_comm, std


@pytest.mark.parametrize("noise_model", channel.NOISE_MODELS)
def test_transmit_matches_reference_bit_for_bit(noise_model):
    # same draws in the same order: every outcome, every payload byte and
    # the final generator state agree with the reference over mixed losses,
    # for single scalars, every short packet size that takes the float fold
    # (2-7, one as a 2-D block), sizes 8, 9 and 16 on either side of
    # numpy's 8-wide block, and a 3-D gradient block; with all-zero and
    # all -0.0 payloads, so the zero-noise branch is hit too, and payloads
    # with -0.0 entries
    cfg = channel.ChannelConfig(snr_db=-3.0, noise_model=noise_model)
    shapes = [(8,), (1,), (17,), (4, 2, 3), (2,), (3,), (4,), (5,), (6,),
              (7,), (2, 3), (9,), (16,)]
    for seed in (0, 7, 2024):
        data = np.random.default_rng(seed + 1)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        outcomes = set()
        for k in range(780):
            payload = data.normal(size=shapes[k % len(shapes)])
            if k % 25 == 0:
                payload[...] = 0.0
            elif k % 25 == 12:
                payload[...] = -0.0
            elif k % 5 == 1:
                payload.reshape(-1)[::2] = -0.0
            bits = channel.payload_bits(payload.size)
            out = channel.transmit(cfg, payload, bits, rng)
            delivered, received, snr, rate, tau_comm, std = \
                _transmit_reference(cfg, payload, bits, ref_rng)
            assert (out.delivered, out.snr, out.rate, out.tau_comm,
                    out.noise_std) == (delivered, snr, rate, tau_comm, std)
            if delivered:
                assert out.payload.shape == payload.shape
                assert out.payload.tobytes() == received.tobytes()
            else:
                assert out.payload is None
            outcomes.add(delivered)
        assert outcomes == {True, False}
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", range(1, 8))
def test_short_packet_fold_is_numpys_pairwise_sum(n):
    # `transmit` sums a short packet's squares as a left fold of Python
    # floats from 0.0; that is numpy's pairwise sum below its 8-wide block,
    # on payloads that share one scale (where the order of the additions
    # shows in the rounding) across +-150 decades, on entries spread over
    # +-160 decades (up to overflow and underflow), and on zeros and -0.0.
    # A numpy that sums short arrays in another order fails here instead of
    # moving the lossy bits.
    rng = np.random.default_rng(n)
    payloads = [rng.normal(size=n) * 10.0 ** rng.uniform(-150.0, 150.0)
                for _ in range(3000)]
    payloads += [rng.normal(size=n) * 10.0 ** rng.uniform(-160.0, 160.0,
                                                            size=n)
                 for _ in range(3000)]
    payloads += [np.zeros(n), np.full(n, -0.0),
                 np.where(np.arange(n) % 2 == 0, -0.0, 1.5)]
    for payload in payloads:
        total = 0.0
        for v in payload.tolist():
            total += v * v
        with np.errstate(over="ignore"):
            want = np.add.reduce(payload * payload, axis=None)
        assert np.float64(total).tobytes() == want.tobytes()


@pytest.mark.parametrize("noise_model", channel.NOISE_MODELS)
def test_transmit_is_the_sample_snr_shannon_rate_composition(noise_model):
    # transmit draws its fading inline; over 10,000 packets at -10 dB, a
    # latent and a command packet in turn with every 50th payload all zero,
    # it makes the draws and gives the bits of sample_snr, then
    # shannon_rate and the airtime, then the payload noise
    cfg = channel.ChannelConfig(snr_db=-10.0, noise_model=noise_model)
    data = np.random.default_rng(1)
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    delivered = 0
    for k in range(10_000):
        payload = data.normal(size=4 if k % 2 == 0 else 1)
        if k % 50 == 0:
            payload[:] = 0.0
        bits = channel.payload_bits(payload.size)
        out = channel.transmit(cfg, payload, bits, rng)
        snr = channel.sample_snr(cfg, ref)
        rate = channel.shannon_rate(snr, channel.BANDWIDTH)
        tau_comm = bits / rate if rate > 0.0 else math.inf
        assert (out.snr, out.rate, out.tau_comm) == (snr, rate, tau_comm)
        assert out.delivered == (tau_comm <= channel.AIRTIME_BUDGET)
        if not out.delivered:
            assert out.payload is None
            continue
        delivered += 1
        mean_sq = float(np.mean(payload * payload))
        std = 0.0 if noise_model == "noiseless" or mean_sq == 0.0 \
            else math.sqrt(mean_sq / snr)
        want = payload + ref.normal(0.0, std, size=payload.shape) \
            if std > 0.0 else payload
        assert out.noise_std == std
        assert out.payload.tobytes() == want.tobytes()
    assert 0 < delivered < 10_000
    assert rng.bit_generator.state == ref.bit_generator.state


def _transmit_loop(link, block, bits):
    """A block sent one `transmit` call per row, as the (mask, received
    rows) that `transmit_rows` returns."""
    outs = [link.transmit(row, bits) for row in block]
    received = np.zeros_like(block)
    for i, out in enumerate(outs):
        if out.delivered:
            received[i] = out.payload
    return np.array([out.delivered for out in outs], dtype=bool), received


@pytest.mark.parametrize("noise_model", channel.NOISE_MODELS)
def test_transmit_rows_matches_a_loop_of_transmit_bit_for_bit(noise_model):
    # same draws in the same order: the mask, every payload byte (signed
    # zeros of all-zero rows included) and the final generator state agree
    # with one `transmit` call per row, over mixed losses, an all-lost block
    # (oversized packets) and an empty block, for rows as wide as numpy's
    # 8-wide block and for the short rows that `transmit` folds as floats
    cfg = channel.ChannelConfig(snr_db=-10.0, noise_model=noise_model)
    for seed in (0, 7, 2024):
        data = np.random.default_rng(seed + 1)
        link, ref = channel.FadingLink(cfg, seed), channel.FadingLink(cfg, seed)
        outcomes = set()
        for width in (8, 4, 1):
            block = data.normal(size=(300, width))
            block[::17] = 0.0
            block[5::17] = -0.0
            for rows, bits in ((block, channel.payload_bits(width)),
                               (block[:40], 10 ** 9),
                               (block[:0], channel.payload_bits(width))):
                mask, received = link.transmit_rows(rows, bits)
                want_mask, want = _transmit_loop(ref, rows, bits)
                assert mask.dtype == bool and mask.shape == (rows.shape[0],)
                assert mask.tolist() == want_mask.tolist()
                assert received.shape == rows.shape
                assert received.tobytes() == want.tobytes()
                if bits == 10 ** 9:
                    assert not mask.any()
                outcomes.update(mask.tolist())
        assert outcomes == {True, False}
        assert link.rng.bit_generator.state == ref.rng.bit_generator.state


def test_scripted_loss_link_counts_packets_across_both_calls():
    # forced indices count packets over `transmit` and `transmit_rows`
    # alike, and the inner link sees exactly the packets that are not
    # forced lost, in order: the same draws as per-packet sending
    cfg = channel.ChannelConfig(snr_db=0.0)
    lost = [1, 3, 4, 9, 11, 12, 13]
    link = channel.ScriptedLossLink(channel.FadingLink(cfg, 5), lost)
    ref = channel.ScriptedLossLink(channel.FadingLink(cfg, 5), lost)
    data = np.random.default_rng(6)
    got, want = [], []
    for kind, n in (("one", 3), ("rows", 5), ("one", 2), ("rows", 4),
                    ("rows", 0), ("one", 1)):
        block = data.normal(size=(n, 3))
        if kind == "one":
            for row in block:
                out = link.transmit(row, 160)
                got.append(None if not out.delivered else out.payload)
        else:
            mask, received = link.transmit_rows(block, 160)
            got += [r if m else None for m, r in zip(mask, received)]
        for row in block:
            out = ref.transmit(row, 160)
            want.append(None if not out.delivered else out.payload)
    assert link.calls == ref.calls == 15
    assert [g is None for g in got] == [w is None for w in want]
    assert set(lost) <= {k for k, w in enumerate(got) if w is None}
    for g, w in zip(got, want):
        if w is not None:
            assert g.tobytes() == w.tobytes()
    assert link.inner.rng.bit_generator.state == \
        ref.inner.rng.bit_generator.state


def test_channel_config_is_frozen_and_replace_recomputes():
    cfg = channel.ChannelConfig()
    mean = cfg.mean_snr
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.snr_db = 0.0
    lower = dataclasses.replace(cfg, snr_db=0.0)
    assert cfg.mean_snr == mean
    assert np.isclose(lower.mean_snr, 1.0, rtol=1e-12)
