"""Rayleigh block-fading link with latency-based packet erasure.

Per control loop the link draws one exponential fading realization |h|^2,
turning into an instantaneous SNR

    snr = 10^(-PL_dB(D0)/10) * (P_t / N_c) * (D0/D)^eta * |h|^2

and a Shannon rate R = W log2(1 + snr). A packet of L bits is lost when its
airtime L/R does not fit into the loop budget tau_o - tau_comp, where
tau_o is the plant's control period `dynamics.TAU_O`; a delivered
payload picks up additive white Gaussian noise scaled to the realized SNR,
unless the link is configured noiseless.

The closed-form outage probability below is the CDF of the exponential SNR
at the minimum decodable SNR, so Monte-Carlo outage rates of `transmit`
match it for any reference distance.

The per-packet draw order is part of the reproducibility contract: every
`transmit` call takes exactly one `exponential(1.0)` from the link's RNG,
followed, on a delivered packet with nonzero noise, by one `normal` block of
the payload's shape. `transmit_rows` sends each row of a block as one packet
and makes the same draws, row by row in row order, so a block costs one call
and gives the bits of a loop of `transmit`. Seeded runs reproduce bit for bit
only while that order holds, so merging or reordering these draws changes
every lossy result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import dynamics

NOISE_MODELS = ("noiseless", "snr_scaled")

BITS_PER_SCALAR = 32
HEADER_BITS = 64


def payload_bits(n_scalars):
    """Packet size for a payload of n scalars: 32 bits each plus a 64-bit
    header."""
    if n_scalars < 0:
        raise ValueError("scalar count must be >= 0")
    return BITS_PER_SCALAR * int(n_scalars) + HEADER_BITS


def dbm_to_watts(dbm):
    return 10.0 ** (dbm / 10.0) * 1e-3


@dataclass(frozen=True)
class ChannelConfig:
    p_t: float = dbm_to_watts(20.0)   # transmit power [W], 20 dBm cap
    n_c: float = 4e-14                # receiver noise power [W]
    pl0_db: float = 30.0              # reference path loss at d0 [dB]
    d: float = 100.0                  # link distance [m]
    d0: float = 1.0                   # reference distance [m]
    eta: float = 3.0                  # path loss exponent
    bandwidth: float = 1e6            # [Hz]
    tau_comp: float = 0.001           # compute budget taken off the period [s]
    noise_model: str = "snr_scaled"

    def __post_init__(self):
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"noise_model must be one of {NOISE_MODELS}, "
                             f"not {self.noise_model!r}")
        for name in ("p_t", "n_c", "d", "d0", "eta", "bandwidth"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.tau_comp >= 0.0:
            raise ValueError("tau_comp must be >= 0")

    # derived once per config; the config is frozen, so they cannot go stale

    @cached_property
    def mean_snr(self):
        """Mean received SNR (the |h|^2 = 1 point of the fading
        distribution)."""
        return (10.0 ** (-self.pl0_db / 10.0)
                * (self.p_t / self.n_c)
                * (self.d0 / self.d) ** self.eta)

    @cached_property
    def airtime_budget(self):
        """Time left in a control period for the packet, tau_o - tau_comp,
        with tau_o the plant's control period `dynamics.TAU_O`."""
        return dynamics.TAU_O - self.tau_comp


@dataclass
class LinkOutcome:
    delivered: bool
    payload: np.ndarray | None
    snr: float
    rate: float
    tau_comm: float
    noise_std: float = 0.0


def path_loss_db(config):
    """PL_dB(D) = PL_dB(D0) + 10 eta log10(D/D0)."""
    return config.pl0_db + 10.0 * config.eta * math.log10(config.d / config.d0)


def sample_snr(config, rng):
    """One block-fading draw: |h|^2 ~ Exp(1)."""
    return config.mean_snr * rng.exponential(1.0)


def shannon_rate(snr, bandwidth):
    """R = W log2(1 + snr) [bit/s]."""
    if snr < 0.0:
        raise ValueError("snr must be >= 0")
    return bandwidth * math.log2(1.0 + snr)


def min_decodable_snr(config, bits):
    """SNR below which `bits` cannot be pushed through in tau_o - tau_comp."""
    budget = config.airtime_budget
    if budget <= 0.0:
        return math.inf
    return 2.0 ** (bits / (config.bandwidth * budget)) - 1.0


def outage_probability(config, bits):
    """Closed-form loss probability for a packet of `bits` bits."""
    s_min = min_decodable_snr(config, bits)
    if math.isinf(s_min):
        return 1.0
    return 1.0 - math.exp(-s_min / config.mean_snr)


def _fade(config, bits, rng):
    """One fading draw for a packet of `bits` bits: (snr, rate, tau_comm).
    The packet is lost when tau_comm exceeds the airtime budget."""
    snr = sample_snr(config, rng)
    rate = shannon_rate(snr, config.bandwidth)
    return snr, rate, bits / rate if rate > 0.0 else math.inf


def _noise_std(mean_sq, snr):
    """snr_scaled payload noise: std sqrt(mean square / snr), none for an
    all-zero payload."""
    return math.sqrt(mean_sq / snr) if mean_sq > 0.0 else 0.0


def transmit(config, payload, bits, rng):
    """Push one packet through the fading link.

    Returns a LinkOutcome; on loss the payload slot is None. Delivered
    payloads are corrupted per the configured noise model."""
    payload = np.asarray(payload, dtype=np.float64)
    snr, rate, tau_comm = _fade(config, bits, rng)
    if tau_comm > config.airtime_budget:
        return LinkOutcome(False, None, snr, rate, tau_comm)

    if config.noise_model == "noiseless":
        std = 0.0
    else:  # snr_scaled
        # the pairwise sum np.mean runs, without its wrapper
        sq = payload * payload
        std = _noise_std(float(np.add.reduce(sq, axis=None) / sq.size), snr)
    received = payload + rng.normal(0.0, std, size=payload.shape) if std > 0.0 \
        else payload.copy()
    return LinkOutcome(True, received, snr, rate, tau_comm, std)


def transmit_rows(config, payloads, bits, rng):
    """Push each row of an (n, k) block through the fading link as one
    packet of `bits` bits, in row order, with the draws of n `transmit`
    calls. Returns the (n,) delivered mask and the (n, k) received rows,
    zero where a packet was lost."""
    payloads = np.asarray(payloads, dtype=np.float64)
    n, k = payloads.shape
    noisy = config.noise_model != "noiseless"
    if noisy:
        # each row's pairwise sum, as `transmit` takes it
        sq = payloads * payloads
        mean_sq = (np.add.reduce(sq, axis=1) / k).tolist()
    # `_fade`'s arithmetic inline, on names bound once per block
    mean_snr, bandwidth = config.mean_snr, config.bandwidth
    budget = config.airtime_budget
    exponential, log2 = rng.exponential, math.log2
    delivered = np.zeros(n, dtype=bool)
    noise_rows, noise = [], []
    for i in range(n):
        snr = mean_snr * exponential(1.0)
        rate = bandwidth * log2(1.0 + snr)
        tau_comm = bits / rate if rate > 0.0 else math.inf
        if tau_comm > budget:
            continue
        delivered[i] = True
        if noisy:
            std = _noise_std(mean_sq[i], snr)
            if std > 0.0:
                noise_rows.append(i)
                noise.append(rng.normal(0.0, std, size=k))
    received = np.zeros_like(payloads)
    received[delivered] = payloads[delivered]
    if noise_rows:
        received[noise_rows] += noise
    return delivered, received


def channel_config_for_target_snr(config, target_snr_db):
    """Back-solve the noise power so the mean SNR hits `target_snr_db` (dB)
    with the transmit power left at its configured cap. The experiment
    presets quote operating points as mean-SNR targets; this maps them onto
    a concrete link."""
    if not math.isfinite(target_snr_db):
        raise ValueError(f"target SNR must be finite, not {target_snr_db!r}")
    target = 10.0 ** (target_snr_db / 10.0)
    n_c = (10.0 ** (-config.pl0_db / 10.0)
           * config.p_t
           * (config.d0 / config.d) ** config.eta) / target
    return replace(config, n_c=n_c)


# ---------------------------------------------------------------------------
# link objects: each owns its RNG stream so channel randomness never leaks
# into model or data seeding
# ---------------------------------------------------------------------------

class FadingLink:
    def __init__(self, config, seed):
        self.config = config
        self.rng = np.random.default_rng(seed)

    def transmit(self, payload, bits):
        return transmit(self.config, payload, bits, self.rng)

    def transmit_rows(self, payloads, bits):
        return transmit_rows(self.config, payloads, bits, self.rng)


class IdealLink:
    """Lossless, noiseless, zero-latency stand-in with the same interface."""

    def transmit(self, payload, bits):
        payload = np.asarray(payload, dtype=np.float64)
        return LinkOutcome(delivered=True, payload=payload.copy(),
                           snr=math.inf, rate=math.inf, tau_comm=0.0)

    def transmit_rows(self, payloads, bits):
        payloads = np.asarray(payloads, dtype=np.float64)
        return np.ones(payloads.shape[0], dtype=bool), payloads.copy()


class ScriptedLossLink:
    """Wraps another link and forces losses at chosen packet indices
    (0-based, counted per packet over `transmit` and `transmit_rows`
    calls). Used for controlled burst experiments and protocol tests."""

    def __init__(self, inner, lost_indices):
        self.inner = inner
        self.lost = frozenset(int(i) for i in lost_indices)
        self.calls = 0

    def transmit(self, payload, bits):
        idx = self.calls
        self.calls += 1
        if idx in self.lost:
            return LinkOutcome(delivered=False, payload=None, snr=0.0,
                               rate=0.0, tau_comm=math.inf)
        return self.inner.transmit(payload, bits)

    def transmit_rows(self, payloads, bits):
        """Rows forced lost never reach the inner link; the others are
        passed to it as one block, in order."""
        payloads = np.asarray(payloads, dtype=np.float64)
        start = self.calls
        self.calls += payloads.shape[0]
        passed = np.array([i not in self.lost
                           for i in range(start, self.calls)], dtype=bool)
        delivered = np.zeros(payloads.shape[0], dtype=bool)
        received = np.zeros_like(payloads)
        delivered[passed], received[passed] = self.inner.transmit_rows(
            payloads[passed], bits)
        return delivered, received
