"""Rayleigh block-fading link with latency-based packet erasure.

The radio is fixed, as the plant is: its transmit power P_T (the 20 dBm
cap), receiver noise power N_C, reference path loss PL0_DB at D0, link
DISTANCE, path loss exponent ETA, BANDWIDTH and compute budget TAU_COMP are
module constants. A link varies only its mean SNR and its payload noise
model (ChannelConfig). Per control loop the link draws one exponential
fading realization |h|^2, turning into an instantaneous SNR

    snr = 10^(-PL0_DB/10) * (P_T / N_C) * (D0/DISTANCE)^ETA * |h|^2

(about 34 dB mean on the stock link) and a Shannon rate R = BANDWIDTH
log2(1 + snr). A packet of L bits is lost when its airtime L/R does not fit
into AIRTIME_BUDGET = tau_o - TAU_COMP, where tau_o is the plant's control
period `dynamics.TAU_O`; a delivered payload picks up additive white
Gaussian noise scaled to the realized SNR, unless the link is configured
noiseless. A config given a target mean SNR back-solves the noise power
that puts the mean there and keeps the transmit power at its cap.

The closed-form outage probability below is the CDF of the exponential SNR
at the minimum decodable SNR, so Monte-Carlo outage rates of `transmit`
match it.

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
from dataclasses import dataclass
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


# the radio
P_T = dbm_to_watts(20.0)   # transmit power [W], 20 dBm cap
N_C = 4e-14                # receiver noise power [W] of the stock link
PL0_DB = 30.0              # reference path loss at D0 [dB]
DISTANCE = 100.0           # link distance [m]
D0 = 1.0                   # reference distance [m]
ETA = 3.0                  # path loss exponent
BANDWIDTH = 1e6            # [Hz]
TAU_COMP = 0.001           # compute budget taken off the period [s]
# time left in a control period for the packet
AIRTIME_BUDGET = dynamics.TAU_O - TAU_COMP


@dataclass(frozen=True)
class ChannelConfig:
    """A link of the fixed radio: the stock link (noise power N_C) when
    `snr_db` is None, else the link whose mean SNR is `snr_db` dB."""
    snr_db: float | None = None
    noise_model: str = "snr_scaled"

    def __post_init__(self):
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"noise_model must be one of {NOISE_MODELS}, "
                             f"not {self.noise_model!r}")
        try:
            ok = math.isfinite(self.mean_snr) and self.mean_snr > 0.0
        except ArithmeticError:
            ok = False
        if not ok:
            raise ValueError(f"snr_db {self.snr_db!r} gives no finite, "
                             f"positive mean SNR")

    # derived once per config; the config is frozen, so it cannot go stale

    @cached_property
    def mean_snr(self):
        """Mean received SNR (the |h|^2 = 1 point of the fading
        distribution). A target is reached through the noise power, not
        taken as the mean: every lossy result's bits rest on these products
        in this order."""
        n_c = N_C
        if self.snr_db is not None:
            # the noise power that puts the mean at the target
            target = 10.0 ** (self.snr_db / 10.0)
            n_c = (10.0 ** (-PL0_DB / 10.0)
                   * P_T
                   * (D0 / DISTANCE) ** ETA) / target
        return (10.0 ** (-PL0_DB / 10.0)
                * (P_T / n_c)
                * (D0 / DISTANCE) ** ETA)


@dataclass
class LinkOutcome:
    delivered: bool
    payload: np.ndarray | None
    snr: float
    rate: float
    tau_comm: float
    noise_std: float = 0.0


def sample_snr(config, rng):
    """One block-fading draw: |h|^2 ~ Exp(1)."""
    return config.mean_snr * rng.exponential(1.0)


def shannon_rate(snr, bandwidth):
    """R = W log2(1 + snr) [bit/s]."""
    if snr < 0.0:
        raise ValueError("snr must be >= 0")
    return bandwidth * math.log2(1.0 + snr)


def min_decodable_snr(bits):
    """SNR below which `bits` cannot be pushed through in AIRTIME_BUDGET."""
    return 2.0 ** (bits / (BANDWIDTH * AIRTIME_BUDGET)) - 1.0


def outage_probability(config, bits):
    """Closed-form loss probability for a packet of `bits` bits."""
    return 1.0 - math.exp(-min_decodable_snr(bits) / config.mean_snr)


def _fade(config, bits, rng):
    """One fading draw for a packet of `bits` bits: (snr, rate, tau_comm).
    The packet is lost when tau_comm exceeds the airtime budget."""
    snr = sample_snr(config, rng)
    rate = shannon_rate(snr, BANDWIDTH)
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
    if tau_comm > AIRTIME_BUDGET:
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
    mean_snr, bandwidth, budget = config.mean_snr, BANDWIDTH, AIRTIME_BUDGET
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
