"""The benchmark workloads: set-up, one fixed unit of work, and its checks.

A run covers several cases, each with its own inputs built in set-up from
the benchmark seed and the case index: the dataset (and, for the closed
loop, the trained models and the per-episode link seeds). The program is
configured with its own fixed experiment seed, so it never sees the
benchmark seed, only the inputs made from it. Several cases per run keep
one run's figures from hanging on one trained model: the DARE sweeps of the
gain refreshes alone range from about 5,000 to 26,000 per training unit
across datasets.

A unit of work is fixed: training runs a set number of epochs (patience is
above the epoch budget, so early stopping never fires) and each rollout is
1000 loops. When a rollout diverges, the loops it did not run are added to
the unit's time at the rollout's own mean loop period, so the time measures
speed and not where the plant blew up. The divergence itself counts as a
failed unit (training workloads) or episode (closed loop). A typed error
that stops the work before any loop ran (a failed gain solve in training,
say) also counts as failed, and leaves the unit's time incomplete: it is
kept out of the time metrics.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from koopcontrol import channel, control, dynamics
from koopcontrol import experiments as ex

# Typed numerical failures count as failed units or episodes; any other
# exception is a bug and stops the benchmark.
NUMERICAL_ERRORS = (dynamics.IntegrationDivergedError, control.DareSolverError,
                    ex.PipelineError, FloatingPointError)

LOSSY_SNR_DB = -10.0
BINOMIAL_Z = 5.0            # loss-share tolerance, in binomial standard errors

TRAIN_CASES = 8
TRAIN_EPOCHS = 2
TRAIN_BATCHES = None       # every window once per epoch
CLOSED_LOOP_CASES = 4
EPISODES = 12

DATA_TAG, LINK_TAG = 0, 1


def derived_seeds(seed, case, tag, n):
    """n integer seeds for one kind of input of one case, made from the
    benchmark seed."""
    return [int(s) for s in
            np.random.SeedSequence([seed, case, tag]).generate_state(n)]


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class ClockedLink:
    """Link supplied to a rollout: stamps every transmit call and counts
    deliveries. On the uplink, which the loop calls once per period, the gap
    between successive stamps is one loop period."""

    def __init__(self, inner):
        self.inner = inner
        self.stamps = []
        self.delivered = 0

    def transmit(self, payload, bits):
        self.stamps.append(time.perf_counter())
        out = self.inner.transmit(payload, bits)
        self.delivered += int(out.delivered)
        return out


@dataclass
class UnitResult:
    seconds: float                      # wall time, diverged loops completed
    periods: list                       # per started rollout: loop periods [s]
    attempted: int
    failed: int
    complete: bool = True               # False: `seconds` misses stopped work
    checks: list = field(default_factory=list)   # failed check messages
    quality: dict = field(default_factory=dict)  # name -> value or None
    fingerprint: tuple = ()             # counts and quality; same every repeat


def loss_share_check(label, lost, sent, p):
    """Observed loss share against the closed-form outage probability."""
    if sent == 0:
        return [f"{label}: no packets sent"]
    tol = BINOMIAL_Z * math.sqrt(p * (1.0 - p) / sent)
    share = lost / sent
    if abs(share - p) > tol:
        return [f"{label}: loss share {share:.4f} vs outage probability "
                f"{p:.4f} +- {tol:.4f} over {sent} packets"]
    return []


def finite_checks(values):
    return [f"{name} is not finite: {v!r}" for name, v in values.items()
            if v is not None and not np.isfinite(v)]


def _config(ideal):
    """Six 10 s training trajectories, two full epochs, for every workload."""
    cfg = ex.desk_preset()
    cfg.name = "bench"
    cfg.data = ex.DataSettings(n_train=6, n_val=1, n_test=1, duration_s=10.0)
    cfg.train = ex.TrainSettings(lr=1e-3, batch_size=64,
                                 max_epochs=TRAIN_EPOCHS,
                                 patience=TRAIN_EPOCHS + 1,
                                 max_batches_per_epoch=TRAIN_BATCHES)
    if ideal:
        cfg.link.ideal = True
    else:
        cfg.link.snr_db = LOSSY_SNR_DB
    return cfg


def _dataset(cfg, seed, case):
    data_seed = derived_seeds(seed, case, DATA_TAG, 1)[0]
    return ex.make_dataset(cfg, {"data": data_seed})


def _arrays(ds):
    trajs = ds.train + ds.val + ds.test
    return [a for t in trajs for a in (t.states, t.actions)]


# ---------------------------------------------------------------------------
# train_ideal / train_lossy
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    cfg: object
    dataset: object
    fingerprint: str


class TrainPipeline:
    """train_sensing -> train_controlling -> evaluate_prediction -> one
    1000-loop control_rollout, on the ideal link or at -10 dB."""

    cases = TRAIN_CASES

    def __init__(self, ideal):
        self.ideal = ideal

    def setup(self, seed, case):
        cfg = _config(self.ideal)
        ds = _dataset(cfg, seed, case)
        return TrainState(cfg, ds, digest(*_arrays(ds)))

    def unit(self, state):
        cfg, ds = state.cfg, state.dataset
        streams = ex.seed_streams(cfg.seed)
        up = ClockedLink(ex.build_link(cfg, streams["eval_uplink"]))
        down = ClockedLink(ex.build_link(cfg, streams["eval_downlink"]))
        quality = dict.fromkeys(("state_nrmse_pct", "action_nrmse_pct",
                                 "msce"))
        s_res = c_res = t_roll = error = None
        t0 = time.perf_counter()
        try:
            sensing, s_res, gain, _ = ex.train_sensing(cfg, ds)
            controlling, c_res = ex.train_controlling(cfg, sensing, ds)
            pred = ex.evaluate_prediction(cfg, sensing, controlling, ds.test)
            quality["state_nrmse_pct"] = pred["state_nrmse"]
            quality["action_nrmse_pct"] = pred["action_nrmse"]
            t_roll = time.perf_counter()
            _, summary = ex.control_rollout(cfg, sensing, gain, controlling,
                                            uplink=up, downlink=down)
            quality["msce"] = summary["msce"]
        except NUMERICAL_ERRORS as exc:
            error = type(exc).__name__
        t1 = time.perf_counter()
        seconds = t1 - t0
        loops = len(up.stamps)
        if loops:
            seconds += (cfg.control.n_loops - loops) * (t1 - t_roll) / loops

        checks = finite_checks(quality)
        counts = ()
        for name, res in (("sensing", s_res), ("controlling", c_res)):
            if res is not None:
                checks += [f"{name} epoch {s.epoch}: non-finite loss"
                           for s in res.history
                           if not (np.isfinite(s.train_loss)
                                   and np.isfinite(s.val_loss))]
        if s_res is not None:
            checks += self._uplink_checks(cfg, ds, s_res)
            h = s_res.history
            counts = (sum(s.packets_sent for s in h),
                      sum(s.packets_lost for s in h),
                      sum(s.windows_dropped for s in h), len(h))
        return UnitResult(
            seconds=seconds, periods=[np.diff(up.stamps)] if loops else [],
            attempted=1, failed=int(error is not None or bool(checks)),
            complete=error is None or loops > 0, checks=checks,
            quality=quality,
            fingerprint=(error, counts, loops, up.delivered, down.delivered,
                         tuple(repr(v) for v in quality.values())))

    def _uplink_checks(self, cfg, ds, s_res):
        depth = cfg.model.depth
        n_windows = sum(len(t) - depth for t in ds.train if len(t) > depth)
        cap = cfg.train.max_batches_per_epoch
        per_epoch = n_windows if cap is None else \
            min(n_windows, cap * cfg.train.batch_size)
        sent = sum(s.packets_sent for s in s_res.history)
        lost = sum(s.packets_lost for s in s_res.history)
        expected = 0 if self.ideal else \
            len(s_res.history) * per_epoch * (depth + 1)
        checks = []
        if sent != expected:
            checks.append(f"uplink packets_sent {sent} != expected {expected}")
        if not self.ideal:
            bits = channel.payload_bits(cfg.model.latent_dim
                                        + dynamics.STATE_DIM)
            p = channel.outage_probability(ex.link_config(cfg), bits)
            checks += loss_share_check("training uplink", lost, sent, p)
        return checks


# ---------------------------------------------------------------------------
# closed_loop_lossy
# ---------------------------------------------------------------------------

@dataclass
class ClosedLoopState:
    cfg: object
    sensing: object
    controlling: object
    gain: np.ndarray
    link_seeds: list
    fingerprint: str
    error: str = None       # typed numerical error that stopped training


class ClosedLoop:
    """Seeded 1000-loop control_rollout episodes at -10 dB with the default
    predict fallback, on models trained in set-up.

    The models are trained as in train_ideal (same datasets, size and
    epochs, on the ideal link) and then run over the lossy link. When
    set-up training stops on a typed numerical error, every episode of that
    case counts as attempted and failed."""

    cases = CLOSED_LOOP_CASES

    def setup(self, seed, case):
        train_cfg = _config(True)
        ds = _dataset(train_cfg, seed, case)
        seeds = derived_seeds(seed, case, LINK_TAG, 2 * EPISODES)
        state = ClosedLoopState(_config(False), None, None, None,
                                list(zip(seeds[::2], seeds[1::2])), "")
        try:
            state.sensing, _, state.gain, _ = ex.train_sensing(train_cfg, ds)
            state.controlling, _ = ex.train_controlling(train_cfg,
                                                        state.sensing, ds)
        except NUMERICAL_ERRORS as exc:
            state.error = type(exc).__name__
            state.fingerprint = digest(*_arrays(ds)) + ":" + state.error
            return state
        state.fingerprint = digest(*_arrays(ds), state.gain,
                                   state.sensing.koopman.value,
                                   state.controlling.koopman.value)
        return state

    def unit(self, state):
        if state.error is not None:
            return UnitResult(
                seconds=0.0, periods=[], attempted=len(state.link_seeds),
                failed=len(state.link_seeds), complete=False,
                quality={"msce": None}, fingerprint=(state.error,))
        cfg = state.cfg
        link_cfg = ex.link_config(cfg)
        seconds = 0.0
        periods, msces, outcomes = [], [], []
        loops = up_ok = down_ok = down_sent = failed = 0
        complete = True
        checks = []
        for up_seed, down_seed in state.link_seeds:
            up = ClockedLink(channel.FadingLink(link_cfg, up_seed))
            down = ClockedLink(channel.FadingLink(link_cfg, down_seed))
            t0 = time.perf_counter()
            try:
                _, summary = ex.control_rollout(
                    cfg, state.sensing, state.gain, state.controlling,
                    uplink=up, downlink=down)
                msces.append(summary["msce"])
                outcomes.append(repr(summary["msce"]))
                episode_checks = finite_checks({"episode msce":
                                                summary["msce"]})
                checks += episode_checks
                failed += int(bool(episode_checks))
            except NUMERICAL_ERRORS as exc:
                failed += 1
                outcomes.append(type(exc).__name__)
            elapsed = time.perf_counter() - t0
            n = len(up.stamps)
            if n:
                seconds += elapsed * cfg.control.n_loops / n
                periods.append(np.diff(up.stamps))
            else:
                complete = False
            loops += n
            up_ok += up.delivered
            down_ok += down.delivered
            down_sent += len(down.stamps)
        # the loss shares are checked over the whole batch, so a miss fails
        # every episode in it
        batch_checks = loss_share_check(
            "phase-2 uplink", loops - up_ok, loops,
            channel.outage_probability(
                link_cfg, channel.payload_bits(state.sensing.d)))
        batch_checks += loss_share_check(
            "phase-2 downlink", down_sent - down_ok, down_sent,
            channel.outage_probability(
                link_cfg, channel.payload_bits(dynamics.ACTION_DIM)))
        if batch_checks:
            checks += batch_checks
            failed = len(state.link_seeds)
        quality = {"msce": statistics.median(msces) if msces else None}
        return UnitResult(
            seconds=seconds, periods=periods,
            attempted=len(state.link_seeds), failed=failed,
            complete=complete, checks=checks, quality=quality,
            fingerprint=(tuple(outcomes), loops, up_ok, down_ok))


WORKLOADS = {
    "train_ideal": TrainPipeline(ideal=True),
    "train_lossy": TrainPipeline(ideal=False),
    "closed_loop_lossy": ClosedLoop(),
}
