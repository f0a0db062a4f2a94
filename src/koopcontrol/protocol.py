"""Two-phase remote-control protocol over lossy links.

Phase 1 (training): the sensor encodes each sampled state and ships
(latent, state) packets uplink; the controller assembles training windows,
computes the sensing loss server-side, steps its own parameters, and returns
the boundary gradient for the encoder. Lost packets are patched in by
rolling the latent model forward from the last delivery; windows whose
anchor never arrived are dropped. The actuator meanwhile trains the
controlling model locally from the actions it received downlink.

Phase 2 (predictive operation): training traffic stops. The controller keeps
a latent estimate (refreshed on uplink deliveries, rolled forward through
the Koopman blocks otherwise) and sends LQR actions downlink; the actuator
applies received actions and rides out downlink outages by predicting the
missing commands with the controlling model.

The split trainer and the centralized reference share one batch-step core,
and the centralized path backpropagates in the same two stages (server
graph first, encoder graph seeded with the boundary gradient), so with an
ideal link the two produce bit-identical parameters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import channel, datasets, dynamics, koopman
from .autodiff import Tensor, backward, no_grad
from .neural import Adam


# ---------------------------------------------------------------------------
# phase-2 loop records
# ---------------------------------------------------------------------------

@dataclass
class LoopRecord:
    """What one phase-2 loop decided. The values it issued, applied and
    started from live once, in the Phase2Result's arrays."""
    index: int
    uplink_delivered: bool | None      # None when no uplink was attempted
    downlink_delivered: bool
    state_source: str                  # received | predicted | cold
    state_depth: int                   # loops since the last uplink delivery
    action_source: str                 # received | predicted | held | cold
    action_depth: int
    # the airtimes are None when no airtime was drawn: no uplink was
    # attempted, or a scripted link forced the loss
    tau_comm_up: float | None
    tau_comm_down: float | None
    tau_comp: float


def write_records(result, path):
    """A Phase2Result as newline-delimited JSON, one loop per line: the
    loop's record, then its command, applied command and starting state."""
    with open(path, "w") as fh:
        for m, rec in enumerate(result.records):
            fh.write(json.dumps({**asdict(rec),
                                 "command": float(result.commands[m, 0]),
                                 "applied": float(result.applied[m, 0]),
                                 "state": result.states[m].tolist()}))
            fh.write("\n")


# ---------------------------------------------------------------------------
# missing-data prediction
# ---------------------------------------------------------------------------

def handle_missing_state(model, latent, u, decode_u):
    """Estimate (latent, state) one loop past each row of `latent` (k, d)
    with the commands `u` (k, q) in force: one latent step, then a decode
    together with `decode_u`, the commands in force at the estimated time.
    Longer gaps chain calls. Each row is decoded as its own (1, d+q)
    product, so a stack gives the bits of k single-row fills."""
    lat = koopman.latent_step(model, latent, u)
    y = np.concatenate([lat, decode_u], axis=1)
    return lat, model.decode(y[:, None, :])[:, 0, :]


# ---------------------------------------------------------------------------
# phase 1: the shared schedule and the split sensing trainer
# ---------------------------------------------------------------------------

@dataclass
class TrainSettings:
    """Phase-1 settings of both trainers, and the `train` section of an
    experiment config: Adam's step size, mini-batch epochs (optionally
    capped), and a stop once the validation loss has not improved by
    MIN_DELTA for `patience` epochs in a row."""
    lr: float = 1e-4
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    max_batches_per_epoch: int | None = None

    def __post_init__(self):
        # max_epochs too: the latent gain is only solved after an epoch
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_batches_per_epoch is not None \
                and self.max_batches_per_epoch < 1:
            raise ValueError("max_batches_per_epoch must be >= 1 or null")
        if not self.lr > 0.0:
            raise ValueError("lr must be positive")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    batches: int
    packets_sent: int = 0
    packets_lost: int = 0
    windows_dropped: int = 0
    # sensing only: the gain refresh after this epoch raised
    # DareSolverError, so the previous gain was kept
    gain_refresh_failed: bool = False


@dataclass
class TrainingResult:
    history: list
    stopped_early: bool

    @property
    def epochs(self):
        return len(self.history)

    @property
    def best_val(self):
        vals = [s.val_loss for s in self.history
                if np.isfinite(s.val_loss)]
        return min(vals) if vals else float("nan")


def _train_epoch(trainer, batch_step):
    """One shuffled pass over `trainer`'s training windows in mini-batches,
    capped at `max_batches_per_epoch`, then a clean validation score.
    `batch_step(idx, stats)` trains on the batch of training windows `idx`,
    adds its link counts to `stats` and returns the batch loss, or None
    when no window of the batch survived the link."""
    trainer.epoch += 1
    stats = EpochStats(epoch=trainer.epoch, train_loss=float("nan"),
                       val_loss=float("nan"), batches=0)
    cap = trainer.settings.max_batches_per_epoch
    n = trainer.train_states.shape[0]
    order = trainer.shuffle_rng.permutation(n)
    losses = []
    for s in range(0, n, trainer.batch_size):
        if cap is not None and stats.batches >= cap:
            break
        loss = batch_step(order[s:s + trainer.batch_size], stats)
        stats.batches += 1
        if loss is not None:
            losses.append(loss)
    if losses:
        stats.train_loss = float(np.mean(losses))
    stats.val_loss = trainer.validation_loss()
    return stats


# windows per validation loss call. Scoring builds no graph, so this bounds
# no tape; it stays because BLAS row bits can depend on the row count (with
# OpenBLAS, rows of a (n, 32) @ (32, 4) product differ at n = 64 and 1000).
VALIDATION_CHUNK = 1024
MIN_DELTA = 1e-4   # the validation loss improvement early stopping counts


def _chunks(states, actions):
    """The (states, actions) windows split, in order, into chunks of at
    most VALIDATION_CHUNK windows."""
    chunk = VALIDATION_CHUNK
    return [(states[s:s + chunk], actions[s:s + chunk])
            for s in range(0, states.shape[0], chunk)]


def _validation_loss(loss_fn, chunks):
    """Mean of `loss_fn(*chunk)` over `chunks`, each a (states, actions,
    ...) tuple, weighted by its window count and scored without a graph;
    NaN when there are no windows."""
    n = sum(c[0].shape[0] for c in chunks)
    if n == 0:
        return float("nan")
    total = 0.0
    for c in chunks:
        with no_grad():
            loss = loss_fn(*c)
        total += float(loss.value) * c[0].shape[0]
    return total / n


class _Trainer:
    """What both phase-1 trainers hold: the model, the (states, actions)
    training and validation windows, as (B, M_d+1, p) and (B, M_d+1, q)
    arrays whose width sets the prediction depth M_d, the `train` settings
    and the shuffle generator."""

    def __init__(self, model, train_windows, val_windows, settings,
                 shuffle_seed):
        self.model = model
        self.train_states, self.train_actions = train_windows
        self.val_states, self.val_actions = val_windows
        self.settings = settings
        self.shuffle_rng = np.random.default_rng(shuffle_seed)
        self.epoch = 0

    @property
    def batch_size(self):
        return self.settings.batch_size


class SensingTrainer(_Trainer):
    """Runs phase-1 epochs for the sensing autoencoder. `uplink=None` trains
    centralized (no packetization); any link object with a
    .transmit_rows(payloads, bits) method enables the split path, one
    (latent, state) packet per row of a batch's (b·t, d+p) block. The
    boundary gradient reaches the sensor as computed."""

    def __init__(self, model, train_windows, val_windows, settings,
                 shuffle_seed, uplink=None):
        super().__init__(model, train_windows, val_windows, settings,
                         shuffle_seed)
        self.uplink = uplink
        self.opt_server = Adam(model.server_parameters(), lr=settings.lr)
        self.opt_encoder = Adam(model.encoder_parameters(), lr=settings.lr)
        self._uplink_bits = channel.payload_bits(model.d + model.p)

    # -- transport ---------------------------------------------------------

    def _transport(self, latent_vals, states, actions):
        """Ship per-sample (latent, state) packets through the uplink and
        rebuild the controller-side batch. Returns (kept row indices,
        received latents, received states, delivered mask, loss count)."""
        b, t = states.shape[0], states.shape[1]
        d, p = self.model.d, self.model.p
        if self.uplink is None:
            mask = np.ones((b, t), dtype=bool)
            return np.arange(b), latent_vals.copy(), states.copy(), mask, 0
        # one (latent, state) packet per sample, sent in (window, time) order
        packets = np.concatenate([latent_vals, states], axis=2).reshape(
            b * t, d + p)
        delivered, received = self.uplink.transmit_rows(packets,
                                                        self._uplink_bits)
        received = received.reshape(b, t, d + p)
        recv_lat, recv_states = received[:, :, :d], received[:, :, d:]
        mask = delivered.reshape(b, t)
        lost = b * t - int(np.count_nonzero(delivered))
        kept = np.flatnonzero(mask[:, 0])
        # fill each interior loss one latent step on from sample j-1, which
        # was delivered or filled already (a kept window has its anchor),
        # every kept window lost at sample j in one call; fills are data,
        # not graph nodes
        for j in range(1, t):
            rows = kept[~mask[kept, j]]
            if rows.size:
                recv_lat[rows, j], recv_states[rows, j] = handle_missing_state(
                    self.model, recv_lat[rows, j - 1], actions[rows, j - 1],
                    decode_u=actions[rows, j])
        return kept, recv_lat, recv_states, mask, lost

    # -- one mini-batch ----------------------------------------------------

    def _loss(self, states, actions, latents=None):
        return koopman.total_sensing_loss(self.model, states, actions,
                                          latents=latents)

    def _batch_step(self, idx, stats):
        states, actions = self.train_states[idx], self.train_actions[idx]
        b, t = states.shape[0], states.shape[1]
        # stage A: sensor-side encode (graph kept for the second stage)
        enc_nodes = koopman.encode_windows(self.model, states)
        latent_vals = np.stack([n.value for n in enc_nodes], axis=1)

        kept, recv_lat, recv_states, mask, lost = self._transport(
            latent_vals, states, actions)
        if self.uplink is not None:
            stats.packets_sent += b * t
        stats.packets_lost += lost
        stats.windows_dropped += b - kept.size
        if kept.size == 0:
            return None

        # stage B: controller-side loss on received (or filled) data
        leaves = [Tensor(recv_lat[kept, j, :], requires_grad=True)
                  for j in range(t)]
        loss = self._loss(recv_states[kept], actions[kept], latents=leaves)
        if not np.isfinite(loss.value):
            raise FloatingPointError(
                f"sensing loss diverged at epoch {self.epoch}")
        backward(loss)

        # boundary gradient: zero where the sensor's transmission never
        # reached the loss (losses and drops), then seed the encoder with it
        boundary = np.zeros_like(latent_vals)
        for j, leaf in enumerate(leaves):
            if leaf.grad is not None:
                boundary[kept, j, :] = leaf.grad
        boundary *= mask[:, :, None]
        for j, node in enumerate(enc_nodes):
            backward(node, seed=boundary[:, j, :])
        self.opt_encoder.step()
        self.opt_server.step()
        self.opt_encoder.zero_grad()
        self.opt_server.zero_grad()
        return float(loss.value)

    # -- epoch driver ------------------------------------------------------

    def run_epoch(self):
        """One pass: shuffle windows, stream batches through the link, step
        both parameter partitions, then score clean validation windows."""
        return _train_epoch(self, self._batch_step)

    def validation_loss(self):
        """Total sensing loss on clean validation windows (no channel)."""
        return _validation_loss(self._loss,
                                _chunks(self.val_states, self.val_actions))


# ---------------------------------------------------------------------------
# phase 1: actuator-side controlling trainer
# ---------------------------------------------------------------------------

def receive_action_stream(trajectories, link):
    """Stream each trajectory's commands through the downlink once. Returns
    each trajectory as the actuator received it, a Trajectory of its true
    states and the delivered commands, NaN where a packet was lost."""
    received = []
    for traj in trajectories:
        mask, acts = link.transmit_rows(
            traj.actions, channel.payload_bits(traj.actions.shape[1]))
        received.append(datasets.Trajectory(
            traj.states, np.where(mask[:, None], acts, np.nan)))
    return received


def controlling_windows(received, depth):
    """The windows of `receive_action_stream`'s trajectories whose every
    action packet arrived, as extract_windows cuts them; a window that lost
    a packet is dropped rather than filled."""
    states, actions = datasets.extract_windows(received, depth)
    keep = ~np.isnan(actions).any(axis=(1, 2))
    if not keep.any():
        raise datasets.InsufficientDataError(
            "every window lost at least one action packet")
    return states[keep], actions[keep]


class ControllingTrainer(_Trainer):
    """Local training of the action model at the actuator.

    The encoder is the sensing snapshot: latents enter the loss as detached
    values and only the action Koopman matrix and the actuator decoder are
    stepped. Since the encoder never moves here, the windows are encoded
    once, when the trainer is built."""

    def __init__(self, model, train_windows, val_windows, settings,
                 shuffle_seed):
        super().__init__(model, train_windows, val_windows, settings,
                         shuffle_seed)
        self.opt = Adam(model.local_parameters(), lr=settings.lr)
        self._train_latents = self._batch_latents(self.train_states)
        # the validation chunks are fixed, so each chunk's latents are
        # encoded once, here
        self._val_chunks = [(states, actions, self._latents(states))
                            for states, actions in _chunks(self.val_states,
                                                           self.val_actions)]

    def _latents(self, states):
        """The per-step (b, d) latents of (b, t, p) windows."""
        return [self.model.encode(states[:, j, :])
                for j in range(states.shape[1])]

    def _batch_latents(self, states):
        """The per-step (n, d) latents of all n (n, t, p) training windows,
        encoded in blocks of exactly `batch_size` windows, the last block
        being the last `batch_size` windows; an empty list when n is short
        of one batch. BLAS row bits can depend on a product's row count
        (VALIDATION_CHUNK), so only a batch of `batch_size` rows takes its
        latents from here and has the bits of encoding it."""
        n, bs = states.shape[0], self.batch_size
        if n < bs:
            return []
        out = [np.empty((n, self.model.d)) for _ in range(states.shape[1])]
        for s in range(0, n, bs):
            s = min(s, n - bs)
            for lat, block in zip(out, self._latents(states[s:s + bs])):
                lat[s:s + bs] = block
        return out

    def _loss(self, states, actions, latents=None):
        if latents is None:
            latents = self._latents(states)
        return koopman.total_controlling_loss(
            self.model, states, actions,
            latents=[Tensor(lat) for lat in latents])

    def _batch_step(self, idx, stats):
        latents = None     # a short batch is encoded as it comes
        if idx.size == self.batch_size:
            latents = [lat[idx] for lat in self._train_latents]
        loss = self._loss(self.train_states[idx], self.train_actions[idx],
                          latents)
        if not np.isfinite(loss.value):
            raise FloatingPointError(
                f"controlling loss diverged at epoch {self.epoch}")
        backward(loss)
        self.opt.step()
        self.opt.zero_grad()
        return float(loss.value)

    def run_epoch(self):
        """One shuffled pass over the received-action windows, then the
        validation score."""
        return _train_epoch(self, self._batch_step)

    def validation_loss(self):
        """Total controlling loss on the validation windows, from the
        latents encoded when the trainer was built."""
        return _validation_loss(self._loss, self._val_chunks)


def fit_with_early_stopping(trainer, on_epoch=None):
    """Run up to `max_epochs` epochs of `trainer`, stopping once `patience`
    epochs in a row have not improved on the best validation loss by
    MIN_DELTA (the first two from `trainer.settings`). The first epoch sets
    the best, and a NaN loss never improves on it. The last epoch of the
    returned TrainingResult is the switch to phase 2."""
    settings = trainer.settings
    history = []
    best, stale = None, 0
    for _ in range(settings.max_epochs):
        stats = trainer.run_epoch()
        history.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
        if best is None or best - stats.val_loss >= MIN_DELTA:
            best, stale = stats.val_loss, 0
            continue
        stale += 1
        if stale >= settings.patience:
            return TrainingResult(history=history, stopped_early=True)
    return TrainingResult(history=history, stopped_early=False)


# ---------------------------------------------------------------------------
# phase 2: predictive closed loop
# ---------------------------------------------------------------------------

# what the actuator does with its latent through a downlink outage: "hold"
# keeps the latent of the last delivery, "advance" steps it through the
# sensing blocks with each predicted action
PHASE2_PREDICT_MODES = ("hold", "advance")


@dataclass
class Phase2Config:
    """Phase-2 loop settings, and the `control` section of an experiment
    config: the LQR action weight `r` also shapes training; Q_X is fixed."""
    n_loops: int = 1000
    uplink_refresh: bool = True      # False = pure prediction after loop 0
    action_predict_mode: str = "hold"  # one of PHASE2_PREDICT_MODES
    r: float = 1.0                     # LQR action weight
    x0: tuple[float, ...] = (0.05, 0.05, 0.05, 0.05)     # initial plant state

    def __post_init__(self):
        self.x0 = tuple(float(v) for v in self.x0)
        if self.action_predict_mode not in PHASE2_PREDICT_MODES:
            raise ValueError("action_predict_mode must be one of "
                             f"{PHASE2_PREDICT_MODES}, "
                             f"not {self.action_predict_mode!r}")
        if self.n_loops < 1:
            raise ValueError("n_loops must be >= 1")
        if len(self.x0) != dynamics.STATE_DIM \
                or not np.all(np.isfinite(self.x0)):
            raise ValueError(f"x0 must be {dynamics.STATE_DIM} finite values")
        if not (np.isfinite(self.r) and self.r > 0.0):
            raise ValueError("r must be finite and positive")


@dataclass
class Phase2Result:
    """A phase-2 run. Loop m starts from states[m], issues commands[m],
    applies applied[m] and decides as records[m] says; the arrays are also
    the loop's memory of what it issued and applied before."""
    states: np.ndarray      # (n_loops+1, p), row 0 is x0
    commands: np.ndarray    # (n_loops, q) controller-issued
    applied: np.ndarray     # (n_loops, q) actuator-applied
    records: list           # one LoopRecord per loop


def run_phase2_loop(sensing, gain, controlling, uplink, downlink, config,
                    noise_var=0.0, plant_rng=None):
    """Predictive remote control for config.n_loops control periods from
    the plant state config.x0.

    Per loop: uplink the fresh latent of the `sensing` model (unless in
    pure-prediction mode; with none delivered the controller steps its
    latent through the Koopman blocks), compute u = -K g with the (q, d)
    latent LQR `gain` K and downlink it. Through a downlink loss the
    actuator applies the command the `controlling` model predicts from
    its last delivery, or holds the last applied one with no model (None:
    the hold reference) or no delivery yet. Then the plant steps with
    process noise of variance `noise_var` drawn from `plant_rng`. The
    records say which source each side used each loop: received,
    predicted, held (the actuator only) or cold (nothing yet).

    The loop pays for little but its arithmetic: the plant state is
    carried as four floats from one dynamics.step_plant to the next and
    written into the states array, and the gain is negated once per
    rollout, not once per command. Every one-sample product goes through
    np.dot on arrays bound once: the command on the negated gain, the
    latent and action steps on each model's bound Koopman blocks (see
    koopman.latent_step) and the encoder on its bound layers; a short
    packet's noise scale is a float fold of its squares (see
    channel.transmit)."""
    n = config.n_loops
    d, q = sensing.d, sensing.q
    up_bits = channel.payload_bits(d)
    down_bits = channel.payload_bits(q)
    neg_gain = -gain

    x = config.x0             # the plant state, as four floats
    states = np.empty((n + 1, len(x)))
    states[0] = x
    commands = np.zeros((n, q))
    applied = np.zeros((n, q))
    records = []

    ctrl_lat = None           # controller's latent estimate
    ctrl_depth = 0
    act_lat = None            # actuator's latent, from its last delivery
    down_losses = 0

    for m in range(n):
        # the uplink payload and the actuator's latent, from the row just
        # written (an array row converts faster than the float tuple)
        g = sensing.encode(states[m])
        # --- uplink ---------------------------------------------------
        attempt_uplink = config.uplink_refresh or m == 0
        up_out = None
        if attempt_uplink:
            up_out = uplink.transmit(g, up_bits)
        if up_out is not None and up_out.delivered:
            ctrl_lat = up_out.payload
            ctrl_depth = 0
            state_source = "received"
        elif ctrl_lat is not None:
            # a latent exists only after a delivery, so m >= 1
            ctrl_lat = koopman.latent_step(sensing, ctrl_lat, commands[m - 1])
            ctrl_depth += 1
            state_source = "predicted"
        else:
            state_source = "cold"

        # --- controller command ----------------------------------------
        if ctrl_lat is not None:
            u_cmd = np.dot(neg_gain, ctrl_lat)
        else:
            u_cmd = np.zeros(q)   # cold start: hold zero
        commands[m] = u_cmd

        # --- downlink ---------------------------------------------------
        down_out = downlink.transmit(u_cmd, down_bits)
        if down_out.delivered:
            u_app = down_out.payload
            down_losses = 0
            action_source = "received"
            act_lat = g
        else:
            down_losses += 1
            # after a delivery every loss predicts, so applied[m - 1] is
            # the last delivered or predicted command
            if controlling is not None and act_lat is not None:
                u_app = koopman.predict_actions(controlling, applied[m - 1],
                                                act_lat)
                if config.action_predict_mode == "advance":
                    act_lat = koopman.latent_step(sensing, act_lat, u_app)
                action_source = "predicted"
            elif m > 0:
                u_app = applied[m - 1]
                action_source = "held"
            else:
                u_app = np.zeros(q)
                action_source = "cold"
        applied[m] = u_app

        records.append(LoopRecord(
            index=m,
            uplink_delivered=None if up_out is None else up_out.delivered,
            downlink_delivered=down_out.delivered,
            state_source=state_source,
            state_depth=ctrl_depth,
            action_source=action_source,
            action_depth=down_losses,
            tau_comm_up=None if up_out is None else up_out.tau_comm,
            tau_comm_down=down_out.tau_comm,
            tau_comp=channel.TAU_COMP,
        ))

        x = dynamics.step_plant(x, u_app, noise_var=noise_var, rng=plant_rng)
        states[m + 1] = x

    return Phase2Result(states=states, commands=commands, applied=applied,
                        records=records)
