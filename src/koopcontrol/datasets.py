"""Trajectory dataset generation, windowing, and npz round-trip.

Training data is collected in closed loop: a baseline controller regulates
the plant from random initial conditions while a small exploration dither on
the force keeps the data persistently exciting. Recorded actions are the
applied ones, dither included. A trajectory that blows up is resampled with
a fresh initial condition at most MAX_RETRIES times.

The draw order is part of the reproducibility contract. Each attempt at a
trajectory takes one uniform block of STATE_DIM entries for its initial
condition, then per step one dither normal and, after each plant step that
did not diverge (every step but the last takes one), STATE_DIM
process-noise normals (when noise_var > 0). An attempt draws all its
normals as one standard_normal block in that order and scales each as
rng.normal(0.0, s) does, to 0.0 + s z. When the attempt diverges, the
generator is rewound to the start of the block and redraws exactly the
normals the steps before the blow-up used, so the next initial condition
comes from the same generator state as when every normal was drawn on its
own, and the data keep their bits.

The state is carried as four floats and stepped with dynamics.rk4_values,
so a step costs its arithmetic and not the array wrapping of step_plant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics

DATASET_FORMAT = "koopcontrol-dataset-v1"

SPLITS = ("train", "val", "test")
EXPLORE_STD = 0.1   # [N] exploration dither on the applied force
MAX_RETRIES = 25    # fresh initial conditions a diverging slot may take


class DataGenerationError(RuntimeError):
    """A trajectory slot kept diverging after the allowed retries."""


class InsufficientDataError(ValueError):
    """The data a stage gets cannot feed it: no trajectory is long enough
    for the window depth, or every action window lost a packet on the
    link."""


@dataclass
class DataSettings:
    """Dataset size and generation recipe; also the `data` section of an
    experiment config, so the field order is the saved-config order."""
    n_train: int = 20
    n_val: int = 5
    n_test: int = 5
    duration_s: float = 25.0
    ic_low: float = -0.5
    ic_high: float = 0.5
    noise_var: float = 0.0     # plant process noise variance, every step

    def __post_init__(self):
        if min(self.counts().values()) < 1:
            raise ValueError("n_train, n_val and n_test must be >= 1")
        # the step count is round(duration_s / TAU_O), at least one
        if not self.duration_s / dynamics.TAU_O > 0.5:
            raise ValueError(
                f"duration_s must exceed half the control period "
                f"({dynamics.TAU_O / 2} s), or a trajectory has no sample; "
                f"got {self.duration_s!r}")
        if not self.noise_var >= 0:
            raise ValueError("noise_var must be >= 0")
        if not self.ic_low <= self.ic_high:
            raise ValueError("ic_low must be <= ic_high")

    def counts(self):
        return {"train": self.n_train, "val": self.n_val, "test": self.n_test}


@dataclass
class Trajectory:
    states: np.ndarray   # (n, p)
    actions: np.ndarray  # (n, q), actions[m] applied over step m -> m+1

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        if self.actions.ndim == 1:
            self.actions = self.actions[:, None]
        if self.states.shape[0] != self.actions.shape[0]:
            raise ValueError("states/actions length mismatch")

    def __len__(self):
        return self.states.shape[0]


@dataclass
class TrajectoryDataset:
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def split(self, name):
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


def _one_trajectory(controller, cfg, rng):
    n_steps = int(round(cfg.duration_s / dynamics.TAU_O))
    noise_std = math.sqrt(cfg.noise_var)
    noisy = cfg.noise_var != 0.0
    # an attempt's normals, in draw order (module docstring)
    n_draws = n_steps + noisy * dynamics.STATE_DIM * (n_steps - 1)
    states = np.empty((n_steps, dynamics.STATE_DIM))
    actions = np.empty((n_steps, 1))
    for _ in range(MAX_RETRIES + 1):
        x, v, theta, omega = rng.uniform(
            cfg.ic_low, cfg.ic_high, size=dynamics.STATE_DIM).tolist()
        start = rng.bit_generator.state
        z = rng.standard_normal(n_draws).tolist()
        k = 0   # normals used so far
        for m in range(n_steps):
            states[m] = x, v, theta, omega
            u = controller.action(states[m]).item()
            u += 0.0 + EXPLORE_STD * z[k]
            k += 1
            actions[m, 0] = u
            if m == n_steps - 1:
                return Trajectory(states, actions)
            if not math.isfinite(u):
                raise dynamics.InvalidStateError("non-finite state or action")
            try:
                x, v, theta, omega = dynamics.rk4_values(x, v, theta, omega,
                                                         u)
            except dynamics.IntegrationDivergedError:
                # leave the generator where per-step draws would have
                rng.bit_generator.state = start
                rng.standard_normal(k)
                break
            if noisy:
                x += 0.0 + noise_std * z[k]
                v += 0.0 + noise_std * z[k + 1]
                theta += 0.0 + noise_std * z[k + 2]
                omega += 0.0 + noise_std * z[k + 3]
                k += 4
    raise DataGenerationError(
        f"trajectory kept diverging after {MAX_RETRIES} retries")


def dataset_meta(cfg, seed, gain):
    """The meta of a dataset generated from the settings `cfg` with `seed`
    under a baseline controller of gain `gain`, as JSON gives it back; the
    fixed TAU_O and EXPLORE_STD are kept as when they were settable. Files
    written before `noise_var` or `baseline_gain` was recorded lack it."""
    return {
        "format": DATASET_FORMAT,
        "seed": int(seed),
        "duration_s": cfg.duration_s,
        "ic_low": cfg.ic_low,
        "ic_high": cfg.ic_high,
        "explore_std": EXPLORE_STD,
        "noise_var": cfg.noise_var,
        "counts": cfg.counts(),
        "tau_o": dynamics.TAU_O,
        "baseline_gain": np.asarray(gain).tolist(),
    }


def generate_dataset(controller, cfg, seed):
    """Closed-loop dataset under `controller` (a linear state feedback with
    a `gain`) plus exploration dither, with the process noise of
    `cfg.noise_var`."""
    rng = np.random.default_rng(seed)
    splits = {name: [_one_trajectory(controller, cfg, rng)
                     for _ in range(cfg.counts()[name])] for name in SPLITS}
    return TrajectoryDataset(**splits, meta=dataset_meta(
        cfg, seed, controller.gain))


def window_index(n, depth):
    """(W, depth+1) sample indices of every length-(depth+1) sliding window
    over a length-n sequence; W is zero when the sequence is too short."""
    t = depth + 1
    return np.arange(n - t + 1)[:, None] + np.arange(t)[None, :]


def extract_windows(trajectories, depth, stride=1):
    """Every `stride`-th sliding window of length depth+1 of each trajectory,
    from its first, concatenated in trajectory order; a trajectory shorter
    than depth+1 gives none. Every stage that trains or scores on windows
    cuts them here.

    Returns (states, actions) shaped (W, depth+1, p) and (W, depth+1, q);
    InsufficientDataError when no trajectory is long enough."""
    idx = [window_index(len(traj), depth)[::stride] for traj in trajectories]
    if not any(map(len, idx)):
        raise InsufficientDataError(
            "no trajectory is long enough for the window depth")
    return (np.concatenate([t.states[i] for t, i in zip(trajectories, idx)]),
            np.concatenate([t.actions[i] for t, i in zip(trajectories, idx)]))


def save_dataset(ds, path):
    arrays = {}
    for name in SPLITS:
        trajs = ds.split(name)
        if trajs:
            arrays[f"{name}_states"] = np.stack([t.states for t in trajs])
            arrays[f"{name}_actions"] = np.stack([t.actions for t in trajs])
    arrays["meta"] = np.frombuffer(
        json.dumps(ds.meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_dataset(path):
    """The dataset at `path`; ValueError when it is not one, a split does
    not hold as many trajectories as its meta counts, or a trajectory does
    not hold finite (n, p) states and (n, q) actions with n the meta's
    round(duration_s / TAU_O) samples."""
    # the file is opened here, so it is closed also when numpy fails on it
    with open(path, "rb") as fh, np.load(fh) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        fmt = meta.get("format") if isinstance(meta, dict) else None
        if fmt != DATASET_FORMAT:
            raise ValueError(f"unknown dataset format {fmt!r}")
        ds = TrajectoryDataset(meta=meta)
        n_steps = round(meta["duration_s"] / dynamics.TAU_O)
        p, q = dynamics.STATE_DIM, dynamics.ACTION_DIM
        for name in (n for n in SPLITS if f"{n}_states" in data):
            pairs = zip(data[f"{name}_states"], data[f"{name}_actions"],
                        strict=True)
            for i, (s, a) in enumerate(pairs):
                if (s.shape[1:], a.shape[1:]) != ((p,), (q,)) \
                        or not np.isfinite(np.hstack([s, a])).all():
                    raise ValueError(
                        f"{name} trajectory {i} holds {s.shape} states and "
                        f"{a.shape} actions, not finite (n, {p}) and (n, {q}) "
                        "ones")
                if len(s) != n_steps:
                    raise ValueError(
                        f"{name} trajectory {i} holds {len(s)} samples, not "
                        f"the {n_steps} of its meta's duration_s")
                ds.split(name).append(Trajectory(s, a))
    for name in SPLITS:
        if len(ds.split(name)) != meta["counts"][name]:
            raise ValueError(
                f"the {name} split holds {len(ds.split(name))} trajectories, "
                f"not the {meta['counts'][name]} its meta counts")
    return ds
