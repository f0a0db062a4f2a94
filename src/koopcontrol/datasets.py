"""Trajectory dataset generation, windowing, and npz round-trip.

Training data is collected in closed loop: a baseline controller regulates
the plant from random initial conditions while a small exploration dither on
the force keeps the data persistently exciting. Recorded actions are the
applied ones, dither included. A trajectory that blows up is resampled with
a fresh initial condition a bounded number of times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import dynamics

DATASET_FORMAT = "koopcontrol-dataset-v1"

SPLITS = ("train", "val", "test")


class DataGenerationError(RuntimeError):
    """A trajectory slot kept diverging after the allowed retries."""


class InsufficientDataError(ValueError):
    """The data a stage gets cannot feed it: no trajectory is long enough
    for the window depth, every action window lost a packet on the link, or
    no evaluation anchor fits the depth."""


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
    explore_std: float = 0.1   # [N] dither on the applied force
    noise_var: float = 0.0     # plant process noise variance, every step
    max_retries: int = 25

    def __post_init__(self):
        if min(self.counts().values()) < 1:
            raise ValueError("n_train, n_val and n_test must be >= 1")
        if not self.duration_s > 0.0:
            raise ValueError("duration_s must be positive")
        for name in ("explore_std", "noise_var", "max_retries"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
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
    for _ in range(cfg.max_retries + 1):
        x = rng.uniform(cfg.ic_low, cfg.ic_high, size=dynamics.STATE_DIM)
        states = np.empty((n_steps, dynamics.STATE_DIM))
        actions = np.empty((n_steps, 1))
        ok = True
        for m in range(n_steps):
            u = controller.action(x).item()
            if cfg.explore_std > 0.0:
                u += rng.normal(0.0, cfg.explore_std)
            states[m] = x
            actions[m, 0] = u
            if m == n_steps - 1:
                break
            try:
                x = dynamics.step_plant(x, u, noise_var=cfg.noise_var,
                                        rng=rng)
            except dynamics.IntegrationDivergedError:
                ok = False
                break
        if ok:
            return Trajectory(states, actions)
    raise DataGenerationError(
        f"trajectory kept diverging after {cfg.max_retries} retries")


def dataset_meta(cfg, seed, gain):
    """The meta of a dataset generated from the settings `cfg` with `seed`
    under a baseline controller of gain `gain`, as JSON gives it back. It
    records the sampling period, the plant's fixed `dynamics.TAU_O`, as
    "tau_o". Files written before `noise_var` or `baseline_gain` was
    recorded lack that key."""
    return {
        "format": DATASET_FORMAT,
        "seed": int(seed),
        "duration_s": cfg.duration_s,
        "ic_low": cfg.ic_low,
        "ic_high": cfg.ic_high,
        "explore_std": cfg.explore_std,
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


def extract_windows(trajectories, depth):
    """All sliding windows of length depth+1 across the given trajectories.

    Returns (states, actions) shaped (W, depth+1, p) and (W, depth+1, q)."""
    s_parts, a_parts = [], []
    for traj in trajectories:
        idx = window_index(len(traj), depth)
        if not len(idx):
            continue
        s_parts.append(traj.states[idx])
        a_parts.append(traj.actions[idx])
    if not s_parts:
        raise InsufficientDataError(
            "no trajectory is long enough for the window depth")
    return np.concatenate(s_parts), np.concatenate(a_parts)


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
    # the file is opened here, so it is closed also when numpy fails on it
    with open(path, "rb") as fh, np.load(fh) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        fmt = meta.get("format") if isinstance(meta, dict) else None
        if fmt != DATASET_FORMAT:
            raise ValueError(f"unknown dataset format {fmt!r}")
        ds = TrajectoryDataset(meta=meta)
        for name in SPLITS:
            key = f"{name}_states"
            if key in data:
                for s, a in zip(data[key], data[f"{name}_actions"]):
                    ds.split(name).append(Trajectory(s, a))
    return ds
