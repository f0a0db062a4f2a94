"""Evaluation metrics: prediction NRMSE, control cost, loss-run bookkeeping."""

from __future__ import annotations

import numpy as np


class UndefinedNormalizationError(ValueError):
    """The observed window has zero range, so NRMSE is undefined."""


def _rows(a):
    """`a` as a float64 (rows, n) array, a 1-D series as one column."""
    a = np.asarray(a, dtype=np.float64)
    return a[:, None] if a.ndim == 1 else a


def nrmse(predicted, observed):
    """Normalized RMSE in percent over every row given.

    100 * sqrt(mean_m ||pred_m - obs_m||^2) / ||max(obs) - min(obs)||_2,
    with the max/min taken element-wise over the observed rows. Both
    inputs are aligned sequences, one row per predicted step; slice them
    to score a shorter window."""
    pred, obs = _rows(predicted), _rows(observed)
    if pred.shape != obs.shape:
        raise ValueError("predicted/observed shapes disagree")
    rng_vec = obs.max(axis=0) - obs.min(axis=0)
    denom = float(np.linalg.norm(rng_vec))
    if denom == 0.0:
        raise UndefinedNormalizationError("observed window has zero range")
    rms = np.sqrt(np.mean(np.sum((pred - obs) ** 2, axis=1)))
    return 100.0 * float(rms) / denom


def msce(states):
    """Mean squared control error (1/M_p) sum_m ||x_m||^2 over every row
    given: the mean squared distance of the states from the origin, the
    operating point the loop regulates to."""
    return float(np.mean(np.sum(_rows(states) ** 2, axis=1)))


def consecutive_lost(delivered_flags):
    """Longest run of losses before the most recent delivery.

    Takes per-packet delivered booleans in transmission order. Losses after
    the last delivery do not count (the run is still open); a sequence with
    no delivery at all counts in full."""
    flags = [bool(f) for f in delivered_flags]
    if not flags:
        return 0
    if not any(flags):
        return len(flags)
    last_ok = max(i for i, f in enumerate(flags) if f)
    longest = 0
    run = 0
    for f in flags[:last_ok + 1]:
        if f:
            run = 0
        else:
            run += 1
            longest = max(longest, run)
    return longest
