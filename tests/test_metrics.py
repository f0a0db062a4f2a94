"""Metric tests with hand-computed values."""

import numpy as np
import pytest

from koopcontrol import metrics


# ---------------------------------------------------------------------------
# nrmse
# ---------------------------------------------------------------------------

def test_nrmse_zero_on_perfect_prediction():
    obs = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert metrics.nrmse(obs.copy(), obs) == 0.0


def test_nrmse_constant_offset_hand_value():
    # obs spans range vector (2, 2) -> denom 2*sqrt(2); error rows are
    # (c, c) each -> rms = c*sqrt(2); nrmse = 100*c/2
    c = 0.3
    obs = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    pred = obs + c
    out = metrics.nrmse(pred, obs)
    assert np.isclose(out, 100.0 * c / 2.0, atol=1e-12)


def test_nrmse_scalar_series_hand_value():
    obs = np.array([0.0, 1.0])          # range 1
    pred = np.array([0.5, 1.0])         # rms = sqrt(0.25/2)
    out = metrics.nrmse(pred, obs)
    assert np.isclose(out, 100.0 * np.sqrt(0.125), atol=1e-12)


def test_nrmse_respects_window_length():
    # every row given is scored, so the window is the rows passed in: the
    # last row's error of 100 against a range of 100 gives rms 100 / sqrt(3)
    obs = np.array([0.0, 1.0, 100.0])
    pred = np.array([0.0, 1.0, 0.0])
    assert metrics.nrmse(pred[:2], obs[:2]) == 0.0
    assert metrics.nrmse(pred, obs) == pytest.approx(100.0 / np.sqrt(3.0))


def test_nrmse_zero_range_raises():
    obs = np.ones((4, 2))
    with pytest.raises(metrics.UndefinedNormalizationError):
        metrics.nrmse(obs + 0.1, obs)


def test_nrmse_shape_disagreement_raises():
    with pytest.raises(ValueError):
        metrics.nrmse(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        metrics.nrmse(np.zeros((2, 2)), np.zeros((3, 2)))


def test_nrmse_scale_invariance():
    # scaling both pred and obs by k leaves the percentage unchanged
    rng = np.random.default_rng(0)
    obs = rng.normal(size=(10, 4))
    pred = obs + rng.normal(scale=0.1, size=(10, 4))
    a = metrics.nrmse(pred, obs)
    b = metrics.nrmse(5.0 * pred, 5.0 * obs)
    assert np.isclose(a, b, rtol=1e-12)


# ---------------------------------------------------------------------------
# msce
# ---------------------------------------------------------------------------

def test_msce_zero_at_target():
    states = np.zeros((5, 4))
    assert metrics.msce(states) == 0.0


def test_msce_hand_value():
    states = np.array([[1.0, 0.0], [0.0, 2.0]])
    # ||(1,0)||^2 = 1, ||(0,2)||^2 = 4 -> mean 2.5
    assert metrics.msce(states) == 2.5


def test_msce_window_argument():
    # every row given is scored, so the window is the rows passed in, and a
    # 1-D series is one state per row
    states = np.array([0.0, 0.0, 10.0])
    assert metrics.msce(states[:2]) == 0.0
    assert metrics.msce(states) == pytest.approx(100.0 / 3.0)


def test_msce_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = rng.normal(size=(rng.integers(1, 30), 4))
        assert metrics.msce(s) >= 0.0


# ---------------------------------------------------------------------------
# consecutive_lost
# ---------------------------------------------------------------------------

def test_consecutive_lost_examples():
    d, l = True, False
    assert metrics.consecutive_lost([d, l, l, d, l]) == 2
    assert metrics.consecutive_lost([d, d, d]) == 0
    assert metrics.consecutive_lost([l, l, l]) == 3
    assert metrics.consecutive_lost([]) == 0
    assert metrics.consecutive_lost([l, d, l, l, l]) == 1
    assert metrics.consecutive_lost([l, l, d, l, l, l, d]) == 3


def test_consecutive_lost_open_tail_not_counted():
    d, l = True, False
    # the trailing run has not been closed by a delivery yet
    assert metrics.consecutive_lost([d, l, l, l, l, l]) == 0


def test_consecutive_lost_accepts_numpy_bools():
    flags = np.array([True, False, False, True])
    assert metrics.consecutive_lost(flags) == 2
