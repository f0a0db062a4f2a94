"""Dataset generation and serialization tests."""

import numpy as np
import pytest

from koopcontrol import control, datasets, dynamics
from test_dynamics import _array_field


@pytest.fixture(scope="module")
def baseline():
    return control.build_jacobian_controller(1.0)


def small_cfg(**kw):
    base = dict(n_train=2, n_val=1, n_test=1, duration_s=0.5)
    base.update(kw)
    return datasets.DataSettings(**base)


def test_counts_and_shapes(baseline):
    cfg = small_cfg()
    ds = datasets.generate_dataset(baseline, cfg, seed=0)
    assert len(ds.train) == 2 and len(ds.val) == 1 and len(ds.test) == 1
    n = int(round(0.5 / dynamics.TAU_O))
    for traj in ds.train + ds.val + ds.test:
        assert traj.states.shape == (n, 4)
        assert traj.actions.shape == (n, 1)
        assert len(traj) == n


def test_initial_conditions_inside_box(baseline):
    cfg = small_cfg(n_train=6, ic_low=-0.2, ic_high=0.2)
    ds = datasets.generate_dataset(baseline, cfg, seed=3)
    for traj in ds.train:
        assert np.all(traj.states[0] >= -0.2)
        assert np.all(traj.states[0] <= 0.2)


def test_same_seed_identical_bytes(baseline):
    cfg = small_cfg()
    a = datasets.generate_dataset(baseline, cfg, 7)
    b = datasets.generate_dataset(baseline, cfg, 7)
    c = datasets.generate_dataset(baseline, cfg, 8)
    for ta, tb in zip(a.train + a.val + a.test, b.train + b.val + b.test):
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.actions, tb.actions)
    assert not np.array_equal(a.train[0].states, c.train[0].states)


def test_process_noise_read_from_settings(baseline):
    quiet = datasets.generate_dataset(baseline, small_cfg(), 4)
    noisy = [datasets.generate_dataset(baseline, small_cfg(noise_var=0.01), 4)
             for _ in range(2)]
    # the first state is the drawn initial condition, the noise enters after
    q, n0, n1 = (ds.train[0].states for ds in (quiet, *noisy))
    assert np.array_equal(q[0], n0[0])
    assert not np.array_equal(q[1:], n0[1:])
    assert np.array_equal(n0, n1)


def test_exploration_dither_recorded_in_actions(baseline):
    noisy = datasets.generate_dataset(baseline, small_cfg(), seed=5)
    tn = noisy.train[0]
    resid = [tn.actions[m, 0]
             - float(np.atleast_1d(baseline.action(tn.states[m]))[0])
             for m in range(len(tn))]
    assert np.std(resid) > 0.01


def _oracle_dataset(baseline, cfg, seed):
    """generate_dataset's draws and steps written out on numpy arrays:
    rk4_step over the array field, the baseline command through
    np.atleast_1d, no retries (the oracle's trajectories stay bounded)."""
    field = _array_field()
    rng = np.random.default_rng(seed)
    n = int(round(cfg.duration_s / dynamics.TAU_O))
    out = []
    for _ in range(sum(cfg.counts().values())):
        x = rng.uniform(cfg.ic_low, cfg.ic_high, size=4)
        states, actions = [], []
        for m in range(n):
            u = float(np.atleast_1d(baseline.action(x))[0])
            u += rng.normal(0.0, datasets.EXPLORE_STD)
            states.append(x)
            actions.append([u])
            if m == n - 1:
                break
            x = dynamics.rk4_step(field, x, u, dynamics.TAU_O)
            if cfg.noise_var > 0.0:
                x = x + rng.normal(0.0, np.sqrt(cfg.noise_var), size=4)
        out.append((np.array(states), np.array(actions)))
    return out


@pytest.mark.parametrize("noise_var", [0.0, 1e-4])
def test_generation_matches_an_array_oracle_bit_for_bit(baseline, noise_var):
    cfg = small_cfg(n_train=1, duration_s=0.3, noise_var=noise_var)
    ds = datasets.generate_dataset(baseline, cfg, 17)
    trajs = ds.train + ds.val + ds.test
    oracle = _oracle_dataset(baseline, cfg, 17)
    assert len(trajs) == len(oracle) == 3
    for traj, (states, actions) in zip(trajs, oracle):
        assert traj.states.tobytes() == states.tobytes()
        assert traj.actions.tobytes() == actions.tobytes()


class _BlowsUpOffCenter:
    """The baseline, except that it commands 1e155 N while x > 0.3 and
    |theta| < 0.2, so the step from such a state overflows."""

    def __init__(self, baseline):
        self.baseline = baseline
        self.gain = baseline.gain

    def action(self, x):
        if x[0] > 0.3 and abs(x[2]) < 0.2:
            return np.array([1e155])
        return self.baseline.action(x)


def _per_step_oracle(controller, cfg, seed):
    """generate_dataset by the per-step rule: one scalar dither draw per
    step, the noise drawn by step_plant after each step, and a fresh initial
    condition after a divergence. Also returns the steps that diverged."""
    rng = np.random.default_rng(seed)
    n = int(round(cfg.duration_s / dynamics.TAU_O))
    out, diverged = [], []
    for _ in range(sum(cfg.counts().values())):
        for _ in range(datasets.MAX_RETRIES + 1):
            x = tuple(rng.uniform(cfg.ic_low, cfg.ic_high, size=4).tolist())
            states, actions = [], []
            for m in range(n):
                u = controller.action(x).item()
                u += rng.normal(0.0, datasets.EXPLORE_STD)
                states.append(x)
                actions.append([u])
                if m == n - 1:
                    break
                try:
                    x = dynamics.step_plant(x, u, noise_var=cfg.noise_var,
                                            rng=rng)
                except dynamics.IntegrationDivergedError:
                    diverged.append(m)
                    break
            if len(states) == n:
                out.append((np.array(states), np.array(actions)))
                break
    return out, diverged


@pytest.mark.parametrize("noise_var", [0.0, 1e-4])
def test_generation_with_retries_matches_per_step_draws_bit_for_bit(
        baseline, noise_var):
    controller = _BlowsUpOffCenter(baseline)
    cfg = small_cfg(n_train=4, noise_var=noise_var)
    diverged = []
    for seed in (0, 2):
        ds = datasets.generate_dataset(controller, cfg, seed)
        trajs = ds.train + ds.val + ds.test
        oracle, steps = _per_step_oracle(controller, cfg, seed)
        diverged += steps
        assert len(trajs) == len(oracle) == 6
        for traj, (states, actions) in zip(trajs, oracle):
            assert traj.states.tobytes() == states.tobytes()
            assert traj.actions.tobytes() == actions.tobytes()
    # retries happened, some of them after the first step
    assert diverged and max(diverged) > 0


@pytest.mark.parametrize("duration_s", [0.004, dynamics.TAU_O / 2])
def test_a_duration_of_no_sample_is_refused(duration_s):
    # round(duration_s / TAU_O) would be zero steps: empty trajectories
    with pytest.raises(ValueError, match="duration_s"):
        small_cfg(duration_s=duration_s)


def test_the_shortest_duration_gives_one_sample(baseline):
    ds = datasets.generate_dataset(baseline, small_cfg(duration_s=0.006), 0)
    for traj in ds.train + ds.val + ds.test:
        assert traj.states.shape == (1, 4) and traj.actions.shape == (1, 1)


def test_closed_loop_data_stays_bounded(baseline):
    cfg = small_cfg(n_train=3, duration_s=5.0)
    ds = datasets.generate_dataset(baseline, cfg, seed=11)
    for traj in ds.train:
        assert np.max(np.abs(traj.states)) < 5.0
        # regulation brings the tail near the origin
        assert np.linalg.norm(traj.states[-1]) < 0.5


class _Destabilizer:
    """Policy that pushes the cart ever harder until integration fails."""

    def action(self, x):
        return np.array([1e155])


def test_divergence_exhausts_retries(monkeypatch):
    monkeypatch.setattr(datasets, "MAX_RETRIES", 2)
    starts = []

    class Counted(_Destabilizer):
        def action(self, x):
            starts.append(x.copy())   # each attempt diverges on its 1st step
            return super().action(x)

    with pytest.raises(datasets.DataGenerationError, match="after 2 retries"):
        datasets.generate_dataset(Counted(), small_cfg(), seed=0)
    assert len(starts) == 3


def test_split_lookup_validation():
    ds = datasets.TrajectoryDataset()
    with pytest.raises(ValueError):
        ds.split("holdout")


def test_trajectory_validation():
    with pytest.raises(ValueError):
        datasets.Trajectory(np.zeros((5, 4)), np.zeros((4, 1)))
    t = datasets.Trajectory(np.zeros((5, 4)), np.zeros(5))
    assert t.actions.shape == (5, 1)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_extract_windows_shapes_and_content():
    states = np.arange(12, dtype=np.float64).reshape(6, 2)
    actions = np.arange(6, dtype=np.float64).reshape(6, 1)
    traj = datasets.Trajectory(states, actions)
    ws, wa = datasets.extract_windows([traj], depth=2)
    assert ws.shape == (4, 3, 2) and wa.shape == (4, 3, 1)
    assert np.array_equal(ws[0], states[0:3])
    assert np.array_equal(ws[3], states[3:6])
    assert np.array_equal(wa[1], actions[1:4])


def test_extract_windows_concatenates_trajectories():
    t1 = datasets.Trajectory(np.zeros((4, 4)), np.zeros((4, 1)))
    t2 = datasets.Trajectory(np.ones((3, 4)), np.ones((3, 1)))
    ws, wa = datasets.extract_windows([t1, t2], depth=1)
    assert ws.shape == (3 + 2, 2, 4)
    assert np.all(ws[:3] == 0.0) and np.all(ws[3:] == 1.0)


def test_extract_windows_skips_short_trajectories():
    short = datasets.Trajectory(np.zeros((2, 4)), np.zeros((2, 1)))
    ok = datasets.Trajectory(np.ones((5, 4)), np.ones((5, 1)))
    ws, _ = datasets.extract_windows([short, ok], depth=3)
    assert ws.shape[0] == 2
    with pytest.raises(ValueError):
        datasets.extract_windows([short], depth=3)


@pytest.mark.parametrize("stride", [1, 3, 10])
@pytest.mark.parametrize("depth", [1, 3])
def test_extract_windows_stride_matches_window_index(stride, depth):
    # every stride-th window of each trajectory from its first, in
    # trajectory order; one trajectory is too short for any window
    rng = np.random.default_rng(stride * 10 + depth)
    trajs = [datasets.Trajectory(rng.normal(size=(n, 4)),
                                 rng.normal(size=(n, 1)))
             for n in (23, depth, depth + 1, 40)]
    ws, wa = datasets.extract_windows(trajs, depth, stride)
    idx = [datasets.window_index(len(t), depth)[::stride] for t in trajs]
    assert [len(i) for i in idx][1:3] == [0, 1]
    want_s = np.concatenate([t.states[i] for t, i in zip(trajs, idx)])
    want_a = np.concatenate([t.actions[i] for t, i in zip(trajs, idx)])
    assert ws.shape == (sum(map(len, idx)), depth + 1, 4)
    assert ws.tobytes() == want_s.tobytes()
    assert wa.tobytes() == want_a.tobytes()
    with pytest.raises(datasets.InsufficientDataError,
                       match="no trajectory is long enough"):
        datasets.extract_windows(trajs[1:2], depth, stride)


# ---------------------------------------------------------------------------
# npz round-trip
# ---------------------------------------------------------------------------

def test_save_load_lossless(tmp_path, baseline):
    ds = datasets.generate_dataset(baseline, small_cfg(), seed=2)
    path = tmp_path / "ds.npz"
    datasets.save_dataset(ds, path)
    back = datasets.load_dataset(path)
    assert back.meta == ds.meta
    for name in datasets.SPLITS:
        assert len(back.split(name)) == len(ds.split(name))
        for ta, tb in zip(ds.split(name), back.split(name)):
            assert np.array_equal(ta.states, tb.states)
            assert np.array_equal(ta.actions, tb.actions)


def test_load_rejects_unknown_format(tmp_path):
    import json
    ds = datasets.TrajectoryDataset(meta={"format": "something-else"})
    path = tmp_path / "bad.npz"
    np.savez(path, meta=np.frombuffer(
        json.dumps(ds.meta).encode("utf-8"), dtype=np.uint8))
    with pytest.raises(ValueError):
        datasets.load_dataset(path)


def test_save_load_empty_split(tmp_path):
    ds = datasets.TrajectoryDataset(meta={
        "format": datasets.DATASET_FORMAT, "duration_s": 0.03,
        "counts": {"train": 1, "val": 0, "test": 0}})
    ds.train.append(datasets.Trajectory(np.zeros((3, 4)), np.zeros((3, 1))))
    path = tmp_path / "partial.npz"
    datasets.save_dataset(ds, path)
    back = datasets.load_dataset(path)
    assert len(back.train) == 1 and len(back.val) == 0 and len(back.test) == 0


@pytest.mark.parametrize("edit, message", [
    (lambda s, a: (s[:, :, :3], a),
     r"train trajectory 0 holds \(50, 3\) states and \(50, 1\) actions, "
     r"not finite \(n, 4\) and \(n, 1\) ones"),
    (lambda s, a: (s[:, :, :, None], a), r"\(50, 4, 1\) states"),
    (lambda s, a: (s, np.concatenate([a, a], axis=2)), r"\(50, 2\) actions"),
    (lambda s, a: (np.where(s == s[1, 3, 2], np.nan, s), a),
     r"train trajectory 1 holds \(50, 4\) states and \(50, 1\) actions, "
     r"not finite"),
    (lambda s, a: (s, np.where(a == a[0, 7, 0], np.inf, a)), "not finite"),
    (lambda s, a: (s, a[:, :, 0]), r"\(50,\) actions"),
    (lambda s, a: (s[:, 0, 0], a[:, 0, 0]), r"\(\) states and \(\) actions"),
    (lambda s, a: (s, a[:1]), "zip"),
    (lambda s, a: (s[:1], a[:1]),
     "the train split holds 1 trajectories, not the 2 its meta counts"),
    (lambda s, a: (s[:, :49], a[:, :49]),
     "train trajectory 0 holds 49 samples, not the 50 of its meta's "
     "duration_s"),
], ids=["3_state_columns", "3d_states", "2_action_columns", "nan_state",
        "inf_action", "1d_actions", "scalar_rows", "fewer_actions",
        "fewer_trajectories", "shorter_trajectories"])
def test_load_refuses_trajectories_that_do_not_fit_the_plant(
        tmp_path, baseline, edit, message):
    ds = datasets.generate_dataset(baseline, small_cfg(), seed=2)
    path = tmp_path / "ds.npz"
    datasets.save_dataset(ds, path)
    with np.load(path) as data:
        arrays = dict(data)
    arrays["train_states"], arrays["train_actions"] = edit(
        arrays["train_states"], arrays["train_actions"])
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=message):
        datasets.load_dataset(path)
