"""Experiment orchestration tests: config round-trips, seed streams, the
sweep result table, and a micro end-to-end pipeline."""

import dataclasses
import json

import numpy as np
import pytest

from koopcontrol import (channel, cli, control, datasets, experiments,
                         koopman, metrics, neural, protocol)
from test_cli import micro_config
from test_koopman import predict_states


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    cfg = experiments.desk_preset()
    path = tmp_path / "cfg.json"
    experiments.save_config(cfg, path)
    back = experiments.load_config(path)
    assert back == cfg


def test_config_dict_roundtrip_all_fields():
    cfg = experiments.paper_preset()
    d = experiments.config_to_dict(cfg)
    assert d["format"] == experiments.CONFIG_FORMAT
    back = experiments.config_from_dict(json.loads(json.dumps(d)))
    assert back == cfg


# the desk preset as a config file saved while the radio was settable
# holds it, every link field included
SAVED_DESK_CONFIG = """{
  "format": "koopcontrol-config-v1",
  "name": "desk",
  "seed": 0,
  "data": {"n_train": 20, "n_val": 5, "n_test": 5, "duration_s": 25.0,
           "ic_low": -0.5, "ic_high": 0.5, "explore_std": 0.1,
           "noise_var": 0.0, "max_retries": 25},
  "model": {"latent_dim": 4, "depth": 1, "schedule_mode": "special",
            "encoder_hidden": [128, 64, 32]},
  "train": {"lr": 0.001, "batch_size": 64, "max_epochs": 40, "patience": 8,
            "min_delta": 0.0001, "max_batches_per_epoch": 150,
            "impair_gradients": false},
  "link": {"ideal": false, "snr_db": null, "distance": 100.0, "eta": 3.0,
           "bandwidth": 1000000.0, "tau_comp": 0.001,
           "noise_model": "snr_scaled"},
  "control": {"n_loops": 1000, "uplink_refresh": true,
              "action_fallback": "predict", "action_predict_mode": "hold",
              "latent_fallback": "predict", "r": 1.0,
              "q_x_diag": [1.0, 1.0, 1.0, 1.0],
              "x0": [0.05, 0.05, 0.05, 0.05]},
  "eval": {"depth": 1, "anchor_stride": 10}
}"""


def test_a_config_saved_with_the_settable_radio_loads_unchanged():
    saved = json.loads(SAVED_DESK_CONFIG)
    assert experiments.config_from_dict(saved) == experiments.desk_preset()
    # the radio's keys load at their fixed values only, each named
    for key, value in (("distance", 50.0), ("eta", 2.0),
                       ("bandwidth", 2e6), ("tau_comp", 0.002),
                       ("distance", "100.0"), ("eta", True)):
        edited = json.loads(SAVED_DESK_CONFIG)
        edited["link"][key] = value
        with pytest.raises(experiments.ConfigError,
                           match=rf"^bad link\.{key}: fixed at "):
            experiments.config_from_dict(edited)
    saved["link"]["distance"] = 50.0
    with pytest.raises(experiments.ConfigError,
                       match=r"^bad link\.distance: fixed at 100\.0, "
                             r"not 50\.0$"):
        experiments.config_from_dict(saved)


# each key of the fixed training recipe and phase-2 fallbacks, at values
# it could take while it was settable and at values it was refused at
FIXED_RECIPE_EDITS = (
    ("data", "explore_std", 0.0), ("data", "explore_std", 0.2),
    ("data", "explore_std", -0.1), ("data", "explore_std", "0.1"),
    ("data", "max_retries", 2), ("data", "max_retries", -1),
    ("data", "max_retries", 25.0), ("data", "max_retries", True),
    ("train", "min_delta", 0.0), ("train", "min_delta", -1e-4),
    ("train", "min_delta", float("nan")), ("train", "min_delta", None),
    ("control", "q_x_diag", [1.0, 2.0, 3.0, 4.0]),
    ("control", "q_x_diag", [1.0, 1.0]),
    ("control", "q_x_diag", [1.0, 1.0, 1.0, 1.0, 1.0]),
    ("control", "q_x_diag", [1.0, 1.0, 1.0, float("inf")]),
    ("control", "q_x_diag", [1.0, 1.0, 1.0, True]),
    ("control", "q_x_diag", "1111"), ("control", "q_x_diag", 1.0),
    ("control", "action_fallback", "hold"),
    ("control", "action_fallback", 1),
    ("control", "latent_fallback", "hold"),
    ("control", "latent_fallback", None))


def test_a_config_saved_with_the_settable_recipe_loads_unchanged():
    # the saved desk config holds the recipe's fixed values, in the forms a
    # file holds them: an int, floats and a list, and a tuple from Python
    saved = json.loads(SAVED_DESK_CONFIG)
    saved["control"]["q_x_diag"] = (1, 1.0, 1, 1.0)
    saved["train"]["min_delta"] = 1e-4
    assert experiments.config_from_dict(saved) == experiments.desk_preset()
    for section, key, value in FIXED_RECIPE_EDITS:
        edited = json.loads(SAVED_DESK_CONFIG)
        edited[section][key] = value
        with pytest.raises(experiments.ConfigError,
                           match=rf"^bad {section}\.{key}: fixed at "):
            experiments.config_from_dict(edited)
    for section, key, value, message in (
            ("data", "explore_std", 0.0, "fixed at 0.1, not 0.0"),
            ("data", "max_retries", 2, "fixed at 25, not 2"),
            ("train", "min_delta", 0.0, "fixed at 0.0001, not 0.0"),
            ("control", "q_x_diag", [1.0, 2.0, 3.0, 4.0],
             "fixed at [1.0, 1.0, 1.0, 1.0], not [1.0, 2.0, 3.0, 4.0]"),
            ("control", "action_fallback", "hold",
             "fixed at 'predict', not 'hold'"),
            ("control", "latent_fallback", "hold",
             "fixed at 'predict', not 'hold'")):
        edited = json.loads(SAVED_DESK_CONFIG)
        edited[section][key] = value
        with pytest.raises(experiments.ConfigError) as err:
            experiments.config_from_dict(edited)
        assert str(err.value) == f"bad {section}.{key}: {message}"
    # the removed keys are not written any more
    d = experiments.config_to_dict(experiments.desk_preset())
    assert not {"explore_std", "max_retries"} & set(d["data"])
    assert "min_delta" not in d["train"]
    assert not {"q_x_diag", "action_fallback", "latent_fallback"} \
        & set(d["control"])


def test_config_rejects_unknown_keys():
    d = experiments.config_to_dict(experiments.desk_preset())
    d["data"]["n_trajectories"] = 3
    with pytest.raises(experiments.ConfigError):
        experiments.config_from_dict(d)
    d2 = experiments.config_to_dict(experiments.desk_preset())
    d2["format"] = "other"
    with pytest.raises(experiments.ConfigError):
        experiments.config_from_dict(d2)


def test_config_rejects_bad_link_and_control_values():
    for section, field, value in (("link", "distance", 0.0),
                                  ("link", "bandwidth", -1.0),
                                  ("link", "noise_model", "pink"),
                                  ("link", "noise_model", "fixed_variance"),
                                  ("link", "snr_db", 1e5),
                                  ("model", "depth", 0),
                                  ("model", "schedule_mode", "weird"),
                                  ("train", "patience", 0),
                                  ("train", "batch_size", 0),
                                  ("train", "max_epochs", 0),
                                  ("train", "max_batches_per_epoch", 0),
                                  ("train", "lr", -1.0),
                                  ("eval", "depth", 0),
                                  ("eval", "anchor_stride", 0),
                                  ("control", "action_predict_mode",
                                   "recorded"),
                                  ("control", "action_predict_mode",
                                   "nonsense"),
                                  ("data", "n_train", 0),
                                  ("data", "n_val", 0),
                                  ("data", "n_test", -1),
                                  ("data", "duration_s", 0.0),
                                  ("data", "noise_var", -1.0),
                                  ("data", "ic_low", 0.6),
                                  ("control", "n_loops", 0),
                                  ("control", "n_loops", -3),
                                  ("control", "x0", [0.05]),
                                  ("control", "x0", [0.05, 0.05, float("nan"),
                                                     0.05]),
                                  ("control", "r", -1.0),
                                  ("control", "r", 0.0),
                                  ("control", "r", float("inf")),
                                  ("model", "encoder_hidden", [0]),
                                  ("model", "encoder_hidden", [-4]),
                                  ("model", "encoder_hidden", [8, 0, 8]),
                                  # integer fields take integers only
                                  ("data", "n_train", 1.5),
                                  ("model", "latent_dim", 4.0),
                                  ("model", "depth", True),
                                  ("train", "max_epochs", 2.0),
                                  ("train", "batch_size", 8.5),
                                  ("train", "patience", "3"),
                                  ("train", "max_batches_per_epoch", 2.5),
                                  ("control", "n_loops", 10.0),
                                  ("eval", "anchor_stride", 2.0),
                                  # a mean SNR must be finite
                                  ("link", "snr_db", float("nan")),
                                  ("link", "snr_db", float("inf")),
                                  ("link", "snr_db", float("-inf")),
                                  # bool fields take bools only
                                  ("link", "ideal", "false"),
                                  ("link", "ideal", 0),
                                  ("train", "impair_gradients", "true"),
                                  ("control", "uplink_refresh", 1),
                                  # float fields take finite numbers only
                                  ("train", "lr", True),
                                  ("data", "noise_var", "0.01"),
                                  ("data", "duration_s", float("inf")),
                                  ("link", "distance", float("inf")),
                                  ("link", "tau_comp", None),
                                  # str fields take strings only
                                  ("model", "schedule_mode", 1),
                                  # tuple fields take lists of numbers
                                  ("model", "encoder_hidden", "88"),
                                  ("model", "encoder_hidden", [8.7, True]),
                                  ("model", "encoder_hidden", [8.7]),
                                  ("model", "encoder_hidden", 8),
                                  ("control", "x0", [0.05, 0.05, 0.05,
                                                     True])):
        d = experiments.config_to_dict(experiments.desk_preset())
        d[section][field] = value
        with pytest.raises(experiments.ConfigError):
            experiments.config_from_dict(d)
    # a section that is not a mapping, and a seed that is not a
    # non-negative int
    for key, value in [(name, 5) for name in experiments._SECTIONS] + [
            ("seed", "x"), ("seed", -1), ("seed", 1.0), ("seed", True)]:
        d = experiments.config_to_dict(experiments.desk_preset())
        d[key] = value
        with pytest.raises(experiments.ConfigError):
            experiments.config_from_dict(d)


def test_config_name_is_type_checked():
    # a name that is not a string is refused, not stored as its str()
    for name in (None, {"run": 1}, 3, True):
        d = experiments.config_to_dict(experiments.desk_preset())
        d["name"] = name
        with pytest.raises(experiments.ConfigError, match="name"):
            experiments.config_from_dict(d)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(name=None), r"^bad name: must be a string"),
    (lambda d: d["link"].update(snr_db="10"), r"^bad link\.snr_db: "),
    (lambda d: d["link"].update(snr_db=-4000.0), r"^bad link\.snr_db: "),
    (lambda d: d["link"].update(snr_db=3090.0), r"^bad link\.snr_db: "),
    (lambda d: d["control"].update(r=-1.0), r"^bad control\.r: "),
    (lambda d: d["link"].update(distance=0.0), r"^bad link\.distance: "),
    (lambda d: d["link"].update(noise_model="x"),
     r"^bad link\.noise_model: "),
    (lambda d: d["data"].update(duration_s=0.004),
     r"^bad data\.duration_s: "),
    (lambda d: d["eval"].update(depth=0), r"^bad eval\.depth: "),
    (lambda d: d["model"].update(latent_dim=0), r"^bad model: "),
    (lambda d: d["data"].update(warmup=1),
     r"^unknown config keys: \['data\.warmup'\]$"),
    (lambda d: d.update(link=5), r"^config section link must be"),
], ids=["name", "link.snr_db", "link.snr_db-underflow",
        "link.snr_db-overflow", "control.r", "link.distance",
        "link.noise_model", "data.duration_s", "eval.depth", "model",
        "unknown-key", "section"])
def test_config_errors_name_the_key_as_written(edit, message):
    d = experiments.config_to_dict(experiments.desk_preset())
    edit(d)
    with pytest.raises(experiments.ConfigError, match=message):
        experiments.config_from_dict(d)


def test_presets_differ_where_expected():
    desk = experiments.desk_preset()
    paper = experiments.paper_preset()
    assert desk.data.n_train < paper.data.n_train
    assert desk.data.duration_s < paper.data.duration_s
    assert desk.train.max_epochs < paper.train.max_epochs
    assert paper.model.latent_dim == desk.model.latent_dim == 4
    assert set(experiments.PRESETS) == {"desk", "paper"}


def test_apply_overrides_copies():
    cfg = experiments.desk_preset()
    out = experiments.apply_overrides(cfg, seed=9, snr_db=10.0, latent_dim=6)
    assert out.seed == 9
    assert out.link.snr_db == 10.0
    assert out.link.ideal is False
    assert out.model.latent_dim == 6
    # original untouched
    assert cfg.seed != 9 or cfg.model.latent_dim == 4
    assert cfg.link.snr_db is None
    # overridden values are checked as a loaded config's are
    for overrides in ({"snr_db": 1e5}, {"snr_db": -4000.0},
                      {"snr_db": 3090.0}, {"latent_dim": 0}, {"seed": -1},
                      {"seed": "x"}, {"snr_db": float("nan")},
                      {"snr_db": float("inf")}, {"snr_db": float("-inf")},
                      {"latent_dim": 1.5}, {"latent_dim": True},
                      {"latent_dim": "4"}, {"snr_db": True},
                      {"snr_db": "3"}):
        with pytest.raises(experiments.ConfigError):
            experiments.apply_overrides(cfg, **overrides)
    # an integer SNR is a number, stored as a float as before
    assert experiments.apply_overrides(cfg, snr_db=-10).link.snr_db == -10.0
    assert isinstance(
        experiments.apply_overrides(cfg, snr_db=-10).link.snr_db, float)


def test_config_file_and_override_store_the_same_types():
    # a whole number in a float field is stored as a float, from a file as
    # from an override; an int field keeps its int
    d = experiments.config_to_dict(experiments.desk_preset())
    d["link"]["snr_db"] = -10
    d["data"]["duration_s"] = 25
    d["control"]["x0"] = [0, 0, 0, 1]
    cfg = experiments.config_from_dict(d)
    assert type(cfg.link.snr_db) is float and cfg.link.snr_db == -10.0
    assert type(cfg.data.duration_s) is float
    assert all(type(v) is float for v in cfg.control.x0)
    assert type(cfg.data.n_train) is int
    over = experiments.apply_overrides(experiments.desk_preset(), snr_db=-10)
    assert over.link == cfg.link and type(over.link.snr_db) is float


def test_apply_overrides_rejects_a_base_config_no_file_could_hold():
    # the base config is checked as a file is: a value set past the loader
    # that a file could not hold raises, whatever is overridden
    for section, field, value in (("data", "n_train", 3.0),
                                  ("control", "r", True),
                                  ("link", "snr_db", "3"),
                                  ("model", "latent_dim", 0)):
        cfg = experiments.desk_preset()
        setattr(getattr(cfg, section), field, value)
        with pytest.raises(experiments.ConfigError):
            experiments.apply_overrides(cfg, seed=1)


def test_parent_saved_control_section_loads():
    # a control section saved with the keys in their earlier order
    d = experiments.config_to_dict(experiments.desk_preset())
    d["control"] = {"r": 2.0, "q_x_diag": [1.0, 1.0, 1.0, 1.0],
                    "n_loops": 50, "x0": [0.01, 0.02, 0.03, 0.04],
                    "uplink_refresh": True, "action_fallback": "predict",
                    "action_predict_mode": "advance",
                    "latent_fallback": "predict"}
    cfg = experiments.config_from_dict(d)
    assert cfg.control == protocol.Phase2Config(
        n_loops=50, action_predict_mode="advance", r=2.0,
        x0=(0.01, 0.02, 0.03, 0.04))
    assert experiments.config_from_dict(
        experiments.config_to_dict(cfg)) == cfg


def test_control_settings_q_x():
    # the LQR state weight is the fixed, read-only identity, and the
    # baseline is the one solved on it and the config's action weight
    assert np.array_equal(control.Q_X, np.eye(4))
    assert not control.Q_X.flags.writeable
    cfg = experiments.desk_preset()
    cfg.control.r = 2.0
    assert experiments.build_baseline(cfg) is \
        control.build_jacobian_controller(2.0)


# ---------------------------------------------------------------------------
# seed streams
# ---------------------------------------------------------------------------

def test_seed_streams_names_and_determinism():
    a = experiments.seed_streams(123)
    b = experiments.seed_streams(123)
    c = experiments.seed_streams(124)
    assert set(a) == set(experiments.STREAM_NAMES)
    assert a == b
    assert a != c
    assert all(isinstance(v, int) for v in a.values())
    # streams are mutually distinct within a seed
    assert len(set(a.values())) == len(a)


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------

def _row(**kw):
    base = dict(experiment="unit", seed=1, snr_db=0.0, latent_dim=4,
                n_train=2, state_nrmse=12.5, action_nrmse=8.0, msce=0.01,
                m_lost=3, epochs=7, train_s=1.25)
    base.update(kw)
    return experiments.ResultRow(**base)


def test_result_rows_csv_roundtrip(tmp_path):
    rows = [_row(seed=1), _row(seed=2, snr_db=None, state_nrmse=float("nan"))]
    path = tmp_path / "rows.csv"
    experiments.write_rows(rows, path)
    back = experiments.read_rows(path)
    assert len(back) == 2
    assert back[0] == rows[0]
    assert back[1].snr_db is None
    assert np.isnan(back[1].state_nrmse)
    assert back[1].seed == 2 and back[1].m_lost == 3


def test_read_rows_blank_cells(tmp_path):
    path = tmp_path / "rows.csv"
    experiments.write_rows([_row(msce=None, m_lost=None)], path)
    header, line = path.read_text().splitlines()
    assert experiments.SWEEP_COLUMNS == tuple(header.split(","))
    back = experiments.read_rows(path)
    assert back[0].msce is None and back[0].m_lost is None
    assert back[0] == _row(msce=None, m_lost=None)
    # a blank cell in a column that has no "missing" value is refused
    for column in ("seed", "state_nrmse", "epochs"):
        cells = line.split(",")
        cells[experiments.SWEEP_COLUMNS.index(column)] = ""
        path.write_text(header + "\n" + ",".join(cells) + "\n")
        with pytest.raises(experiments.ConfigError, match=column):
            experiments.read_rows(path)


def test_read_rows_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        experiments.read_rows(path)


def test_report_groups_by_latent_dim():
    rows = [
        _row(seed=1, snr_db=-10.0, state_nrmse=30.0),
        _row(seed=2, snr_db=-10.0, state_nrmse=34.0),
        _row(seed=1, snr_db=10.0, state_nrmse=10.0),
        _row(seed=2, snr_db=10.0, state_nrmse=14.0),
        _row(seed=1, snr_db=10.0, latent_dim=8, state_nrmse=9.0),
    ]
    rep = experiments.report(rows, metric="state_nrmse")
    assert rep["format"] == experiments.REPORT_FORMAT
    assert rep["metric"] == "state_nrmse"
    series = {s["latent_dim"]: s for s in rep["series"]}
    assert series[4]["snr_db"] == [-10.0, 10.0]
    assert series[4]["mean"] == [32.0, 12.0]
    assert series[4]["n"] == [2, 2]
    assert series[8]["snr_db"] == [10.0]


# ---------------------------------------------------------------------------
# micro pipeline
# ---------------------------------------------------------------------------

def micro_cfg(seed=0, ideal=True, snr_db=None):
    cfg = experiments.desk_preset()
    cfg = dataclasses.replace(
        cfg,
        name="micro",
        seed=seed,
        data=dataclasses.replace(cfg.data, n_train=3, n_val=1, n_test=1,
                                 duration_s=4.0),
        train=dataclasses.replace(cfg.train, max_epochs=2, lr=1e-3,
                                  max_batches_per_epoch=20),
        link=dataclasses.replace(cfg.link, ideal=ideal, snr_db=snr_db),
        control=dataclasses.replace(cfg.control, n_loops=100),
    )
    return cfg


@pytest.fixture(scope="module")
def micro_run():
    cfg = micro_cfg()
    return cfg, experiments.run_experiment(cfg)


def test_run_experiment_summary_fields(micro_run):
    _, summary = micro_run
    for key in ("experiment", "seed", "state_nrmse", "action_nrmse", "msce",
                "m_lost", "epochs", "train_s"):
        assert key in summary
    assert summary["experiment"] == "micro"
    assert np.isfinite(summary["state_nrmse"])
    assert np.isfinite(summary["msce"])
    assert summary["m_lost"] == 0   # ideal link loses nothing
    assert summary["epochs"] >= 1


def test_run_experiment_bit_reproducible(micro_run):
    cfg, first = micro_run
    again = experiments.run_experiment(cfg)
    for key in ("state_nrmse", "action_nrmse", "msce"):
        assert again[key] == first[key], key
    assert again["m_lost"] == first["m_lost"]


def test_run_experiment_seed_changes_results(micro_run):
    cfg, first = micro_run
    other = experiments.run_experiment(micro_cfg(seed=1))
    assert other["state_nrmse"] != first["state_nrmse"]


def test_training_steps_reduce_validation_loss(monkeypatch):
    cfg = micro_cfg()
    cfg = dataclasses.replace(cfg,
                              train=dataclasses.replace(cfg.train,
                                                        max_epochs=6))
    dataset = experiments.make_dataset(cfg)
    solves = []
    solve_dare = control.solve_dare

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return solve_dare(*args, **kwargs)

    monkeypatch.setattr(control, "solve_dare", counted_solve)
    model, result, gain, gains = experiments.train_sensing(cfg, dataset)
    assert result.epochs == 6
    vals = [s.val_loss for s in result.history]
    assert vals[-1] < vals[0]
    assert result.best_val == min(vals)
    assert gain.shape == (1, cfg.model.latent_dim)
    assert len(gains) == result.epochs
    # one gain solve per epoch, and the returned gain is the last epoch's
    assert len(solves) == result.epochs
    assert np.array_equal(gain, gains[-1])


def test_failed_gain_refresh_is_flagged_and_keeps_last_gain(monkeypatch):
    cfg = micro_cfg()
    cfg = dataclasses.replace(cfg,
                              train=dataclasses.replace(cfg.train,
                                                        max_epochs=3))
    dataset = experiments.make_dataset(cfg)
    refresh_gain = experiments.refresh_gain
    calls = []

    def failing_on_second(model, r):
        calls.append(len(calls) + 1)
        if len(calls) == 2:
            raise control.DareSolverError("scripted failure", iterations=7)
        return refresh_gain(model, r)

    monkeypatch.setattr(experiments, "refresh_gain", failing_on_second)
    _, result, gain, gains = experiments.train_sensing(cfg, dataset)
    assert [s.gain_refresh_failed for s in result.history] == \
        [False, True, False]
    assert np.array_equal(gains[1], gains[0])   # the last solvable gain
    assert np.array_equal(gain, gains[2])


def test_evaluate_prediction_encodes_each_anchor_once():
    rng = np.random.default_rng(9)
    sensing = koopman.SensingModel.build(p=4, d=4, q=1, rng=rng,
                                         encoder_hidden=(8, 8))
    controlling = koopman.ControllingModel.build(sensing, rng)
    trajs = [datasets.Trajectory(rng.normal(size=(25, 4)),
                                 rng.normal(size=(25, 1))) for _ in range(2)]
    cfg = experiments.ExperimentConfig()
    cfg.eval = experiments.EvalSettings(depth=1, anchor_stride=4)
    encode = sensing.encoder.predict
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return encode(x)

    sensing.encoder.predict = counted
    scores = experiments.evaluate_prediction(cfg, sensing, controlling, trajs)
    # one stack over every trajectory of one (depth, p) window per anchor
    assert calls == [(12, 1, 4)]
    assert scores["anchors"] == 12
    # at depth 1 the shared (1, p) encode is the state path's own encode
    alone = experiments.evaluate_prediction(cfg, sensing, None, trajs)
    assert alone["state_nrmse"] == scores["state_nrmse"]
    calls.clear()
    cfg.eval = experiments.EvalSettings(depth=3, anchor_stride=4)
    scores = experiments.evaluate_prediction(cfg, sensing, controlling, trajs)
    assert calls == [(12, 3, 4)]
    assert scores["anchors"] == 12


def test_evaluate_prediction_without_trajectories_raises():
    rng = np.random.default_rng(9)
    sensing = koopman.SensingModel.build(p=4, d=4, q=1, rng=rng,
                                         encoder_hidden=(8, 8))
    controlling = koopman.ControllingModel.build(sensing, rng)
    cfg = experiments.ExperimentConfig()
    with pytest.raises(datasets.InsufficientDataError,
                       match="no trajectory is long enough"):
        experiments.evaluate_prediction(cfg, sensing, controlling, [])


def per_anchor_rows(cfg, sensing, controlling, trajectories):
    """Oracle of the rows evaluate_prediction scores, one anchor at a
    time: (predicted, observed) states and actions pooled anchor by anchor
    and step by step, the actions None without a controlling model."""
    depth, stride = cfg.eval.depth, cfg.eval.anchor_stride
    pred_s, obs_s, pred_a, obs_a = [], [], [], []
    for traj in trajectories:
        for m in range(0, len(traj) - depth, stride):
            lats = sensing.encode(traj.states[m:m + depth])
            pred_s.append(predict_states(sensing, lats[0], traj.actions[m],
                                         traj.actions[m + 1:m + depth + 1]))
            obs_s.append(traj.states[m + 1:m + depth + 1])
            if controlling is not None:
                u, steps = traj.actions[m], []
                for lat in lats:
                    u = koopman.predict_actions(controlling, u, lat)
                    steps.append(u)
                pred_a.append(np.array(steps))
                obs_a.append(traj.actions[m + 1:m + depth + 1])
    return [np.concatenate(rows) if rows else None
            for rows in (pred_s, obs_s, pred_a, obs_a)]


def test_stacked_evaluation_matches_per_anchor_oracle_bit_for_bit(
        monkeypatch):
    # the rows handed to NRMSE, and the scores, have the bits of one
    # anchor at a time: depths 1-3, strides 1, 3 and 10, with and without
    # the action model, trajectories too short for any anchor or for one
    # more, at a toy width and the default encoder and decoder
    scored = []
    nrmse = metrics.nrmse

    def spy(pred, obs):
        scored.append((pred, obs))
        return nrmse(pred, obs)

    monkeypatch.setattr(metrics, "nrmse", spy)
    rng = np.random.default_rng(23)
    cases = 0
    for hidden in ((8, 8), koopman.DEFAULT_ENCODER_HIDDEN):
        for _ in range(3):
            sensing = koopman.SensingModel.build(p=4, d=4, q=1, rng=rng,
                                                 encoder_hidden=hidden)
            controlling = koopman.ControllingModel.build(sensing, rng)
            for depth in (1, 2, 3):
                lengths = (depth, depth + 1, depth + 2,
                           int(rng.integers(depth + 3, 60)))
                trajs = [datasets.Trajectory(rng.normal(size=(n, 4)),
                                             rng.normal(size=(n, 1)))
                         for n in lengths]
                for stride in (1, 3, 10):
                    cfg = experiments.ExperimentConfig()
                    cfg.eval = experiments.EvalSettings(depth=depth,
                                                        anchor_stride=stride)
                    for ctrl in (controlling, None):
                        scored.clear()
                        scores = experiments.evaluate_prediction(
                            cfg, sensing, ctrl, trajs)
                        want = per_anchor_rows(cfg, sensing, ctrl, trajs)
                        got = [a for pair in scored for a in pair]
                        assert len(got) == (4 if ctrl is not None else 2)
                        for g, w in zip(got, want):
                            assert g.shape == w.shape
                            assert g.tobytes() == w.tobytes()
                        assert scores["anchors"] * depth == len(want[0])
                        assert scores["state_nrmse"] == nrmse(want[0],
                                                              want[1])
                        cases += 1
    assert cases == 2 * 3 * 3 * 3 * 2


def test_state_prediction_ignores_the_controlling_model():
    # the state path reads the same encode with or without an action model,
    # so its score has the same bits; a linear decoder passes the last bits
    # of the latent through to the score (seed 1 showed a difference when
    # the state path alone encoded the anchor as a single row)
    rng = np.random.default_rng(1)
    built = koopman.SensingModel.build(p=4, d=4, q=1, rng=rng)
    decoder = neural.Network([neural.DenseLayer(
        np.hstack([np.eye(4), np.zeros((4, 1))]), np.zeros(4), "linear")])
    sensing = koopman.SensingModel(built.encoder, built.koopman, decoder,
                                   built.cost)
    controlling = koopman.ControllingModel.build(sensing, rng)
    trajs = [datasets.Trajectory(rng.normal(size=(30, 4)),
                                 rng.normal(size=(30, 1))) for _ in range(2)]
    cfg = experiments.ExperimentConfig()
    cfg.eval = experiments.EvalSettings(depth=3, anchor_stride=3)
    both = experiments.evaluate_prediction(cfg, sensing, controlling, trajs)
    alone = experiments.evaluate_prediction(cfg, sensing, None, trajs)
    assert alone["action_nrmse"] is None
    assert alone["state_nrmse"] == both["state_nrmse"]
    assert alone["anchors"] == both["anchors"]


def test_a_config_saved_with_impair_gradients_loads_at_false_only(
        tmp_path, capsys):
    # boundary gradients reach the sensor as computed, so a saved `false`
    # loads as the default and any other value is refused, naming the key,
    # by config_from_dict and by the CLI
    saved = json.loads(SAVED_DESK_CONFIG)
    assert saved["train"]["impair_gradients"] is False
    assert experiments.config_from_dict(saved) == experiments.desk_preset()
    for value in (True, 0, "false", None):
        saved["train"]["impair_gradients"] = value
        with pytest.raises(experiments.ConfigError) as err:
            experiments.config_from_dict(saved)
        assert str(err.value) == ("bad train.impair_gradients: fixed at "
                                  f"False, not {value!r}")
    assert "impair_gradients" not in experiments.config_to_dict(
        experiments.desk_preset())["train"]
    for value, code in ((False, cli.EXIT_OK), (True, cli.EXIT_CONFIG)):
        cfg_path = micro_config(tmp_path)
        raw = json.loads(cfg_path.read_text())
        raw["train"]["impair_gradients"] = value
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["gen-data", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path)]) == code
    assert "bad train.impair_gradients: fixed at False, not True" \
        in capsys.readouterr().err


def test_a_config_saved_with_schedule_mode_loads_at_special_only(
        tmp_path, capsys):
    # every rollout loss rolls out from the window anchor, so a saved
    # "special" loads as the default and any other value is refused,
    # naming the key, by config_from_dict and by the CLI
    saved = json.loads(SAVED_DESK_CONFIG)
    assert saved["model"]["schedule_mode"] == "special"
    assert experiments.config_from_dict(saved) == experiments.desk_preset()
    for value in ("general", 1, None):
        saved["model"]["schedule_mode"] = value
        with pytest.raises(experiments.ConfigError) as err:
            experiments.config_from_dict(saved)
        assert str(err.value) == ("bad model.schedule_mode: fixed at "
                                  f"'special', not {value!r}")
    assert "schedule_mode" not in experiments.config_to_dict(
        experiments.desk_preset())["model"]
    for value, code in (("special", cli.EXIT_OK),
                        ("general", cli.EXIT_CONFIG)):
        cfg_path = micro_config(tmp_path)
        raw = json.loads(cfg_path.read_text())
        raw["model"]["schedule_mode"] = value
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["gen-data", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path)]) == code
    assert "bad model.schedule_mode: fixed at 'special', not 'general'" \
        in capsys.readouterr().err


def test_a_rollout_on_given_links_derives_no_seed_stream(monkeypatch):
    cfg = micro_cfg()
    sensing = koopman.SensingModel.build(p=4, d=4, q=1,
                                         rng=np.random.default_rng(0))
    gain = np.full((1, 4), 0.1)

    def links():
        return {"uplink": channel.IdealLink(),
                "downlink": channel.IdealLink()}

    want, _ = experiments.control_rollout(cfg, sensing, gain, **links())

    def no_streams(seed):
        raise AssertionError("seed streams derived")

    monkeypatch.setattr(experiments, "seed_streams", no_streams)
    got, summary = experiments.control_rollout(cfg, sensing, gain, **links())
    assert got.states.tobytes() == want.states.tobytes()
    assert np.isfinite(summary["msce"])
    # a link or a plant noise generator built here still takes its stream
    noisy = dataclasses.replace(cfg, data=dataclasses.replace(
        cfg.data, noise_var=1e-6))
    for c, kwargs in ((cfg, {"uplink": channel.IdealLink()}),
                      (cfg, {"downlink": channel.IdealLink()}),
                      (noisy, links())):
        with pytest.raises(AssertionError, match="seed streams"):
            experiments.control_rollout(c, sensing, gain, **kwargs)


def test_sweep_writes_table_and_errors_sidecar(tmp_path):
    cfg = micro_cfg(ideal=False)
    out = tmp_path / "sweep.csv"
    rows = experiments.run_sweep(cfg, snr_values=[0.0, 20.0], seeds=[0],
                                 out_csv=out)
    assert out.exists()
    back = experiments.read_rows(out)
    assert len(back) == len(rows) == 2
    assert sorted(r.snr_db for r in back) == [0.0, 20.0]
    assert all(np.isfinite(r.state_nrmse) for r in back)
    assert not (tmp_path / "sweep.csv.errors.csv").exists()


def test_sweep_records_a_cell_whose_downlink_loses_every_action(
        tmp_path, monkeypatch):
    # every action packet is lost, so the controlling stage has no window:
    # a data failure of the cell, written to the sidecar
    build_link = experiments.build_link
    downlink_seed = experiments.seed_streams(0)["downlink"]

    def dead_downlink(cfg, seed):
        link = build_link(cfg, seed)
        if seed == downlink_seed:
            return channel.ScriptedLossLink(link, range(10_000))
        return link

    monkeypatch.setattr(experiments, "build_link", dead_downlink)
    out = tmp_path / "sweep.csv"
    rows = experiments.run_sweep(micro_cfg(ideal=False), snr_values=[20.0],
                                 seeds=[0], out_csv=out)
    assert rows == []
    errors = (tmp_path / "sweep.csv.errors.csv").read_text()
    assert "InsufficientDataError: every window lost at least one action " \
        "packet" in errors


def test_sweep_checks_the_whole_grid_before_the_first_cell(tmp_path,
                                                           monkeypatch):
    # d = 0 is refused before the d = 4 cells train, and no table is
    # written; a valid grid runs every cell in (snr, d, seed) order
    ran = []

    def stub(cfg, with_control=True):
        ran.append((cfg.link.snr_db, cfg.model.latent_dim, cfg.seed))
        return {"experiment": cfg.name, "seed": cfg.seed,
                "snr_db": cfg.link.snr_db,
                "latent_dim": cfg.model.latent_dim}

    monkeypatch.setattr(experiments, "run_experiment", stub)
    out = tmp_path / "sweep.csv"
    with pytest.raises(experiments.ConfigError, match="latent_dim"):
        experiments.run_sweep(micro_cfg(ideal=False), snr_values=[0.0, 10.0],
                              seeds=[0, 1], latent_dims=[4, 0], out_csv=out)
    assert ran == []
    assert not out.exists()
    rows = experiments.run_sweep(micro_cfg(ideal=False),
                                 snr_values=[0.0, 10.0], seeds=[0, 1],
                                 latent_dims=[4, 2])
    assert ran == [(snr, d, seed) for snr in (0.0, 10.0) for d in (4, 2)
                   for seed in (0, 1)]
    assert len(rows) == 8


def test_sweep_propagates_a_plain_value_error(tmp_path, monkeypatch):
    # a bare ValueError is a programming error, not a failed cell
    def broken(cfg, streams=None):
        raise ValueError("not a data failure")

    monkeypatch.setattr(experiments, "make_dataset", broken)
    with pytest.raises(ValueError, match="not a data failure"):
        experiments.run_sweep(micro_cfg(ideal=False), snr_values=[20.0],
                              seeds=[0], out_csv=tmp_path / "sweep.csv")
    assert not (tmp_path / "sweep.csv.errors.csv").exists()
