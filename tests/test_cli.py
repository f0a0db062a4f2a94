"""End-to-end CLI tests, in process through main(argv)."""

import dataclasses
import io
import json
import shutil

import numpy as np
import pytest

from koopcontrol import cli, datasets, experiments, koopman


def micro_config(tmp, **overrides):
    cfg = experiments.desk_preset()
    cfg = dataclasses.replace(
        cfg,
        name="cli-micro",
        seed=3,
        data=dataclasses.replace(cfg.data, n_train=3, n_val=1, n_test=1,
                                 duration_s=4.0),
        train=dataclasses.replace(cfg.train, max_epochs=2, lr=1e-3,
                                  max_batches_per_epoch=20),
        control=dataclasses.replace(cfg.control, n_loops=80),
        **overrides)
    path = tmp / "config.json"
    experiments.save_config(cfg, path)
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full subcommand chain once in a shared directory."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg_path = micro_config(tmp)
    base = ["--config", str(cfg_path), "--out-dir", str(tmp)]
    for cmd in ("gen-data", "train-sensing", "train-controlling",
                "eval-predict", "run-control"):
        assert cli.main([cmd] + base) == cli.EXIT_OK, cmd
    return tmp, cfg_path


def test_pipeline_artifacts(pipeline):
    tmp, _ = pipeline
    for name in ("dataset.npz", "sensing.json", "gain.txt",
                 "sensing_history.json", "controlling.json",
                 "controlling_history.json",
                 "prediction.json", "loops.ndjson", "control_summary.json"):
        assert (tmp / name).exists(), name


def test_pipeline_prediction_scores(pipeline):
    tmp, _ = pipeline
    scores = json.loads((tmp / "prediction.json").read_text())
    assert np.isfinite(scores["state_nrmse"])
    assert np.isfinite(scores["action_nrmse"])
    assert scores["depth"] >= 1
    assert scores["anchors"] > 0


def test_pipeline_control_summary(pipeline):
    tmp, _ = pipeline
    summary = json.loads((tmp / "control_summary.json").read_text())
    assert np.isfinite(summary["msce"])
    assert summary["m_lost"] == 0
    lines = (tmp / "loops.ndjson").read_text().splitlines()
    assert len(lines) == 80
    rec = json.loads(lines[0])
    assert rec["downlink_delivered"] is True


def test_pipeline_history_shape(pipeline):
    tmp, cfg_path = pipeline
    # one entry per epoch of each trainer (two, and no early stop)
    ctl = json.loads((tmp / "controlling_history.json").read_text())
    assert [h["epoch"] for h in ctl["history"]] == [1, 2]
    assert ctl["stopped_early"] is False
    hist = json.loads((tmp / "sensing_history.json").read_text())
    assert [h["epoch"] for h in hist["history"]] == [1, 2]
    assert {"epoch", "train_loss", "val_loss", "batches", "packets_sent",
            "packets_lost", "windows_dropped",
            "gain_refresh_failed"} <= set(hist["history"][0])
    assert all(isinstance(h["gain_refresh_failed"], bool)
               for h in hist["history"])
    # both files record the config the models were trained under, and with
    # it the prediction depth the checkpoints leave out
    cfg = experiments.load_config(cfg_path)
    for record in (hist, ctl):
        assert experiments.config_from_dict(record["config"]) == cfg
        assert record["config"]["model"]["depth"] == cfg.model.depth


def test_gain_file_is_loadable_matrix(pipeline):
    tmp, _ = pipeline
    gain = np.atleast_2d(np.loadtxt(tmp / "gain.txt"))
    assert gain.shape == (1, 4)
    assert np.all(np.isfinite(gain))


def test_report_subcommand(tmp_path):
    rows = [experiments.ResultRow(
        experiment="r", seed=s, snr_db=snr, latent_dim=4, n_train=2,
        state_nrmse=30.0 - snr, action_nrmse=10.0 - 0.1 * snr, msce=None,
        m_lost=None, epochs=2, train_s=1.0)
        for snr in (-10.0, 10.0) for s in (0, 1)]
    csv = tmp_path / "sweep.csv"
    experiments.write_rows(rows, csv)
    code = cli.main(["report", str(csv), "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_OK
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["format"] == experiments.REPORT_FORMAT
    series = rep["state_nrmse"]["series"][0]
    assert series["snr_db"] == [-10.0, 10.0]
    assert series["mean"] == [40.0, 20.0]


def test_exit_config_on_missing_file(tmp_path, capsys):
    code = cli.main(["train-sensing", "--config",
                     str(tmp_path / "nope.json")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_report_takes_only_its_csv_and_out_dir(tmp_path, capsys):
    # report reads no config, so a config flag is an argparse error, not
    # a silently ignored one
    for flag in (["--seed", "3"], ["--preset", "desk"], ["--snr-db", "0"],
                 ["--latent-dim", "4"], ["--config", "c.json"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", str(tmp_path / "sweep.csv"), *flag])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err



def test_a_clean_sweep_removes_the_error_file_of_an_earlier_one(
        tmp_path, capsys, monkeypatch):
    # the first sweep has its 0 dB cell fail on its data; a clean sweep into
    # the same directory then leaves no error file and reports no failure
    failing = [0.0]

    def stub(cfg, with_control=False):
        if cfg.link.snr_db in failing:
            raise datasets.InsufficientDataError("no window kept")
        return {"experiment": cfg.name, "seed": cfg.seed,
                "snr_db": cfg.link.snr_db, "latent_dim": cfg.model.latent_dim,
                "state_nrmse": 1.0, "action_nrmse": 1.0}

    monkeypatch.setattr(experiments, "run_experiment", stub)
    argv = ["sweep", "--config", str(micro_config(tmp_path)), "--out-dir",
            str(tmp_path), "--snr-db", "0,10"]
    errors = tmp_path / "sweep.csv.errors.csv"
    assert cli.main(argv) == cli.EXIT_OK
    assert "InsufficientDataError: no window kept" in errors.read_text()
    assert "some cells failed" in capsys.readouterr().out
    failing.clear()
    assert cli.main(argv) == cli.EXIT_OK
    assert not errors.exists()
    out = capsys.readouterr().out
    assert "(2 rows)" in out and "some cells failed" not in out


def test_exit_config_on_unknown_key(tmp_path):
    cfg_path = micro_config(tmp_path)
    raw = json.loads(cfg_path.read_text())
    raw["data"]["warmup"] = 1
    cfg_path.write_text(json.dumps(raw))
    code = cli.main(["gen-data", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


def test_exit_config_on_invalid_link_distance(tmp_path, capsys):
    # also a bad train value: every section is checked before data exists
    for section, key, message in (("link", "distance",
                                   "fixed at 100.0, not 0"),
                                  ("train", "patience",
                                   "patience must be >= 1"),
                                  ("data", "n_train", "must be >= 1")):
        cfg_path = micro_config(tmp_path)
        raw = json.loads(cfg_path.read_text())
        raw[section][key] = 0
        cfg_path.write_text(json.dumps(raw))
        code = cli.main(["train-sensing", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "dataset.npz").exists()
    # a saved phase-2 fallback loads at "predict" only, and run-control
    # names the key before it reads a checkpoint
    for key in ("action_fallback", "latent_fallback"):
        cfg_path = micro_config(tmp_path)
        raw = json.loads(cfg_path.read_text())
        raw["control"][key] = "hold"
        cfg_path.write_text(json.dumps(raw))
        code = cli.main(["run-control", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert f"bad control.{key}: fixed at 'predict', not 'hold'" \
            in capsys.readouterr().err
    # a sweep over no seeds is refused before any cell runs
    cfg_path = micro_config(tmp_path)
    for seeds in ("0", "-2"):
        code = cli.main(["sweep", "--config", str(cfg_path), "--out-dir",
                         str(tmp_path), "--seeds", seeds])
        assert code == cli.EXIT_CONFIG
        assert "--seeds must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


def test_exit_config_on_a_duration_of_no_sample(tmp_path, capsys):
    cfg_path = micro_config(tmp_path)
    raw = json.loads(cfg_path.read_text())
    raw["data"]["duration_s"] = 0.004
    cfg_path.write_text(json.dumps(raw))
    code = cli.main(["gen-data", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "data.duration_s" in capsys.readouterr().err
    assert not (tmp_path / "dataset.npz").exists()


def test_exit_config_on_missing_sensing_checkpoint(tmp_path):
    cfg_path = micro_config(tmp_path)
    code = cli.main(["train-controlling", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


def test_exit_config_on_multivalued_scalar_flag(tmp_path, capsys):
    cfg_path = micro_config(tmp_path)
    base = ["--config", str(cfg_path), "--out-dir", str(tmp_path)]
    # a list where one value is expected, a value that is not a number,
    # and a negative seed
    for cmd, flags in (("train-sensing", ["--snr-db", "0,10"]),
                       ("gen-data", ["--snr-db", "abc"]),
                       ("gen-data", ["--snr-db", "nan"]),
                       ("gen-data", ["--snr-db=-inf"]),
                       ("gen-data", ["--latent-dim", "four"]),
                       ("gen-data", ["--latent-dim", "1.5"]),
                       ("gen-data", ["--seed", "-1"]),
                       ("sweep", ["--snr-db", "0,abc"]),
                       ("sweep", ["--latent-dim", "2,x"])):
        assert cli.main([cmd] + base + flags) == cli.EXIT_CONFIG, flags
        assert "config error" in capsys.readouterr().err
    # a top-level config seed that is not a non-negative integer
    for seed in ("x", -1):
        raw = json.loads(cfg_path.read_text())
        raw["seed"] = seed
        bad = tmp_path / "bad_seed.json"
        bad.write_text(json.dumps(raw))
        code = cli.main(["gen-data", "--config", str(bad),
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "dataset.npz").exists()


def test_exit_config_on_an_snr_target_outside_the_float_range(tmp_path,
                                                             capsys):
    # 10^(-400) underflows to 0 and 10^309 overflows: no link has that mean
    cfg_path = micro_config(tmp_path)
    for snr in ("-4000", "3090"):
        code = cli.main(["gen-data", "--config", str(cfg_path), "--out-dir",
                         str(tmp_path), f"--snr-db={snr}"])
        assert code == cli.EXIT_CONFIG
        assert "bad link.snr_db: " in capsys.readouterr().err
    assert not (tmp_path / "dataset.npz").exists()


def test_exit_config_on_a_number_list_of_no_number(tmp_path, capsys):
    # a given list must hold a number; it is not an empty grid or the
    # config's value
    cfg_path = micro_config(tmp_path)
    base = ["--config", str(cfg_path), "--out-dir", str(tmp_path)]
    for cmd, flags in (("sweep", ["--snr-db", ","]),
                       ("sweep", ["--snr-db", ""]),
                       ("sweep", ["--snr-db", "0", "--latent-dim", ","]),
                       ("gen-data", ["--snr-db", " , "]),
                       ("gen-data", ["--latent-dim", ""])):
        assert cli.main([cmd] + base + flags) == cli.EXIT_CONFIG, flags
        assert "no number" in capsys.readouterr().err, flags
    assert not (tmp_path / "sweep.csv").exists()
    assert not (tmp_path / "dataset.npz").exists()


def test_exit_config_on_invalid_latent_dim_override(tmp_path, capsys):
    code = cli.main(["train-sensing", "--latent-dim", "0",
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "latent_dim" in capsys.readouterr().err
    assert not (tmp_path / "sensing.json").exists()


def test_exit_config_on_a_dataset_generated_for_another_config(tmp_path,
                                                             capsys):
    # a dataset.npz left by another seed or other data settings is refused,
    # not trained on
    cfg_path = micro_config(tmp_path)
    base = ["--config", str(cfg_path), "--out-dir", str(tmp_path)]
    assert cli.main(["gen-data"] + base) == cli.EXIT_OK
    assert cli.main(["train-sensing", "--seed", "7"] + base) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "dataset.npz" in err and "seed" in err
    cfg = experiments.load_config(cfg_path)
    noisy = tmp_path / "noisy.json"
    experiments.save_config(dataclasses.replace(
        cfg, data=dataclasses.replace(cfg.data, noise_var=1e-4)), noisy)
    assert cli.main(["train-sensing", "--config", str(noisy),
                     "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "noise_var" in capsys.readouterr().err
    assert not (tmp_path / "sensing.json").exists()


def test_dataset_without_noise_var_in_its_meta_is_reused(tmp_path):
    # files written before the meta recorded noise_var still load
    cfg = experiments.load_config(micro_config(tmp_path))
    ds = experiments.make_dataset(cfg)
    del ds.meta["noise_var"]
    datasets.save_dataset(ds, tmp_path / "dataset.npz")
    args = cli.build_parser().parse_args(
        ["train-sensing", "--out-dir", str(tmp_path)])
    loaded = cli._dataset(cfg, args)
    assert loaded.meta == ds.meta
    assert loaded.train[0].states.tobytes() == ds.train[0].states.tobytes()


def test_exit_config_on_a_dataset_generated_under_another_baseline(
        tmp_path, capsys):
    # the data's actions depend on the baseline LQR weights, so a dataset
    # made at r = 1 is not reused at r = 2; one whose meta predates the
    # baseline_gain key still is
    cfg = experiments.load_config(micro_config(tmp_path))
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data,
                                                            n_train=1))
    ds = experiments.make_dataset(cfg)
    datasets.save_dataset(ds, tmp_path / "dataset.npz")
    other = dataclasses.replace(cfg, control=dataclasses.replace(cfg.control,
                                                                 r=2.0))
    experiments.save_config(other, tmp_path / "r2.json")
    assert cli.main(["train-sensing", "--config", str(tmp_path / "r2.json"),
                     "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "baseline_gain" in capsys.readouterr().err
    assert not (tmp_path / "sensing.json").exists()
    args = cli.build_parser().parse_args(
        ["train-sensing", "--out-dir", str(tmp_path)])
    assert cli._dataset(cfg, args).meta == ds.meta
    del ds.meta["baseline_gain"]
    datasets.save_dataset(ds, tmp_path / "dataset.npz")
    assert cli._dataset(other, args).meta == ds.meta


def test_dataset_meta_records_the_10_ms_period(tmp_path):
    # the meta keeps "tau_o" at the plant's 0.01 s, as files written by
    # earlier versions hold it, so those files still load; a file sampled
    # at another period is refused
    cfg = experiments.load_config(micro_config(tmp_path))
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data,
                                                            n_train=1))
    ds = experiments.make_dataset(cfg)
    assert ds.meta["tau_o"] == 0.01
    datasets.save_dataset(ds, tmp_path / "dataset.npz")
    args = cli.build_parser().parse_args(
        ["train-sensing", "--out-dir", str(tmp_path)])
    assert cli._dataset(cfg, args).meta == ds.meta
    ds.meta["tau_o"] = 0.02
    datasets.save_dataset(ds, tmp_path / "dataset.npz")
    with pytest.raises(experiments.ConfigError, match="tau_o"):
        cli._dataset(cfg, args)


def test_a_missing_checkpoint_is_refused_before_the_dataset_is_made(
        tmp_path, monkeypatch, capsys):
    # train-controlling and eval-predict load their checkpoints first, so
    # an empty --out-dir is refused at once, naming the command to run
    def make_dataset(cfg, streams=None):
        raise AssertionError("dataset made before the checkpoints loaded")

    monkeypatch.setattr(experiments, "make_dataset", make_dataset)
    for cmd in ("train-controlling", "eval-predict"):
        assert cli.main([cmd, "--out-dir", str(tmp_path)]) \
            == cli.EXIT_CONFIG, cmd
        assert "run train-sensing first" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["out_dir_is_a_file",
                                  "out_dir_under_a_file",
                                  "config_is_a_directory",
                                  "report_csv_is_a_directory"])
def test_exit_config_on_a_path_of_the_wrong_kind(tmp_path, capsys, kind):
    afile = tmp_path / "afile"
    afile.write_text("")
    out = ["--out-dir", str(tmp_path / "out")]
    argv = {"out_dir_is_a_file": ["gen-data", "--out-dir", str(afile)],
            "out_dir_under_a_file": ["gen-data",
                                     "--out-dir", str(afile / "sub")],
            "config_is_a_directory": ["gen-data", "--config", str(tmp_path),
                                      *out],
            "report_csv_is_a_directory": ["report", str(tmp_path), *out],
            }[kind]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def _copy_artifacts(src, dst, *names):
    for name in names:
        shutil.copy(src / name, dst / name)


def test_exit_config_on_a_checkpoint_that_does_not_load_or_fit(
        pipeline, tmp_path, capsys):
    # a sensing.json that is not JSON, not a checkpoint or not a sensing
    # model, a checkpoint whose sizes are not the config's, and a
    # controlling checkpoint that does not fit its sensing model
    src, cfg_path = pipeline

    def refused(name, *flags, config=cfg_path,
                commands=("train-controlling", "eval-predict",
                          "run-control")):
        for cmd in commands:
            code = cli.main([cmd, "--config", str(config),
                             "--out-dir", str(tmp_path), *flags])
            assert code == cli.EXIT_CONFIG, (cmd, flags)
            assert name in capsys.readouterr().err

    _copy_artifacts(src, tmp_path, "dataset.npz", "controlling.json")
    broken = json.loads((src / "sensing.json").read_text())
    broken["encoder"] = []
    for text in ("{not json", json.dumps({"format": "other"}), "[]",
                 json.dumps(broken), (src / "controlling.json").read_text()):
        (tmp_path / "sensing.json").write_text(text)
        refused("sensing.json")
    _copy_artifacts(src, tmp_path, "sensing.json")
    refused("sensing.json", "--latent-dim", "2")
    cfg = experiments.load_config(cfg_path)
    narrow = tmp_path / "narrow.json"
    experiments.save_config(dataclasses.replace(
        cfg, model=dataclasses.replace(cfg.model, encoder_hidden=(64, 32))),
        narrow)
    refused("sensing.json", config=narrow)
    sens_d2 = koopman.SensingModel.build(p=4, d=2, q=1,
                                         rng=np.random.default_rng(0))
    koopman.save_checkpoint(koopman.ControllingModel.build(
        sens_d2, np.random.default_rng(1)), tmp_path / "controlling.json")
    refused("controlling.json", commands=("eval-predict", "run-control"))
    assert not (tmp_path / "prediction.json").exists()
    assert not (tmp_path / "loops.ndjson").exists()


def test_exit_config_on_a_controlling_checkpoint_of_an_earlier_encoder(
        pipeline, tmp_path, capsys):
    # train-sensing run again, at another step size, leaves a controlling
    # checkpoint trained on the old latent; it is not paired with the new
    # encoder until train-controlling runs again
    src, cfg_path = pipeline
    _copy_artifacts(src, tmp_path, "dataset.npz", "sensing.json",
                    "controlling.json")
    cfg = experiments.load_config(cfg_path)
    faster = tmp_path / "faster.json"
    experiments.save_config(dataclasses.replace(
        cfg, train=dataclasses.replace(cfg.train, lr=5e-3)), faster)
    base = ["--config", str(faster), "--out-dir", str(tmp_path)]
    assert cli.main(["train-sensing"] + base) == cli.EXIT_OK
    capsys.readouterr()
    for cmd in ("eval-predict", "run-control"):
        assert cli.main([cmd] + base) == cli.EXIT_CONFIG, cmd
        err = capsys.readouterr().err
        assert f"{tmp_path / 'controlling.json'} was trained on another " \
            f"encoder than the one in {tmp_path / 'sensing.json'}; run " \
            "train-controlling again" in err, cmd
    assert not (tmp_path / "prediction.json").exists()
    assert not (tmp_path / "loops.ndjson").exists()
    assert cli.main(["train-controlling"] + base) == cli.EXIT_OK
    for cmd in ("eval-predict", "run-control"):
        assert cli.main([cmd] + base) == cli.EXIT_OK, cmd


def test_exit_config_on_a_dataset_file_that_is_not_a_dataset(tmp_path,
                                                              capsys):
    # bytes that are not an archive, an empty file, a truncated archive,
    # archives without a readable meta, and a single array saved under the
    # dataset's name
    cfg_path = micro_config(tmp_path)
    path = tmp_path / "dataset.npz"
    archive = io.BytesIO()
    np.savez(archive, meta=np.zeros(3), train_states=np.zeros(100))
    writers = (lambda fh: fh.write(b"not a dataset"),
               lambda fh: fh.write(b""),
               lambda fh: fh.write(archive.getvalue()[:-30]),
               lambda fh: np.savez(fh, meta=np.zeros(3)),
               lambda fh: np.savez(fh, meta=np.frombuffer(b"[]", np.uint8)),
               lambda fh: np.savez(fh, train_states=np.zeros(3)),
               lambda fh: np.save(fh, np.zeros(3)))
    for write in writers:
        with open(path, "wb") as fh:
            write(fh)
        code = cli.main(["train-sensing", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "dataset.npz" in capsys.readouterr().err
    assert not (tmp_path / "sensing.json").exists()


def test_exit_config_on_a_dataset_whose_trajectories_do_not_fit_the_plant(
        tmp_path, capsys):
    # the meta fits the config, the arrays do not: states of three columns,
    # actions of two, a NaN state and an infinite action
    cfg_path = micro_config(tmp_path)
    ds = experiments.make_dataset(experiments.load_config(cfg_path))
    first = ds.train[0]
    for states, actions in ((first.states[:, :3], first.actions),
                            (first.states, np.hstack([first.actions] * 2)),
                            (np.where(first.states == first.states[5, 1],
                                      np.nan, first.states), first.actions),
                            (first.states,
                             np.where(first.actions == first.actions[9, 0],
                                      np.inf, first.actions))):
        ds.train[:] = [datasets.Trajectory(states, actions)]
        datasets.save_dataset(ds, tmp_path / "dataset.npz")
        code = cli.main(["train-sensing", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "dataset.npz is not a dataset: train trajectory 0" in err
    assert not (tmp_path / "sensing.json").exists()


def _one_train_trajectory_and_no_test_split(ds):
    del ds.train[1:]
    ds.test.clear()


def _shorter_validation_trajectory(ds):
    ds.val[0] = datasets.Trajectory(ds.val[0].states[:-1],
                                    ds.val[0].actions[:-1])


@pytest.mark.parametrize("edit, message", [
    (_one_train_trajectory_and_no_test_split,
     "the train split holds 1 trajectories, not the 3 its meta counts"),
    (_shorter_validation_trajectory,
     "val trajectory 0 holds 399 samples, not the 400 of its meta's"),
], ids=["fewer_trajectories", "shorter_trajectory"])
def test_exit_config_on_a_dataset_whose_splits_disagree_with_its_meta(
        pipeline, tmp_path, capsys, edit, message):
    # the meta fits the config, the arrays do not; no stage trains or
    # scores on such a file
    src, cfg_path = pipeline
    _copy_artifacts(src, tmp_path, "sensing.json", "controlling.json",
                    "gain.txt")
    ds = experiments.make_dataset(experiments.load_config(cfg_path))
    edit(ds)
    datasets.save_dataset(ds, tmp_path / "dataset.npz")
    for cmd in ("train-sensing", "train-controlling", "eval-predict"):
        code = cli.main([cmd, "--config", str(cfg_path),
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_CONFIG, cmd
        err = capsys.readouterr().err
        assert "dataset.npz is not a dataset: " + message in err
    assert not (tmp_path / "prediction.json").exists()
    assert not (tmp_path / "sensing_history.json").exists()


def test_exit_config_on_a_dataset_generated_with_another_dither(tmp_path):
    # the meta keeps recording the dither, so a file written while it was
    # settable is reused at the fixed 0.1 and refused at any other value
    cfg = experiments.load_config(micro_config(tmp_path))
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data,
                                                            n_train=1))
    ds = experiments.make_dataset(cfg)
    assert ds.meta["explore_std"] == datasets.EXPLORE_STD == 0.1
    datasets.save_dataset(ds, tmp_path / "dataset.npz")
    args = cli.build_parser().parse_args(
        ["train-sensing", "--out-dir", str(tmp_path)])
    assert cli._dataset(cfg, args).meta == ds.meta
    ds.meta["explore_std"] = 0.0
    datasets.save_dataset(ds, tmp_path / "dataset.npz")
    with pytest.raises(experiments.ConfigError, match="explore_std"):
        cli._dataset(cfg, args)


def test_exit_config_on_a_checkpoint_with_a_non_finite_parameter(
        pipeline, tmp_path, capsys):
    # one NaN encoder weight, with no gain.txt to fall back on, and one
    # infinite weight of the controlling decoder
    src, cfg_path = pipeline
    base = ["--config", str(cfg_path), "--out-dir", str(tmp_path)]
    _copy_artifacts(src, tmp_path, "sensing.json", "controlling.json")
    good = (tmp_path / "sensing.json").read_text()
    broken = json.loads(good)
    broken["encoder"]["layers"][0]["weights"][0][0] = float("nan")
    (tmp_path / "sensing.json").write_text(json.dumps(broken))
    for cmd in ("run-control", "eval-predict", "train-controlling"):
        assert cli.main([cmd] + base) == cli.EXIT_CONFIG, cmd
        err = capsys.readouterr().err
        assert "sensing.json holds a non-finite parameter" in err
    (tmp_path / "sensing.json").write_text(good)
    broken = json.loads((src / "controlling.json").read_text())
    broken["decoder"]["layers"][-1]["biases"][0] = float("inf")
    (tmp_path / "controlling.json").write_text(json.dumps(broken))
    for cmd in ("run-control", "eval-predict"):
        assert cli.main([cmd] + base) == cli.EXIT_CONFIG, cmd
        err = capsys.readouterr().err
        assert "controlling.json holds a non-finite parameter" in err
    assert not (tmp_path / "loops.ndjson").exists()
    assert not (tmp_path / "prediction.json").exists()


def test_exit_config_on_a_gain_file_that_is_not_the_model_gain(
        pipeline, tmp_path, capsys):
    src, cfg_path = pipeline
    base = ["--config", str(cfg_path), "--out-dir", str(tmp_path)]
    _copy_artifacts(src, tmp_path, "sensing.json", "controlling.json")
    for text in ("a b c d\n", "0.1 0.2 0.3\n", "0.1 0.2 0.3 0.4\n" * 2,
                 "0.1 0.2\n0.3 0.4\n", "0.1 nan 0.3 0.4\n",
                 "0.1 0.2 0.3 -inf\n"):
        (tmp_path / "gain.txt").write_text(text)
        assert cli.main(["run-control"] + base) == cli.EXIT_CONFIG, text
        assert "gain.txt" in capsys.readouterr().err
    assert not (tmp_path / "loops.ndjson").exists()
    # the gain train-sensing wrote is the (q, d) one
    _copy_artifacts(src, tmp_path, "gain.txt")
    assert cli.main(["run-control"] + base) == cli.EXIT_OK


def test_phase2_trace_without_uplink_refresh_is_strict_json(
        pipeline, tmp_path):
    # a loop that attempts no uplink records tau_comm_up as null, not as
    # the NaN token that strict JSON parsers refuse
    src, src_cfg = pipeline
    cfg = experiments.load_config(src_cfg)
    cfg_path = tmp_path / "config.json"
    control = dataclasses.replace(cfg.control, n_loops=50,
                                  uplink_refresh=False)
    experiments.save_config(dataclasses.replace(cfg, control=control),
                            cfg_path)
    _copy_artifacts(src, tmp_path, "sensing.json", "controlling.json",
                    "gain.txt")
    assert cli.main(["run-control", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path)]) == cli.EXIT_OK

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    lines = (tmp_path / "loops.ndjson").read_text().splitlines()
    records = [json.loads(line, parse_constant=refuse) for line in lines]
    assert len(records) == 50
    assert records[0]["tau_comm_up"] is not None
    assert all(rec["uplink_delivered"] is None and rec["tau_comm_up"] is None
               for rec in records[1:])
    json.loads((tmp_path / "control_summary.json").read_text(),
               parse_constant=refuse)


def _unstabilizable_checkpoint(tmp_path):
    # handcraft a sensing checkpoint of the micro config's sizes whose
    # latent dynamics are an uncontrollable unstable pair: K11 = 2I, K12 = 0
    model = koopman.SensingModel.build(p=4, d=4, q=1,
                                       rng=np.random.default_rng(0))
    model.koopman.value[:, :4] = 2.0 * np.eye(4)
    model.koopman.value[:, 4:] = 0.0
    model.cost.value[:] = np.eye(4)
    koopman.save_checkpoint(model, tmp_path / "sensing.json")


def test_exit_numeric_on_unstabilizable_gain(tmp_path, capsys):
    cfg_path = micro_config(tmp_path)
    _unstabilizable_checkpoint(tmp_path)
    code = cli.main(["run-control", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


def test_exit_numeric_on_eval_depth_beyond_the_data(tmp_path, capsys):
    # an eval depth longer than the 4 s test trajectory leaves no anchor:
    # a typed data failure, reported with exit 3 and no scores written
    cfg_path = micro_config(tmp_path, eval=experiments.EvalSettings(
        depth=1000))
    _unstabilizable_checkpoint(tmp_path)
    code = cli.main(["eval-predict", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_NUMERIC
    assert "InsufficientDataError" in capsys.readouterr().err
    assert not (tmp_path / "prediction.json").exists()


def test_preset_flag_selects_config():
    parser = cli.build_parser()
    args = parser.parse_args(["gen-data", "--preset", "paper"])
    assert args.preset == "paper"
    with pytest.raises(SystemExit):
        parser.parse_args(["gen-data", "--preset", "bench"])
    with pytest.raises(SystemExit):
        parser.parse_args(["not-a-command"])
