"""Command-line front end.

Thin wrappers over the experiments pipeline so every stage can run from a
shell: dataset generation, the two training phases, prediction scoring, the
predictive closed loop, sweeps, and report generation. Exit codes: 0 on
success, 2 on configuration problems (among them a path that is missing,
or a file where a directory must be, or the other way round), 3 when a run
fails on its data or its numerics (`experiments.RUN_ERRORS`: diverged
integration, unsolvable Riccati iteration, non-finite loss, data too short
or too lossy for a stage).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import datasets, dynamics, experiments, koopman, protocol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the command that writes each checkpoint
_WRITERS = {koopman.SensingModel: "train-sensing",
            koopman.ControllingModel: "train-controlling"}


def _add_common(parser):
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON experiment config (overrides the preset)")
    parser.add_argument("--preset", choices=sorted(experiments.PRESETS),
                        default="desk")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--snr-db", type=str, default=None,
                        help="target mean SNR in dB (comma list for sweep)")
    parser.add_argument("--latent-dim", type=str, default=None,
                        help="latent dimension d (comma list for sweep)")


def _numbers(text, kind):
    """A comma list of `kind` (float or int) values, at least one."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise experiments.ConfigError(f"bad number list {text!r}: {exc}") \
            from exc
    if not values:
        raise experiments.ConfigError(f"bad number list {text!r}: no number")
    return values


def _load_cfg(args, scalar_overrides=True):
    if args.config is not None:
        cfg = experiments.load_config(args.config)
    else:
        cfg = experiments.PRESETS[args.preset]()
    if not scalar_overrides:
        return experiments.apply_overrides(cfg, seed=args.seed)
    single = {}
    for name, kind in (("snr_db", float), ("latent_dim", int)):
        text = getattr(args, name)
        if text is None:
            continue
        values = _numbers(text, kind)
        if len(values) != 1:
            flag = "--" + name.replace("_", "-")
            raise experiments.ConfigError(
                f"this subcommand takes a single {flag} value")
        single[name] = values[0]
    return experiments.apply_overrides(cfg, seed=args.seed, **single)


def _out_dir(args):
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return args.out_dir


def _dataset(cfg, args):
    """`dataset.npz` in the output directory, or a fresh dataset when there
    is none. A file that is not a dataset, or one generated for other data
    settings, another seed or another baseline controller, is a config
    error, not a dataset to train on."""
    path = args.out_dir / "dataset.npz"
    if not path.exists():
        return experiments.make_dataset(cfg)
    try:
        ds = datasets.load_dataset(path)
    except (ValueError, KeyError, TypeError, EOFError,
            zipfile.BadZipFile) as exc:
        raise experiments.ConfigError(
            f"{path} is not a dataset: {exc}") from exc
    want = datasets.dataset_meta(cfg.data,
                                 experiments.seed_streams(cfg.seed)["data"],
                                 experiments.build_baseline(cfg).gain)
    # older files do not record noise_var or baseline_gain; they pass on
    # the other keys
    have = {"noise_var": want["noise_var"],
            "baseline_gain": want["baseline_gain"], **ds.meta}
    stale = [key for key, value in want.items() if have.get(key) != value]
    if stale:
        raise experiments.ConfigError(
            f"{path} was generated for another config ({', '.join(stale)} "
            f"differ); run gen-data again or use another --out-dir")
    return ds


def _write_history(path, result, cfg):
    """A TrainingResult as JSON: the config it was trained under (the
    checkpoints hold the model only, so this is where the prediction depth
    is kept), then one EpochStats entry per epoch."""
    history = [dataclasses.asdict(s) for s in result.history]
    with open(path, "w") as fh:
        json.dump({"config": experiments.config_to_dict(cfg),
                   "history": history, "stopped_early": result.stopped_early},
                  fh, indent=2)


def _checkpoint(path, cls, cfg):
    """The `cls` model in the checkpoint `path`. A missing file, a file
    that does not load as one, or a model whose sizes are not the plant's
    and `cfg.model`'s or that is not finite is a config error naming the
    file, a missing one naming its writer."""
    if not path.exists():
        raise experiments.ConfigError(
            f"{path} not found; run {_WRITERS[cls]} first")
    try:
        model = koopman.load_checkpoint(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise experiments.ConfigError(
            f"{path} is not a {cls.__name__} checkpoint: {exc}") from exc
    if not isinstance(model, cls):
        raise experiments.ConfigError(
            f"{path} holds a {type(model).__name__}, not a {cls.__name__}")
    have = (model.p, model.d, model.q,
            tuple(layer.d_out for layer in model.encoder.layers[:-1]))
    want = (dynamics.STATE_DIM, cfg.model.latent_dim, dynamics.ACTION_DIM,
            cfg.model.encoder_hidden)
    if have != want:
        raise experiments.ConfigError(
            f"{path} holds a model with (p, d, q, encoder widths) {have}, "
            f"not the {want} of the plant and the config")
    if not all(np.isfinite(p.value).all() for p in model.parameters()):
        raise experiments.ConfigError(f"{path} holds a non-finite parameter")
    return model


def _load_models(cfg, out):
    """The sensing checkpoint in `out`, and the controlling one or None
    when there is none, each checked by _checkpoint. The controlling
    model's stored encoder, whose latent it was trained on, must be the
    sensing one bit for bit (JSON floats round-trip exactly)."""
    sensing_path = out / "sensing.json"
    sensing = _checkpoint(sensing_path, koopman.SensingModel, cfg)
    path = out / "controlling.json"
    if not path.exists():
        return sensing, None
    controlling = _checkpoint(path, koopman.ControllingModel, cfg)
    if not all(a.value.tobytes() == b.value.tobytes() for a, b in zip(
            controlling.encoder.parameters(), sensing.encoder.parameters())):
        raise experiments.ConfigError(
            f"{path} was trained on another encoder than the one in "
            f"{sensing_path}; run train-controlling again")
    return sensing, controlling


def cmd_gen_data(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    ds = experiments.make_dataset(cfg)
    path = out / "dataset.npz"
    datasets.save_dataset(ds, path)
    counts = {name: len(ds.split(name)) for name in datasets.SPLITS}
    print(f"wrote {path} ({counts['train']}/{counts['val']}/{counts['test']} "
          f"train/val/test trajectories)")
    return EXIT_OK


def cmd_train_sensing(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    ds = _dataset(cfg, args)
    model, result, gain, _ = experiments.train_sensing(cfg, ds)
    koopman.save_checkpoint(model, out / "sensing.json")
    np.savetxt(out / "gain.txt", gain)
    _write_history(out / "sensing_history.json", result, cfg)
    print(f"sensing model: {result.epochs} epochs, "
          f"best val loss {result.best_val:.6g}; wrote {out}/sensing.json")
    return EXIT_OK


def cmd_train_controlling(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    sensing = _checkpoint(out / "sensing.json", koopman.SensingModel, cfg)
    ds = _dataset(cfg, args)
    model, result = experiments.train_controlling(cfg, sensing, ds)
    koopman.save_checkpoint(model, out / "controlling.json")
    _write_history(out / "controlling_history.json", result, cfg)
    print(f"controlling model: {result.epochs} epochs, "
          f"best val loss {result.best_val:.6g}; wrote {out}/controlling.json")
    return EXIT_OK


def cmd_eval_predict(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    sensing, controlling = _load_models(cfg, out)
    ds = _dataset(cfg, args)
    scores = experiments.evaluate_prediction(cfg, sensing, controlling,
                                             ds.test)
    with open(out / "prediction.json", "w") as fh:
        json.dump(scores, fh, indent=2)
    action = ("-" if scores["action_nrmse"] is None
              else f"{scores['action_nrmse']:.4f}%")
    print(f"state NRMSE {scores['state_nrmse']:.4f}%, action NRMSE {action} "
          f"(depth {scores['depth']})")
    return EXIT_OK


def cmd_run_control(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    sensing, controlling = _load_models(cfg, out)
    gain_path = out / "gain.txt"
    if gain_path.exists():
        try:
            gain = np.loadtxt(gain_path, ndmin=2)
        except ValueError as exc:
            raise experiments.ConfigError(
                f"{gain_path} is not a gain matrix: {exc}") from exc
        if gain.shape != (sensing.q, sensing.d):
            raise experiments.ConfigError(
                f"{gain_path} holds a {gain.shape} gain, not the "
                f"{(sensing.q, sensing.d)} of the sensing model")
        if not np.all(np.isfinite(gain)):
            raise experiments.ConfigError(
                f"{gain_path} holds a non-finite gain entry")
    else:
        gain = experiments.refresh_gain(sensing, cfg.control.r)
    result, summary = experiments.control_rollout(cfg, sensing, gain,
                                                  controlling)
    protocol.write_records(result, out / "loops.ndjson")
    with open(out / "control_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"MSCE {summary['msce']:.6g}, M_lost {summary['m_lost']}, "
          f"final state norm {summary['final_state_norm']:.4g}")
    return EXIT_OK


def cmd_sweep(args):
    if args.seeds < 1:
        raise experiments.ConfigError("--seeds must be >= 1")
    cfg = _load_cfg(args, scalar_overrides=False)
    out = _out_dir(args)
    snrs = _numbers(args.snr_db, float) if args.snr_db is not None \
        else [-10.0, 0.0, 10.0, 20.0]
    dims = _numbers(args.latent_dim, int) if args.latent_dim is not None \
        else None
    seeds = [cfg.seed + k for k in range(args.seeds)]
    csv_path = out / "sweep.csv"
    rows = experiments.run_sweep(
        cfg, snrs, seeds, latent_dims=dims, out_csv=csv_path,
        on_cell=lambda row: print(
            f"  snr={row.snr_db} d={row.latent_dim} seed={row.seed}: "
            f"state {row.state_nrmse:.3f}% action {row.action_nrmse:.3f}%"))
    print(f"wrote {csv_path} ({len(rows)} rows)")
    errors = Path(str(csv_path) + ".errors.csv")
    if errors.exists():
        print(f"some cells failed; see {errors}")
    return EXIT_OK


def cmd_report(args):
    out = _out_dir(args)
    rows = experiments.read_rows(args.csv)
    payload = {
        "format": experiments.REPORT_FORMAT,
        "state_nrmse": experiments.report(rows, "state_nrmse"),
        "action_nrmse": experiments.report(rows, "action_nrmse"),
    }
    path = out / "report.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="koopcontrol",
        description="Koopman autoencoder remote control over a lossy link")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("gen-data", cmd_gen_data, "generate a trajectory dataset"),
        ("train-sensing", cmd_train_sensing,
         "phase-1 split training of the sensing model"),
        ("train-controlling", cmd_train_controlling,
         "train the controlling model on the received action stream"),
        ("eval-predict", cmd_eval_predict,
         "score state/action prediction NRMSE on the test split"),
        ("run-control", cmd_run_control,
         "run the phase-2 predictive closed loop"),
        ("sweep", cmd_sweep, "train+evaluate over an SNR/latent-dim grid"),
        ("report", cmd_report, "summarize a sweep CSV into plot-ready JSON"),
    ]
    for name, fn, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        if name != "report":
            _add_common(p)
        p.add_argument("--out-dir", type=Path, default=Path("."))
        p.set_defaults(fn=fn)
        if name == "sweep":
            p.add_argument("--seeds", type=int, default=1,
                           help="number of consecutive seeds per cell")
        if name == "report":
            p.add_argument("csv", type=Path, help="sweep CSV to summarize")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (experiments.ConfigError, FileNotFoundError, FileExistsError,
            NotADirectoryError, IsADirectoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except experiments.RUN_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
