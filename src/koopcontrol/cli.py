"""Command-line front end.

Thin wrappers over the experiments pipeline so every stage can run from a
shell: dataset generation, the two training phases, prediction scoring, the
predictive closed loop, sweeps, and report generation. Exit codes: 0 on
success, 2 on configuration problems, 3 when a run fails on its data or its
numerics (`experiments.RUN_ERRORS`: diverged integration, unsolvable Riccati
iteration, non-finite loss, data too short or too lossy for a stage).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import datasets, experiments, koopman, protocol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _add_common(parser):
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON experiment config (overrides the preset)")
    parser.add_argument("--preset", choices=sorted(experiments.PRESETS),
                        default="desk")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--snr-db", type=str, default=None,
                        help="target mean SNR in dB (comma list for sweep)")
    parser.add_argument("--latent-dim", type=str, default=None,
                        help="latent dimension d (comma list for sweep)")


def _numbers(text, kind):
    """A comma list of `kind` (float or int) values."""
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise experiments.ConfigError(f"bad number list {text!r}: {exc}") \
            from exc


def _load_cfg(args, scalar_overrides=True):
    if args.config is not None:
        cfg = experiments.load_config(args.config)
    else:
        cfg = experiments.PRESETS[args.preset]()
    if not scalar_overrides:
        return experiments.apply_overrides(cfg, seed=args.seed)
    snr = None
    if args.snr_db is not None:
        vals = _numbers(args.snr_db, float)
        if len(vals) != 1:
            raise experiments.ConfigError(
                "this subcommand takes a single --snr-db value")
        snr = vals[0]
    d = None
    if args.latent_dim is not None:
        vals = _numbers(args.latent_dim, int)
        if len(vals) != 1:
            raise experiments.ConfigError(
                "this subcommand takes a single --latent-dim value")
        d = vals[0]
    return experiments.apply_overrides(cfg, seed=args.seed, snr_db=snr,
                                       latent_dim=d)


def _out_dir(args):
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return args.out_dir


def _dataset(cfg, args):
    path = args.out_dir / "dataset.npz"
    if path.exists():
        return datasets.load_dataset(path)
    return experiments.make_dataset(cfg)


def _write_history(path, result, cfg):
    """A TrainingResult as JSON: the config it was trained under (the
    checkpoints hold the model only, so this is where the prediction depth
    and schedule mode are kept), then one EpochStats entry per epoch."""
    history = [dataclasses.asdict(s) for s in result.history]
    with open(path, "w") as fh:
        json.dump({"config": experiments.config_to_dict(cfg),
                   "history": history, "stopped_early": result.stopped_early},
                  fh, indent=2)


def _load_models(out):
    """The sensing checkpoint in `out`, and the controlling one sharing its
    encoder, or None when there is none."""
    sensing = koopman.load_checkpoint(out / "sensing.json")
    path = out / "controlling.json"
    if not path.exists():
        return sensing, None
    return sensing, koopman.load_checkpoint(path, encoder=sensing.encoder)


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
    ds = _dataset(cfg, args)
    sensing_path = out / "sensing.json"
    if not sensing_path.exists():
        raise experiments.ConfigError(
            f"{sensing_path} not found; run train-sensing first")
    sensing = koopman.load_checkpoint(sensing_path)
    model, result = experiments.train_controlling(cfg, sensing, ds)
    koopman.save_checkpoint(model, out / "controlling.json")
    _write_history(out / "controlling_history.json", result, cfg)
    print(f"controlling model: {result.epochs} epochs, "
          f"best val loss {result.best_val:.6g}; wrote {out}/controlling.json")
    return EXIT_OK


def cmd_eval_predict(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    ds = _dataset(cfg, args)
    sensing, controlling = _load_models(out)
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
    sensing, controlling = _load_models(out)
    gain_path = out / "gain.txt"
    if gain_path.exists():
        gain = np.atleast_2d(np.loadtxt(gain_path))
    else:
        gain = experiments.refresh_gain(sensing, cfg.control.r)
    result, summary = experiments.control_rollout(cfg, sensing, gain,
                                                  controlling)
    protocol.write_records(result.records, out / "loops.ndjson")
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
    snrs = _numbers(args.snr_db, float) if args.snr_db \
        else [-10.0, 0.0, 10.0, 20.0]
    dims = _numbers(args.latent_dim, int) if args.latent_dim else None
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
        _add_common(p)
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
    except experiments.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except experiments.RUN_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
