"""Experiment orchestration: configs, presets, the train/eval pipelines, and
sweep bookkeeping.

Everything downstream of the core modules lives here: generate a dataset
under the local-linearization controller, train the sensing model over the
uplink (refreshing the latent LQR gain after every epoch), train the
controlling model on the action stream the actuator actually received, then
score prediction NRMSE and closed-loop cost. A sweep is just this pipeline
over a (snr, latent_dim, seed) grid with CSV output.

Two presets ship: "paper" mirrors the full experimental scale (70/20/10
trajectories of 250 s, lr 1e-4), "desk" is the reduced scale the test suite
runs (20/5/5 of 25 s, lr 1e-3, capped batches per epoch). Scale is the only
thing the presets change; the pipeline is identical.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import channel, control, datasets, dynamics, koopman, metrics, protocol
from .datasets import DataSettings
from .protocol import TrainSettings

CONFIG_FORMAT = "koopcontrol-config-v1"

REPORT_FORMAT = "koopcontrol-report-v1"

# "gradient" seeds nothing; dropping it would shift every later stream
STREAM_NAMES = ("data", "sensing_init", "controlling_init", "uplink",
                "downlink", "gradient", "shuffle", "eval_uplink",
                "eval_downlink", "eval_plant")


class ConfigError(ValueError):
    """Malformed or unrecognized experiment configuration. The config
    sections raise ValueError; config_from_dict, which apply_overrides goes
    through too, turns it into ConfigError."""


class PipelineError(RuntimeError):
    """A training/evaluation stage failed in a way worth reporting upward."""


# what a run raises when it fails on its data or its numerics, as opposed
# to a configuration error or a bug
RUN_ERRORS = (PipelineError, control.DareSolverError, FloatingPointError,
              datasets.InsufficientDataError, datasets.DataGenerationError,
              metrics.UndefinedNormalizationError,
              dynamics.IntegrationDivergedError)


# ---------------------------------------------------------------------------
# configuration tree
# ---------------------------------------------------------------------------

@dataclass
class ModelSettings:
    latent_dim: int = 4
    depth: int = 1                     # prediction depth the losses train for
    encoder_hidden: tuple[int, ...] = koopman.DEFAULT_ENCODER_HIDDEN

    def __post_init__(self):
        self.encoder_hidden = tuple(int(w) for w in self.encoder_hidden)
        if min((self.latent_dim, self.depth, *self.encoder_hidden)) < 1:
            raise ValueError("latent_dim, depth and encoder_hidden widths "
                             "must be >= 1")


@dataclass
class LinkSettings:
    ideal: bool = False
    snr_db: float | None = None        # None keeps the stock link
    noise_model: str = "snr_scaled"

    def __post_init__(self):
        # checked even on an ideal link: a sweep may switch it to fading
        self.channel_config()

    def channel_config(self):
        """The fading-link configuration these settings describe."""
        return channel.ChannelConfig(snr_db=self.snr_db,
                                     noise_model=self.noise_model)


@dataclass
class EvalSettings:
    depth: int = 1                     # prediction depth scored by NRMSE
    anchor_stride: int = 10            # spacing between prediction anchors

    def __post_init__(self):
        for name in ("depth", "anchor_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class ExperimentConfig:
    name: str = "default"
    seed: int = 0
    data: DataSettings = field(default_factory=DataSettings)
    model: ModelSettings = field(default_factory=ModelSettings)
    train: TrainSettings = field(default_factory=TrainSettings)
    link: LinkSettings = field(default_factory=LinkSettings)
    control: protocol.Phase2Config = field(
        default_factory=protocol.Phase2Config)
    eval: EvalSettings = field(default_factory=EvalSettings)


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(
    ExperimentConfig) if f.default_factory is not dataclasses.MISSING}


def config_to_dict(cfg):
    out = {"format": CONFIG_FORMAT, "name": cfg.name, "seed": cfg.seed}
    for name in _SECTIONS:
        section = dataclasses.asdict(getattr(cfg, name))
        out[name] = {k: (list(v) if isinstance(v, tuple) else v)
                     for k, v in section.items()}
    return out


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# (description, check) of a config value of each annotated field type: a
# bool is only ever a bool, and a float field takes a finite int or float
_KINDS = {"bool": ("a bool", lambda v: isinstance(v, bool)),
          "int": ("an integer", _is_int),
          "float": ("a finite number", _is_float),
          "str": ("a string", lambda v: isinstance(v, str))}


def _expected(kind):
    """(description, check) of a value of the annotation `kind`;
    "tuple[int, ...]" is a list (or tuple) of ints, never a string."""
    if kind.startswith("tuple["):
        what, check = _expected(kind[len("tuple["):].partition(",")[0])
        return (f"a list of which each item is {what}",
                lambda v: isinstance(v, (list, tuple)) and all(map(check, v)))
    return _KINDS[kind]


def _check_field(cls, name, value, section=None):
    """`value` as field `name` of the section `cls` stores it, a whole
    number in a float field as a float. Raises ConfigError, naming the
    config key ("section.name", or "name" at the top level), unless it fits
    the field's annotation; an optional ("X | None") field takes null."""
    annotation = {f.name: f.type for f in dataclasses.fields(cls)}[name]
    kind, _, optional = annotation.partition(" | ")
    what, check = _expected(kind)
    if not (check(value) or optional and value is None):
        key = name if section is None else f"{section}.{name}"
        raise ConfigError(f"bad {key}: must be {what}"
                          f"{' or null' if optional else ''}, not {value!r}")
    return float(value) if kind == "float" and value is not None else value


# keys of the fixed radio, recipe, gradient downlink and rollout schedule,
# which configs saved while they were settable carry; they load at the
# fixed value only
_FIXED_KEYS = {"data": {"explore_std": datasets.EXPLORE_STD,
                        "max_retries": datasets.MAX_RETRIES},
               "model": {"schedule_mode": "special"},
               "train": {"min_delta": protocol.MIN_DELTA,
                         "impair_gradients": False},
               "link": {"distance": channel.DISTANCE, "eta": channel.ETA,
                        "bandwidth": channel.BANDWIDTH,
                        "tau_comp": channel.TAU_COMP},
               "control": {"q_x_diag": np.diag(control.Q_X).tolist()}}


def _is_fixed(value, fixed):
    """Whether `value` is `fixed` and of its kind (a list may be a tuple)."""
    if isinstance(fixed, list):
        return (isinstance(value, (list, tuple)) and len(value) == len(fixed)
                and all(map(_is_fixed, value, fixed)))
    return _KINDS[type(fixed).__name__][1](value) and value == fixed


def _build_section(section, payload):
    """The config section named `section` from its JSON mapping; errors
    name the section or the key within it."""
    cls = _SECTIONS[section]
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {section} must be a mapping")
    fixed = _FIXED_KEYS.get(section, {})
    for name, value in payload.items():
        if name in fixed and not _is_fixed(value, fixed[name]):
            raise ConfigError(f"bad {section}.{name}: fixed at "
                              f"{fixed[name]!r}, not {value!r}")
    payload = {k: v for k, v in payload.items() if k not in fixed}
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - fields
    if unknown:
        raise ConfigError("unknown config keys: "
                          f"{sorted(f'{section}.{k}' for k in unknown)}")
    payload = {name: _check_field(cls, name, value, section)
               for name, value in payload.items()}
    try:
        return cls(**payload)
    except (TypeError, ValueError, OverflowError) as exc:
        # a section's own check names the field it refuses first
        first = str(exc).partition(" ")[0]
        key = f"{section}.{first}" if first in fields else section
        raise ConfigError(f"bad {key}: {exc}") from exc


def _seed(value):
    """A master seed: a non-negative int, as numpy's SeedSequence needs."""
    value = _check_field(ExperimentConfig, "seed", value)
    if value < 0:
        raise ConfigError(f"seed must be non-negative, not {value!r}")
    return value


def config_from_dict(data):
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")
    fmt = data.get("format")
    if fmt != CONFIG_FORMAT:
        raise ConfigError(f"unsupported config format {fmt!r}")
    known = {"format", "name", "seed", *_SECTIONS}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = ExperimentConfig(
        name=_check_field(ExperimentConfig, "name",
                          data.get("name", "default")),
        seed=_seed(data.get("seed", 0)))
    for name in _SECTIONS:
        if name in data:
            setattr(cfg, name, _build_section(name, data[name]))
    return cfg


def save_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def desk_preset():
    """Reduced scale for iteration and the test suite."""
    cfg = ExperimentConfig(name="desk")
    cfg.data = DataSettings(n_train=20, n_val=5, n_test=5, duration_s=25.0)
    cfg.train = TrainSettings(lr=1e-3, batch_size=64, max_epochs=40,
                              patience=8, max_batches_per_epoch=150)
    return cfg


def paper_preset():
    """Full experimental scale; hours of compute, kept for completeness."""
    cfg = ExperimentConfig(name="paper")
    cfg.data = DataSettings(n_train=70, n_val=20, n_test=10,
                            duration_s=250.0)
    cfg.train = TrainSettings(lr=1e-4, batch_size=64, max_epochs=200,
                              patience=10)
    return cfg


PRESETS = {"desk": desk_preset, "paper": paper_preset}


def apply_overrides(cfg, seed=None, snr_db=None, latent_dim=None):
    """CLI-style point overrides; returns a modified copy. The overrides
    are applied to the config's dict and the copy is loaded from it, so an
    overridden value, and every value of `cfg`, is checked and stored as a
    config file's would be (ConfigError)."""
    data = config_to_dict(cfg)
    if seed is not None:
        data["seed"] = seed
    if snr_db is not None:
        data["link"].update(snr_db=snr_db, ideal=False)
    if latent_dim is not None:
        data["model"]["latent_dim"] = latent_dim
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# seed discipline
# ---------------------------------------------------------------------------

def seed_streams(seed):
    """Independent integer seeds, one per consumer, derived from the master
    seed. Fixed name order keeps every run reproducible even when a stage is
    skipped."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {name: int(child.generate_state(1)[0])
            for name, child in zip(STREAM_NAMES, children)}


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def build_baseline(cfg):
    """Controller linearized at the upright equilibrium, with the LQR
    action weight `control.r`; it excites the plant in data generation."""
    return control.build_jacobian_controller(cfg.control.r)


def make_dataset(cfg, streams=None):
    """The config's dataset; `streams` maps "data" to the generation seed
    and defaults to the config's seed streams."""
    streams = streams or seed_streams(cfg.seed)
    return datasets.generate_dataset(build_baseline(cfg), cfg.data,
                                     streams["data"])


def link_config(cfg):
    return cfg.link.channel_config()


def build_link(cfg, seed):
    if cfg.link.ideal:
        return channel.IdealLink()
    return channel.FadingLink(link_config(cfg), seed)


def refresh_gain(model, r):
    """Latent LQR gain from the current Koopman blocks and the projected
    trained cost matrix. Raises DareSolverError when the current blocks are
    not stabilizable; callers keep the previous gain in that case."""
    q_g = koopman.project_psd(model.cost.value)
    r_mat = np.eye(model.q) * float(r)
    sol = control.solve_dare(model.k11, model.k12, q_g, r_mat)
    return sol.gain


def train_sensing(cfg, dataset):
    """Phase-1 split training of the sensing model over the uplink.

    The LQR gain is refreshed from the current blocks after every epoch and
    kept at its last solvable value when a refresh fails, so the returned
    gain is that of the last epoch whose refresh succeeded; a failed
    refresh sets `gain_refresh_failed` on that epoch's stats. Returns
    (model, TrainingResult, gain, gain_history), one history entry per
    epoch."""
    streams = seed_streams(cfg.seed)
    rng = np.random.default_rng(streams["sensing_init"])
    model = koopman.SensingModel.build(
        p=dynamics.STATE_DIM, d=cfg.model.latent_dim, q=dynamics.ACTION_DIM,
        rng=rng, encoder_hidden=cfg.model.encoder_hidden)
    train_w = datasets.extract_windows(dataset.train, cfg.model.depth)
    val_w = datasets.extract_windows(dataset.val, cfg.model.depth)
    uplink = None if cfg.link.ideal else build_link(cfg, streams["uplink"])
    trainer = protocol.SensingTrainer(model, train_w, val_w, cfg.train,
                                      streams["shuffle"], uplink=uplink)

    gains = []

    def _hook(stats):
        try:
            gains.append(refresh_gain(model, cfg.control.r))
        except control.DareSolverError:
            stats.gain_refresh_failed = True
            gains.append(gains[-1] if gains else None)  # last solvable one

    result = protocol.fit_with_early_stopping(trainer, on_epoch=_hook)
    if not gains or gains[-1] is None:
        raise PipelineError("no solvable latent LQR gain at any epoch")
    return model, result, gains[-1], gains


def train_controlling(cfg, sensing, dataset):
    """Phase-1 training of the controlling model on the action stream as the
    actuator received it over the downlink. Returns (model, TrainingResult)."""
    streams = seed_streams(cfg.seed)
    rng = np.random.default_rng(streams["controlling_init"])
    model = koopman.ControllingModel.build(sensing, rng)
    downlink = build_link(cfg, streams["downlink"])
    recv_train = protocol.receive_action_stream(dataset.train, downlink)
    recv_val = protocol.receive_action_stream(dataset.val, downlink)
    train_w = protocol.controlling_windows(recv_train, cfg.model.depth)
    val_w = protocol.controlling_windows(recv_val, cfg.model.depth)
    trainer = protocol.ControllingTrainer(model, train_w, val_w, cfg.train,
                                          streams["shuffle"])
    return model, protocol.fit_with_early_stopping(trainer)


def evaluate_prediction(cfg, sensing, controlling, trajectories):
    """Pooled state/action prediction NRMSE over anchored windows.

    The anchors are the windows extract_windows cuts at depth
    `cfg.eval.depth` and stride `cfg.eval.anchor_stride`. From each anchor
    y_m the state path is predicted `cfg.eval.depth` steps with the
    recorded controls, and the action path with the recorded latents; all
    anchors are predicted as one stack, and the rows are pooled anchor by
    anchor and step by step before the NRMSE normalization. Evaluation sees
    clean signals; the channel degrades training, not scoring. `anchors`
    counts the anchors scored; InsufficientDataError when none fits."""
    depth = cfg.eval.depth
    states, actions = datasets.extract_windows(trajectories, depth,
                                               cfg.eval.anchor_stride)
    # the anchors as one stack with the bits of one anchor at a time: each
    # window encoded as its own (depth, p) product, which serves both
    # paths, and each step and decode its own row product
    lats = sensing.encode(states[:, :depth])
    lat, u = lats[:, 0], actions[:, 0]
    s_steps, a_steps = [], []
    for j in range(depth):
        lat = koopman.latent_step(sensing, lat, actions[:, j])
        y = np.concatenate([lat, actions[:, j + 1]], axis=1)
        s_steps.append(sensing.decode(y[:, None, :])[:, 0, :])
        if controlling is not None:
            u = koopman.action_step(controlling, lats[:, j], u)
            a_steps.append(u)
    out = {"state_nrmse": _nrmse_rows(s_steps, states[:, 1:]),
           "action_nrmse": None, "depth": depth, "anchors": len(states)}
    if controlling is not None:
        out["action_nrmse"] = _nrmse_rows(a_steps, actions[:, 1:])
    return out


def _nrmse_rows(steps, observed):
    """NRMSE of the per-step (K, n) predictions `steps` against the
    (K, depth, n) observed windows, over rows anchor by anchor and step by
    step."""
    n = observed.shape[2]
    return metrics.nrmse(np.stack(steps, axis=1).reshape(-1, n),
                         observed.reshape(-1, n))


def control_rollout(cfg, sensing, gain, controlling=None, uplink=None,
                    downlink=None):
    """Phase-2 closed loop; returns (Phase2Result, summary dict)."""
    builds = uplink is None or downlink is None or cfg.data.noise_var > 0.0
    streams = seed_streams(cfg.seed) if builds else None
    if uplink is None:
        uplink = build_link(cfg, streams["eval_uplink"])
    if downlink is None:
        downlink = build_link(cfg, streams["eval_downlink"])
    plant_rng = None
    if cfg.data.noise_var > 0.0:
        plant_rng = np.random.default_rng(streams["eval_plant"])
    result = protocol.run_phase2_loop(
        sensing, gain, controlling, uplink, downlink, cfg.control,
        noise_var=cfg.data.noise_var, plant_rng=plant_rng)
    down_flags = [r.downlink_delivered for r in result.records]
    summary = {
        "msce": metrics.msce(result.states[1:]),
        "m_lost": metrics.consecutive_lost(down_flags),
        "final_state_norm": float(np.linalg.norm(result.states[-1])),
    }
    return result, summary


def run_experiment(cfg, with_control=True):
    """Dataset -> sensing -> controlling -> NRMSE (-> closed loop).

    Returns a flat summary dict, JSON-ready."""
    t0 = time.perf_counter()
    dataset = make_dataset(cfg)
    sensing, sens_result, gain, _ = train_sensing(cfg, dataset)
    controlling, ctrl_result = train_controlling(cfg, sensing, dataset)
    pred = evaluate_prediction(cfg, sensing, controlling, dataset.test)
    summary = {
        "experiment": cfg.name,
        "seed": cfg.seed,
        "snr_db": cfg.link.snr_db,
        "latent_dim": cfg.model.latent_dim,
        "n_train": cfg.data.n_train,
        "state_nrmse": pred["state_nrmse"],
        "action_nrmse": pred["action_nrmse"],
        "epochs": sens_result.epochs + ctrl_result.epochs,
        "sensing_val_loss": sens_result.best_val,
        "controlling_val_loss": ctrl_result.best_val,
        "msce": None,
        "m_lost": None,
    }
    if with_control:
        _, ctl = control_rollout(cfg, sensing, gain, controlling)
        summary["msce"] = ctl["msce"]
        summary["m_lost"] = ctl["m_lost"]
    summary["train_s"] = time.perf_counter() - t0
    return summary


# ---------------------------------------------------------------------------
# sweeps and reports
# ---------------------------------------------------------------------------

@dataclass
class ResultRow:
    """One sweep cell; its fields, in order, are the sweep CSV's columns."""
    experiment: str
    seed: int
    snr_db: float | None
    latent_dim: int
    n_train: int
    state_nrmse: float
    action_nrmse: float
    msce: float | None
    m_lost: int | None
    epochs: int
    train_s: float


SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))


def _parse_cell(f, text):
    """One CSV cell as the type its ResultRow field is annotated with; a
    blank or "None" cell is None in an optional (`| None`) number field."""
    kind, _, optional = f.type.partition(" | ")
    if kind != "str" and text in ("", "None", None):
        if optional:
            return None
        raise ConfigError(f"blank {f.name} cell")
    try:
        return {"str": str, "int": int, "float": float}[kind](text)
    except ValueError as exc:
        raise ConfigError(f"bad {f.name} cell: {exc}") from exc


def write_rows(rows, path):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [SWEEP_COLUMNS, *map(dataclasses.astuple, rows)])


def read_rows(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != SWEEP_COLUMNS:
            raise ConfigError(f"unrecognized sweep CSV header in {path}")
        for rec in reader:
            rows.append(ResultRow(**{f.name: _parse_cell(f, rec[f.name])
                                     for f in dataclasses.fields(ResultRow)}))
    return rows


def run_sweep(base_cfg, snr_values, seeds, latent_dims=None, out_csv=None,
              with_control=False, on_cell=None):
    """Train+evaluate over the (snr, latent_dim, seed) grid.

    Every cell's config is built first, so a grid value the config refuses
    raises ConfigError before any cell runs. Cells that fail on their data
    or their numerics go to a `<out_csv>.errors.csv` sidecar, which exists
    only when some cell failed, and the sweep keeps going; any other error,
    a programming error among them, propagates. Returns the completed
    ResultRows."""
    latent_dims = latent_dims or [base_cfg.model.latent_dim]
    cells = [(f"snr={snr} d={d} seed={seed}",
              apply_overrides(base_cfg, seed=seed, snr_db=snr, latent_dim=d))
             for snr in snr_values for d in latent_dims for seed in seeds]
    rows, errors = [], []
    for cell, cfg in cells:
        try:
            summary = run_experiment(cfg, with_control=with_control)
        except RUN_ERRORS as exc:
            errors.append((cell, f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(ResultRow(**{k: summary.get(k) for k in SWEEP_COLUMNS}))
        if on_cell is not None:
            on_cell(rows[-1])
    if out_csv is not None:
        write_rows(rows, out_csv)
        errors_csv = Path(str(out_csv) + ".errors.csv")
        errors_csv.unlink(missing_ok=True)   # a sidecar left by an earlier sweep
        if errors:
            with open(errors_csv, "w", newline="") as fh:
                csv.writer(fh).writerows([("cell", "error"), *errors])
    return rows


def report(rows, metric="state_nrmse"):
    """Plot-ready JSON structure: one series per latent dimension, mean
    metric over seeds at each SNR point."""
    series = {}
    for row in rows:
        key = row.latent_dim
        series.setdefault(key, {}).setdefault(row.snr_db, []).append(
            getattr(row, metric))
    out = {"format": REPORT_FORMAT, "metric": metric, "series": []}
    for d in sorted(series):
        pts = sorted(series[d].items(),
                     key=lambda kv: (kv[0] is None, kv[0]))
        out["series"].append({
            "label": f"d={d}",
            "latent_dim": d,
            "snr_db": [p[0] for p in pts],
            "mean": [float(np.mean(p[1])) for p in pts],
            "n": [len(p[1]) for p in pts],
        })
    return out
