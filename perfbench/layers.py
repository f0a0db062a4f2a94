"""What the traced run wraps, and how the per-layer metrics come out of it.

The table of which end-to-end metric each per-layer metric should move, and
on which workload, is in LAYERS.md next to this file.

Packets are told apart by size: with the benchmark's latent dimension of 4
only a downlink action packet carries a single scalar.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import koopcontrol
from koopcontrol import (autodiff, channel, control, datasets, dynamics,
                         experiments, koopman, neural, protocol)

from .tracing import Patch

DOWN_BITS = channel.payload_bits(dynamics.ACTION_DIM)
PHASE2 = "protocol.run_phase2_loop"


def autodiff_sites():
    """Every place an autodiff function is looked up from: the package and
    each of its modules, autodiff included, with the attributes that are
    (not merely equal to) a public autodiff function. A `from .autodiff
    import ...` added to any module is found here without a list to keep."""
    functions = {id(f) for name, f in vars(autodiff).items()
                 if inspect.isfunction(f) and f.__module__ == autodiff.__name__
                 and not name.startswith("_")}
    modules = [koopcontrol] + [
        importlib.import_module(f"{koopcontrol.__name__}.{info.name}")
        for info in pkgutil.iter_modules(koopcontrol.__path__)]
    return [(module, name) for module in modules
            for name, value in vars(module).items() if id(value) in functions]


def _step_plant(tr, args, kwargs, result, exc):
    if isinstance(exc, dynamics.IntegrationDivergedError):
        tr.counts["dynamics.diverged"] += 1


def _solve_dare(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["dare.iterations"] += result.iterations
    elif isinstance(exc, control.DareSolverError):
        tr.counts["dare.failed"] += 1
        tr.counts["dare.iterations"] += exc.iterations or 0


def _link(tr, args, kwargs, result, exc):
    if exc is not None:
        return
    bits = args[2] if len(args) > 2 else kwargs["bits"]
    way = "down" if bits == DOWN_BITS else "up"
    tr.counts[f"link.{way}.sent"] += 1
    tr.counts[f"link.{way}.delivered"] += int(result.delivered)
    if tr.parent_name() == PHASE2:
        if way == "up":
            tr.counts["phase2.loops"] += 1
        elif result.delivered:
            tr.counts["phase2.received"] += 1


def _predict_actions(tr, args, kwargs, result, exc):
    if exc is None and tr.parent_name() == PHASE2:
        tr.counts["phase2.predicted"] += 1


def _sensing_epoch(tr, args, kwargs, stats, exc):
    if exc is not None:
        return
    trainer = args[0]
    tr.counts["sensing.windows"] += min(trainer.train_states.shape[0],
                                        stats.batches * trainer.batch_size)
    tr.counts["sensing.windows_dropped"] += stats.windows_dropped
    tr.counts["sensing.packets_lost"] += stats.packets_lost


def patches():
    P = Patch
    return [
        P(dynamics, "step_plant", "dynamics.step_plant", _step_plant),
        P(datasets, "generate_dataset", "datasets.generate_dataset"),
        P(datasets, "extract_windows", "datasets.extract_windows"),
        P(channel, "transmit", "channel.transmit"),
        P(channel.FadingLink, "transmit", "channel.link", _link),
        P(channel.IdealLink, "transmit", "channel.link", _link),
        P(protocol, "handle_missing_state", "protocol.handle_missing_state"),
        P(protocol, "receive_action_stream", "protocol.receive_action_stream"),
        P(protocol, "run_phase2_loop", PHASE2),
        P(protocol.SensingTrainer, "run_epoch", "protocol.sensing_epoch",
          _sensing_epoch),
        P(protocol.SensingTrainer, "validation_loss", "protocol.validation"),
        P(protocol.ControllingTrainer, "run_epoch",
          "protocol.controlling_epoch"),
        P(protocol.ControllingTrainer, "validation_loss",
          "protocol.validation"),
        *[P(module, name,
            "autodiff.backward" if name == "backward" else "autodiff.ops")
          for module, name in autodiff_sites()],
        P(neural.Network, "forward", "neural.forward"),
        P(neural.Network, "predict", "neural.predict"),
        P(neural.Adam, "step", "neural.adam_step"),
        P(koopman, "total_sensing_loss", "koopman.sensing_loss"),
        P(koopman, "total_controlling_loss", "koopman.controlling_loss"),
        P(koopman, "predict_actions", "koopman.predict_actions",
          _predict_actions),
        P(koopman, "latent_step", "koopman.latent_step"),
        P(control, "solve_dare", "control.solve_dare", _solve_dare),
        P(experiments, "make_dataset", "experiments.datagen"),
        P(experiments, "train_sensing", "experiments.sensing"),
        P(experiments, "train_controlling", "experiments.controlling"),
        P(experiments, "evaluate_prediction", "experiments.eval"),
        P(experiments, "control_rollout", "experiments.rollout"),
    ]


def _share(num, den):
    return num / den if den else 0.0


def layer_metrics(setup, units):
    """Per-layer metrics for one set-up plus one unit of work.

    `setup` is the (span summary, counters) of the traced set-up, `units`
    one such pair per traced unit; unit figures are averaged over the
    units. Times are seconds unless the name ends in _us (microseconds per
    call, self time)."""
    n = len(units)

    def span(name, key):
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        return (setup[0].get(name, zero)[key]
                + sum(u[0].get(name, zero)[key] for u in units) / n)

    def count(key):
        return setup[1].get(key, 0) + sum(u[1].get(key, 0) for u in units) / n

    def self_us(name):
        return 1e6 * _share(span(name, "self_s"), span(name, "calls"))

    def per_call_s(name):
        return _share(span(name, "total_s"), span(name, "calls"))

    loops = count("phase2.loops")
    received, predicted = count("phase2.received"), count("phase2.predicted")
    return {
        "dynamics.step_plant.calls": span("dynamics.step_plant", "calls"),
        "dynamics.step_plant.self_us": self_us("dynamics.step_plant"),
        "dynamics.diverged": count("dynamics.diverged"),
        "datasets.generate_dataset.s": span("datasets.generate_dataset",
                                            "total_s"),
        "datasets.extract_windows.s": span("datasets.extract_windows",
                                           "total_s"),
        "channel.transmit.calls": span("channel.transmit", "calls"),
        "channel.transmit.self_us": self_us("channel.transmit"),
        "channel.up_delivered_frac": _share(count("link.up.delivered"),
                                            count("link.up.sent")),
        "channel.down_delivered_frac": _share(count("link.down.delivered"),
                                              count("link.down.sent")),
        "protocol.handle_missing_state.calls":
            span("protocol.handle_missing_state", "calls"),
        "protocol.handle_missing_state.s":
            span("protocol.handle_missing_state", "total_s"),
        "protocol.receive_action_stream.s":
            span("protocol.receive_action_stream", "total_s"),
        "protocol.windows_kept_frac":
            1.0 - _share(count("sensing.windows_dropped"),
                         count("sensing.windows")),
        "protocol.packets_lost": count("sensing.packets_lost"),
        "protocol.sensing_epoch_s": per_call_s("protocol.sensing_epoch"),
        "protocol.controlling_epoch_s":
            per_call_s("protocol.controlling_epoch"),
        "protocol.validation_s": span("protocol.validation", "total_s"),
        "autodiff.backward.calls": span("autodiff.backward", "calls"),
        "autodiff.backward.s": span("autodiff.backward", "total_s"),
        "autodiff.ops.calls": span("autodiff.ops", "calls"),
        "autodiff.ops.s": span("autodiff.ops", "self_s"),
        "neural.forward.s": span("neural.forward", "total_s"),
        "neural.adam_step.s": span("neural.adam_step", "total_s"),
        "koopman.sensing_loss.s": span("koopman.sensing_loss", "total_s"),
        "koopman.controlling_loss.s": span("koopman.controlling_loss",
                                           "total_s"),
        "neural.predict.calls": span("neural.predict", "calls"),
        "neural.predict.self_us": self_us("neural.predict"),
        "koopman.predict_actions.calls": span("koopman.predict_actions",
                                              "calls"),
        "koopman.predict_actions.self_us": self_us("koopman.predict_actions"),
        "koopman.latent_step.calls": span("koopman.latent_step", "calls"),
        "protocol.phase2.received_frac": _share(received, loops),
        "protocol.phase2.predicted_frac": _share(predicted, loops),
        "protocol.phase2.held_frac": _share(loops - received - predicted,
                                            loops),
        "control.solve_dare.calls": span("control.solve_dare", "calls"),
        "control.solve_dare.iterations": count("dare.iterations"),
        "control.solve_dare.s": span("control.solve_dare", "total_s"),
        "control.solve_dare.failed": count("dare.failed"),
        "experiments.datagen_s": span("experiments.datagen", "total_s"),
        "experiments.sensing_s": span("experiments.sensing", "total_s"),
        "experiments.controlling_s": span("experiments.controlling",
                                          "total_s"),
        "experiments.eval_s": span("experiments.eval", "total_s"),
        "experiments.rollout_s": span("experiments.rollout", "total_s"),
    }
