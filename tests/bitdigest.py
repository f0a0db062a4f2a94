"""Bit digest of the pipeline over twelve small configs.

Run from the repository root:

    PYTHONPATH=src python tests/bitdigest.py

Each config generates a dataset, trains the sensing and controlling models,
scores prediction NRMSE and runs a 200-loop phase-2 rollout. The hash of a
config covers the trained parameters, every epoch's gain, the training and
validation losses, the NRMSE scores and the rollout's states, commands and
loop records; a stage that stops on a run error hashes the error instead.
The twelve configs cross an ideal link, 0 dB and -10 dB; prediction depth
1 and depth 3; and process noise 0 with `hold` action prediction against
1e-4 with `advance`.

The script prints one line per config and the digest of all of them last.
A config's line also holds an 8-hex sha256 per stage, each hashed on its
own: `data` (the dataset arrays, which the config hash leaves out),
`sensing` (trained parameters and loss history), `gains` (every epoch's),
`controlling` (trained parameters and loss history), `scores` and
`rollout`. A stage stopped by a run error shows the error's name and the
stages after it show "-". So a line says which stages a change moved. The
data feeds every stage, the sensing model every later one, the gains only
the rollout, and the controlling model the scores and the rollout: a
change to the phase-2 loop alone moves only `rollout`, and one to the
latent gain solve moves `gains` and `rollout`.

A change that should keep every bit prints the same digest as its parent on
the same machine. No digest is stored: the bits depend on the BLAS, so only
two runs on one host compare. pytest does not collect this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread pins)

from koopcontrol import datasets, experiments as ex  # noqa: E402

N_LOOPS = 200
STAGES = ("data", "sensing", "gains", "controlling", "scores", "rollout")

# name -> link settings changes
LINKS = {
    "ideal": {"ideal": True},
    "0dB": {"snr_db": 0.0},
    "-10dB": {"snr_db": -10.0},
}
# name -> (prediction depth, eval anchor stride)
MODELS = {
    "d1": (1, 10),
    "d3": (3, 3),
}
# name -> (process noise variance, action predict mode)
PHASE2 = {
    "nv0-hold": (0.0, "hold"),
    "nv1e-4-advance": (1e-4, "advance"),
}


def configs():
    """(name, config) of each of the twelve digest configs."""
    base = ex.desk_preset()
    for link_name, link in LINKS.items():
        for model_name, (depth, stride) in MODELS.items():
            for p2_name, (noise_var, predict_mode) in PHASE2.items():
                yield f"{link_name}/{model_name}/{p2_name}", \
                    dataclasses.replace(
                        base, name="bitdigest", seed=5,
                        data=dataclasses.replace(
                            base.data, n_train=3, n_val=1, n_test=1,
                            duration_s=4.0, noise_var=noise_var),
                        model=dataclasses.replace(base.model, depth=depth),
                        train=dataclasses.replace(
                            base.train, max_epochs=2,
                            max_batches_per_epoch=20),
                        link=dataclasses.replace(base.link, **link),
                        control=dataclasses.replace(
                            base.control, n_loops=N_LOOPS,
                            action_predict_mode=predict_mode),
                        eval=ex.EvalSettings(depth=depth,
                                             anchor_stride=stride))


def _update(h, *items):
    for item in items:
        if isinstance(item, str):
            h.update(item.encode())
        else:
            h.update(np.ascontiguousarray(item, dtype=np.float64).tobytes())


def _history(result):
    return [(s.train_loss, s.val_loss) for s in result.history]


def config_digest(cfg):
    """(sha256 hex digest of one config's pipeline outputs, the name of the
    run error that stopped it or "ok", {stage: its own 8-hex digest, the
    name of the error that stopped it, or None when it did not run})."""
    h = hashlib.sha256()
    stages = dict.fromkeys(STAGES)

    def done(stage, *items):
        s = hashlib.sha256()
        _update(s, *items)
        stages[stage] = s.hexdigest()[:8]
        if stage != "data":
            _update(h, *items)

    try:
        dataset = ex.make_dataset(cfg)
        done("data", *[a for split in datasets.SPLITS
                       for traj in dataset.split(split)
                       for a in (traj.states, traj.actions)])
        sensing, s_res, gain, gains = ex.train_sensing(cfg, dataset)
        done("sensing", *[p.value for p in sensing.parameters()],
             _history(s_res))
        done("gains", *[np.nan if g is None else g for g in gains])
        controlling, c_res = ex.train_controlling(cfg, sensing, dataset)
        done("controlling", *[p.value for p in controlling.local_parameters()],
             _history(c_res))
        scores = ex.evaluate_prediction(cfg, sensing, controlling,
                                        dataset.test)
        done("scores", [scores["state_nrmse"], scores["action_nrmse"]])
        res, _ = ex.control_rollout(cfg, sensing, gain, controlling)
        done("rollout", res.states, res.commands, res.applied,
             *[f"{r.state_source} {r.state_depth} {r.action_source} "
               f"{r.action_depth};" for r in res.records])
    except ex.RUN_ERRORS as exc:
        _update(h, f"{type(exc).__name__}: {exc}")
        # the first stage with no digest is the one the error stopped
        stopped = next(k for k, v in stages.items() if v is None)
        stages[stopped] = type(exc).__name__
        return h.hexdigest(), type(exc).__name__, stages
    return h.hexdigest(), "ok", stages


def main():
    t0 = time.perf_counter()
    total = hashlib.sha256()
    for name, cfg in configs():
        digest, outcome, stages = config_digest(cfg)
        total.update(digest.encode())
        print(f"{digest[:16]}  {name}  {outcome}  "
              + " ".join(f"{k}={v or '-'}" for k, v in stages.items()))
    print(f"digest {total.hexdigest()[:16]}  "
          f"({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
