"""Trace digest of the command-line pipeline in four phase-2 settings.

Run from the repository root:

    PYTHONPATH=src python tests/tracedigest.py

Each setting runs `gen-data`, `train-sensing`, `train-controlling` and
`run-control` through `koopcontrol.cli.main` in a fresh directory on one
micro config: 3/1/1 trajectories of 4 s, 2 epochs of at most 20 batches,
a -10 dB link, process noise 1e-5 and a 400-loop rollout. The settings are
the defaults, `action_predict_mode` "advance", no controlling model (the
setting skips `train-controlling`, so `run-control` finds no
`controlling.json` and the actuator holds the last command through a
downlink loss) and `uplink_refresh` false.

The script prints, per setting, the sha256 of the bytes of `loops.ndjson`
followed by those of `control_summary.json`, then one digest over all four.
Every `loops.ndjson` line must parse as strict JSON: a NaN or Infinity
token makes the script fail.
A change that should keep the phase-2 trace prints the same digests as its
parent on the same machine. No digest is stored: the bits depend on the
BLAS, so only two runs on one host compare. The script calls nothing but
the CLI, so it runs unchanged on any version that has it. pytest does not
collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from koopcontrol import cli  # noqa: E402  (after the thread pins)

STAGES = ("gen-data", "train-sensing", "train-controlling", "run-control")
TRACE_FILES = ("loops.ndjson", "control_summary.json")

CONFIG = {
    "format": "koopcontrol-config-v1",
    "name": "tracedigest",
    "seed": 5,
    "data": {"n_train": 3, "n_val": 1, "n_test": 1, "duration_s": 4.0,
             "noise_var": 1e-5},
    "train": {"lr": 1e-3, "batch_size": 64, "max_epochs": 2, "patience": 8,
              "max_batches_per_epoch": 20},
    "link": {"snr_db": -10.0},
    "control": {"n_loops": 400},
}

# name -> (`control` settings on top of CONFIG's, the stages run)
SETTINGS = {
    "default": ({}, STAGES),
    "advance": ({"action_predict_mode": "advance"}, STAGES),
    "no-controlling": ({}, ("gen-data", "train-sensing", "run-control")),
    "no-uplink-refresh": ({"uplink_refresh": False}, STAGES),
}


def _refuse(token):
    raise ValueError(f"non-strict JSON token {token} in loops.ndjson")


def setting_digest(control, stages, out):
    """sha256 hex digest of the trace files one setting, running `stages`,
    leaves in `out`.
    Raises RuntimeError naming the stage when a stage exits nonzero, and
    ValueError when a `loops.ndjson` line holds NaN or Infinity."""
    config = dict(CONFIG, control={**CONFIG["control"], **control})
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config))
    for stage in stages:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([stage, "--config", str(config_path),
                             "--out-dir", str(out)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"{stage} exited {code}")
    for line in (out / "loops.ndjson").read_text().splitlines():
        json.loads(line, parse_constant=_refuse)
    h = hashlib.sha256()
    for name in TRACE_FILES:
        h.update((out / name).read_bytes())
    return h.hexdigest()


def main():
    t0 = time.perf_counter()
    total = hashlib.sha256()
    for name, (control, stages) in SETTINGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            digest = setting_digest(control, stages, Path(tmp))
        total.update(digest.encode())
        print(f"{digest}  {name}")
    print(f"digest {total.hexdigest()[:16]}  "
          f"({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
