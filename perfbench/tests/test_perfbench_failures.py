"""A typed numerical error in a unit of work counts as a failed unit; it
neither stops the benchmark nor enters the time metrics."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from koopcontrol import experiments as ex  # noqa: E402
from perfbench import run, workloads  # noqa: E402


def _no_gain(cfg, dataset, *args, **kwargs):
    raise ex.PipelineError("no solvable gain")


class _Pipeline(workloads.TrainPipeline):
    """train_ideal over two cases whose set-up makes no dataset (the case
    index stands in for it), so training stops at once."""

    cases = 2

    def setup(self, seed, case):
        return workloads.TrainState(workloads._config(True), case, str(case))


def test_pipeline_error_before_the_rollout_is_a_failed_unit(monkeypatch):
    monkeypatch.setattr(ex, "train_sensing", _no_gain)
    pipeline = _Pipeline(ideal=True)
    res = pipeline.unit(pipeline.setup(0, 0))
    assert (res.attempted, res.failed) == (1, 1)
    assert res.periods == [] and not res.complete
    assert res.fingerprint[0] == "PipelineError"


def test_timed_run_counts_the_failed_unit_and_times_the_others(monkeypatch):
    monkeypatch.setattr(ex, "train_sensing", _no_gain)
    pipeline = _Pipeline(ideal=True)
    completed = workloads.UnitResult(
        seconds=1.0, periods=[workloads.np.array([1e-4, 2e-4])],
        attempted=1, failed=0)
    monkeypatch.setattr(
        _Pipeline, "unit",
        lambda self, state: (workloads.TrainPipeline.unit(self, state)
                             if state.dataset == 0 else completed))
    metrics, by_case, _, extra = run.timed_run(pipeline, 0, 0.0)
    units = [u for case in by_case for u in case]
    assert sum(u.failed for u in units) == len(by_case[0]) >= 1
    assert metrics["pipeline_s"] == 1.0
    assert extra["timed_cases"] == 1 and extra["inputs_repeat"]


def test_closed_loop_set_up_error_fails_every_episode(monkeypatch):
    monkeypatch.setattr(ex, "train_sensing", _no_gain)
    closed_loop = workloads.ClosedLoop()
    state = closed_loop.setup(0, 0)
    assert state.error == "PipelineError"
    res = closed_loop.unit(state)
    assert res.attempted == res.failed == workloads.EPISODES
    assert not res.complete and res.periods == []
