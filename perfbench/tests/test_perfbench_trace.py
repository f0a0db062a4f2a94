"""The traced run must leave the program exactly as it found it, and span
self times must exclude the time of child spans."""

import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import layers, tracing  # noqa: E402


def _bindings(patches):
    return [(p.owner, p.attr, vars(p.owner)[p.attr]) for p in patches]


def test_traced_run_restores_every_wrapped_function():
    patches = layers.patches()
    before = _bindings(patches)
    tracer = tracing.Tracer()
    with tracer.installed(patches):
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
    assert _bindings(patches) == before


def test_restore_happens_when_the_traced_block_raises():
    patches = layers.patches()
    before = _bindings(patches)
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed(patches):
            raise RuntimeError("boom")
    assert _bindings(patches) == before


def test_every_lookup_site_of_a_from_imported_name_is_wrapped():
    from koopcontrol import autodiff, koopman, neural, protocol
    sites = {(module, name): value
             for module in (koopman, neural, protocol)
             for name, value in vars(module).items()
             if inspect.isfunction(value)
             and getattr(autodiff, name, None) is value}
    assert (protocol, "backward") in sites and (koopman, "mse_rows") in sites
    with tracing.Tracer().installed(layers.patches()):
        for (module, name), original in sites.items():
            assert getattr(module, name).__wrapped__ is original, name
            assert getattr(autodiff, name).__wrapped__ is original, name


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    child = tracer.wrap(lambda: None, "child")

    def body():
        child()
        child()

    tracer.wrap(body, "parent")()
    summary = tracer.summary()
    # parent runs 0..10, its children 1..3 and 4..7
    assert summary["parent"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert summary["child"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert tracer.parent_name() is None
