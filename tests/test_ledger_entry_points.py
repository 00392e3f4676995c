"""Every name ``perf/trace.py`` wraps still exists under that name.

Tier-1 collects only ``tests/``, and the traced run replaces attributes by
name: a rename under ``src/`` would otherwise break ``perf/run.py --traced``
with nothing but the ``perf-smoke`` job to notice.
"""

import importlib

import pytest

from perf import trace

#: What ``Recorder.install`` replaces by hand, beside the three tables.
PATCHED_BY_HAND = (
    ("core.combined.scan", "repro.core.combined", "CombinedAutomaton", "scan"),
    ("core.reports.encode", "repro.core.reports", "MatchReport", "encode"),
    ("net.simulator.schedule", "repro.net.simulator", "Simulator", "schedule"),
    ("net.packet.wire_length", "repro.net.packet", "Packet", "wire_length"),
)
TARGETS = trace.CORE + trace.NET + trace.LOAD + PATCHED_BY_HAND


@pytest.mark.parametrize("target", TARGETS, ids=[target[0] for target in TARGETS])
def test_entry_point_resolves(target):
    _, module_name, class_name, attribute = target
    module = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(module, attribute))
        return
    owner = getattr(module, class_name)
    # The recorder reads the class's own dictionary: an inherited attribute
    # would not do.
    raw = owner.__dict__[attribute]
    if isinstance(raw, property):
        assert raw.fget is not None
    else:
        assert callable(getattr(owner, attribute))


def test_recorder_installs_and_restores_every_group():
    recorder = trace.Recorder()
    before = {target: _current(target) for target in TARGETS}
    recorder.install(trace.CORE, trace.NET, trace.LOAD)
    try:
        replaced = [target for target in TARGETS if _current(target) is not before[target]]
        assert len(replaced) == len(TARGETS)
    finally:
        recorder.uninstall()
    assert all(_current(target) is before[target] for target in TARGETS)


def _current(target):
    _, module_name, class_name, attribute = target
    module = importlib.import_module(module_name)
    if class_name is None:
        return getattr(module, attribute)
    return getattr(module, class_name).__dict__[attribute]
