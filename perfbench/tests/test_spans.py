import sys
import types

import numpy as np
import pytest

from spans import Tracer, self_times, summarize


class StepClock:
    """Deterministic clock: every reading advances time by one unit."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fakepkg(monkeypatch):
    """A package `fakepkg` with a module that calls itself and an alias module."""
    mod = types.ModuleType("fakepkg.mod")

    def leaf(v):
        return v + 1

    def outer(v):
        return mod.leaf(v) + mod.leaf(v)

    class Box:
        def grow(self, v):
            return mod.outer(v)

    def bad_result(v):
        return None

    mod.leaf, mod.outer, mod.Box, mod.bad_result = leaf, outer, Box, bad_result
    alias = types.ModuleType("fakepkg.alias")
    alias.leaf = leaf  # as left behind by `from .mod import leaf`
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    for name, m in (("fakepkg", pkg), ("fakepkg.mod", mod), ("fakepkg.alias", alias)):
        monkeypatch.setitem(sys.modules, name, m)
    return mod, alias


def node_counter(counters, args, kwargs, result):
    counters["sd_nodes"] += result.node_count


TARGETS = (
    ("outer", "mod", "outer", None),
    ("leaf", "mod", "leaf", None),
    ("box", "mod", "Box.grow", None),
    ("bad", "mod", "bad_result", node_counter),
    ("gone", "mod", "renamed_away", None),
    ("gone", "missing_module", "anything", None),
)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    duration, own = self_times(parent, start, end)
    np.testing.assert_allclose(duration, [10, 3, 1, 4])
    np.testing.assert_allclose(own, [3, 2, 1, 4])
    summary = summarize(np.array([0, 1, 1, 2]), parent, start, end, ["root", "a", "b"])
    assert summary["layers"]["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summary["self_sum_s"] == summary["root_s"] == 10.0


def test_tracer_records_nested_spans_and_adds_up(fakepkg):
    mod, alias = fakepkg
    originals = (mod.leaf, mod.outer, mod.Box.grow)
    tracer = Tracer(TARGETS, package="fakepkg", clock=StepClock()).install()
    assert alias.leaf is mod.leaf is not originals[0]

    def main():
        return mod.Box().grow(1) + alias.leaf(0)

    assert tracer.run(main) == 5
    tracer.uninstall()
    assert (mod.leaf, mod.outer, mod.Box.grow) == originals
    assert alias.leaf is originals[0]

    layers = tracer.summary()["layers"]
    assert {k: v["calls"] for k, v in layers.items()} == {
        "cli.main": 1, "outer": 1, "leaf": 3, "box": 1, "bad": 0, "gone": 0}
    # each span reads the clock twice, so a leaf lasts one unit
    assert layers["leaf"]["self_s"] == 3.0
    summary = tracer.summary()
    assert summary["self_sum_s"] == summary["root_s"]
    assert sum(v["self_s"] for v in layers.values()) == summary["root_s"]
    _, parent, _, _ = tracer.arrays()
    assert list(parent) == [-1, 0, 1, 2, 2, 0]


def test_missing_targets_are_absent_not_fatal(fakepkg):
    tracer = Tracer(TARGETS, package="fakepkg").install()
    assert tracer.absent == ["mod.renamed_away", "missing_module.anything"]
    tracer.uninstall()


def test_failing_counter_is_recorded_not_raised(fakepkg):
    mod, _ = fakepkg
    tracer = Tracer(TARGETS, package="fakepkg").install()
    assert tracer.run(mod.bad_result, 1) is None
    tracer.uninstall()
    assert tracer.counters["sd_nodes"] == 0
    assert len(tracer.counter_errors) == 1
    assert "node_counter" in tracer.counter_errors[0]


def test_exception_closes_the_span(fakepkg):
    mod, _ = fakepkg
    tracer = Tracer(TARGETS, package="fakepkg").install()
    with pytest.raises(TypeError):
        tracer.run(mod.leaf, "not a number")
    tracer.uninstall()
    summary = tracer.summary()
    assert summary["layers"]["leaf"]["calls"] == 1
    assert summary["self_sum_s"] == pytest.approx(summary["root_s"])


def test_tracing_the_real_layers_leaves_results_unchanged():
    from immimo import config, harness

    exp = config.parse_config(
        "seed = 5\nsweep.snr_db = 10\nsweep.detectors = sd, zf\n"
        "sweep.max_trials = 16\nsweep.min_bits = 10000\n")
    plain = harness.run_ber_sweep(exp)
    tracer = Tracer().install()
    try:
        traced = tracer.run(harness.run_ber_sweep, exp)
    finally:
        tracer.uninstall()
    assert [(r.bits, r.errors) for r in traced.rows] == [(r.bits, r.errors) for r in plain.rows]
    assert tracer.absent == []
    layers = tracer.summary()["layers"]
    assert layers["baselines.sphere_decode"]["calls"] == 16 * 14
    assert layers["baselines.linear_soft_batch"]["calls"] == 16
    assert tracer.counters["channels_drawn"] == 32
    assert tracer.counters["sd_nodes"] >= 16 * 14 * 8
