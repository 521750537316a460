"""In-memory span tracer that wraps the layers' public functions from outside.

A traced job replaces module attributes (and class attributes, for methods)
with wrappers that record one span per call: layer id, start, end and the
index of the enclosing span.  Nothing in ``src/`` is edited.  A target that
no longer exists (renamed or deleted later) is reported as an absent layer
instead of failing the run.

Self time of a span is its duration minus the durations of its direct child
spans, so the self times of all spans, the root included, add up exactly to
the root span's duration.  The root's own self time is the untraced
remainder: time spent in code that no wrapped function covers.
"""

import importlib
import sys
import time
from array import array

import numpy as np

ROOT_LAYER = "cli.main"


# --- counters taken from the wrapped calls' arguments and results ----------

def _count_channels(counters, args, kwargs, result):
    counters["channels_drawn"] += 1


def _count_sd_nodes(counters, args, kwargs, result):
    counters["sd_nodes"] += int(result.node_count)


def _count_pulses(counters, args, kwargs, result):
    counters["pulses"] += int(result.pulse_counts.sum())
    counters["sim_latency_s"] += float(result.total_latency)


def _vectors(y):
    return int(np.prod(np.shape(y)[:-1], dtype=np.int64))


def _count_hw_vectors(counters, args, kwargs, result):
    # HardwareDetector.forward(self, crossbar_h, y)
    y = kwargs["y"] if "y" in kwargs else args[2]
    counters["hw_vectors"] += _vectors(y)


def _count_ideal_vectors(counters, args, kwargs, result):
    # detnet.ideal_forward(params, h_real, y)
    y = kwargs["y"] if "y" in kwargs else args[2]
    counters["ideal_vectors"] += _vectors(y)


# (layer name, module under immimo, attribute path, counter or None).  Several
# targets may share one layer; their spans are summed under that layer.
TARGETS = (
    ("harness.run_ber_sweep", "harness", "run_ber_sweep", None),
    ("mimo.draw", "mimo", "generate_channel", _count_channels),
    ("mimo.draw", "mimo", "to_real", None),
    ("mimo.draw", "mimo", "random_bits", None),
    ("mimo.draw", "mimo", "modulate", None),
    ("mimo.draw", "mimo", "transmit", None),
    ("mimo.demodulate", "mimo", "demodulate", None),
    ("mimo.decide_rails", "mimo", "decide_rails", None),
    ("baselines.sphere_decode", "baselines", "sphere_decode", _count_sd_nodes),
    ("baselines.ml_detect_batch", "baselines", "ml_detect_batch", None),
    ("baselines.linear_soft_batch", "baselines", "linear_soft_batch", None),
    ("device.program_matrix", "device", "program_matrix", _count_pulses),
    ("crossbar.HardwareDetector.forward", "crossbar", "HardwareDetector.forward",
     _count_hw_vectors),
    ("crossbar.HardwareDetector.program_channel", "crossbar",
     "HardwareDetector.program_channel", None),
    ("crossbar.HardwareDetector.init", "crossbar", "HardwareDetector.__init__", None),
    ("detnet.ideal_forward", "detnet", "ideal_forward", _count_ideal_vectors),
    ("detnet.backward", "detnet", "backward", None),
    ("detnet.loss", "detnet", "loss", None),
    ("training.draw_batch", "training", "draw_batch", None),
    ("training.Adam.step", "training", "Adam.step", None),
    ("training.train", "training", "train", None),
    ("config.load_config", "config", "load_config", None),
    ("training.load_params", "training", "load_params", None),
    ("training.save_params", "training", "save_params", None),
)

COUNTERS = ("channels_drawn", "sd_nodes", "pulses", "sim_latency_s",
            "hw_vectors", "ideal_vectors")


def layer_names(targets=TARGETS):
    names = [ROOT_LAYER]
    for layer, *_ in targets:
        if layer not in names:
            names.append(layer)
    return names


class Tracer:
    """Records spans for the calls of patched functions, in memory."""

    def __init__(self, targets=TARGETS, package="immimo", clock=time.perf_counter):
        self.targets = targets
        self.package = package
        self.clock = clock
        self.layers = layer_names(targets)
        self.layer_id = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.counter_errors = []
        self.absent = []  # "module.attr" targets that could not be found
        self._undo = []

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every target that exists; record the rest as absent."""
        for layer, module_name, attr_path, counter in self.targets:
            full = f"{module_name}.{attr_path}"
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                self.absent.append(full)
                continue
            *owner_path, attr = attr_path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(full)
                continue
            wrapper = self._wrap(original, self.layer_id[layer], counter)
            self._set(owner, attr, original, wrapper)
            if not owner_path:
                # `from .module import name` copies made before patching
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if other is not module and name.startswith(self.package) \
                            and getattr(other, attr, None) is original:
                        self._set(other, attr, original, wrapper)
        return self

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn, layer, counter):
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, clock, counters = self._stack, self.clock, self.counters
        errors = self.counter_errors

        def traced(*args, **kwargs):
            idx = len(span_layer)
            span_layer.append(layer)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if counter is not None:
                try:
                    counter(counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    errors.append(f"{counter.__name__}: {exc!r}")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def run(self, fn, *args, **kwargs):
        """Call fn inside the root span; returns fn's result."""
        return self._wrap(fn, self.layer_id[ROOT_LAYER], None)(*args, **kwargs)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.span_layer, dtype=np.int32).copy(),
                np.frombuffer(self.span_parent, dtype=np.int64).copy(),
                np.frombuffer(self.span_start, dtype=np.float64).copy(),
                np.frombuffer(self.span_end, dtype=np.float64).copy())

    def summary(self):
        return summarize(*self.arrays(), self.layers)

    def save(self, path):
        layer, parent, start, end = self.arrays()
        np.savez_compressed(path, layer=layer, parent=parent, start=start, end=end,
                            layers=np.array(self.layers))


def self_times(parent, start, end):
    """Per-span self time: duration minus the durations of direct children."""
    duration = end - start
    child = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration, duration - child


def summarize(layer, parent, start, end, layers):
    """Per-layer calls, total and self seconds, plus the root's span duration."""
    duration, own = self_times(parent, start, end)
    n = len(layers)
    calls = np.bincount(layer, minlength=n)
    total = np.bincount(layer, weights=duration, minlength=n)
    self_s = np.bincount(layer, weights=own, minlength=n)
    roots = np.flatnonzero(parent < 0)
    return {
        "layers": {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_s[i])}
            for i, name in enumerate(layers)
        },
        "root_s": float(duration[roots].sum()),
        "self_sum_s": float(own.sum()),
    }
