"""Flat key-value experiment configuration.

Config files are UTF-8 text, one `section.key = value` pair per line.  Blank
lines and comment lines, whose first non-blank character is `#`, are ignored;
a `#` anywhere else is part of the value, so paths such as `runs/a#1` keep it.
Unknown keys are rejected with a line diagnostic so typos cannot silently fall
back to defaults.

Each key is stated once, as a row of `_SCHEMA` that drives the parse, the
build of the sections and `config_echo`.  parse_config is the one gate of a
run's inputs: every check, mode-dependent ones included, runs there.

Example::

    mode = eval-ber
    seed = 1
    mimo.n_t = 4
    mimo.n_r = 6
    mimo.modulation = qpsk
    mimo.l = 10
    mimo.s = 64
    device.preset = luo2022
    sweep.snr_db = 6, 8, 10
    sweep.gammas = 0, 0.02
    sweep.detectors = zf, mmse, ml
    sweep.min_bits = 10000

Device parameters may be given explicitly (device.g_on_us, device.g_off_us,
device.n_p, device.gamma, device.dt_w_ns); explicit keys override the preset.
"""

import math
from dataclasses import dataclass, field
from functools import partial

from . import baselines
from . import device as dev
from . import mimo
from . import training

MODES = ("train", "eval-ber", "bounds", "latency", "complexity", "flops", "program-sim")

KNOWN_DETECTORS = ("zf", "mmse", "ml", "sd", "detnet", "detnet-hw")
# the only detector whose output depends on the programming-noise level gamma
HW_DETECTOR = "detnet-hw"

# BER points reported from fewer bits than this are statistically meaningless
MIN_BITS_FLOOR = 10_000


class ConfigError(Exception):
    """Malformed or inconsistent experiment configuration."""


# The lowest SNR a run accepts.  Far below it the noise swamps the signal so
# completely that metric differences fall below float64 resolution: sd and ml
# then break ties differently (from about -210 dB), and the deep lanes' float32
# inputs overflow to inf as the noise std nears float32's largest value (at
# about -770 dB).
SNR_FLOOR_DB = -100.0


def _check_snr(key, snrs_db):
    """Reject an SNR below SNR_FLOOR_DB."""
    low = min(snrs_db)
    if low < SNR_FLOOR_DB:
        raise ConfigError(f"{key}: SNR {low!r} dB is below the floor of {SNR_FLOOR_DB:g} dB")


@dataclass
class SweepConfig:
    snr_db: list = field(default_factory=lambda: [6.0, 8.0, 10.0])
    gammas: list = field(default_factory=lambda: [0.0])
    detectors: list = field(default_factory=lambda: ["zf", "mmse"])
    min_bits: int = MIN_BITS_FLOOR
    min_errors: int = 100
    max_trials: int = 100_000
    symbols_per_slot: int = 14  # symbol vectors detected per channel slot

    def validate(self):
        if not (self.snr_db and self.gammas and self.detectors):
            raise ConfigError(
                "sweep.snr_db, sweep.gammas and sweep.detectors must be nonempty")
        if self.min_bits < MIN_BITS_FLOOR:
            raise ConfigError(f"sweep.min_bits must be >= {MIN_BITS_FLOOR}")
        if self.symbols_per_slot < 1 or self.max_trials < 1:
            raise ConfigError("sweep counts must be >= 1")
        if self.min_errors < 0:
            raise ConfigError("sweep.min_errors must be >= 0")
        _check_snr("sweep.snr_db", self.snr_db)
        # a repeated grid value would emit two rows under one ber.csv key
        for key in ("snr_db", "gammas", "detectors"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ConfigError(f"sweep.{key} lists a value more than once")
        unknown = [d for d in self.detectors if d not in KNOWN_DETECTORS]
        if unknown:
            raise ConfigError(
                f"sweep.detectors: unknown {', '.join(unknown)}; known: "
                f"{', '.join(KNOWN_DETECTORS)}")
        # only detnet-hw reads gamma; other detectors report one row at each
        if HW_DETECTOR in self.detectors:
            for gamma in self.gammas:
                try:
                    dev.check_gamma(gamma)
                except ValueError as exc:
                    raise ConfigError(f"sweep.gammas: {exc}") from exc


@dataclass
class BoundsConfig:
    varpi1: float = 0.05
    varpi2: float = 0.05
    sigma_n: float = mimo.sigma_from_snr(10.0)

    def validate(self):
        # the varpis are maxima of strictly positive step gains
        for key in ("varpi1", "varpi2"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"bounds.{key} must be > 0")
        if self.sigma_n < 0:
            raise ConfigError("bounds.sigma_n must be >= 0")


@dataclass
class LatencyConfig:
    t_array_ns: float = 1.0
    t_adder_ns: float = 1.0
    t_relu_ns: float = 1.0
    trials: int = 20

    def validate(self):
        if self.trials < 1:
            raise ConfigError("latency.trials must be >= 1")
        for key in ("t_array_ns", "t_adder_ns", "t_relu_ns"):
            if getattr(self, key) < 0:
                raise ConfigError(f"latency.{key} must be >= 0")


@dataclass
class ExperimentConfig:
    mimo: mimo.MimoConfig
    device: dev.DeviceSpec
    train: training.TrainConfig
    sweep: SweepConfig
    bounds: BoundsConfig
    latency: LatencyConfig
    seed: int = 0
    mode: str = "eval-ber"
    params_path: str | None = None


def _parse_scalar(key, raw, kind):
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind.__name__}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {raw!r} is not a finite number")
    return value


# key -> (target section, attribute, parser kind); a (list, kind) pair parses a
# comma-separated list.  Rows are in config_echo's order.
_SCHEMA = {
    "mode": ("root", "mode", str),
    "seed": ("root", "seed", int),
    "mimo.n_t": ("mimo", "n_t", int),
    "mimo.n_r": ("mimo", "n_r", int),
    "mimo.modulation": ("mimo", "modulation", str),
    "mimo.l": ("mimo", "L", int),
    "mimo.s": ("mimo", "S", int),
    "mimo.a_size": ("mimo", "a_size", int),
    "device.preset": ("device", "name", str),
    "device.g_on_us": ("device", "g_on_us", float),
    "device.g_off_us": ("device", "g_off_us", float),
    "device.n_p": ("device", "n_p", int),
    "device.gamma": ("device", "gamma", float),
    "device.dt_w_ns": ("device", "dt_w_ns", float),
    "train.epochs": ("train", "epochs", int),
    "train.batch_size": ("train", "batch_size", int),
    "train.lr": ("train", "lr", float),
    "train.snr_low_db": ("train", "snr_low_db", float),
    "train.snr_high_db": ("train", "snr_high_db", float),
    "train.gamma": ("train", "gamma_train", float),
    "train.weighting": ("train", "loss_weighting", str),
    "sweep.snr_db": ("sweep", "snr_db", (list, float)),
    "sweep.gammas": ("sweep", "gammas", (list, float)),
    "sweep.detectors": ("sweep", "detectors", (list, str)),
    "sweep.min_bits": ("sweep", "min_bits", int),
    "sweep.min_errors": ("sweep", "min_errors", int),
    "sweep.max_trials": ("sweep", "max_trials", int),
    "sweep.symbols_per_slot": ("sweep", "symbols_per_slot", int),
    "bounds.varpi1": ("bounds", "varpi1", float),
    "bounds.varpi2": ("bounds", "varpi2", float),
    "bounds.sigma_n": ("bounds", "sigma_n", float),
    "latency.t_array_ns": ("latency", "t_array_ns", float),
    "latency.t_adder_ns": ("latency", "t_adder_ns", float),
    "latency.t_relu_ns": ("latency", "t_relu_ns", float),
    "latency.trials": ("latency", "trials", int),
    "eval.params": ("root", "params_path", str),
}


def _parse_value(key, raw):
    kind = _SCHEMA[key][2]
    if isinstance(kind, tuple):
        return [_parse_scalar(key, s.strip(), kind[1]) for s in raw.split(",") if s.strip()]
    return _parse_scalar(key, raw, kind)


def parse_config(text, overrides=None):
    """Parse config text into an ExperimentConfig; strict about keys.

    `overrides` maps keys to raw value text, as on a config line; each
    replaces the file's value, if any, before the config is built.
    """
    sections = {section: {} for section, _, _ in _SCHEMA.values()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, attr, _ = _SCHEMA[key]
        if attr in sections[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[section][attr] = _parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        section, attr, _ = _SCHEMA[key]
        sections[section][attr] = _parse_value(key, raw)
    return build_config(sections)


def load_config(path, overrides=None):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


# section -> builder from that section's keyword values
_BUILDERS = {
    "mimo": partial(mimo.MimoConfig, n_t=4, n_r=6),
    "device": dev.device_preset,
    "train": training.TrainConfig,
    "sweep": SweepConfig,
    "bounds": BoundsConfig,
    "latency": LatencyConfig,
}


def build_config(sections):
    built = {}
    for section, build in _BUILDERS.items():
        try:
            built[section] = build(**sections[section])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{section} section: {exc}") from exc
        # the sections defined here check themselves only when parsed, so
        # that a library caller may derive one with dataclasses.replace
        if hasattr(built[section], "validate"):
            built[section].validate()
    exp = ExperimentConfig(**built, **sections["root"])
    if exp.mode not in MODES:
        raise ConfigError(f"unknown mode {exp.mode!r}; expected one of {MODES}")
    if exp.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    # the low end of the training range has the largest noise std
    _check_snr("train.snr_low_db", [exp.train.snr_low_db])
    if exp.mode in ("latency", "flops") and exp.mimo.n_t < 2:
        # the row latency bound divides by ln n_t
        raise ConfigError(f"{exp.mode} mode needs mimo.n_t >= 2")
    candidates = 2**exp.mimo.bits_per_vector
    if "ml" in exp.sweep.detectors and candidates > baselines.ML_GUARD:
        raise ConfigError(
            f"sweep.detectors: ml would search {candidates} candidates per "
            f"vector, above the guard of {baselines.ML_GUARD}")
    return exp


def _value_text(value, kind):
    if isinstance(kind, tuple):
        return ", ".join(_value_text(v, kind[1]) for v in value)
    if isinstance(value, mimo.Modulation):
        return value.value
    return repr(value) if kind is float else str(value)


def config_echo(cfg):
    """Canonical text form of a parsed config, for run manifests.

    One line per `_SCHEMA` key, in table order, but for device.preset, whose
    values are written out, and an unset eval.params.
    parse_config(config_echo(cfg)) == cfg: floats are written with repr.
    """
    lines = []
    for key, (section, attr, kind) in _SCHEMA.items():
        target = cfg if section == "root" else getattr(cfg, section)
        if key != "device.preset" and getattr(target, attr) is not None:
            lines.append(f"{key} = {_value_text(getattr(target, attr), kind)}")
    return "\n".join(lines) + "\n"
