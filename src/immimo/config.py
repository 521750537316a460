"""Flat key-value experiment configuration.

Config files are UTF-8 text, one `section.key = value` pair per line.  Blank
lines and comment lines, whose first non-blank character is `#`, are ignored;
a `#` anywhere else is part of the value, so paths such as `runs/a#1` keep it.
Unknown keys are rejected with a line diagnostic so typos cannot silently fall
back to defaults.

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
        if kind is bool:
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind.__name__}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {raw!r} is not a finite number")
    return value


def _parse_list(key, raw, kind):
    items = [s.strip() for s in raw.split(",") if s.strip()]
    return [_parse_scalar(key, s, kind) for s in items]


# key -> (target section, attribute, parser kind); None kind means str
_SCHEMA = {
    "mode": ("root", "mode", str),
    "seed": ("root", "seed", int),
    "eval.params": ("root", "params_path", str),
    "mimo.n_t": ("mimo", "n_t", int),
    "mimo.n_r": ("mimo", "n_r", int),
    "mimo.modulation": ("mimo", "modulation", str),
    "mimo.l": ("mimo", "L", int),
    "mimo.s": ("mimo", "S", int),
    "mimo.a_size": ("mimo", "a_size", int),
    "device.preset": ("device", "preset", str),
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
    "train.lr_decay": ("train", "lr_decay", bool),
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
}


def _parse_value(key, raw):
    kind = _SCHEMA[key][2]
    if isinstance(kind, tuple):
        return _parse_list(key, raw, kind[1])
    return _parse_scalar(key, raw, kind)


def parse_config(text, overrides=None):
    """Parse config text into an ExperimentConfig; strict about keys.

    `overrides` maps keys to raw value text, as on a config line; each
    replaces the file's value, if any, before the config is built.
    """
    sections = {"root": {}, "mimo": {}, "device": {}, "train": {},
                "sweep": {}, "bounds": {}, "latency": {}}
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


def build_config(sections):
    root = sections["root"]
    mode = root.get("mode", "eval-ber")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    seed = root.get("seed", 0)
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    mimo_kw = dict(sections["mimo"])
    mimo_kw.setdefault("n_t", 4)
    mimo_kw.setdefault("n_r", 6)
    try:
        mimo_cfg = mimo.MimoConfig(**mimo_kw)
    except ValueError as exc:
        raise ConfigError(f"mimo section: {exc}") from exc

    dev_kw = dict(sections["device"])
    preset = dev_kw.pop("preset", dev.DEFAULT_PRESET)
    try:
        spec = dev.device_preset(preset, **dev_kw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"device section: {exc}") from exc

    try:
        train_cfg = training.TrainConfig(**sections["train"])
    except ValueError as exc:
        raise ConfigError(f"train section: {exc}") from exc

    sweep = SweepConfig(**sections["sweep"])
    sweep.validate()
    bounds = BoundsConfig(**sections["bounds"])
    latency = LatencyConfig(**sections["latency"])
    latency.validate()
    return ExperimentConfig(
        mimo=mimo_cfg,
        device=spec,
        train=train_cfg,
        sweep=sweep,
        bounds=bounds,
        latency=latency,
        seed=seed,
        mode=mode,
        params_path=root.get("params_path"),
    )


def _unit_text(value, scale):
    """Shortest decimal text v with float(v) * scale == value, if one exists.

    Device keys are given in config units (microsiemens, nanoseconds) and
    scaled on parsing, so the echo looks for text that scales back to the
    stored value exactly.
    """
    for digits in range(1, 18):
        text = f"{value / scale:.{digits}g}"
        if float(text) * scale == value:
            return text
    return repr(value / scale)


def config_echo(cfg):
    """Canonical text form of a parsed config, for run manifests.

    parse_config(config_echo(cfg)) == cfg: floats are written with repr and
    device values in config units that scale back exactly.
    """
    m, d, t, s = cfg.mimo, cfg.device, cfg.train, cfg.sweep
    b, lat = cfg.bounds, cfg.latency
    lines = [
        f"mode = {cfg.mode}",
        f"seed = {cfg.seed}",
        f"mimo.n_t = {m.n_t}",
        f"mimo.n_r = {m.n_r}",
        f"mimo.modulation = {m.modulation.value}",
        f"mimo.l = {m.L}",
        f"mimo.s = {m.S}",
        f"mimo.a_size = {m.a_size}",
        f"device.g_on_us = {_unit_text(d.g_on, 1e-6)}",
        f"device.g_off_us = {_unit_text(d.g_off, 1e-6)}",
        f"device.n_p = {d.n_p}",
        f"device.gamma = {d.gamma!r}",
        f"device.dt_w_ns = {_unit_text(d.dt_w, 1e-9)}",
        f"train.epochs = {t.epochs}",
        f"train.batch_size = {t.batch_size}",
        f"train.lr = {t.lr!r}",
        f"train.snr_low_db = {t.snr_low_db!r}",
        f"train.snr_high_db = {t.snr_high_db!r}",
        f"train.gamma = {t.gamma_train!r}",
        f"train.weighting = {t.loss_weighting}",
        f"train.lr_decay = {str(t.lr_decay).lower()}",
        f"sweep.snr_db = {', '.join(repr(v) for v in s.snr_db)}",
        f"sweep.gammas = {', '.join(repr(v) for v in s.gammas)}",
        f"sweep.detectors = {', '.join(s.detectors)}",
        f"sweep.min_bits = {s.min_bits}",
        f"sweep.min_errors = {s.min_errors}",
        f"sweep.max_trials = {s.max_trials}",
        f"sweep.symbols_per_slot = {s.symbols_per_slot}",
        f"bounds.varpi1 = {b.varpi1!r}",
        f"bounds.varpi2 = {b.varpi2!r}",
        f"bounds.sigma_n = {b.sigma_n!r}",
        f"latency.t_array_ns = {lat.t_array_ns!r}",
        f"latency.t_adder_ns = {lat.t_adder_ns!r}",
        f"latency.t_relu_ns = {lat.t_relu_ns!r}",
        f"latency.trials = {lat.trials}",
    ]
    if cfg.params_path:
        lines.append(f"eval.params = {cfg.params_path}")
    return "\n".join(lines) + "\n"
