"""Behavioral memristor model: pulse-train programming with C2C noise.

A cell is swept from G_off to G_on by N_p identical pulses; each pulse moves
the conductance by (G_on - G_off)/N_p plus a zero-mean Gaussian cycle-to-cycle
fluctuation with standard deviation sigma_dg = gamma * (G_on - G_off).

Channel entries are mapped onto differential pairs with the three-sigma rule:
mu = (G_on - G_off)/3, so |h| = 3 exhausts the conductance range.  A positive
entry programs the G+ cell to G_off + mu*h, a negative entry programs G- to
G_off + mu*|h|, and the partner cell stays at G_off.  Programming is open loop
(no verify step): the accumulated per-pulse noise lands in the realized
channel as dh with conditional variance 3 * gamma^2 * N_p * |h|.

The C2C draws of a cell's n pulses are independent, so their sum is exactly
N(0, n * sigma_dg^2): the noise of a programmed cell is sigma_dg * sqrt(n) * z
for one unit normal z per cell.  Programming is therefore split in two.
program_matrix is deterministic: it clips the channel, counts the pulses and
times the rows, and draws nothing.  ProgrammingResult.realized takes the
cells' unit normals and forms the stored channel at a given gamma, so one
programming event, with one set of draws, can be realized at every gamma of
a noise sweep.

Rows are programmed sequentially; cells within a row are programmed in
parallel, so a row costs dt_w times the largest pulse count in the row.
"""

import warnings
from dataclasses import dataclass

import numpy as np

# Entries are saturated at |h| = 3 before mapping: the three-sigma design
# leaves 0.27% of Gaussian entries outside the representable range and a
# physical cell cannot exceed G_on.
H_CLIP = 3.0


def check_gamma(gamma):
    """Reject a C2C level outside [0, 0.06]; warn above the typical 0.05."""
    if not (0 <= gamma <= 0.06):
        raise ValueError("gamma outside supported range [0, 0.06]")
    if gamma > 0.05:
        warnings.warn(
            f"gamma={gamma} exceeds the typical C2C range (0, 0.05)",
            stacklevel=3,
        )


@dataclass
class DeviceSpec:
    """Memristor behavioral parameters (SI units: siemens, seconds)."""

    g_on: float
    g_off: float
    n_p: int
    gamma: float
    dt_w: float

    def __post_init__(self):
        if not (self.g_on > self.g_off > 0):
            raise ValueError("need g_on > g_off > 0")
        if self.n_p < 1:
            raise ValueError("n_p must be >= 1")
        check_gamma(self.gamma)
        if self.dt_w <= 0:
            raise ValueError("dt_w must be positive")

    @property
    def g_range(self):
        return self.g_on - self.g_off

    @property
    def sigma_dg(self):
        """Per-pulse conductance noise std: gamma * (G_on - G_off)."""
        return self.gamma * self.g_range

    @classmethod
    def from_config_keys(cls, g_on_us, g_off_us, n_p, gamma, dt_w_ns):
        """Build from config-file units (microsiemens, nanoseconds)."""
        return cls(
            g_on=g_on_us * 1e-6,
            g_off=g_off_us * 1e-6,
            n_p=int(n_p),
            gamma=gamma,
            dt_w=dt_w_ns * 1e-9,
        )


# Published device characterizations.  The first device reports different C2C
# figures for potentiation and depression; cells here are only ever programmed
# upward from full reset, so the potentiation value is used.
DEVICE_PRESETS = {
    "zeng2023": dict(g_on_us=230.99, g_off_us=79.93, n_p=256, gamma=0.0441, dt_w_ns=10.0),
    "jerry2017": dict(g_on_us=1.79, g_off_us=0.04, n_p=32, gamma=0.005, dt_w_ns=75.0),
    "luo2022": dict(g_on_us=27.5, g_off_us=1.0, n_p=150, gamma=0.0365, dt_w_ns=0.63),
}

DEFAULT_PRESET = "luo2022"


def device_preset(name=DEFAULT_PRESET, **overrides):
    """Named DeviceSpec; keyword overrides use config-file units."""
    if name not in DEVICE_PRESETS:
        raise KeyError(f"unknown device preset {name!r}; have {sorted(DEVICE_PRESETS)}")
    keys = dict(DEVICE_PRESETS[name])
    keys.update(overrides)
    return DeviceSpec.from_config_keys(**keys)


def map_coefficient(spec):
    """Channel-to-conductance scale mu = (G_on - G_off)/3 (three-sigma rule)."""
    return spec.g_range / 3.0


def pulse_count(target_dg, spec):
    """Open-loop pulse count: round(target_dg * N_p / (G_on - G_off))."""
    target_dg = np.asarray(target_dg, dtype=float)
    if np.any(target_dg < -1e-18) or np.any(target_dg > spec.g_range * (1 + 1e-12)):
        raise ValueError("target conductance change outside [0, G_on - G_off]")
    n = np.rint(target_dg * spec.n_p / spec.g_range).astype(int)
    return n if n.ndim else int(n)


def sample_dh_matrix(h_real, spec, rng):
    """Closed-form draw of the channel perturbation dH, entry by entry.

    Fast path for training-time noise injection: dh | h ~ N(0, 3 gamma^2 N_p
    |h|) for every entry of a matrix (or batch of matrices), with |h|
    saturated at 3 to mirror the conductance-range clip of the pulse-train
    path.
    """
    h = np.minimum(np.abs(np.asarray(h_real, dtype=float)), H_CLIP)
    if spec.gamma == 0.0:
        return np.zeros_like(h)
    std = np.sqrt(3.0 * spec.gamma**2 * spec.n_p * h)
    return rng.standard_normal(h.shape) * std


@dataclass
class ProgrammingResult:
    """Outcome of programming a real channel matrix, or a stack of them.

    Independent of gamma and of any draw: the pulse counts fix the quantized
    channel and the latencies, and realized() adds the C2C noise at any gamma
    of a device that shares G_on, G_off and N_p.
    """

    h_clipped: np.ndarray
    pulse_counts: np.ndarray
    latency_per_row: np.ndarray  # dt_w * max pulse count in each row
    total_latency: float         # sum over every row (rows are sequential)

    def realized(self, spec, z):
        """Channel actually stored on the arrays at spec's gamma: H + dH.

        z holds one N(0, 1) draw per cell, in h's shape; a cell's n pulses
        add sigma_dg * sqrt(n) * z, so cells without pulses stay exact.
        """
        achieved = (self.pulse_counts * (spec.g_range / spec.n_p)
                    + spec.sigma_dg * np.sqrt(self.pulse_counts) * z)
        g_plus = np.where(self.h_clipped > 0, spec.g_off + achieved, spec.g_off)
        g_minus = np.where(self.h_clipped < 0, spec.g_off + achieved, spec.g_off)
        return (g_plus - g_minus) / map_coefficient(spec)


def program_matrix(h_real, spec):
    """Program every entry of a real matrix, or a stack (..., rows, cols).

    Counts the open-loop pulses of every cell; draws nothing.  Rows are
    written sequentially; all cells of a row receive their pulse trains in
    parallel, so each row costs dt_w * max(n_pulses in row), and a stack
    costs the sum over all its rows.
    """
    h = np.asarray(h_real, dtype=float)
    if h.ndim < 2:
        raise ValueError("channel must be a matrix or a stack of matrices")
    hc = np.clip(h, -H_CLIP, H_CLIP)
    counts = pulse_count(map_coefficient(spec) * np.abs(hc), spec)
    latency_per_row = spec.dt_w * counts.max(axis=-1)
    return ProgrammingResult(
        h_clipped=hc,
        pulse_counts=counts,
        latency_per_row=latency_per_row,
        total_latency=float(latency_per_row.sum()),
    )


def total_programming_latency(config, spec, rng):
    """Simulated total programming latency T_p for one channel realization.

    The Gram-product path stores two copies of H programmed back to back and
    dominates the matched-filter path (programmed concurrently), so
    T_p = 2 * T_m.  Latency depends on the pulse counts alone, so only the
    channel is drawn from rng.
    """
    from . import mimo

    h = mimo.to_real(mimo.generate_channel(config, rng))
    return 2.0 * program_matrix(h, spec).total_latency


def row_latency_bound(n_t, spec):
    """Closed-form bound on the expected latency of programming one row."""
    if n_t < 2:
        raise ValueError("row latency bound requires n_t >= 2 (ln n_t > 0)")
    ln_nt = np.log(n_t)
    lead = np.sqrt(2.0) * spec.g_on * spec.n_p * spec.dt_w / (3.0 * spec.g_range)
    return lead * (np.sqrt(ln_nt) + 1.0 / (np.sqrt(np.pi) * ln_nt))
