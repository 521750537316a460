"""Behavioral memristor model: pulse-train programming with C2C noise.

A cell is swept from G_off to G_on by N_p identical pulses; each pulse moves
the conductance by (G_on - G_off)/N_p plus a zero-mean Gaussian cycle-to-cycle
fluctuation with standard deviation gamma * (G_on - G_off).

Channel entries are mapped onto differential pairs with the three-sigma rule:
mu = (G_on - G_off)/3, so |h| = 3 exhausts the conductance range.  A positive
entry programs the G+ cell to G_off + mu*h, a negative entry programs G- to
G_off + mu*|h|, and the partner cell stays at G_off.  Programming is open loop
(no verify step).

In channel units the conductances cancel.  An entry takes
n = rint(|h| N_p / 3) pulses, and the C2C draws of its n pulses are
independent, so their sum is exactly N(0, n gamma^2 (G_on - G_off)^2): one
unit normal z per cell.  Read back as (G+ - G-)/mu, the pair stores
sign(h) 3 n / N_p plus dH = 3 gamma sign(h) sqrt(n) z, whose conditional
variance is 3 gamma^2 N_p |h|.  The conductances appear only as the ratio
G_on / (G_on - G_off) in the row-latency bound.

Programming is therefore split in two.  program_matrix is deterministic: it
clips the channel and counts the pulses, and draws nothing; the rows are
timed when the latency is first read.  ProgrammingResult.realized takes the
cells' unit normals and forms the stored channel at a given gamma, so one
programming event, with one set of draws, can be realized at every gamma of
a noise sweep.  Training realizes each batch through the same pair, so the
sweep and training share this one programming-noise law.

Rows are programmed sequentially; cells within a row are programmed in
parallel, so a row costs dt_w times the largest pulse count in the row.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

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
    """Memristor behavioral parameters, in the config's units.

    Conductances are in microsiemens and the pulse width in nanoseconds;
    dt_w gives the pulse width in seconds.
    """

    g_on_us: float
    g_off_us: float
    n_p: int
    gamma: float
    dt_w_ns: float

    def __post_init__(self):
        if not (self.g_on_us > self.g_off_us > 0):
            raise ValueError("need g_on_us > g_off_us > 0")
        if self.n_p < 1:
            raise ValueError("n_p must be >= 1")
        check_gamma(self.gamma)
        if self.dt_w_ns <= 0:
            raise ValueError("dt_w_ns must be positive")

    @property
    def dt_w(self):
        """Pulse width in seconds."""
        return self.dt_w_ns * 1e-9


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
    """Named DeviceSpec; keyword overrides replace the preset's fields."""
    if name not in DEVICE_PRESETS:
        raise ValueError(f"unknown device preset {name!r}; have {sorted(DEVICE_PRESETS)}")
    return DeviceSpec(**{**DEVICE_PRESETS[name], **overrides})


@dataclass
class ProgrammingResult:
    """Outcome of programming a real channel matrix, or a stack of them.

    Independent of gamma and of any draw: the pulse counts fix the quantized
    channel and the latencies, and realized() adds the C2C noise at any gamma
    of a device that shares N_p.
    """

    h_clipped: np.ndarray
    pulse_counts: np.ndarray  # whole numbers, held as floats for realized()
    n_p: int
    dt_w: float  # pulse width in seconds

    @cached_property
    def total_latency(self):
        """dt_w * max pulse count of a row, summed over rows, in seconds."""
        return float((self.dt_w * self.pulse_counts.max(axis=-1)).sum())

    @property
    def t_p(self):
        """Total programming latency T_p = 2 * total_latency, in seconds.

        The Gram-product path stores two copies of H programmed back to back
        and dominates the matched-filter path (programmed concurrently), so
        T_p = 2 * T_m; a stack's T_p is the sum of its channels'.
        """
        return 2.0 * self.total_latency

    def realized(self, gamma, z):
        """Channel actually stored on the arrays at C2C level gamma: H + dH.

        z holds one N(0, 1) draw per cell, in h's shape; a cell's n pulses
        store sign(h) 3 (n / N_p + gamma sqrt(n) z), so a cell without pulses
        stores exactly 0.
        """
        n = self.pulse_counts
        out = np.sqrt(n)
        out *= gamma
        out *= z
        out += n / self.n_p
        out *= np.copysign(3.0, self.h_clipped)
        return out


def program_matrix(h_real, spec):
    """Program every entry of a real matrix, or a stack (..., rows, cols).

    Counts the open-loop pulses of every cell, rint(|h| N_p / 3); draws
    nothing.  Rows are written sequentially; all cells of a row receive
    their pulse trains in parallel, so each row costs dt_w * max(n_pulses in
    row), and a stack costs the sum over all its rows.
    """
    h = np.asarray(h_real, dtype=float)
    if h.ndim < 2:
        raise ValueError("channel must be a matrix or a stack of matrices")
    hc = np.clip(h, -H_CLIP, H_CLIP)
    counts = np.abs(hc)
    counts *= spec.n_p
    counts /= H_CLIP
    np.rint(counts, out=counts)
    return ProgrammingResult(h_clipped=hc, pulse_counts=counts, n_p=spec.n_p, dt_w=spec.dt_w)


def row_latency_bound(n_t, spec):
    """Closed-form bound on the expected latency of programming one row."""
    if n_t < 2:
        raise ValueError("row latency bound requires n_t >= 2 (ln n_t > 0)")
    ln_nt = np.log(n_t)
    ratio = spec.g_on_us / (spec.g_on_us - spec.g_off_us)
    lead = np.sqrt(2.0) * ratio * spec.n_p * spec.dt_w / 3.0
    return lead * (np.sqrt(ln_nt) + 1.0 / (np.sqrt(np.pi) * ln_nt))
