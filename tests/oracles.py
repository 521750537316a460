"""Models src/ no longer computes in their textbook form, kept as test oracles.

The complex channel: src/ draws the channel straight into its real embedding
(mimo.generate_channel); complex_channel and to_real state the same draw in
complex form.  Exhaustive ML: src/ evaluates the metric from the Gram matrix
(baselines.ml_detect_batch); ml_detect_exhaustive takes the argmin of the
residual norms themselves.  The conductance model: see below.
"""

import numpy as np

from immimo import baselines


def complex_channel(config, rng, count=None):
    """H~ with CN(0, 2) entries: its real parts, then its imaginary parts."""
    shape = (config.n_r, config.n_t) if count is None else (count, config.n_r, config.n_t)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def to_real(h_complex):
    """Complex-to-real channel embedding [[Re, -Im], [Im, Re]].

    Accepts a leading batch dimension.
    """
    re, im = h_complex.real, h_complex.imag
    top = np.concatenate([re, -im], axis=-1)
    bottom = np.concatenate([im, re], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def ml_detect_exhaustive(h_real, y, config):
    """Exhaustive ML: argmin of ||y - Hx||^2 over every candidate.

    One channel h_real (2n_r, 2n_t) and y (2n_r,), or a stack of vectors
    (..., 2n_r) through it.  Ties go to the lexicographically smaller
    symbol-index tuple (argmin keeps the first minimum and candidates are
    enumerated in that order).  node_count is the number of candidates.
    """
    x_cands = baselines.candidate_matrix(config)
    resid = np.asarray(y, dtype=float)[..., :, None] - np.asarray(h_real, float) @ x_cands
    best = np.argmin(np.sum(resid * resid, axis=-2), axis=-1)
    return baselines.DetectorOutput(x_hat_real=x_cands.T[best].copy(),
                                    node_count=x_cands.shape[1])


# The conductance model of immimo.device, in siemens and seconds, kept only as
# a test oracle: src/ counts pulses and realizes the channel in channel units,
# where the conductances cancel.  Everything here is computed from the spec's
# fields alone.


def conductances(spec):
    """(G_on, G_off) of spec in siemens."""
    return spec.g_on_us * 1e-6, spec.g_off_us * 1e-6


def map_coefficient(spec):
    """Channel-to-conductance scale mu = (G_on - G_off)/3 (three-sigma rule)."""
    g_on, g_off = conductances(spec)
    return (g_on - g_off) / 3.0


def pulse_count(target_dg, spec):
    """Open-loop pulse count: rint(target_dg * N_p / (G_on - G_off))."""
    g_on, g_off = conductances(spec)
    n = np.rint(np.asarray(target_dg, dtype=float) * spec.n_p / (g_on - g_off)).astype(int)
    return n if n.ndim else int(n)


def program_pulses(h, spec):
    """Pulses of every cell of h: rint(mu |h_c| N_p / (G_on - G_off)), |h_c| <= 3."""
    return pulse_count(map_coefficient(spec) * np.abs(np.clip(h, -3.0, 3.0)), spec)


def conductance_realized(h, spec, gamma, z):
    """Channel read back from the differential pairs programmed with h.

    The cell on h's side of the pair ends at G_off + n (G_on - G_off)/N_p
    + gamma (G_on - G_off) sqrt(n) z, its partner stays at G_off, and the
    pair reads back (G+ - G-)/mu.
    """
    g_on, g_off = conductances(spec)
    g_range = g_on - g_off
    hc = np.clip(h, -3.0, 3.0)
    n = program_pulses(h, spec)
    achieved = n * (g_range / spec.n_p) + gamma * g_range * np.sqrt(n) * z
    g_plus = np.where(hc > 0, g_off + achieved, g_off)
    g_minus = np.where(hc < 0, g_off + achieved, g_off)
    return (g_plus - g_minus) / map_coefficient(spec)


def programming_latency(h, spec):
    """Rows written one after another, each for dt_w times its longest pulse train."""
    return float((spec.dt_w_ns * 1e-9 * program_pulses(h, spec).max(axis=-1)).sum())


def row_latency_bound(n_t, spec):
    """The row-latency bound in siemens and seconds:

    sqrt(2) G_on N_p dt_w / (3 (G_on - G_off)) (sqrt(ln n_t) + 1/(sqrt(pi) ln n_t)).
    """
    g_on, g_off = conductances(spec)
    ln_nt = np.log(n_t)
    lead = np.sqrt(2.0) * g_on * spec.n_p * spec.dt_w_ns * 1e-9 / (3.0 * (g_on - g_off))
    return lead * (np.sqrt(ln_nt) + 1.0 / (np.sqrt(np.pi) * ln_nt))
