"""The complex channel model, kept only as a test oracle.

src/ draws the channel straight into its real embedding
(mimo.generate_channel); these helpers state the same draw in complex form.
"""

import numpy as np


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
