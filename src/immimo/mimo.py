"""Complex MIMO system model and its real-valued embedding.

The link is y~ = H~ x~ + n~ with H~ an N_r x N_t complex matrix whose real and
imaginary parts are i.i.d. standard normal (so E|h~_ij|^2 = 2), x~ a vector of
constellation symbols normalized to unit expected power, and n~ circularly
symmetric Gaussian noise with per-real-dimension standard deviation sigma_n.

Everything downstream works on the real embedding

    y = H x + n,   H = [[Re H~, -Im H~], [Im H~, Re H~]],

which doubles all dimensions and keeps matrix products consistent with the
complex model.

SNR convention: with unit transmit power and E|h~_ij|^2 = 2,
E||H~ x~||^2 / E||n~||^2 = 1 / sigma_n^2, so sigma_n = 10^(-snr_db/20).
"""

import enum
from dataclasses import dataclass

import numpy as np


class Modulation(enum.Enum):
    BPSK = "bpsk"
    QPSK = "qpsk"
    QAM16 = "qam16"

    @property
    def bits_per_symbol(self):
        return {Modulation.BPSK: 1, Modulation.QPSK: 2, Modulation.QAM16: 4}[self]


@dataclass
class MimoConfig:
    """Antenna counts plus the unfolded-network dimensions carried alongside.

    a_size defaults to 4*n_t; the auxiliary vector has no physical meaning and
    this keeps its width proportional to the signal dimension.
    """

    n_t: int
    n_r: int
    modulation: Modulation = Modulation.QPSK
    L: int = 10
    S: int = 64
    a_size: int | None = None

    def __post_init__(self):
        if isinstance(self.modulation, str):
            self.modulation = Modulation(self.modulation.lower())
        if self.a_size is None:
            self.a_size = 4 * self.n_t
        if self.n_t < 1:
            raise ValueError("n_t must be >= 1")
        if self.n_r < self.n_t:
            raise ValueError("n_r must be >= n_t")
        if self.L < 1 or self.S < 1 or self.a_size < 1:
            raise ValueError("L, S and a_size must be >= 1")

    @property
    def bits_per_vector(self):
        return self.n_t * self.modulation.bits_per_symbol


@dataclass
class SymbolVector:
    """A transmitted vector in all three representations."""

    bits: np.ndarray          # payload, length n_t * log2(M)
    complex_symbols: np.ndarray  # length n_t, scaled constellation points
    real: np.ndarray          # length 2*n_t, [Re; Im]


# Unscaled per-rail amplitude levels in bit-lexicographic order.  Gray coded:
# adjacent levels differ in one bit.  Bit pattern 0...0 maps to the most
# positive level, which for BPSK gives the "bit 0 -> +1" sign convention.
_RAIL_LEVELS = {
    Modulation.BPSK: np.array([1.0, -1.0]),                  # bits: 0, 1
    Modulation.QPSK: np.array([1.0, -1.0]),                  # per rail: 0, 1
    Modulation.QAM16: np.array([3.0, 1.0, -3.0, -1.0]),      # bits: 00,01,10,11
}

# Mean symbol energy of the unscaled complex constellation.
_E_AVG = {Modulation.BPSK: 1.0, Modulation.QPSK: 2.0, Modulation.QAM16: 10.0}


def constellation_scale(config):
    """Scale factor applied to every constellation point so E||x~||^2 = 1."""
    return 1.0 / np.sqrt(config.n_t * _E_AVG[config.modulation])


def _frozen(array):
    array.flags.writeable = False
    return array


def rail_alphabets(config):
    """Per-real-rail candidate amplitudes, in bit-lexicographic order.

    Returns a tuple of 2*n_t read-only arrays.  Rails 0..n_t-1 carry the
    in-phase part, rails n_t..2n_t-1 the quadrature part.  BPSK has no
    quadrature component, so its Q rails collapse to the single value 0.
    Cached per (n_t, modulation).
    """
    key = (config.n_t, config.modulation)
    cached = _ALPHABET_CACHE.get(key)
    if cached is not None:
        return cached
    mod = config.modulation
    i_rail = _frozen(_RAIL_LEVELS[mod] * constellation_scale(config))
    q_rail = _frozen(np.array([0.0])) if mod is Modulation.BPSK else i_rail
    alphabets = (i_rail,) * config.n_t + (q_rail,) * config.n_t
    _ALPHABET_CACHE[key] = alphabets
    return alphabets


_ALPHABET_CACHE = {}


def constellation_points(config):
    """All scaled complex constellation points and their bit labels.

    Points are ordered lexicographically by bit pattern (I bits first, then Q
    bits), so an argmin over this ordering breaks distance ties toward the
    lexicographically smaller label.  Both arrays are read-only and cached per
    (n_t, modulation).
    """
    key = (config.n_t, config.modulation)
    cached = _POINTS_CACHE.get(key)
    if cached is not None:
        return cached
    mod = config.modulation
    i_levels = _RAIL_LEVELS[mod] * constellation_scale(config)
    if mod is Modulation.BPSK:
        points = i_levels.astype(complex)
        bits = np.array([[0], [1]], dtype=np.int8)
    else:
        n_rail_bits = mod.bits_per_symbol // 2
        m_rail = len(i_levels)
        points = []
        bits = []
        for bi in range(m_rail):
            for bq in range(m_rail):
                points.append(i_levels[bi] + 1j * i_levels[bq])
                label = [(bi >> (n_rail_bits - 1 - k)) & 1 for k in range(n_rail_bits)]
                label += [(bq >> (n_rail_bits - 1 - k)) & 1 for k in range(n_rail_bits)]
                bits.append(label)
        points = np.array(points)
        bits = np.array(bits, dtype=np.int8)
    cached = (_frozen(points), _frozen(bits))
    _POINTS_CACHE[key] = cached
    return cached


_POINTS_CACHE = {}


def generate_channel(config, rng):
    """Draw an n_r x n_t Rayleigh-fading matrix, CN(0, 2) per entry."""
    shape = (config.n_r, config.n_t)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def to_real(h_complex):
    """Complex-to-real channel embedding [[Re, -Im], [Im, Re]].

    Accepts a leading batch dimension.
    """
    re, im = h_complex.real, h_complex.imag
    top = np.concatenate([re, -im], axis=-1)
    bottom = np.concatenate([im, re], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def embed_vector(v_complex):
    return np.concatenate([v_complex.real, v_complex.imag], axis=-1)


def unembed_vector(v_real):
    n = v_real.shape[-1] // 2
    return v_real[..., :n] + 1j * v_real[..., n:]


def _rail_bits_to_level(bits, mod):
    """Map per-rail bit groups to unscaled amplitude levels, Gray coded."""
    levels = _RAIL_LEVELS[mod]
    if mod is Modulation.QAM16:
        idx = 2 * bits[..., 0] + bits[..., 1]
    else:
        idx = bits[..., 0]
    return levels[idx]


def modulate(bits, config):
    """Map a payload bit vector to a unit-power symbol vector.

    Bits are consumed per antenna: for QPSK [b_I, b_Q], for 16QAM
    [b_I1, b_I0, b_Q1, b_Q0].  Raises on a wrong-length payload.
    """
    bits = np.asarray(bits, dtype=np.int8)
    expected = config.bits_per_vector
    if bits.shape[-1] != expected:
        raise ValueError(f"expected {expected} bits, got {bits.shape[-1]}")
    mod = config.modulation
    scale = constellation_scale(config)
    per_sym = mod.bits_per_symbol
    grouped = bits.reshape(bits.shape[:-1] + (config.n_t, per_sym))
    if mod is Modulation.BPSK:
        sym = _rail_bits_to_level(grouped, mod).astype(complex)
    else:
        half = per_sym // 2
        i_part = _rail_bits_to_level(grouped[..., :half], mod)
        q_part = _rail_bits_to_level(grouped[..., half:], mod)
        sym = i_part + 1j * q_part
    sym = sym * scale
    return SymbolVector(bits=bits, complex_symbols=sym, real=embed_vector(sym))


def transmit(h_real, x_real, sigma_n, rng):
    """y = H x + n with i.i.d. N(0, sigma_n^2) entries; sigma_n = 0 allowed."""
    y0 = x_real @ h_real.T if x_real.ndim > 1 else h_real @ x_real
    if sigma_n == 0:
        return y0
    return y0 + sigma_n * rng.standard_normal(y0.shape)


def decide_rails(x_real, config):
    """Snap each real rail to its nearest alphabet value.

    Ties break toward the lexicographically smaller bit pattern because the
    alphabets are stored in bit-lexicographic order and argmin keeps the
    first minimum.
    """
    x_real = np.asarray(x_real, dtype=float)
    alphabets = rail_alphabets(config)
    out = np.empty_like(x_real)
    for i, alpha in enumerate(alphabets):
        d = np.abs(x_real[..., i, None] - alpha[None, :])
        out[..., i] = alpha[np.argmin(d, axis=-1)]
    return out


def demodulate(x_hat_real, config):
    """Nearest-constellation decision followed by Gray demapping to bits."""
    x_hat_real = np.asarray(x_hat_real, dtype=float)
    points, bit_table = constellation_points(config)
    sym = unembed_vector(x_hat_real)
    # distances to every constellation point; argmin's first-hit rule gives
    # the lexicographically smaller bit pattern on exact ties
    d = np.abs(sym[..., None] - points)
    idx = np.argmin(d, axis=-1)
    bits = bit_table[idx]
    return bits.reshape(bits.shape[:-2] + (-1,))


def sigma_from_snr(snr_db):
    """Per-real-dimension noise standard deviation for a nominal SNR in dB."""
    return 10.0 ** (-snr_db / 20.0)


def random_bits(config, rng, count=1):
    """Uniform payload bits, shape (count, bits_per_vector)."""
    return rng.integers(0, 2, size=(count, config.bits_per_vector), dtype=np.int8)
