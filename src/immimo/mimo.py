"""MIMO system model on real rails.

The physical link is y~ = H~ x~ + n~ with H~ an N_r x N_t complex matrix whose
real and imaginary parts are i.i.d. standard normal (so E|h~_ij|^2 = 2), x~ a
vector of constellation symbols normalized to unit expected power, and n~
circularly symmetric Gaussian noise with per-real-dimension standard deviation
sigma_n.  The code holds no complex numbers: the channel is drawn straight
into its real embedding

    y = H x + n,   H = [[Re H~, -Im H~], [Im H~, Re H~]],

which doubles all dimensions and keeps matrix products consistent with the
complex model.  Symbols exist only as the 2n_t real rails x = [Re x~; Im x~]:
modulation writes them, and decisions and demapping read them rail by rail,
since QPSK and 16QAM are products of one per-rail amplitude alphabet.

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


def _frozen(array):
    array.flags.writeable = False
    return array


# Unscaled per-rail amplitude levels in bit-lexicographic order, and the rail
# bits each level carries: row i of the bit table is i in binary, most
# significant bit first.  Gray coded: adjacent levels differ in one bit.  Bit
# pattern 0...0 maps to the most positive level, which for BPSK gives the
# "bit 0 -> +1" sign convention.
_RAIL_LEVELS = {
    Modulation.BPSK: np.array([1.0, -1.0]),
    Modulation.QPSK: np.array([1.0, -1.0]),
    Modulation.QAM16: np.array([3.0, 1.0, -3.0, -1.0]),
}
_RAIL_BITS = {
    mod: _frozen(np.array(table, dtype=np.int8))
    for mod, table in (
        (Modulation.BPSK, [[0], [1]]),
        (Modulation.QPSK, [[0], [1]]),
        (Modulation.QAM16, [[0, 0], [0, 1], [1, 0], [1, 1]]),
    )
}

# Mean symbol energy of the unscaled complex constellation.
_E_AVG = {Modulation.BPSK: 1.0, Modulation.QPSK: 2.0, Modulation.QAM16: 10.0}


def constellation_scale(config):
    """Scale factor applied to every constellation point so E||x~||^2 = 1."""
    return 1.0 / np.sqrt(config.n_t * _E_AVG[config.modulation])


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


def generate_channel(config, rng, count=None):
    """Draw a Rayleigh-fading channel on real rails, shape (2n_r, 2n_t).

    H~ is n_r x n_t with entries CN(0, 2): one standard_normal call draws
    its real parts and then its imaginary parts, which are written into the
    embedding [[Re H~, -Im H~], [Im H~, Re H~]] in place.  With count, a
    stack of count channels, shape (count, 2n_r, 2n_t).
    """
    n_r, n_t = config.n_r, config.n_t
    lead = () if count is None else (count,)
    re, im = rng.standard_normal((2,) + lead + (n_r, n_t))
    h = np.empty(lead + (2 * n_r, 2 * n_t))
    h[..., :n_r, :n_t] = re
    h[..., n_r:, n_t:] = re
    h[..., n_r:, :n_t] = im
    np.negative(im, out=h[..., :n_r, n_t:])
    return h


def modulate(bits, config):
    """Map payload bits to unit-power symbols on the real rails.

    Bits are consumed per antenna: for BPSK [b], for QPSK [b_I, b_Q], for
    16QAM [b_I1, b_I0, b_Q1, b_Q0].  Returns shape (..., 2n_t): in-phase
    rails first, then quadrature rails (0 for BPSK).  Raises on a
    wrong-length payload.
    """
    bits = np.asarray(bits, dtype=np.int8)
    expected = config.bits_per_vector
    if bits.shape[-1] != expected:
        raise ValueError(f"expected {expected} bits, got {bits.shape[-1]}")
    lead = bits.shape[:-1]
    n_bits = _RAIL_BITS[config.modulation].shape[1]
    # (..., n_t, rails per antenna, bits per rail) -> level index per rail,
    # most significant bit first, by Horner's rule over at most two bits
    grouped = bits.reshape(lead + (config.n_t, -1, n_bits))
    idx = grouped[..., 0]
    for bit in range(1, n_bits):
        idx = idx * 2 + grouped[..., bit]
    return _level_rails(np.swapaxes(idx, -1, -2).reshape(lead + (-1,)), config)


def _level_rails(idx, config):
    """Rails (..., 2n_t) at levels idx on the leading, bit-carrying rails.

    The rails past idx's width, BPSK's quadrature rails, are 0.
    """
    rails = np.zeros(idx.shape[:-1] + (2 * config.n_t,))
    rails[..., :idx.shape[-1]] = rail_alphabets(config)[0][idx]
    return rails


def transmit(h_real, x_real, sigma_n, rng):
    """y = H x + n with i.i.d. N(0, sigma_n^2) entries; sigma_n = 0 allowed.

    Channel w of a stack (W, 2n_r, 2n_t) sends the rows x_real[w] (V, 2n_t).
    """
    y0 = x_real @ np.swapaxes(h_real, -1, -2) if x_real.ndim > 1 else h_real @ x_real
    if sigma_n == 0:
        return y0
    return y0 + sigma_n * rng.standard_normal(y0.shape)


def _nearest_levels(x_real, config):
    """Index of the nearest level on each bit-carrying rail.

    Every such rail shares one alphabet, so one pass per level covers them
    all, on whole arrays: a level takes a rail only when strictly closer
    than the levels before it.  Ties therefore break toward the
    lexicographically smaller bit pattern, because the levels are stored in
    bit-lexicographic order, and a NaN rail, closer to no level, gets
    level 0.
    """
    # BPSK's quadrature rails carry no bits and are always decided as 0
    n_rails = config.n_t if config.modulation is Modulation.BPSK else 2 * config.n_t
    x = np.asarray(x_real)[..., :n_rails]
    levels = rail_alphabets(config)[0]
    # distances in float64 whatever x's type, in two buffers reused across
    # levels
    nearest, dist = np.empty(x.shape), np.empty(x.shape)
    np.abs(np.subtract(x, levels[0], out=nearest, dtype=float), out=nearest)
    for i in range(1, len(levels)):
        np.abs(np.subtract(x, levels[i], out=dist, dtype=float), out=dist)
        closer = dist < nearest
        idx = closer.astype(np.intp) if i == 1 else np.where(closer, i, idx)
        if i + 1 < len(levels):
            np.minimum(nearest, dist, out=nearest)
    return idx


def demodulate(x_hat_real, config):
    """Nearest-level decision on every rail followed by Gray demapping to bits."""
    idx = _nearest_levels(x_hat_real, config)
    bits = _RAIL_BITS[config.modulation][idx]  # (..., rails, bits per rail)
    # rails run [I_0..I_{n_t-1}, Q_0..Q_{n_t-1}]; the payload runs per antenna
    lead = bits.shape[:-2]
    bits = np.swapaxes(bits.reshape(lead + (-1, config.n_t, bits.shape[-1])), -2, -3)
    return bits.reshape(lead + (-1,))


def sigma_from_snr(snr_db):
    """Per-real-dimension noise standard deviation for a nominal SNR in dB."""
    return 10.0 ** (-snr_db / 20.0)


def random_bits(config, rng, count=1):
    """Uniform payload bits, shape (count, bits_per_vector)."""
    return rng.integers(0, 2, size=(count, config.bits_per_vector), dtype=np.int8)
