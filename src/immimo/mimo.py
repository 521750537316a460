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
modulation writes them, and decisions read them rail by rail, since QPSK and
16QAM are products of one per-rail amplitude alphabet.  Each bit-carrying
rail carries the level whose index is its bits in binary, so decisions are
scored on level indices, with no demapping to bits: a rail's bit errors are
the set bits of its decided level XOR its sent level (bit_errors).  The
Gram-form detectors' products H^T H and H^T y are formed in one place,
channel_products.

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


# Unscaled per-rail amplitude levels in bit-lexicographic order: level i
# carries the rail bits of i in binary, most significant bit first.  Gray
# coded: adjacent levels differ in one bit.  Bit pattern 0...0 maps to the
# most positive level, which for BPSK gives the "bit 0 -> +1" sign
# convention.
_RAIL_LEVELS = {
    Modulation.BPSK: np.array([1.0, -1.0]),
    Modulation.QPSK: np.array([1.0, -1.0]),
    Modulation.QAM16: np.array([3.0, 1.0, -3.0, -1.0]),
}
_BITS_PER_RAIL = {Modulation.BPSK: 1, Modulation.QPSK: 1, Modulation.QAM16: 2}

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
    return level_rails(bit_levels(bits, config), config)


def bit_levels(bits, config):
    """The level index each bit-carrying rail sends for payload bits.

    bits are (..., bits_per_vector), consumed as by modulate; returns int8
    (..., rails), in-phase rails first, then quadrature rails (none for
    BPSK).  Raises on a wrong-length payload.
    """
    bits = np.asarray(bits, dtype=np.int8)
    expected = config.bits_per_vector
    if bits.shape[-1] != expected:
        raise ValueError(f"expected {expected} bits, got {bits.shape[-1]}")
    lead = bits.shape[:-1]
    n_bits = _BITS_PER_RAIL[config.modulation]
    # (..., n_t, rails per antenna, bits per rail) -> level index per rail,
    # most significant bit first, by Horner's rule over at most two bits
    grouped = bits.reshape(lead + (config.n_t, -1, n_bits))
    idx = grouped[..., 0]
    for bit in range(1, n_bits):
        idx = idx * 2 + grouped[..., bit]
    return np.swapaxes(idx, -1, -2).reshape(lead + (-1,))


def level_rails(levels, config):
    """Rails (..., 2n_t) at level indices levels on the bit-carrying rails.

    levels are as bit_levels returns them; the rails past their width,
    BPSK's quadrature rails, are 0.
    """
    rails = np.zeros(levels.shape[:-1] + (2 * config.n_t,))
    rails[..., :levels.shape[-1]] = rail_alphabets(config)[0][levels]
    return rails


def transmit(h_real, x_real, sigma_n, rng):
    """y = H x + n with i.i.d. N(0, sigma_n^2) entries, vectors as rows.

    Channel w of a stack (W, 2n_r, 2n_t) sends the rows x_real[w] (V, 2n_t),
    and one channel (2n_r, 2n_t) the rows x_real (V, 2n_t).
    """
    y0 = x_real @ np.swapaxes(h_real, -1, -2)
    return y0 + sigma_n * rng.standard_normal(y0.shape)


def channel_products(h_real, ys):
    """The channel-dependent module: (gram, hty), H^T H and the rows H^T y.

    ZF, MMSE, exhaustive ML, the deep detectors and training all take them
    from here.  h_real is (..., 2n_r, 2n_t) and ys (..., n_vec, 2n_r), n_vec
    received vectors per channel, so one vector is passed as y[None]; ys
    broadcasts against the channels' leading dims.  hty is (..., n_vec, 2n_t)
    and gram (..., 2n_t, 2n_t) keeps h's leading dims, so one channel serves
    many vector sets.  Both are in np.result_type(h_real, ys, np.float32).
    """
    h_real, ys = np.asarray(h_real), np.asarray(ys)
    dtype = np.result_type(h_real, ys, np.float32)
    h_real = h_real.astype(dtype, copy=False)
    ys = ys.astype(dtype, copy=False)
    if ys.ndim < h_real.ndim:
        raise ValueError(
            f"ys {ys.shape} has fewer dims than h {h_real.shape}; "
            "vectors are rows, pass one vector as y[None]"
        )
    # hty first: allocated the other way round, the same arithmetic measured
    # about 2% slower on perfbench's hw-sweep
    hty = ys @ h_real
    return np.ascontiguousarray(np.swapaxes(h_real, -1, -2)) @ h_real, hty


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


def bit_errors(x_hat_real, levels, config):
    """Bit errors of decided rails x_hat_real (..., 2n_t) against sent levels.

    levels are as bit_levels gives them.  Each rail is decided as its
    nearest level; level i carries i in binary, so a rail's bit errors are
    the set bits of its decided index XOR its sent one, as demapping both to
    bits and comparing would count them.
    """
    wrong = _nearest_levels(x_hat_real, config) ^ levels
    if _BITS_PER_RAIL[config.modulation] == 1:
        return int(np.count_nonzero(wrong))
    # two bits per rail: every wrong rail has one bit wrong, 3 has both
    return int(np.count_nonzero(wrong)) + int(np.count_nonzero(wrong == 3))


def sigma_from_snr(snr_db):
    """Per-real-dimension noise standard deviation for a nominal SNR in dB."""
    return 10.0 ** (-snr_db / 20.0)


def random_bits(config, rng, count=1):
    """Uniform payload bits, shape (count, bits_per_vector)."""
    return rng.integers(0, 2, size=(count, config.bits_per_vector), dtype=np.int8)
