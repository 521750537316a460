import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from immimo import baselines, mimo
from immimo.mimo import MimoConfig
from oracles import complex_channel, to_real


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def cfg(mod="qpsk", n_t=2, n_r=2, **kw):
    return MimoConfig(n_t=n_t, n_r=n_r, modulation=mod, **kw)


def to_complex(h_real):
    """Inverse of to_real (the left blocks are authoritative).

    Accepts a leading batch dimension.
    """
    n_r, n_t = h_real.shape[-2] // 2, h_real.shape[-1] // 2
    return h_real[..., :n_r, :n_t] + 1j * h_real[..., n_r:, :n_t]


def embed(v_complex):
    """Complex vector to real rails [Re; Im]."""
    return np.concatenate([v_complex.real, v_complex.imag], axis=-1)


# The complex constellation oracle, written out from the textbook Gray maps:
# per-rail bits to unscaled amplitude, and the mean unscaled symbol energy.
GRAY_RAIL = {
    "bpsk": {(0,): 1.0, (1,): -1.0},
    "qpsk": {(0,): 1.0, (1,): -1.0},
    "qam16": {(0, 0): 3.0, (0, 1): 1.0, (1, 1): -1.0, (1, 0): -3.0},
}
E_AVG = {"bpsk": 1.0, "qpsk": 2.0, "qam16": 10.0}
MODS = ["bpsk", "qpsk", "qam16"]


def complex_points(mod, n_t):
    """Scaled complex points and their bit labels, labels in lexicographic order."""
    per_symbol = {"bpsk": 1, "qpsk": 2, "qam16": 4}[mod]
    scale = 1.0 / np.sqrt(n_t * E_AVG[mod])
    labels = list(itertools.product((0, 1), repeat=per_symbol))
    points = []
    for label in labels:
        if mod == "bpsk":
            points.append(GRAY_RAIL[mod][label] + 0j)
        else:
            half = per_symbol // 2
            points.append(GRAY_RAIL[mod][label[:half]] + 1j * GRAY_RAIL[mod][label[half:]])
    return scale * np.array(points), np.array(labels, dtype=np.int8)


def oracle_modulate(bits, mod, n_t):
    points, labels = complex_points(mod, n_t)
    grouped = np.asarray(bits).reshape(np.shape(bits)[:-1] + (n_t, labels.shape[1]))
    # a label's row number is its value in binary
    idx = grouped @ (1 << np.arange(labels.shape[1] - 1, -1, -1))
    return embed(points[idx])


def oracle_demodulate(x_real, mod, n_t):
    """Brute-force nearest complex point, then its label."""
    points, labels = complex_points(mod, n_t)
    sym = x_real[..., :n_t] + 1j * x_real[..., n_t:]
    bits = labels[np.argmin(np.abs(sym[..., None] - points), axis=-1)]
    return bits.reshape(bits.shape[:-2] + (-1,))


class TestConfig:
    def test_a_size_defaults_to_4nt(self):
        assert cfg(n_t=5, n_r=7).a_size == 20

    def test_rejects_bad_antenna_counts(self):
        with pytest.raises(ValueError):
            MimoConfig(n_t=0, n_r=2)
        with pytest.raises(ValueError):
            MimoConfig(n_t=4, n_r=3)


class TestChannel:
    def test_shape_and_determinism(self, rng):
        h = mimo.generate_channel(cfg(n_t=1, n_r=1), rng)
        assert h.shape == (2, 2)
        h1 = mimo.generate_channel(cfg(), np.random.default_rng(5))
        h2 = mimo.generate_channel(cfg(), np.random.default_rng(5))
        assert np.array_equal(h1, h2)

    def test_count_draws_a_stack_from_the_same_stream(self):
        c = cfg(n_t=3, n_r=4)
        stack = mimo.generate_channel(c, np.random.default_rng(5), count=3)
        assert stack.shape == (3, 8, 6)
        one = mimo.generate_channel(c, np.random.default_rng(5), count=1)
        assert np.array_equal(one[0], mimo.generate_channel(c, np.random.default_rng(5)))

    @pytest.mark.parametrize("count", [None, 1, 3])
    def test_equals_the_embedded_complex_draw(self, count):
        # the same seed, drawn as a complex matrix and embedded, to the bit
        c = cfg(n_t=3, n_r=4)
        for seed in range(5):
            got = mimo.generate_channel(c, np.random.default_rng(seed), count=count)
            want = to_real(complex_channel(c, np.random.default_rng(seed), count=count))
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_entry_power_is_two(self, rng):
        # E|h|^2 = 2 since real and imaginary parts are both unit variance
        c = cfg(n_t=5, n_r=5)
        samples = np.abs(to_complex(mimo.generate_channel(c, rng, count=4000))) ** 2
        assert samples.size == 100_000
        assert 1.98 <= samples.mean() <= 2.02


class TestRealEmbedding:
    """The oracle's embedding, which mimo.generate_channel must equal."""

    def test_real_scalar(self):
        assert np.array_equal(to_real(np.array([[1 + 0j]])), [[1, 0], [0, 1]])

    def test_imag_scalar(self):
        assert np.array_equal(to_real(np.array([[0 + 1j]])), [[0, -1], [1, 0]])

    def test_round_trip(self, rng):
        for _ in range(100):
            h = complex_channel(cfg(n_t=3, n_r=4), rng)
            assert np.array_equal(to_complex(to_real(h)), h)

    def test_block_structure(self, rng):
        h = to_real(complex_channel(cfg(n_t=3, n_r=4), rng))
        n_r, n_t = 4, 3
        assert np.array_equal(h[:n_r, :n_t], h[n_r:, n_t:])
        assert np.array_equal(h[n_r:, :n_t], -h[:n_r, n_t:])

    def test_embedding_preserves_products(self, rng):
        # to_real(H) @ embed(x) == embed(H @ x)
        for _ in range(100):
            h = complex_channel(cfg(n_t=3, n_r=5), rng)
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs = to_real(h) @ embed(x)
            assert np.allclose(lhs, embed(h @ x), rtol=1e-12, atol=1e-12)


class TestModulation:
    def test_bpsk_bit0_is_plus_one(self):
        x = mimo.modulate([0], cfg("bpsk", n_t=1, n_r=1))
        assert np.array_equal(x, [1.0, 0.0])

    def test_qpsk_scaling(self):
        x = mimo.modulate([0, 0, 0, 0], cfg("qpsk", n_t=2, n_r=2))
        assert np.allclose(x, [0.5, 0.5, 0.5, 0.5])

    def test_qam16_unit_mean_energy(self):
        c = cfg("qam16", n_t=1, n_r=1)
        x = mimo.modulate(list(itertools.product((0, 1), repeat=4)), c)
        assert len({tuple(row) for row in x}) == 16
        assert np.mean(np.sum(x**2, axis=-1)) == pytest.approx(1.0)

    def test_wrong_bit_count_raises(self):
        with pytest.raises(ValueError):
            mimo.modulate([0, 1, 0], cfg("qpsk"))

    @pytest.mark.parametrize("mod", MODS)
    def test_unit_average_power(self, mod, rng):
        c = cfg(mod, n_t=4, n_r=4)
        bits = mimo.random_bits(c, rng, count=100_000)
        power = np.sum(mimo.modulate(bits, c) ** 2, axis=-1)
        assert abs(power.mean() - 1.0) < 0.01

    @pytest.mark.parametrize("mod", MODS)
    def test_modulate_demodulate_round_trip(self, mod, rng):
        c = cfg(mod, n_t=3, n_r=3)
        bits = mimo.random_bits(c, rng, count=200)
        assert np.array_equal(oracles.demodulate(mimo.modulate(bits, c), c), bits)

    @pytest.mark.parametrize("mod", ["qpsk", "qam16"])
    def test_small_perturbations_never_flip(self, mod, rng):
        # decision regions have radius half the minimum distance
        c = cfg(mod, n_t=2, n_r=2)
        alphabets = mimo.rail_alphabets(c)
        min_dist = min(
            np.min(np.diff(np.sort(a))) for a in alphabets if len(a) > 1
        )
        for _ in range(100):
            bits = mimo.random_bits(c, rng)[0]
            x = mimo.modulate(bits, c)
            bump = rng.uniform(-1, 1, size=x.shape)
            bump *= 0.49 * min_dist / np.abs(bump).max()
            assert np.array_equal(oracles.demodulate(x + bump, c), bits)


class TestComplexOracle:
    """The real-rail symbol model against the complex constellation."""

    @pytest.mark.parametrize("mod", MODS)
    def test_modulate_equals_oracle_rails(self, mod, rng):
        c = cfg(mod, n_t=3, n_r=3)
        bits = mimo.random_bits(c, rng, count=500)
        assert np.array_equal(mimo.modulate(bits, c), oracle_modulate(bits, mod, 3))

    @pytest.mark.parametrize("mod", MODS)
    def test_demodulate_equals_nearest_complex_point(self, mod, rng):
        c = cfg(mod, n_t=3, n_r=3)
        # soft inputs spread past the outer levels, plus all-zero rails,
        # where every rail sits on a tie
        soft = rng.standard_normal((2, 500, 6)) * 0.6
        soft[0, 0] = 0.0
        assert np.array_equal(oracles.demodulate(soft, c), oracle_demodulate(soft, mod, 3))

    @pytest.mark.parametrize("mod,n_t", [("bpsk", 3), ("qpsk", 2), ("qam16", 2)])
    def test_candidate_matrix_equals_complex_product(self, mod, n_t):
        points, _ = complex_points(mod, n_t)
        combos = np.array(list(itertools.product(points, repeat=n_t)))
        expected = embed(combos).T
        assert np.array_equal(baselines._ml_tables(cfg(mod, n_t=n_t, n_r=n_t))[0], expected)


def argmin_levels(x_real, config):
    """Nearest level per bit-carrying rail as one broadcast argmin.

    argmin keeps the first minimum, so ties go to the lower level index, and
    a NaN rail, whose distances are all NaN, gets level 0.
    """
    n_rails = config.n_t if config.modulation is mimo.Modulation.BPSK else 2 * config.n_t
    x = np.asarray(x_real, dtype=float)[..., :n_rails]
    return np.argmin(np.abs(x[..., None] - mimo.rail_alphabets(config)[0]), axis=-1)


class TestRailDecisions:
    """demodulate and the decided symbol against the broadcast-argmin oracle."""

    @staticmethod
    def stacked_soft(c, rng, dtype):
        # (lanes, trials, vectors, rails), spread past the outer levels
        soft = rng.standard_normal((3, 4, 50, 2 * c.n_t)) * 0.6
        levels = mimo.rail_alphabets(c)[0]
        between = (levels[:, None] + levels[None, :]) / 2
        # every rail of a row on one midpoint between two levels, then
        # non-finite rails
        specials = np.concatenate([between.ravel(), [np.inf, -np.inf, np.nan]])
        soft[0, 0, :specials.size] = specials[:, None]
        soft[1, 2, 0, ::2] = np.nan
        soft[2, 3, 0, 1::2] = -np.inf
        return soft.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mod", MODS)
    def test_equal_to_the_argmin_oracle(self, mod, dtype, rng, monkeypatch):
        c = cfg(mod, n_t=4, n_r=4)
        soft = self.stacked_soft(c, rng, dtype)
        got = oracles.demodulate(soft, c), mimo.modulate(oracles.demodulate(soft, c), c)
        monkeypatch.setattr(mimo, "_nearest_levels", argmin_levels)
        want = oracles.demodulate(soft, c), mimo.modulate(oracles.demodulate(soft, c), c)
        assert got[0].shape == (3, 4, 50, c.bits_per_vector)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mod,tie,lower", [("qpsk", 0.0, 0), ("qam16", 0.0, 1)])
    def test_a_tie_goes_to_the_lower_index_and_nan_to_level_0(self, mod, tie, lower, dtype):
        # 0 is exactly midway between +s and -s: the distances tie bitwise
        c = cfg(mod, n_t=2, n_r=2)
        x = np.array([tie, np.nan, np.inf, -np.inf], dtype=dtype)
        assert mimo._nearest_levels(x, c).tolist() == [lower, 0, 0, 0]
        assert argmin_levels(x, c).tolist() == [lower, 0, 0, 0]


class TestBitErrors:
    """The scorer on sent levels against demapping the decisions to bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mod", MODS)
    def test_equals_the_demapped_count(self, mod, dtype, rng):
        # every special rail of TestRailDecisions: midpoint ties, lone NaN
        # and infinite rails, BPSK's bitless quadrature rails
        c = cfg(mod, n_t=4, n_r=4)
        soft = TestRailDecisions.stacked_soft(c, rng, dtype)
        bits = mimo.random_bits(c, rng, count=3 * 4 * 50).reshape(3, 4, 50, -1)
        sent = mimo.bit_levels(bits, c)
        assert np.array_equal(oracles.payload_bits(sent, c), bits)
        want = np.count_nonzero(oracles.demodulate(soft, c) != bits)
        assert mimo.bit_errors(soft, sent, c) == want
        # a lane that decides every rail as sent
        assert mimo.bit_errors(mimo.level_rails(sent, c).astype(dtype), sent, c) == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mod", MODS)
    def test_equals_the_nearest_complex_point_count(self, mod, dtype, rng):
        # the brute-force complex oracle decides a whole symbol, so its NaN
        # and tie cases are whole antennas: both rails NaN, or both on one
        # midpoint between two levels
        n_t = 3
        c = cfg(mod, n_t=n_t, n_r=3)
        soft = rng.standard_normal((4, 100, 2 * n_t)) * 0.6
        if mod == "bpsk":
            soft[..., n_t:] = 0.0
        levels = mimo.rail_alphabets(c)[0]
        between = ((levels[:, None] + levels[None, :]) / 2).ravel()
        for row, value in enumerate(np.concatenate([between, [np.nan]])):
            soft[0, row, [0, n_t]] = value
            soft[1, row, :] = value
        soft[2, :, 1::n_t] = np.nan
        soft = soft.astype(dtype)
        bits = mimo.random_bits(c, rng, count=400).reshape(4, 100, -1)
        want = np.count_nonzero(oracle_demodulate(soft, mod, n_t) != bits)
        assert mimo.bit_errors(soft, mimo.bit_levels(bits, c), c) == want

    @pytest.mark.parametrize("mod", MODS)
    def test_sent_levels_are_the_oracle_symbols(self, mod, rng):
        c = cfg(mod, n_t=3, n_r=3)
        bits = mimo.random_bits(c, rng, count=500)
        sent = mimo.bit_levels(bits, c)
        assert np.array_equal(sent, oracles.sent_levels(oracle_modulate(bits, mod, 3), c))
        assert np.array_equal(mimo.level_rails(sent, c), mimo.modulate(bits, c))


class TestAlphabetCache:
    @pytest.mark.parametrize("mod", MODS)
    def test_cached_per_size_and_read_only(self, mod):
        c = cfg(mod, n_t=3, n_r=3)
        alphabets = mimo.rail_alphabets(c)
        assert mimo.rail_alphabets(cfg(mod, n_t=3, n_r=5)) is alphabets
        assert len(mimo.rail_alphabets(cfg(mod, n_t=2, n_r=2))) == 4
        for arr in alphabets:
            with pytest.raises(ValueError):
                arr[0] = 0


class TestTwoPointAlphabets:
    @pytest.mark.parametrize("mod", ["bpsk", "qpsk"])
    @pytest.mark.parametrize("n_t", [1, 2, 3, 4, 8])
    def test_two_point_alphabets_are_plus_and_minus_s(self, mod, n_t):
        # sphere_decode's first descent takes a two-point rail's second
        # sibling as -x and its distances as |center -+ s|, exactly
        two_point = [a for a in mimo.rail_alphabets(cfg(mod, n_t=n_t, n_r=n_t)) if len(a) == 2]
        assert len(two_point) == (n_t if mod == "bpsk" else 2 * n_t)
        for alpha in two_point:
            assert alpha[0] > 0 and alpha[1] == -alpha[0]


class TestTransmit:
    def test_channel_stack_sends_each_channel_its_rows(self, rng):
        c = cfg("qpsk", n_t=4, n_r=6)
        h = mimo.generate_channel(c, rng, count=3)
        x = mimo.modulate(mimo.random_bits(c, rng, count=15).reshape(3, 5, -1), c)
        y = mimo.transmit(h, x, 0.0, rng)
        assert y.shape == (3, 5, 12)
        for w in range(3):
            assert np.array_equal(y[w], mimo.transmit(h[w], x[w], 0.0, rng))

    def test_noise_variance(self, rng):
        c = cfg(n_t=1, n_r=1)
        h = mimo.generate_channel(c, rng)
        draws = np.stack(
            [mimo.transmit(h, np.zeros((1, 2)), 0.3, rng) for _ in range(50_000)]
        )
        assert np.allclose(draws.var(axis=0), 0.09, rtol=0.05)

    def test_seeded_reproducibility(self):
        c = cfg()
        h = mimo.generate_channel(c, np.random.default_rng(0))
        x = mimo.modulate(mimo.random_bits(c, np.random.default_rng(1)), c)
        y1 = mimo.transmit(h, x, 0.5, np.random.default_rng(7))
        y2 = mimo.transmit(h, x, 0.5, np.random.default_rng(7))
        assert np.array_equal(y1, y2)

    def test_snr_ratio(self, rng):
        # E||Hx||^2 / E||n||^2 == 10^(snr/10) under the unit-power convention
        c = cfg("qpsk", n_t=4, n_r=6)
        snr_db = 7.0
        sigma = mimo.sigma_from_snr(snr_db)
        n_draws = 100_000
        per_channel = 500
        sig = np.empty(n_draws)
        for i in range(n_draws // per_channel):
            h = mimo.generate_channel(c, rng)
            bits = mimo.random_bits(c, rng, count=per_channel)
            x = mimo.modulate(bits, c)
            sig[i * per_channel:(i + 1) * per_channel] = np.sum((x @ h.T) ** 2, axis=-1)
        noise = sigma * rng.standard_normal((n_draws, 2 * c.n_r))
        ratio = sig.mean() / np.mean(np.sum(noise**2, axis=-1))
        assert abs(ratio / 10 ** (snr_db / 10) - 1) < 0.02


class TestSigmaFromSnr:
    def test_values(self):
        assert mimo.sigma_from_snr(0.0) == pytest.approx(1.0)
        assert mimo.sigma_from_snr(20.0) == pytest.approx(0.1)
        assert mimo.sigma_from_snr(np.inf) == 0.0


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_embedding_product_property(n_t, seed):
    rng = np.random.default_rng(seed)
    c = MimoConfig(n_t=n_t, n_r=n_t + 2)
    h = complex_channel(c, rng)
    x = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
    assert np.allclose(to_real(h) @ embed(x), embed(h @ x), rtol=1e-12, atol=1e-12)
