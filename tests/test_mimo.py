import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immimo import mimo
from immimo.mimo import MimoConfig, Modulation


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def cfg(mod="qpsk", n_t=2, n_r=2, **kw):
    return MimoConfig(n_t=n_t, n_r=n_r, modulation=mod, **kw)


def to_complex(h_real):
    """Inverse of mimo.to_real (the top blocks are authoritative)."""
    n_r, n_t = h_real.shape[0] // 2, h_real.shape[1] // 2
    return h_real[:n_r, :n_t] + 1j * h_real[n_r:, :n_t]


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
        assert h.shape == (1, 1)
        h1 = mimo.generate_channel(cfg(), np.random.default_rng(5))
        h2 = mimo.generate_channel(cfg(), np.random.default_rng(5))
        assert np.array_equal(h1, h2)

    def test_entry_power_is_two(self, rng):
        # E|h|^2 = 2 since real and imaginary parts are both unit variance
        c = cfg(n_t=5, n_r=5)
        samples = np.concatenate(
            [np.abs(mimo.generate_channel(c, rng)) ** 2 for _ in range(4000)]
        )
        assert samples.size == 100_000
        assert 1.98 <= samples.mean() <= 2.02


class TestRealEmbedding:
    def test_real_scalar(self):
        assert np.array_equal(mimo.to_real(np.array([[1 + 0j]])), [[1, 0], [0, 1]])

    def test_imag_scalar(self):
        assert np.array_equal(mimo.to_real(np.array([[0 + 1j]])), [[0, -1], [1, 0]])

    def test_round_trip(self, rng):
        for _ in range(100):
            h = mimo.generate_channel(cfg(n_t=3, n_r=4), rng)
            assert np.array_equal(to_complex(mimo.to_real(h)), h)

    def test_block_structure(self, rng):
        h = mimo.to_real(mimo.generate_channel(cfg(n_t=3, n_r=4), rng))
        n_r, n_t = 4, 3
        assert np.array_equal(h[:n_r, :n_t], h[n_r:, n_t:])
        assert np.array_equal(h[n_r:, :n_t], -h[:n_r, n_t:])

    def test_embedding_preserves_products(self, rng):
        # to_real(H) @ embed(x) == embed(H @ x)
        for _ in range(100):
            h = mimo.generate_channel(cfg(n_t=3, n_r=5), rng)
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs = mimo.to_real(h) @ mimo.embed_vector(x)
            rhs = mimo.embed_vector(h @ x)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestModulation:
    def test_bpsk_bit0_is_plus_one(self):
        sv = mimo.modulate([0], cfg("bpsk", n_t=1, n_r=1))
        assert sv.complex_symbols[0] == pytest.approx(1.0)

    def test_qpsk_scaling(self):
        sv = mimo.modulate([0, 0, 0, 0], cfg("qpsk", n_t=2, n_r=2))
        assert np.allclose(sv.complex_symbols, [(1 + 1j) / 2, (1 + 1j) / 2])

    def test_qam16_unit_mean_energy(self):
        c = cfg("qam16", n_t=1, n_r=1)
        points, bit_table = mimo.constellation_points(c)
        assert len(points) == 16
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0)
        # every 4-bit label appears exactly once
        labels = {tuple(b) for b in bit_table}
        assert len(labels) == 16

    def test_wrong_bit_count_raises(self):
        with pytest.raises(ValueError):
            mimo.modulate([0, 1, 0], cfg("qpsk"))

    @pytest.mark.parametrize("mod", ["bpsk", "qpsk", "qam16"])
    def test_unit_average_power(self, mod, rng):
        c = cfg(mod, n_t=4, n_r=4)
        bits = mimo.random_bits(c, rng, count=100_000)
        sv = mimo.modulate(bits, c)
        power = np.sum(np.abs(sv.complex_symbols) ** 2, axis=-1)
        assert abs(power.mean() - 1.0) < 0.01

    @pytest.mark.parametrize("mod", ["bpsk", "qpsk", "qam16"])
    def test_modulate_demodulate_round_trip(self, mod, rng):
        c = cfg(mod, n_t=3, n_r=3)
        bits = mimo.random_bits(c, rng, count=200)
        sv = mimo.modulate(bits, c)
        assert np.array_equal(mimo.demodulate(sv.real, c), bits)

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
            sv = mimo.modulate(bits, c)
            bump = rng.uniform(-1, 1, size=sv.real.shape)
            bump *= 0.49 * min_dist / np.abs(bump).max()
            assert np.array_equal(mimo.demodulate(sv.real + bump, c), bits)


class TestAlphabetCache:
    @pytest.mark.parametrize("mod", ["bpsk", "qpsk", "qam16"])
    def test_cached_per_size_and_read_only(self, mod):
        c = cfg(mod, n_t=3, n_r=3)
        alphabets = mimo.rail_alphabets(c)
        points, bit_table = mimo.constellation_points(c)
        assert mimo.rail_alphabets(cfg(mod, n_t=3, n_r=5)) is alphabets
        assert mimo.constellation_points(c)[0] is points
        assert len(mimo.rail_alphabets(cfg(mod, n_t=2, n_r=2))) == 4
        for arr in (*alphabets, points, bit_table):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestTransmit:
    def test_noise_free(self, rng):
        c = cfg()
        h = mimo.to_real(mimo.generate_channel(c, rng))
        x = mimo.modulate(mimo.random_bits(c, rng)[0], c).real
        assert np.array_equal(mimo.transmit(h, x, 0.0, rng), h @ x)

    def test_noise_variance(self, rng):
        c = cfg(n_t=1, n_r=1)
        h = mimo.to_real(mimo.generate_channel(c, rng))
        draws = np.stack(
            [mimo.transmit(h, np.zeros(2), 0.3, rng) for _ in range(50_000)]
        )
        assert np.allclose(draws.var(axis=0), 0.09, rtol=0.05)

    def test_seeded_reproducibility(self):
        c = cfg()
        h = mimo.to_real(mimo.generate_channel(c, np.random.default_rng(0)))
        x = mimo.modulate(mimo.random_bits(c, np.random.default_rng(1))[0], c).real
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
            x = mimo.modulate(bits, c).complex_symbols
            sig[i * per_channel:(i + 1) * per_channel] = np.sum(
                np.abs(x @ h.T) ** 2, axis=-1
            )
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
    h = mimo.generate_channel(c, rng)
    x = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
    assert np.allclose(
        mimo.to_real(h) @ mimo.embed_vector(x),
        mimo.embed_vector(h @ x),
        rtol=1e-12,
        atol=1e-12,
    )
