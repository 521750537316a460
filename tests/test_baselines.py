import numpy as np
import pytest

from immimo import baselines, mimo
from immimo.mimo import MimoConfig


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def cfg(mod="qpsk", n_t=4, n_r=6):
    return MimoConfig(n_t=n_t, n_r=n_r, modulation=mod)


def noiseless_instance(c, rng):
    h = mimo.to_real(mimo.generate_channel(c, rng))
    bits = mimo.random_bits(c, rng)[0]
    x = mimo.modulate(bits, c).real
    return h, x, h @ x


def zf_soft(h, y, c):
    return baselines.linear_soft_batch(h, y[None], c)[0]


def mmse_soft(h, y, sigma_n, c):
    return baselines.linear_soft_batch(h, y[None], c, sigma_n=sigma_n)[0]


class TestZf:
    def test_noiseless_recovery(self, rng):
        c = cfg()
        for _ in range(20):
            h, x, y = noiseless_instance(c, rng)
            soft = zf_soft(h, y, c)
            assert np.allclose(mimo.decide_rails(soft, c), x)
            assert np.allclose(soft, x, atol=1e-8)

    def test_square_invertible_is_inverse(self, rng):
        c = cfg(n_t=3, n_r=3)
        h = mimo.to_real(mimo.generate_channel(c, rng))
        y = rng.standard_normal(6)
        assert np.allclose(zf_soft(h, y, c), np.linalg.solve(h, y), atol=1e-8)

    def test_orthogonal_columns_match_scaled_matched_filter(self, rng):
        c = cfg(n_t=2, n_r=4)
        q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        h = q * np.array([2.0, 3.0, 0.5, 1.5])  # orthogonal, unequal gains
        y = rng.standard_normal(8)
        mf = h.T @ y / np.array([4.0, 9.0, 0.25, 2.25])
        assert np.allclose(zf_soft(h, y, c), mf)

    def test_rank_deficient_signals(self):
        # the Gram solve alone returns a number for some of these channels
        c = cfg(n_t=2, n_r=3)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            h = np.stack([mimo.to_real(mimo.generate_channel(c, rng)) for _ in range(3)])
            h[seed % 3, :, 1] = h[seed % 3, :, 0]
            ys = rng.standard_normal((3, 2, 6))
            with pytest.raises(baselines.RankDeficientChannel):
                baselines.linear_soft_batch(h[seed % 3], ys[0], c)
            with pytest.raises(baselines.RankDeficientChannel):
                baselines.linear_soft_batch(h, ys, c)


class TestMmse:
    def test_converges_to_zf(self, rng):
        c = cfg()
        h, _, y = noiseless_instance(c, rng)
        y = y + 0.05 * rng.standard_normal(y.shape)
        assert np.linalg.norm(mmse_soft(h, y, 1e-6, c) - zf_soft(h, y, c)) < 1e-8

    def test_large_noise_shrinks_to_zero(self, rng):
        c = cfg()
        h, _, y = noiseless_instance(c, rng)
        assert np.linalg.norm(mmse_soft(h, y, 1e6, c)) < 1e-6

    def test_rank_deficient_channel_is_regularized(self, rng):
        c = cfg(n_t=2, n_r=3)
        h = mimo.to_real(mimo.generate_channel(c, rng))
        h[:, 1] = h[:, 0]
        assert np.all(np.isfinite(mmse_soft(h, rng.standard_normal(6), 0.3, c)))


class TestMl:
    def test_noiseless_recovery(self, rng):
        c = cfg(n_t=2, n_r=3)
        for _ in range(20):
            h, x, y = noiseless_instance(c, rng)
            out = baselines.ml_detect_exhaustive(h, y, c)
            assert np.allclose(out.x_hat_real, x)

    def test_bpsk_2x2_matches_brute_force(self, rng):
        c = cfg("bpsk", n_t=2, n_r=2)
        h, _, _ = noiseless_instance(c, rng)
        y = rng.standard_normal(4)
        out = baselines.ml_detect_exhaustive(h, y, c)
        assert out.node_count == 4
        # brute force over the 4 bit patterns through the modulator
        best, best_d = None, np.inf
        for b0 in (0, 1):
            for b1 in (0, 1):
                x = mimo.modulate([b0, b1], c).real
                d = np.sum((y - h @ x) ** 2)
                if d < best_d:
                    best, best_d = x, d
        assert np.allclose(out.x_hat_real, best)

    def test_tie_goes_to_lexicographic_candidate(self):
        c = cfg("bpsk", n_t=1, n_r=1)
        h = np.eye(2)
        # equidistant between the two BPSK points +1 and -1
        out = baselines.ml_detect_exhaustive(h, np.zeros(2), c)
        assert out.x_hat_real[0] == pytest.approx(1.0)  # bit 0 sorts first

    def test_search_space_guard(self):
        c = cfg("qam16", n_t=8, n_r=8)
        with pytest.raises(ValueError):
            baselines.ml_detect_exhaustive(np.eye(16), np.zeros(16), c)

    def test_batch_matches_single(self, rng):
        c = cfg(n_t=3, n_r=4)
        h, _, _ = noiseless_instance(c, rng)
        ys = rng.standard_normal((6, 8))
        batch = baselines.ml_detect_batch(h, ys, c)
        for i in range(6):
            single = baselines.ml_detect_exhaustive(h, ys[i], c)
            assert np.allclose(batch[i], single.x_hat_real)


class TestStackedChannels:
    def test_stack_matches_per_channel(self, rng):
        c = cfg(n_t=3, n_r=4)
        h = np.stack([mimo.to_real(mimo.generate_channel(c, rng)) for _ in range(5)])
        ys = rng.standard_normal((5, 6, 8))
        ml = baselines.ml_detect_batch(h, ys, c)
        zf = baselines.linear_soft_batch(h, ys, c)
        mmse = baselines.linear_soft_batch(h, ys, c, sigma_n=0.3)
        for w in range(5):
            assert np.array_equal(ml[w], baselines.ml_detect_batch(h[w], ys[w], c))
            assert np.allclose(zf[w], baselines.linear_soft_batch(h[w], ys[w], c))
            assert np.allclose(
                mmse[w], baselines.linear_soft_batch(h[w], ys[w], c, sigma_n=0.3)
            )


class TestSphereDecoder:
    @pytest.mark.parametrize("mod,n_t,n_r", [
        ("qpsk", 4, 4), ("bpsk", 4, 6), ("qam16", 2, 3),
    ])
    def test_matches_exhaustive(self, mod, n_t, n_r, rng):
        c = cfg(mod, n_t=n_t, n_r=n_r)
        for _ in range(60):
            h = mimo.to_real(mimo.generate_channel(c, rng))
            bits = mimo.random_bits(c, rng)[0]
            x = mimo.modulate(bits, c).real
            y = mimo.transmit(h, x, 0.4, rng)
            sd = baselines.sphere_decode(h, y, c)
            ml = baselines.ml_detect_exhaustive(h, y, c)
            assert np.allclose(sd.x_hat_real, ml.x_hat_real)

    def test_noiseless_visits_fewer_nodes_than_exhaustive(self, rng):
        c = cfg(n_t=4, n_r=4)
        for _ in range(20):
            h, x, y = noiseless_instance(c, rng)
            sd = baselines.sphere_decode(h, y, c)
            assert np.allclose(sd.x_hat_real, x)
            assert sd.node_count <= baselines.candidate_matrix(c).shape[1]

    def test_pruning_improves_with_snr(self, rng):
        c = cfg(n_t=4, n_r=4)
        counts = {}
        for snr in (0.0, 10.0):
            sigma = mimo.sigma_from_snr(snr)
            nodes = []
            for _ in range(100):
                h, x, _ = noiseless_instance(c, rng)
                y = mimo.transmit(h, x, sigma, rng)
                nodes.append(baselines.sphere_decode(h, y, c).node_count)
            counts[snr] = np.mean(nodes)
        assert counts[10.0] < counts[0.0]

    def test_rank_deficiency_signals(self, rng):
        c = cfg(n_t=2, n_r=3)
        h = mimo.to_real(mimo.generate_channel(c, rng))
        h[:, 2] = h[:, 0]
        with pytest.raises(baselines.RankDeficientChannel):
            baselines.sphere_decode(h, np.zeros(6), c)


class TestDetectorOrdering:
    def test_ml_beats_mmse_beats_zf(self, rng):
        # 10 dB, desk scale; a fast 100k-bit version of the standard ordering
        c = cfg()
        sigma = mimo.sigma_from_snr(10.0)
        errs = {"zf": 0, "mmse": 0, "ml": 0}
        total = 0
        for _ in range(1200):
            h = mimo.to_real(mimo.generate_channel(c, rng))
            bits = mimo.random_bits(c, rng, count=14)
            x = mimo.modulate(bits, c).real
            ys = mimo.transmit(h, x, sigma, rng)
            for name, soft in (
                ("zf", baselines.linear_soft_batch(h, ys, c)),
                ("mmse", baselines.linear_soft_batch(h, ys, c, sigma_n=sigma)),
            ):
                hat = mimo.demodulate(mimo.decide_rails(soft, c), c)
                errs[name] += np.sum(hat != bits)
            hat = mimo.demodulate(baselines.ml_detect_batch(h, ys, c), c)
            errs["ml"] += np.sum(hat != bits)
            total += bits.size
        assert total >= 100_000
        assert errs["ml"] <= errs["mmse"] <= errs["zf"]
