import math
import tracemalloc

import numpy as np
import pytest

import oracles
from immimo import baselines, harness, mimo
from immimo.mimo import MimoConfig


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def cfg(mod="qpsk", n_t=4, n_r=6):
    return MimoConfig(n_t=n_t, n_r=n_r, modulation=mod)


def noiseless_instance(c, rng):
    h = mimo.generate_channel(c, rng)
    bits = mimo.random_bits(c, rng)[0]
    x = mimo.modulate(bits, c)
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
            assert np.allclose(mimo.modulate(oracles.demodulate(soft, c), c), x)
            assert np.allclose(soft, x, atol=1e-8)

    def test_square_invertible_is_inverse(self, rng):
        c = cfg(n_t=3, n_r=3)
        h = mimo.generate_channel(c, rng)
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
            h = np.stack([mimo.generate_channel(c, rng) for _ in range(3)])
            h[seed % 3, :, 1] = h[seed % 3, :, 0]
            ys = rng.standard_normal((3, 2, 6))
            with pytest.raises(baselines.RankDeficientChannel):
                baselines.linear_soft_batch(h[seed % 3], ys[0], c)
            with pytest.raises(baselines.RankDeficientChannel):
                baselines.linear_soft_batch(h, ys, c)


    @pytest.mark.parametrize("eps,deficient", [(0.0, True), (1e-15, True), (1e-13, True),
                                               (1e-10, False), (1e-6, False), (None, True)])
    def test_one_nearly_deficient_channel_in_a_stack(self, eps, deficient):
        # ZF takes SD's pivot test: channel 2's second column is its first
        # plus eps times noise, so its second QR pivot is about 3.5 eps
        # against a largest pivot of about 4; the test's threshold 1e-12
        # relative flags eps up to about 1e-12, where an SVD rank at machine
        # precision flagged only eps below about 1e-14.  eps None zeroes the
        # whole channel, whose largest pivot is 0 too
        c = cfg()
        rng = np.random.default_rng(8)
        h = mimo.generate_channel(c, rng, count=4)
        if eps is None:
            h[2] = 0.0
        else:
            h[2, :, 1] = h[2, :, 0] + eps * rng.standard_normal(h.shape[1])
        ys = rng.standard_normal((4, 3, 12))
        raised = []
        for detect in (lambda: baselines.linear_soft_batch(h, ys, c),
                       lambda: baselines.sphere_decode(h, ys, c)):
            try:
                detect()
            except baselines.RankDeficientChannel:
                raised.append(True)
            else:
                raised.append(False)
        assert raised == [deficient, deficient]


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
        h = mimo.generate_channel(c, rng)
        h[:, 1] = h[:, 0]
        assert np.all(np.isfinite(mmse_soft(h, rng.standard_normal(6), 0.3, c)))


class TestMl:
    def test_noiseless_recovery(self, rng):
        c = cfg(n_t=2, n_r=3)
        for _ in range(20):
            h, x, y = noiseless_instance(c, rng)
            out = oracles.ml_detect_exhaustive(h, y, c)
            assert np.allclose(out.x_hat_real, x)

    def test_bpsk_2x2_matches_brute_force(self, rng):
        c = cfg("bpsk", n_t=2, n_r=2)
        h, _, _ = noiseless_instance(c, rng)
        y = rng.standard_normal(4)
        out = oracles.ml_detect_exhaustive(h, y, c)
        assert out.node_count == 4
        # brute force over the 4 bit patterns through the modulator
        best, best_d = None, np.inf
        for b0 in (0, 1):
            for b1 in (0, 1):
                x = mimo.modulate([b0, b1], c)
                d = np.sum((y - h @ x) ** 2)
                if d < best_d:
                    best, best_d = x, d
        assert np.allclose(out.x_hat_real, best)

    def test_tie_goes_to_lexicographic_candidate(self):
        c = cfg("bpsk", n_t=1, n_r=1)
        h = np.eye(2)
        # equidistant between the two BPSK points +1 and -1
        out = oracles.ml_detect_exhaustive(h, np.zeros(2), c)
        assert out.x_hat_real[0] == pytest.approx(1.0)  # bit 0 sorts first

    def test_search_space_guard(self):
        c = cfg("qam16", n_t=8, n_r=8)
        with pytest.raises(ValueError):
            oracles.ml_detect_exhaustive(np.eye(16), np.zeros(16), c)

    def test_batch_matches_single(self, rng):
        c = cfg(n_t=3, n_r=4)
        h, _, _ = noiseless_instance(c, rng)
        ys = rng.standard_normal((6, 8))
        batch = baselines.ml_detect_batch(h[None], ys[None], c)[0]
        for i in range(6):
            single = oracles.ml_detect_exhaustive(h, ys[i], c)
            assert np.allclose(batch[i], single.x_hat_real)

    def test_channels_and_vectors_stack_alike(self, rng):
        # one channel is a stack of one, h[None]; neither side is broadcast
        # over the other's stack
        c = cfg(n_t=2, n_r=3)
        h = mimo.generate_channel(c, rng, count=3)
        ys = rng.standard_normal((3, 5, 6))
        for h_in, ys_in in ((h[0], ys[0]), (h[0], ys), (h[:1], ys), (h, ys[0])):
            with pytest.raises(ValueError, match="n_ch"):
                baselines.ml_detect_batch(h_in, ys_in, c)


def ml_metrics_gram(h_real, ys, config):
    """q + (y^T H)(-2X) for every candidate as one expression: the Gram form
    of ||Hx||^2 - 2 y^T Hx, with q = x^T G x summed over the upper triangle
    of G = H^T H, each term off the diagonal twice."""
    x_cands = oracles.candidate_matrix(config)
    rows, cols = np.triu_indices(len(x_cands))
    pairs = np.where(rows == cols, 1.0, 2.0)[:, None] * x_cands[rows] * x_cands[cols]
    gram = np.swapaxes(h_real, -1, -2) @ h_real
    q = gram[..., rows, cols] @ pairs
    return q[..., None, :] + (ys @ h_real) @ (-2.0 * x_cands)


def wave(c, rng, snr, channels=8, vectors=14):
    h = np.stack([mimo.generate_channel(c, rng) for _ in range(channels)])
    bits = mimo.random_bits(c, rng, count=channels * vectors).reshape(channels, vectors, -1)
    ys = np.stack([mimo.transmit(h[w], mimo.modulate(bits[w], c),
                                 mimo.sigma_from_snr(snr), rng) for w in range(channels)])
    return h, ys


class TestMlMetric:
    @pytest.mark.parametrize("mod,n_t,n_r", [
        ("bpsk", 4, 6), ("qpsk", 4, 6), ("qam16", 2, 3),
    ])
    def test_in_place_metric_equals_the_expanded_expression(self, mod, n_t, n_r,
                                                            monkeypatch):
        c = cfg(mod, n_t=n_t, n_r=n_r)
        rng = np.random.default_rng(21)
        seen = []
        argmin = np.argmin
        monkeypatch.setattr(np, "argmin", lambda a, **kw: seen.append(a.copy())
                            or argmin(a, **kw))
        for snr in (0.0, 6.0, 14.0, 30.0):
            h, ys = wave(c, rng, snr)
            got = baselines.ml_detect_batch(h, ys, c)
            want = ml_metrics_gram(h, ys, c)
            assert np.array_equal(seen.pop(), want)
            assert np.array_equal(got, oracles.candidate_matrix(c).T[argmin(want, axis=-1)])

    def test_one_wave_allocates_little_beyond_its_metrics(self):
        c = cfg()
        h, ys = wave(c, np.random.default_rng(22), 10.0)
        baselines.ml_detect_batch(h, ys, c)  # fills the candidate cache
        metrics_bytes = 8 * 14 * 2 ** c.bits_per_vector * 8
        tracemalloc.start()
        try:
            baselines.ml_detect_batch(h, ys, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * metrics_bytes

    def test_metrics_fill_one_buffer(self, monkeypatch):
        # one block-sized buffer per call, reused by every block
        c = cfg()
        h, ys = wave(c, np.random.default_rng(23), 10.0, channels=20)
        baselines.ml_detect_batch(h, ys, c)  # fills the candidate cache
        live = []
        argmin = np.argmin

        def at_argmin(a, **kw):
            # the metrics are alive here; q, G's triangles and y^T H are small
            live.append([t.size for t in tracemalloc.take_snapshot().traces
                         if t.size >= 64 * 1024])
            return argmin(a, **kw)

        monkeypatch.setattr(np, "argmin", at_argmin)
        tracemalloc.start()
        try:
            baselines.ml_detect_batch(h, ys, c)
        finally:
            tracemalloc.stop()
        n_cand = 2 ** c.bits_per_vector
        assert live == [[baselines.ML_BLOCK * 14 * n_cand * 8]] * 3

    @pytest.mark.parametrize("channels,layout", [
        (1, "stacked"), (7, "stacked"), (9, "stacked"), (29, "stacked"), (9, "one-vector"),
    ])
    def test_blocks_decide_as_the_expanded_expression(self, channels, layout, monkeypatch):
        # one short block, a full block and a short last one, and one vector
        # per channel.  Each block's products run at the full block's shape,
        # so a channel's metrics are the bits it gets alone.
        c = cfg()
        rng = np.random.default_rng(24)
        seen = []
        argmin = np.argmin
        monkeypatch.setattr(np, "argmin", lambda a, **kw: seen.append(a.copy())
                            or argmin(a, **kw))
        for snr in (0.0, 14.0):
            h, ys = wave(c, rng, snr, channels=channels)
            if layout == "one-vector":
                ys = ys[:, :1]
            got = baselines.ml_detect_batch(h, ys, c)
            want = ml_metrics_gram(h, ys, c)
            stacked = np.concatenate(seen).reshape(want.shape)
            seen.clear()
            for w in range(channels):
                baselines.ml_detect_batch(h[w:w + 1], ys[w:w + 1], c)
                assert np.array_equal(seen.pop()[0], stacked[w])
            assert np.array_equal(got, oracles.candidate_matrix(c).T[argmin(want, axis=-1)])

    def test_a_full_wave_peaks_as_one_block_plus_its_decisions(self):
        c = cfg()
        h, ys = wave(c, np.random.default_rng(25), 10.0, channels=32)
        baselines.ml_detect_batch(h, ys, c)  # fills the candidate cache

        def peak(n):
            tracemalloc.start()
            try:
                x_hat = baselines.ml_detect_batch(h[:n], ys[:n], c)
                return tracemalloc.get_traced_memory()[1], x_hat
            finally:
                tracemalloc.stop()

        block_peak, _ = peak(baselines.ML_BLOCK)
        wave_peak, x_hat = peak(32)
        # the rails and the candidate index of every decision
        decisions = x_hat.nbytes + x_hat[..., 0].size * np.dtype(np.intp).itemsize
        assert wave_peak <= block_peak + decisions


class TestMlDecisions:
    @pytest.mark.parametrize("mod,n_t,n_r", [
        ("bpsk", 4, 6), ("qpsk", 4, 6), ("qam16", 2, 3), ("qam16", 3, 4),
    ])
    def test_decisions_equal_the_textbook_argmin(self, mod, n_t, n_r):
        # the Gram form against argmin ||y - Hx||^2 itself
        c = cfg(mod, n_t=n_t, n_r=n_r)
        rng = np.random.default_rng(26)
        for snr in (0.0, 6.0, 10.0, 14.0, 20.0, 30.0):
            h, ys = wave(c, rng, snr, channels=12)
            want = [oracles.ml_detect_exhaustive(h[w], ys[w], c).x_hat_real
                    for w in range(12)]
            assert np.array_equal(baselines.ml_detect_batch(h, ys, c), np.stack(want)), snr

    @pytest.mark.parametrize("mod,n_t,n_r", [
        ("bpsk", 4, 6), ("qpsk", 4, 6), ("qam16", 2, 3),
    ])
    def test_decisions_equal_the_sphere_decoders_at_the_noise_floor(self, mod, n_t, n_r):
        # at -100 dB, y is almost all noise, so the metrics are the largest
        # against their differences, and the Gram arithmetic and the QR
        # search's still agree
        c = cfg(mod, n_t=n_t, n_r=n_r)
        h, ys = wave(c, np.random.default_rng(27), -100.0)
        assert np.array_equal(baselines.ml_detect_batch(h, ys, c),
                              baselines.sphere_decode(h, ys, c).x_hat_real)


class TestStackedChannels:
    def test_stack_matches_per_channel(self, rng):
        c = cfg(n_t=3, n_r=4)
        h = np.stack([mimo.generate_channel(c, rng) for _ in range(5)])
        ys = rng.standard_normal((5, 6, 8))
        ml = baselines.ml_detect_batch(h, ys, c)
        zf = baselines.linear_soft_batch(h, ys, c)
        mmse = baselines.linear_soft_batch(h, ys, c, sigma_n=0.3)
        for w in range(5):
            assert np.array_equal(ml[w], baselines.ml_detect_batch(h[w:w + 1], ys[w:w + 1], c)[0])
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
            h = mimo.generate_channel(c, rng)
            bits = mimo.random_bits(c, rng)[0]
            x = mimo.modulate(bits, c)
            y = mimo.transmit(h, x[None], 0.4, rng)
            sd = baselines.sphere_decode(h, y, c)
            ml = oracles.ml_detect_exhaustive(h, y, c)
            assert np.allclose(sd.x_hat_real, ml.x_hat_real)

    def test_noiseless_visits_fewer_nodes_than_exhaustive(self, rng):
        c = cfg(n_t=4, n_r=4)
        for _ in range(20):
            h, x, y = noiseless_instance(c, rng)
            sd = baselines.sphere_decode(h, y[None], c)
            assert np.allclose(sd.x_hat_real, x)
            assert sd.node_count <= oracles.candidate_matrix(c).shape[1]

    def test_pruning_improves_with_snr(self, rng):
        c = cfg(n_t=4, n_r=4)
        counts = {}
        for snr in (0.0, 10.0):
            sigma = mimo.sigma_from_snr(snr)
            nodes = []
            for _ in range(100):
                h, x, _ = noiseless_instance(c, rng)
                y = mimo.transmit(h, x[None], sigma, rng)
                nodes.append(baselines.sphere_decode(h, y, c).node_count)
            counts[snr] = np.mean(nodes)
        assert counts[10.0] < counts[0.0]

    def test_rank_deficiency_signals(self, rng):
        c = cfg(n_t=2, n_r=3)
        h = mimo.generate_channel(c, rng)
        h[:, 2] = h[:, 0]
        with pytest.raises(baselines.RankDeficientChannel):
            baselines.sphere_decode(h, np.zeros((1, 6)), c)

    @pytest.mark.parametrize("mod,n_t,n_r", [
        ("qpsk", 4, 6), ("bpsk", 4, 6), ("qam16", 2, 3),
    ])
    def test_settled_vectors_skip_the_search(self, mod, n_t, n_r, monkeypatch):
        # at 30 dB no second sibling of these waves beats its Babai metric,
        # so the first descent's sibling metrics alone settle every vector
        c = cfg(mod, n_t=n_t, n_r=n_r)
        h, ys = wave(c, np.random.default_rng(43), 30.0)
        searched = []
        search = baselines._search
        monkeypatch.setattr(baselines, "_search",
                            lambda *args: searched.append(args) or search(*args))
        baselines.sphere_decode(h, ys, c)
        assert searched == []


class TestDetectorOrdering:
    def test_ml_beats_mmse_beats_zf(self, rng):
        # 10 dB, desk scale; a fast 100k-bit version of the standard ordering
        c = cfg()
        sigma = mimo.sigma_from_snr(10.0)
        errs = {"zf": 0, "mmse": 0, "ml": 0}
        total = 0
        for _ in range(1200):
            h = mimo.generate_channel(c, rng)
            bits = mimo.random_bits(c, rng, count=14)
            x = mimo.modulate(bits, c)
            ys = mimo.transmit(h, x, sigma, rng)
            for name, soft in (
                ("zf", baselines.linear_soft_batch(h, ys, c)),
                ("mmse", baselines.linear_soft_batch(h, ys, c, sigma_n=sigma)),
            ):
                hat = oracles.demodulate(soft, c)
                errs[name] += np.sum(hat != bits)
            hat = oracles.demodulate(baselines.ml_detect_batch(h[None], ys[None], c)[0], c)
            errs["ml"] += np.sum(hat != bits)
            total += bits.size
        assert total >= 100_000
        assert errs["ml"] <= errs["mmse"] <= errs["zf"]


def payload(x_hat, c):
    """The decided bits of one vector as an integer, first bit most significant."""
    return int("".join(str(int(b)) for b in oracles.demodulate(x_hat, c)), 2)


# Per-vector node counts and decided payloads of the depth-first search with
# Schnorr-Euchner order, one vector per call, for 3 channels x 4 vectors per
# SNR drawn from default_rng(100 + case index) as in TestPinnedSearch.
PINNED = {
    ("qpsk", 4, 6): {
        0.0: ([17, 38, 16, 28, 43, 92, 37, 16, 59, 24, 103, 42],
              [183, 169, 71, 4, 170, 189, 16, 34, 190, 28, 153, 68]),
        6.0: ([17, 29, 17, 24, 26, 19, 22, 19, 19, 20, 44, 35],
              [159, 137, 159, 72, 183, 19, 72, 221, 241, 131, 106, 245]),
        14.0: ([16, 16, 16, 16, 16, 16, 16, 16, 23, 19, 16, 16],
               [143, 107, 69, 137, 1, 231, 70, 85, 42, 36, 96, 179]),
        30.0: ([16] * 12,
               [214, 246, 231, 55, 61, 153, 136, 142, 101, 147, 80, 172]),
    },
    ("bpsk", 4, 6): {
        0.0: ([12, 12, 12, 12, 17, 12, 12, 16, 12, 12, 13, 17],
              [14, 14, 8, 7, 7, 2, 13, 3, 11, 6, 4, 6]),
        6.0: ([12, 12, 12, 12, 12, 15, 12, 12, 12, 12, 12, 12],
              [15, 15, 12, 8, 3, 8, 1, 13, 0, 0, 15, 2]),
        14.0: ([12] * 12, [9, 11, 14, 12, 9, 11, 6, 0, 6, 8, 6, 11]),
        30.0: ([12] * 12, [0, 6, 0, 3, 7, 1, 1, 6, 15, 12, 6, 7]),
    },
    ("qam16", 2, 3): {
        0.0: ([8, 19, 17, 10, 17, 8, 96, 15, 19, 22, 8, 38],
              [92, 157, 97, 83, 186, 50, 21, 226, 154, 11, 178, 33]),
        6.0: ([8, 8, 14, 8, 23, 12, 16, 18, 8, 8, 8, 8],
              [56, 94, 240, 186, 150, 218, 199, 146, 130, 242, 80, 243]),
        14.0: ([8, 8, 8, 8, 8, 8, 8, 8, 11, 8, 8, 8],
               [182, 71, 99, 121, 178, 153, 91, 95, 75, 210, 84, 119]),
        30.0: ([8] * 12,
               [115, 62, 111, 134, 55, 105, 130, 219, 217, 110, 242, 254]),
    },
}


class TestPinnedSearch:
    """The decoder's exact decisions and node counts, vector by vector.

    A settled vector costs min(2, |alphabet|) nodes per level: 16 for 4x6
    QPSK, 12 for 4x6 BPSK (its quadrature rails hold one value) and 8 for
    2x3 16QAM.  Any other count comes from a search past the Babai point.
    """

    @pytest.mark.parametrize("index", range(len(PINNED)))
    def test_nodes_and_decisions_per_vector(self, index):
        (mod, n_t, n_r), pinned = list(PINNED.items())[index]
        c = cfg(mod, n_t=n_t, n_r=n_r)
        rng = np.random.default_rng(100 + index)
        for snr, (nodes, payloads) in pinned.items():
            got_nodes, got_payloads = [], []
            for _ in range(3):
                h = mimo.generate_channel(c, rng)
                bits = mimo.random_bits(c, rng, count=4)
                ys = mimo.transmit(h, mimo.modulate(bits, c), mimo.sigma_from_snr(snr), rng)
                for v in range(len(ys)):
                    out = baselines.sphere_decode(h, ys[v:v + 1], c)
                    got_nodes.append(out.node_count)
                    got_payloads.append(payload(out.x_hat_real[0], c))
            assert (got_nodes, got_payloads) == (nodes, payloads), snr

    def test_noiseless_vector_settles_at_the_sent_point(self):
        c = cfg()
        rng = np.random.default_rng(7)
        for _ in range(3):
            h, x, y = noiseless_instance(c, rng)
            out = baselines.sphere_decode(h, y[None], c)
            assert np.array_equal(out.x_hat_real[0], x)
            assert out.node_count == 16

    # R = H (upper triangular with a positive diagonal, so Q = I).  Rail 3
    # decides 0.5, which leaves rail 2's center at exactly 0.0, on the QPSK
    # decision boundary: the search tries alphabet order (+0.5 first), and the
    # tie sends the vector past the Babai point.
    BOUNDARY_H = np.array([
        [2.0, 0.5, 0.5, 0.25], [0.0, 1.0, 0.5, 0.5], [0.0, 0.0, 1.0, 0.5],
        [0.0, 0.0, 0.0, 2.0],
    ])

    @pytest.mark.parametrize("y,nodes,x_hat", [
        ([0.3, -0.2, 0.25, 1.1], 12, [0.5, -0.5, -0.5, 0.5]),
        ([0.3, 0.2, 0.25, 1.1], 14, [0.5, -0.5, -0.5, 0.5]),
        ([-0.6, 0.4, 0.25, 1.1], 12, [-0.5, 0.5, -0.5, 0.5]),
    ])
    def test_center_on_a_decision_boundary(self, y, nodes, x_hat):
        c = cfg(n_t=2, n_r=2)
        out = baselines.sphere_decode(self.BOUNDARY_H, np.array([y]), c)
        assert (out.node_count, out.x_hat_real[0].tolist()) == (nodes, x_hat)
        assert out.x_hat_real[0].tolist() == baselines.ml_detect_batch(
            self.BOUNDARY_H[None], np.array([[y]]), c)[0, 0].tolist()


def search_from_root(rows, alphabets, target):
    """Depth-first search for one reduced target from the root of the tree.

    The Schnorr-Euchner search sphere_decode resumes at the Babai leaf, run
    whole: rows is R as nested lists, alphabets the per-rail candidate
    lists.  Returns the decision, as a list of rail values, and the number
    of tree nodes visited.
    """
    n_rails = len(rows)
    x_work = [0.0] * n_rails
    best_x = list(x_work)
    best_metric = math.inf
    node_count = 0

    def descend(level, partial):
        nonlocal best_metric, best_x, node_count
        row = rows[level]
        upper = target[level]
        for j in range(level + 1, n_rails):
            upper -= row[j] * x_work[j]
        pivot = row[level]
        center = upper / pivot
        alpha = alphabets[level]
        if len(alpha) == 2:
            if abs(alpha[1] - center) < abs(alpha[0] - center):
                alpha = alpha[::-1]
        else:
            alpha = sorted(alpha, key=lambda v: abs(v - center))
        for value in alpha:
            inc = upper - pivot * value
            metric = partial + inc * inc
            node_count += 1
            if metric >= best_metric:
                break
            x_work[level] = value
            if level:
                descend(level - 1, metric)
            else:
                best_metric = metric
                best_x = list(x_work)

    descend(n_rails - 1, 0.0)
    return best_x, node_count


def sphere_decode_from_root(h_real, ys, config):
    """Decisions (ys's leading shape, 2n_t) and per-vector node counts of
    search_from_root, on the R and reduced targets sphere_decode computes."""
    q, r = np.linalg.qr(np.asarray(h_real, dtype=float))
    ys = np.asarray(ys, dtype=float)
    y_red = np.atleast_2d(ys) @ q
    n_rails = r.shape[-1]
    r = np.broadcast_to(r, y_red.shape[:-2] + r.shape[-2:]).reshape(-1, n_rails, n_rails)
    alphabets = [a.tolist() for a in mimo.rail_alphabets(config)]
    found = [search_from_root(r[c].tolist(), alphabets, target)
             for c, targets in enumerate(y_red.reshape(r.shape[0], -1, n_rails).tolist())
             for target in targets]
    x_hat = np.array([x for x, _ in found]).reshape(ys.shape[:-1] + (n_rails,))
    return x_hat, np.array([nodes for _, nodes in found]).reshape(ys.shape[:-1])


class TestResumedSearch:
    """The search resumed at the Babai leaf against the search from the root."""

    @pytest.mark.parametrize("mod,n_t,n_r", [
        ("qpsk", 4, 6), ("bpsk", 4, 6), ("qam16", 2, 3),
    ])
    def test_decisions_and_nodes_equal_the_search_from_the_root(self, mod, n_t, n_r):
        c = cfg(mod, n_t=n_t, n_r=n_r)
        rng = np.random.default_rng(41)
        for snr in (0.0, 6.0, 14.0, 30.0):
            h, ys = wave(c, rng, snr, channels=6, vectors=10)
            x_hat, nodes = sphere_decode_from_root(h, ys, c)
            stacked = baselines.sphere_decode(h, ys, c)
            assert np.array_equal(stacked.x_hat_real, x_hat), snr
            assert stacked.node_count == nodes.sum(), snr
            # every vector alone, as one row: a single vector's level-major
            # targets are a view of its own targets
            for w in range(6):
                for v in range(10):
                    y = ys[w, v:v + 1]
                    one = baselines.sphere_decode(h[w], y, c)
                    want_x, want_nodes = sphere_decode_from_root(h[w], y, c)
                    assert np.array_equal(one.x_hat_real, want_x)
                    assert one.node_count == want_nodes.sum()

    def test_a_searched_vector_equals_the_oracle(self):
        # at 0 dB most 4x4 QPSK vectors leave the Babai point
        c = cfg(n_t=4, n_r=4)
        rng = np.random.default_rng(42)
        leave = 0
        for _ in range(100):
            h = mimo.generate_channel(c, rng)
            y = mimo.transmit(h, mimo.modulate(mimo.random_bits(c, rng), c), 1.0, rng)
            out = baselines.sphere_decode(h, y, c)
            want_x, want_nodes = sphere_decode_from_root(h, y, c)
            assert np.array_equal(out.x_hat_real, want_x)
            assert out.node_count == want_nodes
            leave += out.node_count > 16
        assert leave > 50

    def test_one_wave_allocates_little_beyond_its_arrays(self):
        # a 6 dB ref-sweep wave: seed 1, SNR index 0, wave 0
        c = cfg()
        h, _, ys, _ = harness._draw_wave(c, 14, 1, 0, 0, mimo.sigma_from_snr(6.0))
        baselines.sphere_decode(h, ys, c)  # fills the alphabet cache
        wave_bytes = ys.shape[0] * ys.shape[1] * 2 * c.n_t * 8  # one (32, 14, 8) array
        tracemalloc.start()
        try:
            out = baselines.sphere_decode(h, ys, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.node_count > ys.shape[0] * ys.shape[1] * 16  # vectors were searched
        assert peak <= 10 * wave_bytes


class TestStackedSphereDecoder:
    @pytest.mark.parametrize("mod,n_t,n_r", [
        ("qpsk", 4, 6), ("bpsk", 4, 6), ("qam16", 2, 3),
    ])
    def test_stack_equals_per_channel_calls(self, mod, n_t, n_r):
        c = cfg(mod, n_t=n_t, n_r=n_r)
        rng = np.random.default_rng(12)
        for snr in (0.0, 6.0, 14.0, 30.0):
            h = np.stack([mimo.generate_channel(c, rng) for _ in range(8)])
            bits = mimo.random_bits(c, rng, count=8 * 14).reshape(8, 14, -1)
            ys = np.stack([mimo.transmit(h[w], mimo.modulate(bits[w], c),
                                         mimo.sigma_from_snr(snr), rng) for w in range(8)])
            stacked = baselines.sphere_decode(h, ys, c)
            singles = [baselines.sphere_decode(h[w], ys[w], c) for w in range(8)]
            assert stacked.x_hat_real.shape == (8, 14, 2 * n_t)
            assert np.array_equal(stacked.x_hat_real,
                                  np.stack([s.x_hat_real for s in singles]))
            assert stacked.node_count == sum(s.node_count for s in singles)

    def test_one_rank_deficient_channel_in_a_stack_raises(self, rng):
        c = cfg(n_t=2, n_r=3)
        h = np.stack([mimo.generate_channel(c, rng) for _ in range(4)])
        h[2, :, 3] = h[2, :, 1]
        with pytest.raises(baselines.RankDeficientChannel):
            baselines.sphere_decode(h, rng.standard_normal((4, 5, 6)), c)
