import numpy as np
import pytest

from immimo import detnet, mimo
from immimo.mimo import MimoConfig


def small_cfg(**kw):
    base = dict(n_t=2, n_r=3, modulation="qpsk", L=3, S=16)
    base.update(kw)
    return MimoConfig(**base)


def random_instance(cfg, seed, sigma=0.3):
    """One channel h, one vector x and its received y, as rows: y is (1, 2n_r)."""
    rng = np.random.default_rng(seed)
    h = mimo.to_real(mimo.generate_channel(cfg, rng))
    x = mimo.modulate(mimo.random_bits(cfg, rng)[0], cfg)
    y = mimo.transmit(h, x, sigma, rng)
    return h, x, y[None], rng


class TestInit:
    def test_reproducible(self):
        cfg = small_cfg()
        p1 = detnet.init_params(cfg, np.random.default_rng(3))
        p2 = detnet.init_params(cfg, np.random.default_rng(3))
        for key in detnet.PARAM_KEYS:
            assert np.array_equal(getattr(p1, key), getattr(p2, key))

    def test_he_variance(self):
        cfg = small_cfg(n_t=8, n_r=8, L=40, S=128)
        p = detnet.init_params(cfg, np.random.default_rng(0))
        fan_in = 2 * cfg.n_t + cfg.a_size
        assert abs(p.w1.var() / (2.0 / fan_in) - 1) < 0.05
        assert abs(p.w2.var() / (2.0 / cfg.S) - 1) < 0.05

    def test_biases_zero_alphas_small(self):
        p = detnet.init_params(small_cfg(), np.random.default_rng(0))
        for key in ("b1", "b2", "b3"):
            assert np.all(getattr(p, key) == 0.0)
        assert np.all(p.alpha1 == 1e-2)
        assert np.all(p.alpha2 == 1e-2)

    def test_shapes(self):
        cfg = small_cfg()
        p = detnet.init_params(cfg, np.random.default_rng(0))
        assert p.w1.shape == (3, 16, 2 * 2 + 8)
        assert p.w2.shape == (3, 4, 16)
        assert p.w3.shape == (3, 8, 16)
        assert (p.L, p.S, p.x_dim, p.a_size) == (3, 16, 4, 8)


class TestForward:
    def test_zero_weights_yield_bias(self):
        cfg = small_cfg(L=1)
        p = detnet.init_params(cfg, np.random.default_rng(0))
        for key in ("w1", "w2", "w3"):
            getattr(p, key)[:] = 0.0
        p.b2[:] = 0.75
        h, x, y, _ = random_instance(cfg, 5)
        trajectory, _ = detnet.ideal_forward(p, h, y)
        assert np.allclose(trajectory[-1], 0.75)

    def test_batched_equals_loop(self):
        cfg = small_cfg()
        p = detnet.init_params(cfg, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        hs = mimo.to_real(
            rng.standard_normal((5, cfg.n_r, cfg.n_t))
            + 1j * rng.standard_normal((5, cfg.n_r, cfg.n_t))
        )
        ys = rng.standard_normal((5, 3, 2 * cfg.n_r))
        batched, _ = detnet.ideal_forward(p, hs, ys)
        for i in range(5):
            for v in range(3):
                single, _ = detnet.ideal_forward(p, hs[i], ys[i, v][None])
                assert np.allclose(batched[-1][i, v], single[-1][0], atol=1e-12)

    def test_nan_input_is_not_decided(self):
        # the rectifier propagates NaN, so a corrupt y or H is never decided
        cfg = small_cfg()
        p = detnet.init_params(cfg, np.random.default_rng(1))
        h, _, y, _ = random_instance(cfg, 6)
        y_bad = y.copy()
        y_bad[0, 1] = np.nan
        h_bad = h.copy()
        h_bad[2, 0] = np.nan
        for h_in, y_in in ((h, np.full_like(y, np.nan)), (h, y_bad), (h_bad, y)):
            trajectory, _ = detnet.ideal_forward(p, h_in, y_in)
            assert not np.all(np.isfinite(trajectory[-1]))

    def test_vectors_must_be_rows(self):
        # a (B, 2n_r) y against a (B, 2n_r, 2n_t) stack would broadcast to (B, B, 2n_t)
        cfg = small_cfg()
        p = detnet.init_params(cfg, np.random.default_rng(1))
        h, _, y, _ = stacked_instance(cfg, 2, (4,), 1)
        with pytest.raises(ValueError, match="rows"):
            detnet.ideal_forward(p, h, y[:, 0])
        with pytest.raises(ValueError, match="rows"):
            detnet.ideal_forward(p, h[0], y[0, 0])
        assert detnet.ideal_forward(p, h, y)[0][-1].shape == (4, 1, 2 * cfg.n_t)

    def test_antenna_permutation_equivariance(self):
        # permuting complex antennas permutes both rails of s_1 consistently
        cfg = small_cfg(n_t=3, n_r=4, L=1)
        p = detnet.init_params(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        hc = mimo.generate_channel(cfg, rng)
        y = rng.standard_normal(2 * cfg.n_r)
        perm = np.array([2, 0, 1])
        rail_perm = np.concatenate([perm, perm + cfg.n_t])

        def s1(h_real):
            hty = h_real.T @ y
            return -p.alpha1[0] * hty  # x_0 = 0 so s_1 = -alpha1 H^T y

        assert np.allclose(s1(mimo.to_real(hc[:, perm])), s1(mimo.to_real(hc))[rail_perm])


class TestLoss:
    def test_block1_carries_no_weight(self):
        cfg = small_cfg(L=1)
        x_true = np.ones(4)
        trajectory = [np.zeros(4)]
        assert detnet.loss(trajectory, x_true, "lnk") == 0.0

    def test_perfect_trajectory(self):
        x_true = np.ones(4)
        assert detnet.loss([x_true.copy()] * 3, x_true) == 0.0

    def test_two_block_value(self):
        # unit squared error in both blocks: ln(1) * 1 + ln(2) * 1
        x_true = np.zeros(4)
        e = np.array([1.0, 0.0, 0.0, 0.0])
        assert detnet.loss([e, e], x_true, "lnk") == pytest.approx(np.log(2))

    def test_lnk1_keeps_block1(self):
        x_true = np.zeros(4)
        e = np.array([1.0, 0.0, 0.0, 0.0])
        assert detnet.loss([e], x_true, "lnk1") == pytest.approx(np.log(2))

    def test_unknown_weighting(self):
        with pytest.raises(ValueError):
            detnet.loss_weights(3, "cubic")

    def test_target_must_not_broadcast_the_rows(self):
        # a (B, 2n_t) target against (B, 1, 2n_t) rows would compare every pair
        with pytest.raises(ValueError):
            detnet.loss([np.zeros((3, 1, 4))], np.zeros((3, 4)))
        assert detnet.loss([np.zeros((3, 1, 4))], np.zeros(4)) == 0.0


def stacked_instance(cfg, seed, channels, n_vec, sigma=0.3):
    """A stack of channels (*channels, 2n_r, 2n_t), each carrying n_vec rows."""
    rng = np.random.default_rng(seed)
    h_c = rng.standard_normal(channels + (cfg.n_r, cfg.n_t)) + 1j * rng.standard_normal(
        channels + (cfg.n_r, cfg.n_t))
    h = mimo.to_real(h_c / np.sqrt(2))
    bits = mimo.random_bits(cfg, rng, count=int(np.prod(channels, dtype=int)) * n_vec)
    x = mimo.modulate(bits, cfg).reshape(channels + (n_vec, 2 * cfg.n_t))
    y = x @ np.swapaxes(h, -1, -2) + sigma * rng.standard_normal(
        channels + (n_vec, 2 * cfg.n_r))
    return h, x, y, rng


def finite_difference_check(cfg, seed, eps=1e-5, samples=40, stack=None):
    """Worst relative gap between backward() and central differences of loss().

    stack=None is one channel and one vector; stack=(channels, n_vec) is a
    stack of channels shaped `channels`, each with n_vec received vectors.
    """
    if stack is None:
        h, x, y, rng = random_instance(cfg, seed)
    else:
        h, x, y, rng = stacked_instance(cfg, seed, *stack)
    p = detnet.init_params(cfg, rng)
    p.b1 += 0.05 * rng.standard_normal(p.b1.shape)  # avoid kinks exactly at 0
    trajectory, cache = detnet.ideal_forward(p, h, y)
    grads = detnet.backward(p, cache, x)

    worst = 0.0
    for key in detnet.PARAM_KEYS:
        arr = getattr(p, key)
        flat = arr.reshape(-1)
        g_flat = grads[key].reshape(-1)
        idx = rng.choice(flat.size, size=min(samples, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            up = detnet.loss(detnet.ideal_forward(p, h, y)[0], x)
            flat[i] = orig - eps
            down = detnet.loss(detnet.ideal_forward(p, h, y)[0], x)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(g_flat[i]), 1e-8)
            worst = max(worst, abs(fd - g_flat[i]) / denom)
    return worst


class TestBackward:
    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_finite_difference_agreement(self, seed):
        worst = finite_difference_check(small_cfg(), seed)
        assert worst < 1e-4

    @pytest.mark.parametrize("channels, n_vec", [((), 5), ((3,), 4)])
    def test_finite_difference_agreement_on_rows(self, channels, n_vec):
        # several vectors through one channel, and a (W, n_vec) stack
        worst = finite_difference_check(small_cfg(), 44, stack=(channels, n_vec))
        assert worst < 1e-4

    def test_out_receives_the_returned_gradients(self):
        cfg = small_cfg()
        h, x, y, rng = stacked_instance(cfg, 5, (2,), 3)
        p = detnet.init_params(cfg, rng)
        _, cache = detnet.ideal_forward(p, h, y)
        grads = detnet.backward(p, cache, x)
        out = {k: np.full_like(getattr(p, k), np.nan) for k in detnet.PARAM_KEYS}
        assert detnet.backward(p, cache, x, out=out) is out
        for key in detnet.PARAM_KEYS:
            assert np.array_equal(out[key], grads[key])

    def test_zero_loss_zero_gradients(self):
        # zero weights and a zero target give an exactly-perfect trajectory
        cfg = small_cfg()
        p = detnet.init_params(cfg, np.random.default_rng(0))
        h, _, y, _ = random_instance(cfg, 9)
        for key in ("w1", "w2", "w3"):
            getattr(p, key)[:] = 0.0
        x_true = np.zeros(p.x_dim)
        trajectory, cache = detnet.ideal_forward(p, h, y)
        assert detnet.loss(trajectory, x_true) == 0.0
        grads = detnet.backward(p, cache, x_true)
        for key in detnet.PARAM_KEYS:
            assert np.allclose(grads[key], 0.0)

    def test_dead_relu_unit_gets_zero_gradient(self):
        cfg = small_cfg(L=1)
        p = detnet.init_params(cfg, np.random.default_rng(0))
        p.b1[0, 0] = -100.0  # unit 0 can never activate
        h, x, y, _ = random_instance(cfg, 13)
        _, cache = detnet.ideal_forward(p, h, y)
        grads = detnet.backward(p, cache, x)
        assert np.all(grads["w1"][0, 0] == 0.0)
        assert grads["b1"][0, 0] == 0.0

    def test_alpha_gradient_identities(self):
        # dL/dalpha1_k = -(dL/ds_k) . H^T y, dL/dalpha2_k = (dL/ds_k) . H^T H x_{k-1}
        cfg = small_cfg(L=2)
        h, x, y, rng = random_instance(cfg, 17)
        p = detnet.init_params(cfg, rng)
        _, cache = detnet.ideal_forward(p, h, y)
        grads = detnet.backward(p, cache, x)
        eps = 1e-6
        for k in range(2):
            orig = p.alpha1[k]
            p.alpha1[k] = orig + eps
            up = detnet.loss(detnet.ideal_forward(p, h, y)[0], x)
            p.alpha1[k] = orig - eps
            down = detnet.loss(detnet.ideal_forward(p, h, y)[0], x)
            p.alpha1[k] = orig
            assert grads["alpha1"][k] == pytest.approx((up - down) / (2 * eps), rel=1e-4)


class TestParamsValidate:
    def test_rejects_nonfinite(self):
        p = detnet.init_params(small_cfg(), np.random.default_rng(0))
        p.w1[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            p.validate()

    def test_rejects_nonpositive_alpha(self):
        p = detnet.init_params(small_cfg(), np.random.default_rng(0))
        p.alpha1[0] = 0.0
        with pytest.raises(ValueError):
            p.validate()
