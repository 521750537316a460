import tracemalloc

import numpy as np
import pytest

import oracles
from immimo import detnet, device, mimo
from immimo.mimo import MimoConfig


def small_cfg(**kw):
    base = dict(n_t=2, n_r=3, modulation="qpsk", L=3, S=16)
    base.update(kw)
    return MimoConfig(**base)


def random_instance(cfg, seed, sigma=0.3):
    """One channel h, one vector x and its received y, as rows: y is (1, 2n_r)."""
    rng = np.random.default_rng(seed)
    h = mimo.generate_channel(cfg, rng)
    x = mimo.modulate(mimo.random_bits(cfg, rng)[0], cfg)
    y = mimo.transmit(h, x[None], sigma, rng)
    return h, x, y, rng


def train_pass(p, h, y):
    """(trajectory, cache) of the training pass on the channel products of h and y."""
    return detnet.forward(p, *mimo.channel_products(h, y))


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
        shapes = detnet.param_shapes(cfg)
        assert tuple(shapes) == detnet.PARAM_KEYS
        assert {k: v.shape for k, v in p.as_dict().items()} == shapes


class TestForward:
    def test_zero_weights_yield_bias(self):
        cfg = small_cfg(L=1)
        p = detnet.init_params(cfg, np.random.default_rng(0))
        for key in ("w1", "w2", "w3"):
            getattr(p, key)[:] = 0.0
        p.b2[:] = 0.75
        h, x, y, _ = random_instance(cfg, 5)
        trajectory, _ = train_pass(p, h, y)
        assert np.allclose(trajectory[-1], 0.75)

    def test_batched_equals_loop(self):
        cfg = small_cfg()
        p = detnet.init_params(cfg, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        hs = mimo.generate_channel(cfg, rng, count=5)
        ys = rng.standard_normal((5, 3, 2 * cfg.n_r))
        batched, _ = train_pass(p, hs, ys)
        for i in range(5):
            for v in range(3):
                single, _ = train_pass(p, hs[i], ys[i, v][None])
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
            trajectory, _ = train_pass(p, h_in, y_in)
            assert not np.all(np.isfinite(trajectory[-1]))

    def test_vectors_must_be_rows(self):
        # a (B, 2n_r) y against a (B, 2n_r, 2n_t) stack would broadcast to (B, B, 2n_t)
        cfg = small_cfg()
        p = detnet.init_params(cfg, np.random.default_rng(1))
        h, _, y, _ = stacked_instance(cfg, 2, (4,), 1)
        with pytest.raises(ValueError, match="rows"):
            mimo.channel_products(h, y[:, 0])
        with pytest.raises(ValueError, match="rows"):
            mimo.channel_products(h[0], y[0, 0])
        assert train_pass(p, h, y)[0][-1].shape == (4, 1, 2 * cfg.n_t)

    def test_antenna_permutation_equivariance(self):
        # permuting complex antennas, both rails of each, permutes the rails of s_1
        cfg = small_cfg(n_t=3, n_r=4, L=1)
        p = detnet.init_params(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        h = mimo.generate_channel(cfg, rng)
        y = rng.standard_normal(2 * cfg.n_r)
        perm = np.array([2, 0, 1])
        rail_perm = np.concatenate([perm, perm + cfg.n_t])

        def s1(h_real):
            hty = h_real.T @ y
            return -p.alpha1[0] * hty  # x_0 = 0 so s_1 = -alpha1 H^T y

        assert np.allclose(s1(h[:, rail_perm]), s1(h)[rail_perm])


def desk_cfg(**kw):
    base = dict(n_t=4, n_r=6, modulation="qpsk", L=3, S=32, a_size=16)
    base.update(kw)
    return MimoConfig(**base)


def luo_at(gamma):
    return device.DeviceSpec(g_on_us=27.5, g_off_us=1.0, n_p=150, gamma=gamma, dt_w_ns=0.63)


def realize(h, spec, rng):
    """h programmed at spec and realized with unit normals drawn from rng."""
    return device.program_matrix(h, spec).realized(spec.gamma, rng.standard_normal(h.shape))


class TestChannelBlock:
    """s_k = x_{k-1} - alpha1 H^T y + alpha2 H^T H x_{k-1} on the realized channel."""

    def _forward(self, alpha1, alpha2, gamma=0.02):
        rng = np.random.default_rng(77)
        cfg = desk_cfg()
        params = detnet.init_params(cfg, rng)
        params.alpha1[:] = alpha1
        params.alpha2[:] = alpha2
        h = np.clip(mimo.generate_channel(cfg, rng), -3, 3)
        h_hw = realize(h, luo_at(gamma), rng)
        y = rng.standard_normal((5, 2 * cfg.n_r))
        trajectory, cache = train_pass(params, h_hw, y)
        s = [u[:, : params.x_dim] for u in cache["u"]]
        return trajectory, h_hw, y, cache, s

    def test_cold_start_is_matched_filter(self):
        _, h_hw, y, _, s = self._forward(0.1, 0.2)
        assert np.allclose(s[0], -0.1 * y @ h_hw, atol=1e-10)

    def test_matches_dense_oracle(self):
        # independent dense evaluation of the linear combination with H + dH
        trajectory, h_hw, y, _, s = self._forward(0.07, 0.03)
        for k in range(1, len(s)):
            x_prev = trajectory[k - 1]
            oracle = x_prev - 0.07 * y @ h_hw + 0.03 * (x_prev @ h_hw.T) @ h_hw
            assert np.abs(s[k] - oracle).max() < 1e-10

    def test_zero_gains_return_previous_estimate(self):
        trajectory, _, _, _, s = self._forward(1e-12, 1e-12)
        for k in range(1, len(s)):
            assert np.allclose(s[k], trajectory[k - 1], atol=1e-9)


class TestNeuralBlock:
    """z = relu(W1 u + b1), x = W2 z + b2, a = W3 z + b3 on exact weight arrays."""

    def _forward(self, rng, edit):
        cfg = desk_cfg(L=2)
        params = detnet.init_params(cfg, rng)
        edit(params)
        h = mimo.generate_channel(cfg, rng)
        h_hw = realize(h, luo_at(0.02), rng)
        y = rng.standard_normal((5, 2 * cfg.n_r))
        trajectory, cache = train_pass(params, h_hw, y)
        return params, trajectory, cache

    def test_zero_w1_negative_bias(self):
        rng = np.random.default_rng(77)

        def edit(p):
            p.w1[:] = 0.0
            p.b1[:] = -1.0
            p.b2[:] = rng.standard_normal(p.b2.shape)
            p.b3[:] = rng.standard_normal(p.b3.shape)

        p, trajectory, cache = self._forward(rng, edit)
        assert np.all(cache["z"] == 0)
        assert np.all(trajectory[0] == p.b2[0])
        assert np.all(cache["u"][1][:, p.x_dim:] == p.b3[0])

    def test_affine_region_matches_composition(self):
        # large positive b1 keeps the rectifier in its linear region
        rng = np.random.default_rng(77)

        def edit(p):
            p.w1 *= 0.01
            p.b1[:] = 50.0
            p.b2[:] = rng.standard_normal(p.b2.shape)
            p.b3[:] = rng.standard_normal(p.b3.shape)

        p, trajectory, cache = self._forward(rng, edit)
        pre = cache["u"][0] @ p.w1[0].T + p.b1[0]
        assert np.all(cache["z"][0] > 0)
        assert np.allclose(trajectory[0], pre @ p.w2[0].T + p.b2[0])
        assert np.allclose(cache["u"][1][:, p.x_dim:], pre @ p.w3[0].T + p.b3[0])

    def test_negative_preactivations_clamp_to_zero(self):
        def edit(p):
            p.b1[:] = -1e3

        _, _, cache = self._forward(np.random.default_rng(77), edit)
        for z in cache["z"]:
            assert not np.any(z > 0)
            assert np.all(z == 0.0)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(77)
        cfg = desk_cfg()
        params = detnet.init_params(cfg, rng)
        h = mimo.generate_channel(cfg, rng)
        h_hw = realize(h, luo_at(0.02), rng)
        with pytest.raises(ValueError):
            detect(params, h_hw, np.zeros((1, 2 * cfg.n_r - 1)))


class TestHardwareForward:
    """The forward pass on a programmed channel, the in-memory detector."""

    def test_deterministic_given_the_programmed_channel(self):
        rng = np.random.default_rng(77)
        cfg = desk_cfg()
        params = detnet.init_params(cfg, rng)
        h = mimo.generate_channel(cfg, rng)
        h_hw = realize(h, luo_at(0.02), rng)
        y = rng.standard_normal((1, 12))
        assert np.array_equal(detect(params, h_hw, y), detect(params, h_hw, y))

    def test_matches_ideal_at_gamma_zero(self):
        # with exact weights only pulse quantization separates the two paths
        rng = np.random.default_rng(77)
        cfg = desk_cfg()
        params = detnet.init_params(cfg, rng)
        worst = 0.0
        for _ in range(20):
            h = np.clip(mimo.generate_channel(cfg, rng), -3, 3)
            y = rng.standard_normal((1, 12))
            x_hw = detect(params, realize(h, luo_at(0.0), rng), y)
            x_ideal = train_pass(params, h, y)[0][-1]
            worst = max(worst, np.abs(x_hw - x_ideal).max())
        assert worst <= 1e-2

    def test_error_grows_with_gamma(self):
        cfg = desk_cfg()
        params = detnet.init_params(cfg, np.random.default_rng(77))
        diffs = {}
        for gamma in (0.005, 0.02):
            acc = []
            loc_rng = np.random.default_rng(11)
            for _ in range(200):
                h = mimo.generate_channel(cfg, loc_rng)
                y = loc_rng.standard_normal((1, 12))
                x_hw = detect(params, realize(h, luo_at(gamma), loc_rng), y)
                x_id = train_pass(params, h, y)[0][-1]
                acc.append(np.linalg.norm(x_hw - x_id))
            diffs[gamma] = np.mean(acc)
        assert diffs[0.02] >= diffs[0.005]


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
    count = int(np.prod(channels, dtype=int))
    h = mimo.generate_channel(cfg, rng, count=count).reshape(
        channels + (2 * cfg.n_r, 2 * cfg.n_t)) / np.sqrt(2)
    bits = mimo.random_bits(cfg, rng, count=count * n_vec)
    x = mimo.modulate(bits, cfg).reshape(channels + (n_vec, 2 * cfg.n_t))
    y = x @ np.swapaxes(h, -1, -2) + sigma * rng.standard_normal(
        channels + (n_vec, 2 * cfg.n_r))
    return h, x, y, rng


def finite_difference_check(cfg, seed, eps=1e-5, samples=40, stack=None, gram=None):
    """Worst relative gap between backward() and central differences of loss().

    stack=None is one channel and one vector; stack=(channels, n_vec) is a
    stack of channels shaped `channels`, each with n_vec received vectors.
    gram, if given, stands for H^T H in the training pass.
    """
    if stack is None:
        h, x, y, rng = random_instance(cfg, seed)
    else:
        h, x, y, rng = stacked_instance(cfg, seed, *stack)
    p = detnet.init_params(cfg, rng)
    p.b1 += 0.05 * rng.standard_normal(p.b1.shape)  # avoid kinks exactly at 0
    products = mimo.channel_products(h, y)
    if gram is not None:
        products = (gram, products[1])
    trajectory, cache = detnet.forward(p, *products)
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
            up = detnet.loss(detnet.forward(p, *products)[0], x)
            flat[i] = orig - eps
            down = detnet.loss(detnet.forward(p, *products)[0], x)
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

    def test_finite_difference_agreement_on_a_non_symmetric_gram(self):
        # G = B^T C from two different channels per stacked channel: the
        # block's x_{k-1} @ G sends gs @ G^T back, not gs @ G
        cfg = small_cfg()
        b, c = mimo.generate_channel(cfg, np.random.default_rng(66), count=6).reshape(
            2, 3, 2 * cfg.n_r, 2 * cfg.n_t)
        gram = np.swapaxes(b, -1, -2) @ c
        assert np.all(np.abs(gram - np.swapaxes(gram, -1, -2)).max(axis=(-2, -1)) > 1.0)
        worst = finite_difference_check(cfg, 44, stack=((3,), 4), gram=gram)
        assert worst < 1e-4

    def test_out_receives_the_returned_gradients(self):
        cfg = small_cfg()
        h, x, y, rng = stacked_instance(cfg, 5, (2,), 3)
        p = detnet.init_params(cfg, rng)
        _, cache = train_pass(p, h, y)
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
        trajectory, cache = train_pass(p, h, y)
        assert detnet.loss(trajectory, x_true) == 0.0
        grads = detnet.backward(p, cache, x_true)
        for key in detnet.PARAM_KEYS:
            assert np.allclose(grads[key], 0.0)

    def test_dead_relu_unit_gets_zero_gradient(self):
        cfg = small_cfg(L=1)
        p = detnet.init_params(cfg, np.random.default_rng(0))
        p.b1[0, 0] = -100.0  # unit 0 can never activate
        h, x, y, _ = random_instance(cfg, 13)
        _, cache = train_pass(p, h, y)
        grads = detnet.backward(p, cache, x)
        assert np.all(grads["w1"][0, 0] == 0.0)
        assert grads["b1"][0, 0] == 0.0

    def test_alpha_gradient_identities(self):
        # dL/dalpha1_k = -(dL/ds_k) . H^T y, dL/dalpha2_k = (dL/ds_k) . H^T H x_{k-1}
        cfg = small_cfg(L=2)
        h, x, y, rng = random_instance(cfg, 17)
        p = detnet.init_params(cfg, rng)
        _, cache = train_pass(p, h, y)
        grads = detnet.backward(p, cache, x)
        eps = 1e-6
        for k in range(2):
            orig = p.alpha1[k]
            p.alpha1[k] = orig + eps
            up = detnet.loss(train_pass(p, h, y)[0], x)
            p.alpha1[k] = orig - eps
            down = detnet.loss(train_pass(p, h, y)[0], x)
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


class TestPrecision:
    """The kernel computes in the result type of its params and inputs."""

    @pytest.mark.parametrize("params_dtype, input_dtype", [
        (np.float64, np.float64), (np.float32, np.float64), (np.float64, np.float32),
    ])
    def test_any_float64_operand_runs_in_float64(self, params_dtype, input_dtype):
        cfg = small_cfg()
        h, x, y, rng = stacked_instance(cfg, 7, (2,), 3)
        p = detnet.init_params(cfg, rng).astype(params_dtype)
        trajectory, cache = train_pass(p, h.astype(input_dtype), y.astype(input_dtype))
        assert {t.dtype for t in trajectory} == {np.dtype(np.float64)}
        assert {cache[k].dtype for k in ("hty", "hth", "hthx", "u", "z")} == {
            np.dtype(np.float64)}
        grads = detnet.backward(p, cache, x)
        assert {g.dtype for g in grads.values()} == {np.dtype(params_dtype)}

    def test_float32_params_and_inputs_run_in_float32(self):
        cfg = small_cfg()
        h, x, y, rng = stacked_instance(cfg, 8, (2,), 3)
        p64 = detnet.init_params(cfg, rng)
        p32 = p64.astype(np.float32)
        trajectory, cache = train_pass(p32, h.astype(np.float32), y.astype(np.float32))
        assert {t.dtype for t in trajectory} == {np.dtype(np.float32)}
        assert {cache[k].dtype for k in ("hty", "hth", "hthx", "u", "z")} == {
            np.dtype(np.float32)}
        out = {k: np.empty_like(v) for k, v in p32.as_dict().items()}
        grads = detnet.backward(p32, cache, x, out=out)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        # the same numbers to float32 precision
        traj64, cache64 = train_pass(p64, h, y)
        assert np.allclose(trajectory[-1], traj64[-1], rtol=1e-4, atol=1e-5)
        grads64 = detnet.backward(p64, cache64, x)
        for key in detnet.PARAM_KEYS:
            scale = np.max(np.abs(grads64[key]))
            assert np.max(np.abs(grads[key] - grads64[key])) <= 1e-4 * scale


def biased_params(cfg, rng):
    """init_params with N(0, 0.1) biases and unequal step gains.

    init leaves the biases zero and the two gains equal; here each must reach
    x_L in its own place, so a dropped bias or swapped gains show.
    """
    p = detnet.init_params(cfg, rng)
    for key in ("b1", "b2", "b3"):
        setattr(p, key, rng.normal(0.0, 0.1, getattr(p, key).shape))
    p.alpha1, p.alpha2 = rng.uniform(0.005, 0.05, (2, cfg.L))
    return p


def reference_inputs(shape, dtype, L=10):
    """Params and inputs in dtype at the reference size, 4x6 QPSK with S 64, a 16.

    "vector" is one y[None], "wave" an (8, 14) wave and "gamma-stack" a wave
    realized at 5 programming-noise levels: (5, 8) channels with one wave's
    vectors broadcast over the levels, as the BER sweep detects them.  The
    params have nonzero biases and unequal gains (biased_params).
    """
    cfg = MimoConfig(n_t=4, n_r=6, L=L)
    channels, n_vec = {"vector": ((), 1), "wave": ((8,), 14),
                       "gamma-stack": ((5, 8), 14)}[shape]
    h, _, y, rng = stacked_instance(cfg, 11, channels, n_vec)
    y = y.astype(dtype)
    if shape == "gamma-stack":
        y = np.broadcast_to(y[0], y.shape)
    return biased_params(cfg, rng).astype(dtype), h.astype(dtype), y


def detect_packed(weights, h, y):
    """x_L of the detection pass on the channel products of h and y."""
    return detnet.ideal_forward(weights, *mimo.channel_products(h, y))


def detect(p, h, y):
    """x_L of the detection pass, with p packed by detection_weights."""
    return detect_packed(detnet.detection_weights(p), h, y)


class TestCacheFree:
    """Detection runs the block loop on one set of buffers, with no cache."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ["vector", "wave", "gamma-stack"])
    def test_x_l_equals_the_cached_pass_bit_for_bit(self, shape, dtype):
        p, h, y = reference_inputs(shape, dtype)
        x_l = detect(p, h, y)
        want = train_pass(p, h, y)[0][-1]
        assert x_l.dtype == want.dtype == dtype
        assert x_l.shape == want.shape == h.shape[:-2] + (y.shape[-2], 8)
        assert np.array_equal(x_l, want)

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("h_shape, y_shape", [
        ((12, 8), (5, 14, 12)),  # one channel broadcast over vector sets
        ((1, 12, 8), (1, 14, 12)),  # a wave capped at one trial
        ((5, 12, 8), (5, 1, 12)),  # one vector per channel
        ((5, 2, 12, 8), (5, 2, 1, 12)),  # nested leading dims
    ])
    def test_edge_shapes_decide_as_the_cached_pass(self, h_shape, y_shape, dtype, rtol):
        # BLAS picks its kernel by layout and size, so at these shapes the
        # feature-major loop may round unlike the row one: x_L is held to
        # rounding and the decisions to equality
        cfg = MimoConfig(n_t=4, n_r=6, L=10)
        h, _, y, rng = stacked_instance(cfg, 11, y_shape[:-2], y_shape[-2])
        h = h[(0,) * (len(y_shape) - len(h_shape))]
        p = biased_params(cfg, rng).astype(dtype)
        h, y = h.astype(dtype), y.astype(dtype)
        x_l = detect(p, h, y)
        want = train_pass(p, h, y)[0][-1]
        assert x_l.dtype == want.dtype == dtype
        assert x_l.shape == want.shape == y_shape[:-1] + (8,)
        assert np.max(np.abs(x_l - want)) <= rtol * np.max(np.abs(want))
        assert np.array_equal(oracles.demodulate(x_l, cfg), oracles.demodulate(want, cfg))

    def test_gamma_stack_equals_the_per_gamma_calls_bit_for_bit(self):
        p, h, y = reference_inputs("gamma-stack", np.float32)
        stacked = detect(p, h, y)
        for g in range(len(h)):
            assert np.array_equal(stacked[g], detect(p, h[g], y[g]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_detection_leaves_params_alone_and_repeats(self, dtype):
        # packing then detecting leaves the params untouched, and a second
        # detection repeats the first bit for bit
        p, h, y = reference_inputs("gamma-stack", dtype)
        before = {k: v.copy() for k, v in p.as_dict().items()}
        first = detect(p, h, y).copy()
        for key, value in p.as_dict().items():
            assert value.dtype == before[key].dtype
            assert np.array_equal(value, before[key]), key
        assert np.array_equal(detect(p, h, y), first)

    def test_nan_input_is_not_decided(self):
        # a NaN in one vector or one channel reaches only the rows it feeds
        p, h, y = reference_inputs("wave", np.float32)
        y_bad, h_bad = y.copy(), h.copy()
        y_bad[3, 5, 0] = np.nan
        h_bad[2, 4, 1] = np.nan
        for h_in, y_in, bad in ((h, y_bad, (3, 5)), (h_bad, y, 2)):
            x_l = detect(p, h_in, y_in)
            corrupt = np.zeros(x_l.shape[:-1], dtype=bool)
            corrupt[bad] = True
            assert np.all(np.isnan(x_l[corrupt]))
            assert np.all(np.isfinite(x_l[~corrupt]))

    def test_memory_does_not_grow_with_blocks(self):
        peaks = {}
        for L in (2, 10):
            p, h, y = reference_inputs("gamma-stack", np.float32, L=L)
            products = mimo.channel_products(h, y)
            passes = {"detect": (detnet.ideal_forward, detnet.detection_weights(p)),
                      "train": (detnet.forward, p)}
            for name, (run, weights) in passes.items():
                tracemalloc.start()
                try:
                    run(weights, *products)
                    peaks[L, name] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[10, "detect"] <= 1.5 * peaks[2, "detect"]
        # the stacked cache backprop reads grows with L
        assert peaks[10, "train"] > 1.5 * peaks[2, "train"]


class TestDetectionWeights:
    """detection_weights packs [W1 | b1] and [W2 | b2; W3 | b3] once."""

    def test_packs_each_block_with_its_bias_columns(self):
        p, _, _ = reference_inputs("vector", np.float64)
        weights = detnet.detection_weights(p)
        assert weights.w1b.shape == (p.L, p.S, p.x_dim + p.a_size + 1)
        assert weights.w23b.shape == (p.L, p.x_dim + p.a_size, p.S + 1)
        assert np.array_equal(weights.w1b, np.concatenate([p.w1, p.b1[..., None]], -1))
        w2b = np.concatenate([p.w2, p.b2[..., None]], -1)
        w3b = np.concatenate([p.w3, p.b3[..., None]], -1)
        assert np.array_equal(weights.w23b, np.concatenate([w2b, w3b], 1))
        assert np.array_equal(weights.alpha1, p.alpha1)
        assert np.array_equal(weights.alpha2, p.alpha2)

    def test_float32_weights_with_float64_inputs_run_in_float64(self):
        p, h, y = reference_inputs("wave", np.float32)
        h, y = h.astype(np.float64), y.astype(np.float64)
        weights = detnet.detection_weights(p)
        assert weights.w1b.dtype == np.float32
        x_l = detect_packed(weights, h, y)
        want = train_pass(p, h, y)[0][-1]
        assert x_l.dtype == want.dtype == np.float64
        assert np.array_equal(x_l, want)
        # not the float32 result
        assert not np.array_equal(x_l, detect(p, h.astype(np.float32), y.astype(np.float32)))

    def test_a_snapshot_of_the_params(self):
        p, h, y = reference_inputs("wave", np.float32)
        weights = detnet.detection_weights(p)
        before = detect_packed(weights, h, y).copy()
        for key in detnet.PARAM_KEYS:
            getattr(p, key)[...] *= 2.0  # the gains stay positive
        assert not np.array_equal(detect(p, h, y), before)
        assert np.array_equal(detect_packed(weights, h, y), before)
        with pytest.raises(ValueError):
            weights.w1b[0, 0, 0] = 0.0
