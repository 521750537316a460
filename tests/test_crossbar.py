import numpy as np
import pytest

from immimo import crossbar, detnet, device, mimo
from immimo.mimo import MimoConfig


@pytest.fixture
def luo():
    return device.device_preset("luo2022")


@pytest.fixture
def rng():
    return np.random.default_rng(77)


def desk_cfg(**kw):
    base = dict(n_t=4, n_r=6, modulation="qpsk", L=3, S=32, a_size=16)
    base.update(kw)
    return MimoConfig(**base)


def luo_at(gamma):
    return device.DeviceSpec(g_on=27.5e-6, g_off=1e-6, n_p=150, gamma=gamma, dt_w=0.63e-9)


class TestChannelBlock:
    """s_k = x_{k-1} - alpha1 H^T y + alpha2 H^T H x_{k-1} on the realized channel."""

    def _forward(self, rng, alpha1, alpha2, gamma=0.02):
        cfg = desk_cfg()
        params = detnet.init_params(cfg, rng)
        params.alpha1[:] = alpha1
        params.alpha2[:] = alpha2
        det = crossbar.HardwareDetector(params, luo_at(gamma))
        h = np.clip(mimo.to_real(mimo.generate_channel(cfg, rng)), -3, 3)
        h_hw = det.program_channel(h, rng).realized(det.spec)
        y = rng.standard_normal((5, 2 * cfg.n_r))
        trajectory, cache = detnet.ideal_forward(params, h_hw, y)
        s = [u[:, : params.x_dim] for u in cache["u"]]
        return trajectory, h_hw, y, cache, s

    def test_cold_start_is_matched_filter(self, rng):
        _, h_hw, y, _, s = self._forward(rng, 0.1, 0.2)
        assert np.allclose(s[0], -0.1 * y @ h_hw, atol=1e-10)

    def test_matches_dense_oracle(self, rng):
        # independent dense evaluation of the linear combination with H + dH
        trajectory, h_hw, y, _, s = self._forward(rng, 0.07, 0.03)
        for k in range(1, len(s)):
            x_prev = trajectory[k - 1]
            oracle = x_prev - 0.07 * y @ h_hw + 0.03 * (x_prev @ h_hw.T) @ h_hw
            assert np.abs(s[k] - oracle).max() < 1e-10

    def test_zero_gains_return_previous_estimate(self, rng):
        trajectory, _, _, _, s = self._forward(rng, 1e-12, 1e-12)
        for k in range(1, len(s)):
            assert np.allclose(s[k], trajectory[k - 1], atol=1e-9)

    def test_rejects_nonpositive_gains(self, luo, rng):
        # the gains are TIA feedback resistances, so they must stay positive
        params = detnet.init_params(desk_cfg(), rng)
        params.alpha1[1] = 0.0
        with pytest.raises(ValueError):
            crossbar.HardwareDetector(params, luo)


class TestNeuralBlock:
    """z = relu(W1 u + b1), x = W2 z + b2, a = W3 z + b3 on exact weight arrays."""

    def _forward(self, rng, edit):
        cfg = desk_cfg(L=2)
        params = detnet.init_params(cfg, rng)
        edit(params)
        det = crossbar.HardwareDetector(params, luo_at(0.02))
        h = mimo.to_real(mimo.generate_channel(cfg, rng))
        h_hw = det.program_channel(h, rng).realized(det.spec)
        y = rng.standard_normal((5, 2 * cfg.n_r))
        trajectory, cache = detnet.ideal_forward(params, h_hw, y)
        return params, trajectory, cache

    def test_zero_w1_negative_bias(self, rng):
        def edit(p):
            p.w1[:] = 0.0
            p.b1[:] = -1.0
            p.b2[:] = rng.standard_normal(p.b2.shape)
            p.b3[:] = rng.standard_normal(p.b3.shape)

        p, trajectory, cache = self._forward(rng, edit)
        assert np.all(cache["z"] == 0)
        assert np.all(trajectory[0] == p.b2[0])
        assert np.all(cache["u"][1][:, p.x_dim:] == p.b3[0])

    def test_affine_region_matches_composition(self, rng):
        # large positive b1 keeps the rectifier in its linear region
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

    def test_negative_preactivations_clamp_to_zero(self, rng):
        def edit(p):
            p.b1[:] = -1e3

        _, _, cache = self._forward(rng, edit)
        for z in cache["z"]:
            assert not np.any(z > 0)
            assert np.all(z == 0.0)

    def test_dimension_mismatch(self, luo, rng):
        cfg = desk_cfg()
        det = crossbar.HardwareDetector(detnet.init_params(cfg, rng), luo)
        h = mimo.to_real(mimo.generate_channel(cfg, rng))
        h_hw = det.program_channel(h, rng).realized(det.spec)
        with pytest.raises(ValueError):
            det.forward(h_hw, np.zeros((1, 2 * cfg.n_r - 1)))


class TestHardwareForward:
    def test_single_block_zero_weights(self, luo, rng):
        cfg = desk_cfg(L=1)
        params = detnet.init_params(cfg, rng)
        for key in ("w1", "w2", "w3"):
            getattr(params, key)[:] = 0.0
        params.b2[:] = 0.5
        h = mimo.to_real(mimo.generate_channel(cfg, rng))
        det = crossbar.HardwareDetector(params, luo)
        h_hw = det.program_channel(h, rng).realized(det.spec)
        x_l = det.forward(h_hw, rng.standard_normal((1, 12)))
        assert np.allclose(x_l, 0.5)

    def test_deterministic_given_crossbar_state(self, luo, rng):
        cfg = desk_cfg()
        det = crossbar.HardwareDetector(detnet.init_params(cfg, rng), luo)
        h = mimo.to_real(mimo.generate_channel(cfg, rng))
        h_hw = det.program_channel(h, rng).realized(det.spec)
        y = rng.standard_normal((1, 12))
        assert np.array_equal(det.forward(h_hw, y), det.forward(h_hw, y))

    def test_matches_ideal_at_gamma_zero(self, rng):
        # only pulse quantization separates the two paths
        cfg = desk_cfg()
        det = crossbar.HardwareDetector(detnet.init_params(cfg, rng), luo_at(0.0))
        worst = 0.0
        for _ in range(20):
            h = np.clip(mimo.to_real(mimo.generate_channel(cfg, rng)), -3, 3)
            y = rng.standard_normal((1, 12))
            x_hw = det.forward(det.program_channel(h, rng).realized(det.spec), y)
            x_ideal = detnet.ideal_forward(det.params, h, y)[0][-1]
            worst = max(worst, np.abs(x_hw - x_ideal).max())
        assert worst <= 1e-2

    def test_reprogram_count_is_one_per_channel(self, luo, rng, monkeypatch):
        calls = []
        program_matrix = device.program_matrix
        monkeypatch.setattr(device, "program_matrix",
                            lambda *a, **k: calls.append(1) or program_matrix(*a, **k))
        cfg = desk_cfg()
        det = crossbar.HardwareDetector(detnet.init_params(cfg, rng), luo)
        h = mimo.to_real(mimo.generate_channel(cfg, rng))
        h_hw = det.program_channel(h, rng).realized(det.spec)
        assert len(calls) == 1
        for _ in range(14):  # one slot's worth of detections, no reprogramming
            det.forward(h_hw, rng.standard_normal((1, 12)))
        assert len(calls) == 1

    def test_error_grows_with_gamma(self, rng):
        cfg = desk_cfg()
        params = detnet.init_params(cfg, rng)
        diffs = {}
        for gamma in (0.005, 0.02):
            det = crossbar.HardwareDetector(params, luo_at(gamma))
            acc = []
            loc_rng = np.random.default_rng(11)
            for _ in range(200):
                h = mimo.to_real(mimo.generate_channel(cfg, loc_rng))
                y = loc_rng.standard_normal((1, 12))
                x_hw = det.forward(det.program_channel(h, loc_rng).realized(det.spec), y)
                x_id = detnet.ideal_forward(params, h, y)[0][-1]
                acc.append(np.linalg.norm(x_hw - x_id))
            diffs[gamma] = np.mean(acc)
        assert diffs[0.02] >= diffs[0.005]

    def test_round_trip_within_quantization(self, rng):
        spec = luo_at(0.0)
        det = crossbar.HardwareDetector(detnet.init_params(desk_cfg(), rng), spec)
        h = np.clip(rng.standard_normal((6, 4)), -3, 3)
        h_hw = det.program_channel(h, rng).realized(spec)
        assert np.abs(h_hw - h).max() <= 3.0 / (2 * spec.n_p) + 1e-12

    def test_spec_override_programs_at_that_gamma(self, rng):
        det = crossbar.HardwareDetector(detnet.init_params(desk_cfg(), rng), luo_at(0.02))
        h = np.clip(rng.standard_normal((12, 8)), -3, 3)
        result = det.program_channel(h, rng)
        exact = result.realized(luo_at(0.0))
        assert np.abs(exact - h).max() <= 3.0 / (2 * 150) + 1e-12
        assert np.abs(result.realized(det.spec) - h).max() > 3.0 / (2 * 150)
