from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from immimo import device, mimo
from immimo.device import DeviceSpec


@pytest.fixture
def luo():
    return device.device_preset("luo2022")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


# Scalar oracles for the vectorized programming model: one entry, one cell,
# one pulse train at a time.


def target_pair(h_entry, spec):
    """Target (g_plus, g_minus) and conductance change for one channel entry.

    Only one cell of the pair moves away from G_off; a zero entry programs
    neither.  Returns ((g_plus, g_minus), target_dg).
    """
    mu = device.map_coefficient(spec)
    h = float(np.clip(h_entry, -device.H_CLIP, device.H_CLIP))
    target_dg = mu * abs(h)
    if h > 0:
        return (spec.g_off + target_dg, spec.g_off), target_dg
    if h < 0:
        return (spec.g_off, spec.g_off + target_dg), target_dg
    return (spec.g_off, spec.g_off), 0.0


def program_cell(target_dg, spec, rng):
    """Apply a pulse train toward target_dg; returns (achieved_dg, n_pulses).

    Every pulse contributes (G_on - G_off)/N_p plus an independent Gaussian
    C2C draw; the result is not clipped to the physical range.
    """
    n = device.pulse_count(target_dg, spec)
    achieved = n * spec.g_range / spec.n_p
    if n > 0 and spec.gamma > 0:
        achieved += rng.normal(0.0, spec.sigma_dg, size=n).sum()
    return achieved, n


def sample_dh(h_entry, spec, rng):
    """Closed-form draw of dh for one entry: N(0, 3 gamma^2 N_p min(|h|, 3))."""
    h = min(abs(float(h_entry)), device.H_CLIP)
    if h == 0.0 or spec.gamma == 0.0:
        return 0.0
    return rng.normal(0.0, np.sqrt(3.0 * spec.gamma**2 * spec.n_p * h))


def simulate_dh_pulse_train(h_entry, spec, rng, trials):
    """Monte Carlo oracle for the dh law: literal pulse-train accumulation.

    Programs the same entry `trials` times and returns the array of realized
    dh = (achieved_dg - target_dg)/mu.  Quantization of the pulse count shows
    up as a deterministic offset, C2C noise as the spread.
    """
    mu = device.map_coefficient(spec)
    _, target_dg = target_pair(h_entry, spec)
    n = device.pulse_count(target_dg, spec)
    base = n * spec.g_range / spec.n_p - target_dg
    if n == 0 or spec.gamma == 0.0:
        return np.full(trials, base / mu)
    noise = rng.normal(0.0, spec.sigma_dg, size=(trials, n)).sum(axis=1)
    return (base + noise) / mu


class TestDeviceSpec:
    def test_presets_exist(self):
        for name in ("zeng2023", "jerry2017", "luo2022"):
            spec = device.device_preset(name)
            assert spec.g_on > spec.g_off > 0

    def test_luo_values(self, luo):
        assert luo.g_on == pytest.approx(27.5e-6)
        assert luo.g_off == pytest.approx(1e-6)
        assert luo.n_p == 150
        assert luo.gamma == pytest.approx(0.0365)
        assert luo.dt_w == pytest.approx(0.63e-9)

    def test_default_preset_is_luo(self):
        assert device.device_preset().n_p == device.device_preset("luo2022").n_p

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            device.device_preset("nope")

    def test_gamma_warning_band(self):
        with pytest.warns(UserWarning):
            DeviceSpec(g_on=2e-6, g_off=1e-6, n_p=10, gamma=0.055, dt_w=1e-9)
        with pytest.raises(ValueError):
            DeviceSpec(g_on=2e-6, g_off=1e-6, n_p=10, gamma=0.07, dt_w=1e-9)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            DeviceSpec(g_on=1e-6, g_off=2e-6, n_p=10, gamma=0.01, dt_w=1e-9)
        with pytest.raises(ValueError):
            DeviceSpec(g_on=2e-6, g_off=1e-6, n_p=0, gamma=0.01, dt_w=1e-9)


class TestMapping:
    def test_luo_mu(self, luo):
        assert device.map_coefficient(luo) == pytest.approx(8.8333e-6, rel=1e-4)

    def test_unit_range(self):
        spec = DeviceSpec(g_on=4.0, g_off=1.0, n_p=10, gamma=0.01, dt_w=1e-9)
        assert device.map_coefficient(spec) == pytest.approx(1.0)

    def test_three_sigma_identity(self, luo):
        mu = device.map_coefficient(luo)
        assert mu * 3 + luo.g_off == pytest.approx(luo.g_on)

    def test_negative_entry(self):
        spec = DeviceSpec(g_on=4e-6, g_off=1e-6, n_p=10, gamma=0.01, dt_w=1e-9)
        (gp, gm), dg = target_pair(-2.0, spec)
        assert gp == pytest.approx(1e-6)
        assert gm == pytest.approx(3e-6)
        assert dg == pytest.approx(2e-6)

    def test_zero_entry(self, luo):
        (gp, gm), dg = target_pair(0.0, luo)
        assert gp == gm == luo.g_off
        assert dg == 0.0

    def test_full_scale_reaches_g_on(self, luo):
        (gp, _), dg = target_pair(3.0, luo)
        assert gp == pytest.approx(luo.g_on)
        assert device.pulse_count(dg, luo) == luo.n_p

    def test_clips_beyond_three(self, luo):
        (gp, _), _ = target_pair(5.7, luo)
        assert gp == pytest.approx(luo.g_on)


class TestProgramCell:
    def test_noiseless_is_exact(self, rng):
        spec = DeviceSpec(g_on=4e-6, g_off=1e-6, n_p=30, gamma=0.0, dt_w=1e-9)
        achieved, n = program_cell(1.3e-6, spec, rng)
        assert n == 13
        assert achieved == pytest.approx(13 * spec.g_range / 30)

    def test_full_range_pulse_count(self, luo, rng):
        _, n = program_cell(luo.g_range, luo, rng)
        assert n == luo.n_p

    def test_out_of_range_target(self, luo, rng):
        with pytest.raises(ValueError):
            program_cell(2 * luo.g_range, luo, rng)

    def test_variance_matches_law(self, luo, rng):
        # Var[dh] = 3 gamma^2 N_p |h| for the pulse train
        h = 2.0
        dh = simulate_dh_pulse_train(h, luo, rng, trials=100_000)
        expected = 3 * luo.gamma**2 * luo.n_p * h
        assert abs(dh.var() / expected - 1) < 0.05
        # and the mean offset vanishes when |h| N_p / 3 is an integer
        assert abs(dh.mean()) < 3 * dh.std() / np.sqrt(dh.size)


class TestSampleDh:
    def test_zero_entry(self, luo, rng):
        assert sample_dh(0.0, luo, rng) == 0.0

    def test_zero_gamma(self, rng):
        spec = DeviceSpec(g_on=4e-6, g_off=1e-6, n_p=30, gamma=0.0, dt_w=1e-9)
        assert sample_dh(1.5, spec, rng) == 0.0

    def test_matches_pulse_train_distribution(self, luo, rng):
        # closed form and pulse-train oracle agree (two-sample KS)
        h = 1.5
        fast = np.array([sample_dh(h, luo, rng) for _ in range(10_000)])
        oracle = simulate_dh_pulse_train(h, luo, rng, trials=10_000)
        _, p_value = stats.ks_2samp(fast, oracle)
        assert p_value > 0.01

    def test_matrix_variant_matches_pulse_train_distribution(self, luo, rng):
        h = 1.5
        fast = device.sample_dh_matrix(np.full(10_000, h), luo, rng)
        oracle = simulate_dh_pulse_train(h, luo, rng, trials=10_000)
        _, p_value = stats.ks_2samp(fast, oracle)
        assert p_value > 0.01

    def test_matrix_variant_matches_law(self, luo, rng):
        h = np.full((200, 50), 1.2)
        dh = device.sample_dh_matrix(h, luo, rng)
        expected = 3 * luo.gamma**2 * luo.n_p * 1.2
        assert abs(dh.var() / expected - 1) < 0.05


class TestProgramMatrix:
    def test_zero_matrix(self, luo, rng):
        result = device.program_matrix(np.zeros((4, 6)), luo)
        assert result.pulse_counts.sum() == 0
        assert result.total_latency == 0.0
        z = rng.standard_normal((4, 6))
        assert np.array_equal(result.realized(luo, z), np.zeros((4, 6)))

    def test_noiseless_quantization_bound(self, rng):
        spec = DeviceSpec(g_on=4e-6, g_off=1e-6, n_p=150, gamma=0.0, dt_w=1e-9)
        h = np.clip(rng.standard_normal((12, 8)), -3, 3)
        result = device.program_matrix(h, spec)
        step_err = spec.g_range / (2 * spec.n_p * device.map_coefficient(spec))
        realized = result.realized(spec, rng.standard_normal(h.shape))
        assert np.abs(realized - h).max() <= step_err + 1e-12

    def test_row_latency_is_max_in_row(self, luo):
        h = np.array([[1.0, -2.0, 3.0]])
        result = device.program_matrix(h, luo)
        expected_counts = [round(luo.n_p / 3), round(2 * luo.n_p / 3), luo.n_p]
        assert result.pulse_counts.tolist() == [expected_counts]
        assert result.latency_per_row[0] == pytest.approx(luo.dt_w * luo.n_p)
        assert result.total_latency == pytest.approx(luo.dt_w * luo.n_p)

    def test_noise_matches_law(self, luo, rng):
        # realized minus the quantized target has variance 3 gamma^2 N_p |h|,
        # with |h| the quantized magnitude; the normalized residual's sample
        # variance over 10^4 cells has relative std sqrt(2 / 10^4) = 1.4%, so
        # the 5% tolerance sits above 3 sigma
        h = np.clip(rng.standard_normal((100, 100)), -3, 3)
        result = device.program_matrix(h, luo)
        step = luo.g_range / luo.n_p / device.map_coefficient(luo)
        h_q = np.sign(h) * result.pulse_counts * step
        on = result.pulse_counts > 0
        realized = result.realized(luo, rng.standard_normal(h.shape))
        z = (realized - h_q)[on] / np.sqrt(
            3 * luo.gamma**2 * luo.n_p * np.abs(h_q[on]))
        assert z.size >= 9_800
        assert abs(z.var() - 1) < 0.05
        assert abs(z.mean()) < 3 / np.sqrt(z.size)

    def test_cells_without_pulses_stay_exact(self, luo, rng):
        # zero-pulse cells at the start, between pulsed cells and at the end:
        # their noise sigma_dg * sqrt(0) * z vanishes whatever z is
        h = np.array([[0.0, 1.2, 0.0, 0.0, -0.8, 0.004],
                      [2.5, -0.003, 0.0, 1.0, 0.0, 0.0]])
        result = device.program_matrix(h, luo)
        zero = result.pulse_counts == 0
        assert zero.sum() == 8
        for _ in range(20):
            realized = result.realized(luo, rng.standard_normal(h.shape))
            assert np.all(realized[zero] == 0.0)
            assert np.all(realized[~zero] != h[~zero])

    def test_stack_programs_and_realizes_like_its_slices(self, luo, rng):
        h = rng.standard_normal((2, 3, 12, 8))
        z = rng.standard_normal(h.shape)
        stack = device.program_matrix(h, luo)
        realized = stack.realized(luo, z)
        singles = []
        for idx in np.ndindex(h.shape[:2]):
            one = device.program_matrix(h[idx], luo)
            singles.append(one.total_latency)
            assert np.array_equal(stack.h_clipped[idx], one.h_clipped)
            assert np.array_equal(stack.pulse_counts[idx], one.pulse_counts)
            assert np.array_equal(stack.latency_per_row[idx], one.latency_per_row)
            assert np.array_equal(realized[idx], one.realized(luo, z[idx]))
        # a stack's latency is the sum over every row of every matrix
        assert stack.total_latency == pytest.approx(sum(singles), rel=1e-12)

    def test_rejects_non_matrix(self, luo):
        with pytest.raises(ValueError):
            device.program_matrix(np.zeros(5), luo)


class TestRealizeAtGamma:
    """One programming event, realized at several C2C levels of one device."""

    H = np.array([[0.0, 1.2, -0.8, 3.4],
                  [-2.9, 0.004, 0.5, -1.7],
                  [2.2, 0.0, -0.3, 0.9]])

    @staticmethod
    def quantized(h, spec):
        """The noiseless stored channel, from the pulse counts alone."""
        hc = np.clip(h, -device.H_CLIP, device.H_CLIP)
        q = device.program_matrix(h, spec).pulse_counts * (spec.g_range / spec.n_p)
        g_plus = np.where(hc > 0, spec.g_off + q, spec.g_off)
        g_minus = np.where(hc < 0, spec.g_off + q, spec.g_off)
        return (g_plus - g_minus) / device.map_coefficient(spec)

    def test_matches_literal_pulse_train_at_every_gamma(self, luo):
        # |h| = 1.5 takes exactly N_p / 2 pulses, so the pulse-train oracle's
        # dh carries no quantization offset; signs alternate by column.  Each
        # KS test rejects at 0.1%, so the three together falsely fail 0.3% of
        # the time
        rng = np.random.default_rng(8)
        h = np.full((100, 100), 1.5)
        h[:, ::2] *= -1
        result = device.program_matrix(h, luo)
        for gamma in (0.01, 0.02, 0.04):
            spec = replace(luo, gamma=gamma)
            realized = result.realized(spec, rng.standard_normal(h.shape))
            dh = realized - self.quantized(h, spec)
            oracle = simulate_dh_pulse_train(1.5, spec, rng, trials=10_000)
            _, p_value = stats.ks_2samp(dh.ravel(), oracle)
            assert p_value > 0.001

    def test_one_draw_scales_linearly_with_gamma(self, luo):
        # a cell's n pulses add sigma_dg sqrt(n) z, and sigma_dg / mu = 3 gamma
        z = np.random.default_rng(8).standard_normal(self.H.shape)
        result = device.program_matrix(self.H, luo)
        n = result.pulse_counts
        for gamma in (0.01, 0.02, 0.04):
            spec = replace(luo, gamma=gamma)
            dh = result.realized(spec, z) - self.quantized(self.H, spec)
            expected = np.sign(self.H) * 3.0 * gamma * np.sqrt(n) * z
            assert np.abs(dh - expected).max() <= 1e-14

    def test_gamma_zero_is_the_quantized_channel(self, luo):
        spec = replace(luo, gamma=0.0)
        result = device.program_matrix(self.H, luo)
        z = np.random.default_rng(8).standard_normal(self.H.shape)
        assert np.array_equal(result.realized(spec, z), self.quantized(self.H, spec))


class TestProgrammingLatency:
    def test_single_pulse_cap(self, rng):
        spec = DeviceSpec(g_on=4e-6, g_off=1e-6, n_p=1, gamma=0.01, dt_w=1e-9)
        cfg = mimo.MimoConfig(n_t=4, n_r=6)
        for _ in range(10):
            t_p = device.total_programming_latency(cfg, spec, rng)
            assert t_p <= 2 * 2 * cfg.n_r * spec.dt_w + 1e-18

    def test_doubling_rows_roughly_doubles(self, luo, rng):
        means = []
        for n_r in (6, 12):
            cfg = mimo.MimoConfig(n_t=4, n_r=n_r)
            means.append(
                np.mean([
                    device.total_programming_latency(cfg, luo, rng)
                    for _ in range(20)
                ])
            )
        assert abs(means[1] / means[0] - 2) < 0.1 * 2

    def test_monotone_in_np_and_nr(self, rng):
        base = dict(g_on=27.5e-6, g_off=1e-6, gamma=0.0365, dt_w=0.63e-9)
        mean_tp = {}
        for n_p in (50, 150):
            for n_r in (4, 8):
                spec = DeviceSpec(n_p=n_p, **base)
                cfg = mimo.MimoConfig(n_t=4, n_r=n_r)
                mean_tp[(n_p, n_r)] = np.mean([
                    device.total_programming_latency(cfg, spec, rng)
                    for _ in range(50)
                ])
        assert mean_tp[(150, 4)] >= mean_tp[(50, 4)]
        assert mean_tp[(150, 8)] >= mean_tp[(50, 8)]
        assert mean_tp[(50, 8)] >= mean_tp[(50, 4)]
        assert mean_tp[(150, 8)] >= mean_tp[(150, 4)]

    @pytest.mark.parametrize("n_t", [4, 16, 64])
    def test_row_latency_bound_contains_simulation(self, luo, rng, n_t):
        # expected per-row latency stays below the closed-form bound
        bound = device.row_latency_bound(n_t, luo)
        cfg = mimo.MimoConfig(n_t=n_t, n_r=n_t)
        rows = []
        for _ in range(30):
            h = mimo.to_real(mimo.generate_channel(cfg, rng))
            rows.extend(device.program_matrix(h, luo).latency_per_row)
        assert np.mean(rows) <= bound

    def test_latency_draws_only_the_channel(self, luo):
        cfg = mimo.MimoConfig(n_t=4, n_r=6)
        rng, channel_only = np.random.default_rng(5), np.random.default_rng(5)
        device.total_programming_latency(cfg, luo, rng)
        mimo.generate_channel(cfg, channel_only)
        assert rng.standard_normal() == channel_only.standard_normal()

    def test_bound_requires_nt_at_least_two(self, luo):
        with pytest.raises(ValueError):
            device.row_latency_bound(1, luo)


class TestLemma1Law:
    @pytest.mark.parametrize("h", [0.5, 1.0, 2.0, 3.0])
    def test_variance_ratio(self, luo, h):
        rng = np.random.default_rng(int(h * 10))
        dh = simulate_dh_pulse_train(h, luo, rng, trials=100_000)
        ratio = dh.var() / (3 * luo.gamma**2 * luo.n_p * h)
        assert 0.95 <= ratio <= 1.05
        assert abs(dh.mean()) <= 3 * dh.std() / np.sqrt(dh.size)
