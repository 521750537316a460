from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from immimo import device, mimo
from immimo.device import DeviceSpec
import oracles


@pytest.fixture
def luo():
    return device.device_preset("luo2022")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


# Scalar oracles for the vectorized programming model: one entry, one cell,
# one pulse train at a time, in the conductances of tests/oracles.py.


def g_range(spec):
    """G_on - G_off in siemens."""
    g_on, g_off = oracles.conductances(spec)
    return g_on - g_off


def target_pair(h_entry, spec):
    """Target (g_plus, g_minus) and conductance change for one channel entry.

    Only one cell of the pair moves away from G_off; a zero entry programs
    neither.  Returns ((g_plus, g_minus), target_dg).
    """
    mu = oracles.map_coefficient(spec)
    _, g_off = oracles.conductances(spec)
    h = float(np.clip(h_entry, -device.H_CLIP, device.H_CLIP))
    target_dg = mu * abs(h)
    if h > 0:
        return (g_off + target_dg, g_off), target_dg
    if h < 0:
        return (g_off, g_off + target_dg), target_dg
    return (g_off, g_off), 0.0


def program_cell(target_dg, spec, rng):
    """Apply a pulse train toward target_dg; returns (achieved_dg, n_pulses).

    Every pulse contributes (G_on - G_off)/N_p plus an independent Gaussian
    C2C draw; the result is not clipped to the physical range.
    """
    n = oracles.pulse_count(target_dg, spec)
    achieved = n * g_range(spec) / spec.n_p
    if n > 0 and spec.gamma > 0:
        achieved += rng.normal(0.0, spec.gamma * g_range(spec), size=n).sum()
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
    mu = oracles.map_coefficient(spec)
    _, target_dg = target_pair(h_entry, spec)
    n = oracles.pulse_count(target_dg, spec)
    base = n * g_range(spec) / spec.n_p - target_dg
    if n == 0 or spec.gamma == 0.0:
        return np.full(trials, base / mu)
    noise = rng.normal(0.0, spec.gamma * g_range(spec), size=(trials, n)).sum(axis=1)
    return (base + noise) / mu


class TestDeviceSpec:
    def test_presets_exist(self):
        for name in ("zeng2023", "jerry2017", "luo2022"):
            spec = device.device_preset(name)
            assert spec.g_on_us > spec.g_off_us > 0

    def test_luo_values(self, luo):
        assert luo.g_on_us == 27.5
        assert luo.g_off_us == 1.0
        assert luo.n_p == 150
        assert luo.gamma == 0.0365
        assert luo.dt_w_ns == 0.63
        assert luo.dt_w == pytest.approx(0.63e-9)

    def test_default_preset_is_luo(self):
        assert device.device_preset().n_p == device.device_preset("luo2022").n_p

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown device preset 'nope'"):
            device.device_preset("nope")

    def test_gamma_warning_band(self):
        with pytest.warns(UserWarning):
            DeviceSpec(g_on_us=2.0, g_off_us=1.0, n_p=10, gamma=0.055, dt_w_ns=1.0)
        with pytest.raises(ValueError):
            DeviceSpec(g_on_us=2.0, g_off_us=1.0, n_p=10, gamma=0.07, dt_w_ns=1.0)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            DeviceSpec(g_on_us=1.0, g_off_us=2.0, n_p=10, gamma=0.01, dt_w_ns=1.0)
        with pytest.raises(ValueError):
            DeviceSpec(g_on_us=2.0, g_off_us=1.0, n_p=0, gamma=0.01, dt_w_ns=1.0)
        with pytest.raises(ValueError):
            DeviceSpec(g_on_us=2.0, g_off_us=1.0, n_p=10, gamma=0.01, dt_w_ns=0.0)


class TestMapping:
    def test_luo_mu(self, luo):
        assert oracles.map_coefficient(luo) == pytest.approx(8.8333e-6, rel=1e-4)

    def test_unit_range(self):
        spec = DeviceSpec(g_on_us=4.0, g_off_us=1.0, n_p=10, gamma=0.01, dt_w_ns=1.0)
        assert oracles.map_coefficient(spec) == pytest.approx(1e-6)

    def test_three_sigma_identity(self, luo):
        g_on, g_off = oracles.conductances(luo)
        assert oracles.map_coefficient(luo) * 3 + g_off == pytest.approx(g_on)

    def test_negative_entry(self):
        spec = DeviceSpec(g_on_us=4.0, g_off_us=1.0, n_p=10, gamma=0.01, dt_w_ns=1.0)
        (gp, gm), dg = target_pair(-2.0, spec)
        assert gp == pytest.approx(1e-6)
        assert gm == pytest.approx(3e-6)
        assert dg == pytest.approx(2e-6)

    def test_zero_entry(self, luo):
        (gp, gm), dg = target_pair(0.0, luo)
        assert gp == gm == oracles.conductances(luo)[1]
        assert dg == 0.0

    def test_full_scale_reaches_g_on(self, luo):
        (gp, _), dg = target_pair(3.0, luo)
        assert gp == pytest.approx(oracles.conductances(luo)[0])
        assert oracles.pulse_count(dg, luo) == luo.n_p
        assert device.program_matrix(np.full((1, 1), 3.0), luo).pulse_counts[0, 0] == luo.n_p

    def test_clips_beyond_three(self, luo):
        (gp, _), _ = target_pair(5.7, luo)
        assert gp == pytest.approx(oracles.conductances(luo)[0])


class TestProgramCell:
    def test_noiseless_is_exact(self, rng):
        spec = DeviceSpec(g_on_us=4.0, g_off_us=1.0, n_p=30, gamma=0.0, dt_w_ns=1.0)
        achieved, n = program_cell(1.3e-6, spec, rng)
        assert n == 13
        assert achieved == pytest.approx(13 * g_range(spec) / 30)

    def test_full_range_pulse_count(self, luo, rng):
        _, n = program_cell(g_range(luo), luo, rng)
        assert n == luo.n_p

    def test_variance_matches_law(self, luo, rng):
        # Var[dh] = 3 gamma^2 N_p |h| for the pulse train
        h = 2.0
        dh = simulate_dh_pulse_train(h, luo, rng, trials=100_000)
        expected = 3 * luo.gamma**2 * luo.n_p * h
        assert abs(dh.var() / expected - 1) < 0.05
        # and the mean offset vanishes when |h| N_p / 3 is an integer
        assert abs(dh.mean()) < 3 * dh.std() / np.sqrt(dh.size)


class TestSampleDh:
    """The dh law: the closed-form oracle, and realized() against the pulse train."""

    def test_zero_entry(self, luo, rng):
        assert sample_dh(0.0, luo, rng) == 0.0

    def test_zero_gamma(self, rng):
        spec = DeviceSpec(g_on_us=4.0, g_off_us=1.0, n_p=30, gamma=0.0, dt_w_ns=1.0)
        assert sample_dh(1.5, spec, rng) == 0.0

    def test_matches_pulse_train_distribution(self, luo, rng):
        # closed form and pulse-train oracle agree (two-sample KS)
        h = 1.5
        fast = np.array([sample_dh(h, luo, rng) for _ in range(10_000)])
        oracle = simulate_dh_pulse_train(h, luo, rng, trials=10_000)
        _, p_value = stats.ks_2samp(fast, oracle)
        assert p_value > 0.01

    def test_realized_matches_pulse_train_distribution(self, luo, rng):
        # |h| = 1.5 takes exactly N_p / 2 pulses on luo2022, so the realized
        # channel carries no quantization offset
        h = np.full((100, 100), 1.5)
        realized = device.program_matrix(h, luo).realized(luo.gamma,
                                                          rng.standard_normal(h.shape))
        oracle = simulate_dh_pulse_train(1.5, luo, rng, trials=10_000)
        _, p_value = stats.ks_2samp((realized - h).ravel(), oracle)
        assert p_value > 0.01

    def test_realized_matches_law(self, luo, rng):
        # |h| = 1.2 takes exactly 60 pulses, stored as 1.2 up to rounding
        h = np.full((200, 50), 1.2)
        dh = device.program_matrix(h, luo).realized(luo.gamma, rng.standard_normal(h.shape)) - h
        expected = 3 * luo.gamma**2 * luo.n_p * 1.2
        assert abs(dh.var() / expected - 1) < 0.05


class TestProgramMatrix:
    def test_zero_matrix(self, luo, rng):
        result = device.program_matrix(np.zeros((4, 6)), luo)
        assert result.pulse_counts.sum() == 0
        assert result.total_latency == 0.0
        z = rng.standard_normal((4, 6))
        assert np.array_equal(result.realized(luo.gamma, z), np.zeros((4, 6)))

    def test_noiseless_quantization_bound(self, rng):
        spec = DeviceSpec(g_on_us=4.0, g_off_us=1.0, n_p=150, gamma=0.0, dt_w_ns=1.0)
        h = np.clip(rng.standard_normal((12, 8)), -3, 3)
        result = device.program_matrix(h, spec)
        step_err = g_range(spec) / (2 * spec.n_p * oracles.map_coefficient(spec))
        realized = result.realized(spec.gamma, rng.standard_normal(h.shape))
        assert np.abs(realized - h).max() <= step_err + 1e-12

    def test_row_latency_is_max_in_row(self, luo):
        h = np.array([[1.0, -2.0, 3.0]])
        result = device.program_matrix(h, luo)
        expected_counts = [round(luo.n_p / 3), round(2 * luo.n_p / 3), luo.n_p]
        assert result.pulse_counts.tolist() == [expected_counts]
        row_latency = luo.dt_w * result.pulse_counts.max(axis=-1)
        assert row_latency[0] == pytest.approx(luo.dt_w * luo.n_p)
        assert result.total_latency == pytest.approx(luo.dt_w * luo.n_p)

    def test_noise_matches_law(self, luo, rng):
        # realized minus the quantized target has variance 3 gamma^2 N_p |h|,
        # with |h| the quantized magnitude; the normalized residual's sample
        # variance over 10^4 cells has relative std sqrt(2 / 10^4) = 1.4%, so
        # the 5% tolerance sits above 3 sigma
        h = np.clip(rng.standard_normal((100, 100)), -3, 3)
        result = device.program_matrix(h, luo)
        step = g_range(luo) / luo.n_p / oracles.map_coefficient(luo)
        h_q = np.sign(h) * result.pulse_counts * step
        on = result.pulse_counts > 0
        realized = result.realized(luo.gamma, rng.standard_normal(h.shape))
        z = (realized - h_q)[on] / np.sqrt(
            3 * luo.gamma**2 * luo.n_p * np.abs(h_q[on]))
        assert z.size >= 9_800
        assert abs(z.var() - 1) < 0.05
        assert abs(z.mean()) < 3 / np.sqrt(z.size)

    def test_cells_without_pulses_stay_exact(self, luo, rng):
        # zero-pulse cells at the start, between pulsed cells and at the end:
        # their noise 3 gamma sqrt(0) z vanishes whatever z is
        h = np.array([[0.0, 1.2, 0.0, 0.0, -0.8, 0.004],
                      [2.5, -0.003, 0.0, 1.0, 0.0, 0.0]])
        result = device.program_matrix(h, luo)
        zero = result.pulse_counts == 0
        assert zero.sum() == 8
        for _ in range(20):
            realized = result.realized(luo.gamma, rng.standard_normal(h.shape))
            assert np.all(realized[zero] == 0.0)
            assert np.all(realized[~zero] != h[~zero])

    def test_stack_programs_and_realizes_like_its_slices(self, luo, rng):
        h = rng.standard_normal((2, 3, 12, 8))
        z = rng.standard_normal(h.shape)
        stack = device.program_matrix(h, luo)
        realized = stack.realized(luo.gamma, z)
        singles = []
        for idx in np.ndindex(h.shape[:2]):
            one = device.program_matrix(h[idx], luo)
            singles.append(one.total_latency)
            assert np.array_equal(stack.h_clipped[idx], one.h_clipped)
            assert np.array_equal(stack.pulse_counts[idx], one.pulse_counts)
            row_latency = luo.dt_w * stack.pulse_counts[idx].max(axis=-1)
            assert one.total_latency == pytest.approx(row_latency.sum(), rel=1e-12)
            assert np.array_equal(realized[idx], one.realized(luo.gamma, z[idx]))
        # a stack's latency is the sum over every row of every matrix
        assert stack.total_latency == pytest.approx(sum(singles), rel=1e-12)

    def test_round_trip_within_quantization(self, luo, rng):
        h = np.clip(rng.standard_normal((6, 4)), -3, 3)
        realized = device.program_matrix(h, luo).realized(0.0, rng.standard_normal(h.shape))
        assert np.abs(realized - h).max() <= 3.0 / (2 * luo.n_p) + 1e-12

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
        """The noiseless stored channel, read back from the conductance pairs."""
        return oracles.conductance_realized(h, spec, 0.0, np.zeros(np.shape(h)))

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
            realized = result.realized(gamma, rng.standard_normal(h.shape))
            dh = realized - self.quantized(h, spec)
            oracle = simulate_dh_pulse_train(1.5, spec, rng, trials=10_000)
            _, p_value = stats.ks_2samp(dh.ravel(), oracle)
            assert p_value > 0.001

    def test_one_draw_scales_linearly_with_gamma(self, luo):
        # a cell's n pulses add gamma (G_on - G_off) sqrt(n) z, and
        # (G_on - G_off) / mu = 3
        z = np.random.default_rng(8).standard_normal(self.H.shape)
        result = device.program_matrix(self.H, luo)
        n = result.pulse_counts
        for gamma in (0.01, 0.02, 0.04):
            dh = result.realized(gamma, z) - self.quantized(self.H, luo)
            expected = np.sign(self.H) * 3.0 * gamma * np.sqrt(n) * z
            assert np.abs(dh - expected).max() <= 1e-14

    def test_gamma_zero_is_the_quantized_channel(self, luo):
        result = device.program_matrix(self.H, luo)
        z = np.random.default_rng(8).standard_normal(self.H.shape)
        exact = result.realized(0.0, z)
        # the draws leave no trace at gamma zero
        assert np.array_equal(exact, result.realized(0.0, np.zeros(self.H.shape)))
        assert np.abs(exact - self.quantized(self.H, luo)).max() <= 1e-12

    def test_one_programming_realizes_at_another_gamma(self, luo, rng):
        h = np.clip(rng.standard_normal((12, 8)), -3, 3)
        result = device.program_matrix(h, luo)
        z = rng.standard_normal(h.shape)
        exact = result.realized(0.0, z)
        assert np.abs(exact - h).max() <= 3.0 / (2 * luo.n_p) + 1e-12
        assert np.abs(result.realized(luo.gamma, z) - h).max() > 3.0 / (2 * luo.n_p)


def drawn_t_p(cfg, spec, rng):
    """T_p of programming one channel drawn from rng, as the latency mode does."""
    return device.program_matrix(mimo.generate_channel(cfg, rng), spec).t_p


class TestProgrammingLatency:
    def test_single_pulse_cap(self, rng):
        spec = DeviceSpec(g_on_us=4.0, g_off_us=1.0, n_p=1, gamma=0.01, dt_w_ns=1.0)
        cfg = mimo.MimoConfig(n_t=4, n_r=6)
        for _ in range(10):
            t_p = drawn_t_p(cfg, spec, rng)
            assert t_p <= 2 * 2 * cfg.n_r * spec.dt_w + 1e-18

    def test_doubling_rows_roughly_doubles(self, luo, rng):
        means = []
        for n_r in (6, 12):
            cfg = mimo.MimoConfig(n_t=4, n_r=n_r)
            means.append(np.mean([drawn_t_p(cfg, luo, rng) for _ in range(20)]))
        assert abs(means[1] / means[0] - 2) < 0.1 * 2

    def test_monotone_in_np_and_nr(self, rng):
        base = dict(g_on_us=27.5, g_off_us=1.0, gamma=0.0365, dt_w_ns=0.63)
        mean_tp = {}
        for n_p in (50, 150):
            for n_r in (4, 8):
                spec = DeviceSpec(n_p=n_p, **base)
                cfg = mimo.MimoConfig(n_t=4, n_r=n_r)
                mean_tp[(n_p, n_r)] = np.mean([drawn_t_p(cfg, spec, rng) for _ in range(50)])
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
            h = mimo.generate_channel(cfg, rng)
            rows.extend(luo.dt_w * device.program_matrix(h, luo).pulse_counts.max(axis=-1))
        assert np.mean(rows) <= bound

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


class TestConductanceOracle:
    """Channel-unit programming equals the conductance model it reduces to."""

    @pytest.mark.parametrize("preset", ["luo2022", "jerry2017", "zeng2023"])
    def test_matches_the_conductance_model(self, preset):
        spec = device.device_preset(preset)
        rng = np.random.default_rng(31)
        # about 4.5% of the entries lie beyond the clip at |h| = 3
        h = 1.5 * rng.standard_normal((2, 3, 12, 8))
        z = rng.standard_normal(h.shape)
        result = device.program_matrix(h, spec)
        assert np.array_equal(result.pulse_counts, oracles.program_pulses(h, spec))
        assert result.total_latency == oracles.programming_latency(h, spec)
        for gamma in (0.0, 0.005, 0.0365, 0.055):
            got = result.realized(gamma, z)
            want = oracles.conductance_realized(h, spec, gamma, z)
            assert np.abs(got - want).max() <= 1e-12
        for n_t in (2, 4, 64):
            assert device.row_latency_bound(n_t, spec) == pytest.approx(
                oracles.row_latency_bound(n_t, spec), rel=1e-12)
