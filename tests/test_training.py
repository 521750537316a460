import math

import numpy as np
import pytest

from immimo import detnet, device, mimo, training
from immimo.mimo import MimoConfig
from oracles import complex_channel, to_real


class DictAdam:
    """Textbook Adam over a dict of arrays, one key at a time (the oracle)."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for key, p in params.items():
            g = grads[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(p)
                self.v[key] = np.zeros_like(p)
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * g * g
            p -= self.lr * (self.m[key] / bc1) / (np.sqrt(self.v[key] / bc2) + self.eps)


def small_cfg():
    return MimoConfig(n_t=2, n_r=3, modulation="qpsk", L=3, S=16)


def small_train(**kw):
    base = dict(epochs=12, batch_size=16)
    base.update(kw)
    return training.TrainConfig(**base)


@pytest.fixture
def luo():
    return device.device_preset("luo2022")


class TestAdam:
    def test_flat_step_matches_per_key_update_bit_for_bit(self):
        rng = np.random.default_rng(0)
        shapes = {"a": (30, 4), "b": (50,), "c": (20, 2, 2)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        oracle_params = {k: v.copy() for k, v in start.items()}
        flat = np.concatenate([v.ravel() for v in start.values()])
        oracle, opt = DictAdam(3e-3), training.Adam(3e-3)
        for _ in range(6):
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 2)
                     for k, s in shapes.items()}
            oracle.step(oracle_params, grads)
            opt.step(flat, np.concatenate([g.ravel() for g in grads.values()]))
            for got, want in ((flat, oracle_params), (opt.m, oracle.m), (opt.v, oracle.v)):
                assert np.array_equal(got, np.concatenate([w.ravel() for w in want.values()]))
        assert opt.t == oracle.t == 6

    def test_zero_gradient_leaves_buffer_unchanged(self):
        flat = np.arange(5.0)
        opt = training.Adam(1e-2)
        opt.step(flat, np.zeros(5))
        assert np.array_equal(flat, np.arange(5.0))


class TestDrawBatch:
    def test_shapes_are_rows(self, luo):
        cfg, tc = small_cfg(), small_train()
        x, h_in, y_in = training.draw_batch(cfg, tc, luo, np.random.default_rng(1))
        assert x.shape == (16, 1, 2 * cfg.n_t)
        assert h_in.shape == (16, 2 * cfg.n_r, 2 * cfg.n_t)
        assert y_in.shape == (16, 1, 2 * cfg.n_r)

    def test_deterministic_for_a_seed(self, luo):
        cfg, tc = small_cfg(), small_train()
        first = training.draw_batch(cfg, tc, luo, np.random.default_rng(2))
        second = training.draw_batch(cfg, tc, luo, np.random.default_rng(2))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_no_programming_noise_at_gamma_zero(self, luo):
        cfg = small_cfg()
        for gamma, exact in ((0.0, True), (0.02, False)):
            tc = small_train(gamma_train=gamma)
            _, h_in, _ = training.draw_batch(cfg, tc, luo, np.random.default_rng(3))
            # the same stream again: bits first, then the complex channel
            rng = np.random.default_rng(3)
            mimo.random_bits(cfg, rng, count=tc.batch_size)
            h = to_real(complex_channel(cfg, rng, count=tc.batch_size))
            assert np.array_equal(h_in, h) == exact

    def test_realizes_the_programmed_batch_as_the_sweep_does(self, luo):
        cfg, tc = small_cfg(), small_train(gamma_train=0.02)
        _, h_in, _ = training.draw_batch(cfg, tc, luo, np.random.default_rng(3))
        # the same stream again: bits, channel, SNRs, channel noise, then one
        # unit normal per cell
        rng = np.random.default_rng(3)
        mimo.random_bits(cfg, rng, count=tc.batch_size)
        h = mimo.generate_channel(cfg, rng, count=tc.batch_size)
        rng.uniform(tc.snr_low_db, tc.snr_high_db, size=tc.batch_size)
        rng.standard_normal((tc.batch_size, 2 * cfg.n_r))
        z = rng.standard_normal(h.shape)
        want = device.program_matrix(h, luo).realized(tc.gamma_train, z)
        assert np.array_equal(h_in, want)

    def test_received_rows_carry_the_noiseless_product(self, luo):
        # at a very high training SNR, y_in is H x up to tiny noise
        cfg = small_cfg()
        tc = small_train(gamma_train=0.0, snr_low_db=200.0, snr_high_db=200.0)
        x, h_in, y_in = training.draw_batch(cfg, tc, luo, np.random.default_rng(4))
        assert np.allclose(y_in, x @ np.swapaxes(h_in, -1, -2), atol=1e-8)


def copy_params(params):
    return detnet.DetNetParams(**{k: v.copy() for k, v in params.as_dict().items()})


def reference_train(config, train_cfg, spec, rng, params):
    """The training loop over separate arrays with the per-key oracle Adam.

    Like training.train, it holds the params in detnet.DTYPE and casts every
    batch to it.
    """
    params = params.astype(detnet.DTYPE)
    pdict = params.as_dict()
    opt = DictAdam(train_cfg.lr)
    history = []
    for _ in range(train_cfg.epochs):
        x, h_in, y_in = (a.astype(detnet.DTYPE)
                         for a in training.draw_batch(config, train_cfg, spec, rng))
        trajectory, cache = detnet.ideal_forward(params, h_in, y_in)
        history.append(detnet.loss(trajectory, x, train_cfg.loss_weighting))
        opt.step(pdict, detnet.backward(params, cache, x, train_cfg.loss_weighting))
        np.clip(params.alpha1, training.ALPHA_FLOOR, None, out=params.alpha1)
        np.clip(params.alpha2, training.ALPHA_FLOOR, None, out=params.alpha2)
    return params, np.array(history)


class TestTrain:
    def test_matches_reference_loop_bit_for_bit(self, luo):
        cfg, tc = small_cfg(), small_train(lr=5e-3)
        start = detnet.init_params(cfg, np.random.default_rng(5))
        got, hist = training.train(cfg, tc, luo, np.random.default_rng(6), params=start)
        want, want_hist = reference_train(cfg, tc, luo, np.random.default_rng(6), start)
        assert np.array_equal(hist, want_hist)
        for key in detnet.PARAM_KEYS:
            assert np.array_equal(getattr(got, key), getattr(want, key))

    def test_returns_params_in_the_training_dtype(self, luo, tmp_path):
        cfg = small_cfg()
        start = detnet.init_params(cfg, np.random.default_rng(16))
        params, history = training.train(cfg, small_train(), luo,
                                         np.random.default_rng(17), params=start)
        assert {v.dtype for v in params.as_dict().values()} == {np.dtype(detnet.DTYPE)}
        assert start.w1.dtype == np.float64
        assert history.dtype == np.float64
        # and the checkpoint keeps it
        training.save_params(tmp_path / "p.npz", params, cfg)
        loaded, _ = training.load_params(tmp_path / "p.npz", expected_config=cfg)
        assert loaded.w1.dtype == detnet.DTYPE

    def test_seeded_deterministic(self, luo):
        cfg, tc = small_cfg(), small_train()
        p1, h1 = training.train(cfg, tc, luo, np.random.default_rng(7))
        p2, h2 = training.train(cfg, tc, luo, np.random.default_rng(7))
        assert np.array_equal(h1, h2)
        for key in detnet.PARAM_KEYS:
            assert np.array_equal(getattr(p1, key), getattr(p2, key))

    def test_history_has_one_finite_row_per_epoch(self, luo):
        cfg, tc = small_cfg(), small_train(epochs=9)
        _, history = training.train(cfg, tc, luo, np.random.default_rng(8))
        assert history.shape == (9,)
        assert np.all(np.isfinite(history))

    def test_alphas_stay_at_or_above_floor(self, luo):
        # a large learning rate drives some gains below the floor
        cfg = small_cfg()
        tc = small_train(lr=0.5)
        params, _ = training.train(cfg, tc, luo, np.random.default_rng(9))
        alphas = np.concatenate([params.alpha1, params.alpha2])
        assert np.all(alphas >= training.ALPHA_FLOOR)
        assert np.any(alphas == training.ALPHA_FLOOR)
        params.validate()

    def test_does_not_mutate_the_params_passed_in(self, luo):
        cfg = small_cfg()
        start = detnet.init_params(cfg, np.random.default_rng(10))
        before = copy_params(start)
        trained, _ = training.train(cfg, small_train(), luo, np.random.default_rng(11),
                                    params=start)
        for key in detnet.PARAM_KEYS:
            assert np.array_equal(getattr(start, key), getattr(before, key))
            assert not np.array_equal(getattr(trained, key), getattr(before, key))

    def test_trained_params_round_trip_through_a_checkpoint(self, luo, tmp_path):
        cfg = small_cfg()
        params, _ = training.train(cfg, small_train(), luo, np.random.default_rng(12))
        training.save_params(tmp_path / "p.npz", params, cfg)
        loaded, _ = training.load_params(tmp_path / "p.npz", expected_config=cfg)
        for key in detnet.PARAM_KEYS:
            assert np.array_equal(getattr(loaded, key), getattr(params, key))

    def test_nan_input_raises_training_diverged(self, luo, monkeypatch):
        # a corrupt received vector must surface as a non-finite loss
        draw = training.draw_batch

        def corrupt(*args):
            x, h_in, y_in = draw(*args)
            y_in[0, 0, 0] = np.nan
            return x, h_in, y_in

        monkeypatch.setattr(training, "draw_batch", corrupt)
        with pytest.raises(training.TrainingDiverged, match="epoch 0"):
            training.train(small_cfg(), small_train(), luo, np.random.default_rng(13))

    def test_nonfinite_weights_raise_training_diverged(self, luo):
        cfg = small_cfg()
        params = detnet.init_params(cfg, np.random.default_rng(14))
        params.b2[-1, 0] = math.inf
        with pytest.raises(training.TrainingDiverged):
            training.train(cfg, small_train(), luo, np.random.default_rng(15),
                           params=params)
