import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from immimo import baselines, config, detnet, device, harness, mimo, training
from immimo.mimo import MimoConfig

TINY = (
    "seed = 5\n"
    "mimo.n_t = 2\nmimo.n_r = 3\nmimo.l = 2\nmimo.s = 8\n"
    "sweep.snr_db = 4, 12\nsweep.gammas = 0, 0.02\n"
    "sweep.detectors = zf, mmse, ml, sd, detnet, detnet-hw\n"
    "sweep.min_bits = 10000\nsweep.min_errors = 20\nsweep.max_trials = 60\n"
)


@pytest.fixture(scope="module")
def exp():
    return config.parse_config(TINY)


@pytest.fixture(scope="module")
def params(exp):
    return detnet.init_params(exp.mimo, np.random.default_rng(0))


@pytest.fixture(scope="module")
def full(exp, params):
    return harness.run_ber_sweep(exp, params=params)


def by_key(result):
    return {(r.detector, r.snr_db, r.gamma): r for r in result}


def ber_csv(result):
    return harness.csv_text([r.record() for r in result])


def without_wall_time(csv_text):
    return [line.split(",")[:9] + line.split(",")[10:] for line in csv_text.splitlines()]


def only(exp, *detectors):
    return replace(exp, sweep=replace(exp.sweep, detectors=list(detectors)))


def counts(row):
    return (row.bits, row.errors, row.trials, row.stop_reason, row.mean_nodes)


def drawn_channels(exp, snr_index, trials):
    """The first `trials` channels the sweep draws at snr_index, one by one."""
    for w in range(-(-trials // harness.WAVE)):
        h, *_ = harness._draw_wave(exp.mimo, exp.sweep.symbols_per_slot, exp.seed,
                                   snr_index, w, sigma=1.0)
        yield from h[:trials - w * harness.WAVE]


class TestSweep:
    def test_same_seed_same_csv(self, exp, params, full):
        again = harness.run_ber_sweep(exp, params=params)
        assert without_wall_time(ber_csv(again)) == without_wall_time(ber_csv(full))

    def test_other_seed_other_draws(self, exp, params, full):
        other = harness.run_ber_sweep(replace(exp, seed=6), params=params)
        assert [r.errors for r in other] != [r.errors for r in full]

    def test_row_order_and_columns(self, exp, full):
        s = exp.sweep
        assert [(r.detector, r.snr_db, r.gamma) for r in full] == [
            (d, snr, g) for d in s.detectors for snr in s.snr_db for g in s.gammas
        ]
        header = ber_csv(full).splitlines()[0].split(",")
        assert header[-5:] == ["trials", "stop_reason", "mean_nodes", "mean_pulses",
                               "mean_t_p_s"]
        for r in full:
            assert r.bits == r.trials * s.symbols_per_slot * exp.mimo.bits_per_vector
            assert (r.mean_nodes is not None) == (r.detector == "sd")
            assert (r.mean_pulses is not None) == (r.detector == "detnet-hw")

    def test_sd_matches_ml_to_the_bit(self, exp, full):
        rows = by_key(full)
        for snr in exp.sweep.snr_db:
            for g in exp.sweep.gammas:
                sd, ml = rows[("sd", snr, g)], rows[("ml", snr, g)]
                assert (sd.bits, sd.errors, sd.trials) == (ml.bits, ml.errors, ml.trials)

    @pytest.mark.parametrize("size", ["mimo.n_t = 2\nmimo.n_r = 3\n",
                                      "mimo.n_t = 2\nmimo.n_r = 2\nmimo.modulation = qam16\n"],
                             ids=["2x3-qpsk", "2x2-qam16"])
    def test_sd_matches_ml_at_the_snr_floor(self, size):
        # at the floor they still agree; far below it their metrics tie
        # within float64 resolution and they break ties differently
        for seed in (1, 2, 3):
            exp = config.parse_config(
                f"seed = {seed}\n{size}sweep.snr_db = {config.SNR_FLOOR_DB}\n"
                "sweep.detectors = ml, sd\nsweep.max_trials = 64\n")
            ml, sd = harness.run_ber_sweep(exp)
            assert (ml.detector, sd.detector) == ("ml", "sd")
            assert (sd.bits, sd.errors, sd.trials) == (ml.bits, ml.errors, ml.trials)

    def test_mean_nodes_counts_tree_nodes_per_vector(self, exp, monkeypatch):
        calls = []  # (channels, tree nodes) of each sphere_decode call
        sphere_decode = baselines.sphere_decode

        def counted(h, *args):
            out = sphere_decode(h, *args)
            calls.append((len(h), out.node_count))
            return out

        monkeypatch.setattr(baselines, "sphere_decode", counted)
        # 1000 bits need 18 trials, so the row stops at the end of the wave
        # holding the 18th; without a bit target it runs to the cap of 60
        for min_bits, trials in ((1000, -(-18 // harness.WAVE) * harness.WAVE),
                                 (10**9, 60)):
            calls.clear()
            one = replace(exp, sweep=replace(exp.sweep, snr_db=[4.0], detectors=["sd"],
                                             min_bits=min_bits))
            rows = harness.run_ber_sweep(one)
            # one call per wave, the last cut short by the cap
            assert [n for n, _ in calls] == [min(harness.WAVE, trials - t)
                                             for t in range(0, trials, harness.WAVE)]
            for r in rows:
                assert r.trials == trials
                assert r.mean_nodes == sum(nodes for _, nodes in calls) / (
                    trials * exp.sweep.symbols_per_slot)

    def test_gamma_insensitive_rows_repeat_across_gammas(self, exp, full):
        rows = by_key(full)
        for det in ("zf", "mmse", "ml", "sd", "detnet"):
            for snr in exp.sweep.snr_db:
                r0, r1 = (rows[(det, snr, g)] for g in exp.sweep.gammas)
                assert counts(r0) == counts(r1)
                assert r0.wall_time_s == r1.wall_time_s
        # programming noise does reach the hardware detector
        hw = [rows[("detnet-hw", 4.0, g)].errors for g in exp.sweep.gammas]
        assert hw[0] != hw[1]

    @pytest.mark.parametrize("subset", [
        ["sd"], ["detnet-hw"], ["zf", "detnet"], ["mmse", "ml"],
        ["detnet"], ["detnet", "detnet-hw"],
    ])
    def test_row_independent_of_other_detectors(self, exp, params, full, subset):
        alone = harness.run_ber_sweep(only(exp, *subset), params=params)
        rows = by_key(full)
        for r in alone:
            assert counts(r) == counts(rows[(r.detector, r.snr_db, r.gamma)])

    def test_hw_row_independent_of_other_gammas(self, exp, params, full):
        one = replace(exp, sweep=replace(exp.sweep, gammas=[0.02]))
        alone = harness.run_ber_sweep(only(one, "detnet-hw"), params=params)
        rows = by_key(full)
        for r in alone:
            assert counts(r) == counts(rows[(r.detector, r.snr_db, r.gamma)])

    @pytest.mark.parametrize("detector", ["detnet", "detnet-hw"])
    def test_deep_lanes_reject_nonpositive_gains(self, exp, params, detector):
        # the gains are TIA feedback resistances, so they must stay positive
        bad = params.astype(np.float64)
        bad.alpha1[1] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            harness.run_ber_sweep(only(exp, detector), params=bad)

    def test_unknown_detector_and_missing_params(self, exp):
        with pytest.raises(config.ConfigError, match="sweep.detectors: unknown mystery"):
            config.parse_config(TINY.replace("zf, mmse, ml, sd, detnet, detnet-hw",
                                             "zf, mystery"))
        with pytest.raises(config.ConfigError, match="deep detectors need trained params"):
            harness.run_ber_sweep(only(exp, "detnet"))


# (detector, snr_db, gamma, errors, trials) of every row of the TINY sweep at
# seed 5 with params init_params(cfg, default_rng(0)).  Refactors must keep
# ber.csv unchanged for a fixed seed; a deliberate change of the draws
# updates this table and says why.  Every row was regenerated when each wave
# came to be drawn from one stream keyed on (seed, SNR index, wave index)
# instead of one stream per trial, and again when a wave grew from 8 trials
# to 32, which draws every trial from another stream.
GOLDEN = [
    ("zf", 4.0, 0.0, 347, 60), ("zf", 4.0, 0.02, 347, 60),
    ("zf", 12.0, 0.0, 29, 60), ("zf", 12.0, 0.02, 29, 60),
    ("mmse", 4.0, 0.0, 274, 60), ("mmse", 4.0, 0.02, 274, 60),
    ("mmse", 12.0, 0.0, 28, 60), ("mmse", 12.0, 0.02, 28, 60),
    ("ml", 4.0, 0.0, 226, 60), ("ml", 4.0, 0.02, 226, 60),
    ("ml", 12.0, 0.0, 6, 60), ("ml", 12.0, 0.02, 6, 60),
    ("sd", 4.0, 0.0, 226, 60), ("sd", 4.0, 0.02, 226, 60),
    ("sd", 12.0, 0.0, 6, 60), ("sd", 12.0, 0.02, 6, 60),
    ("detnet", 4.0, 0.0, 1886, 60), ("detnet", 4.0, 0.02, 1886, 60),
    ("detnet", 12.0, 0.0, 2018, 60), ("detnet", 12.0, 0.02, 2018, 60),
    ("detnet-hw", 4.0, 0.0, 1887, 60), ("detnet-hw", 4.0, 0.02, 1899, 60),
    ("detnet-hw", 12.0, 0.0, 2018, 60), ("detnet-hw", 12.0, 0.02, 2029, 60),
]


class TestWaveDraws:
    """Each wave's draws come from one stream keyed on (seed, SNR index, wave)."""

    @pytest.mark.parametrize("seed,snr_index,wave", [(5, 0, 0), (5, 1, 3), (1, 2, 7)])
    def test_one_stream_in_the_documented_order(self, exp, seed, snr_index, wave):
        cfg, vectors, sigma = exp.mimo, exp.sweep.symbols_per_slot, 0.3
        rng = np.random.default_rng([seed, snr_index, wave])
        h = mimo.generate_channel(cfg, rng, count=harness.WAVE)
        bits = rng.integers(0, 2, size=(harness.WAVE, vectors, cfg.bits_per_vector),
                            dtype=np.int8)
        x = mimo.modulate(bits, cfg)
        ys = np.stack([x[w] @ h[w].T for w in range(harness.WAVE)])
        ys = ys + sigma * rng.standard_normal(ys.shape)
        z = rng.standard_normal(h.shape)
        got = harness._draw_wave(cfg, vectors, seed, snr_index, wave, sigma)
        for a, b in zip(got, (h, bits, ys, z), strict=True):
            assert a.shape[0] == harness.WAVE
            assert np.array_equal(a, b)

    def test_capped_wave_is_the_head_of_the_whole_draw(self, exp, monkeypatch):
        drawn = []
        draw_wave = harness._draw_wave
        monkeypatch.setattr(harness, "_draw_wave",
                            lambda *a: drawn.append(draw_wave(*a)) or drawn[-1])
        # the cap cuts the second wave short
        cap = harness.WAVE + 13
        one = replace(exp, sweep=replace(exp.sweep, snr_db=[12.0], min_bits=10**9,
                                         max_trials=cap))
        (row,) = [r for r in harness.run_ber_sweep(only(one, "zf")) if r.gamma == 0.0]
        assert (row.trials, len(drawn)) == (cap, 2)
        sigma = mimo.sigma_from_snr(12.0)
        whole = [draw_wave(exp.mimo, exp.sweep.symbols_per_slot, exp.seed, 0, w, sigma)
                 for w in range(2)]
        for got, want in zip(zip(*drawn), zip(*whole), strict=True):
            assert np.array_equal(np.concatenate(got), np.concatenate(want)[:cap])


class TestGolden:
    def test_errors_and_trials_of_every_row_are_pinned(self, full):
        assert [(r.detector, r.snr_db, r.gamma, r.errors, r.trials)
                for r in full] == GOLDEN


class TestPrecision:
    """The deep detectors decide from a float32 forward pass."""

    def test_float64_checkpoint_loads_and_sweeps(self, exp, params, full, tmp_path):
        # a checkpoint stored in float64, as `train` wrote them before it
        # trained in float32
        training.save_params(tmp_path / "p.npz", params, exp.mimo)
        loaded, _ = training.load_params(tmp_path / "p.npz", expected_config=exp.mimo)
        assert loaded.w1.dtype == np.float64
        deep = only(exp, "detnet", "detnet-hw")
        want = [counts(r) for r in full if r.detector in ("detnet", "detnet-hw")]
        assert [counts(r) for r in harness.run_ber_sweep(deep, params=loaded)] == want
        stored32 = loaded.astype(np.float32)
        assert [counts(r) for r in harness.run_ber_sweep(deep, params=stored32)] == want

    def test_float32_decisions_match_float64_on_a_trained_detector(self):
        # 300 epochs at the reference size, then detnet-hw's draws at 10 dB
        # and gamma 0.02: programmed, realized and detected in both precisions
        cfg = MimoConfig(n_t=4, n_r=6, modulation="qpsk")
        spec = device.device_preset()
        params, _ = training.train(cfg, training.TrainConfig(epochs=300), spec,
                                   np.random.default_rng(3))
        waves = [harness._draw_wave(cfg, 14, 7, 1, w, mimo.sigma_from_snr(10.0))
                 for w in range(400 // harness.WAVE)]
        h, bits, ys, z = (np.concatenate(a) for a in zip(*waves))
        h_hw = device.program_matrix(h, spec).realized(0.02, z)
        x64 = detnet.ideal_forward(detnet.detection_weights(params.astype(np.float64)),
                                   *detnet.channel_products(h_hw, ys))
        x32 = detnet.ideal_forward(detnet.detection_weights(params), *detnet.channel_products(
            h_hw.astype(np.float32), ys.astype(np.float32)))
        assert x32.dtype == np.float32
        b64, b32 = mimo.demodulate(x64, cfg), mimo.demodulate(x32, cfg)
        # a detector that decides something: well below the untrained 0.5
        assert np.mean(b64 != bits) < 0.2
        assert np.count_nonzero(b32 != b64) <= 1e-4 * bits.size


class TestGammaWarning:
    """A gamma in (0.05, 0.06] is warned about once, where it is parsed."""

    def test_sweep_gamma_warns_once(self, params):
        text = (TINY.replace("sweep.gammas = 0, 0.02", "sweep.gammas = 0.055")
                .replace("zf, mmse, ml, sd, detnet, detnet-hw", "detnet-hw"))
        with pytest.warns(UserWarning, match="typical C2C range") as record:
            harness.run_ber_sweep(config.parse_config(text), params=params)
        assert len(record) == 1

    def test_training_gamma_warns_once(self, tmp_path):
        text = ("mode = train\nmimo.n_t = 2\nmimo.n_r = 3\nmimo.l = 2\nmimo.s = 8\n"
                "train.epochs = 3\ntrain.batch_size = 4\ntrain.gamma = 0.055\n")
        with pytest.warns(UserWarning, match="typical C2C range") as record:
            harness.run_pipeline(config.parse_config(text), tmp_path / "out")
        assert len(record) == 1


class TestHardwareReuse:
    def test_one_program_per_wave_shared_by_every_gamma(self, exp, params, monkeypatch):
        programs, forwards = [], []
        program_matrix = device.program_matrix
        forward = detnet.ideal_forward
        monkeypatch.setattr(
            device, "program_matrix",
            lambda h, *a: programs.append(np.shape(h)) or program_matrix(h, *a))
        monkeypatch.setattr(
            detnet, "ideal_forward",
            lambda weights, gram, hty: forwards.append((hty.shape, hty.dtype))
            or forward(weights, gram, hty))
        # at 4 dB gamma 0.02 reaches 1000 errors in the first wave and gamma 0
        # in the second, at 12 dB both in the first; the programming runs
        # while any gamma still needs the wave.  zf never gets there, so
        # waves are drawn up to the cap, and those drawn after the last gamma
        # stopped are neither programmed nor detected
        cap = 3 * harness.WAVE + 4
        one = replace(exp, sweep=replace(exp.sweep, min_bits=1, min_errors=1000,
                                         max_trials=cap))
        result = harness.run_ber_sweep(only(one, "zf", "detnet-hw"), params=params)
        hw = [r for r in result if r.detector == "detnet-hw"]
        assert len(hw) == len(exp.sweep.snr_db) * len(exp.sweep.gammas)
        assert all(r.trials == cap for r in result if r.detector == "zf")
        needed = {snr: max(r.trials for r in hw if r.snr_db == snr)
                  for snr in exp.sweep.snr_db}
        assert [r.trials for r in hw] == [2 * harness.WAVE, harness.WAVE,
                                          harness.WAVE, harness.WAVE]
        # one program per wave, of all the wave's channels
        channel = (harness.WAVE, 2 * exp.mimo.n_r, 2 * exp.mimo.n_t)
        waves = [(snr, t) for snr, n in needed.items() for t in range(0, n, harness.WAVE)]
        assert programs == [channel] * len(waves)
        # and one forward call per gamma still running in the wave, on all
        # of the wave's vectors
        vectors = (harness.WAVE, exp.sweep.symbols_per_slot, 2 * exp.mimo.n_t)
        assert forwards == [(vectors, detnet.DTYPE)] * sum(
            r.trials > t for snr, t in waves for r in hw if r.snr_db == snr)

    def test_the_weights_are_packed_once_per_sweep(self, exp, params, monkeypatch):
        packs, forwards = [], []
        pack, forward = detnet.detection_weights, detnet.ideal_forward
        monkeypatch.setattr(detnet, "detection_weights",
                            lambda p, *a: packs.append(pack(p, *a)) or packs[-1])
        monkeypatch.setattr(detnet, "ideal_forward",
                            lambda weights, gram, hty: forwards.append(type(weights))
                            or forward(weights, gram, hty))
        deep = harness.run_ber_sweep(only(exp, "detnet", "detnet-hw"), params=params)
        assert len(exp.sweep.snr_db) == len(exp.sweep.gammas) == 2
        # every lane runs past one wave, and every call reads the one packing,
        # made from the params cast to float32
        assert all(r.trials > harness.WAVE for r in deep)
        assert [w.w1b.dtype for w in packs] == [detnet.DTYPE]
        assert len(forwards) > 6 and set(forwards) == {detnet.DetectionWeights}
        packs.clear()
        harness.run_ber_sweep(only(exp, "zf", "ml"), params=params)
        assert packs == []

    def test_mean_pulses_counts_each_programmed_channel(self, exp, params):
        result = harness.run_ber_sweep(only(exp, "detnet-hw"), params=params)
        for snr_index, snr in enumerate(exp.sweep.snr_db):
            rows = [r for r in result if r.snr_db == snr]
            pulses = []
            for h in drawn_channels(exp, snr_index, max(r.trials for r in rows)):
                # pulse counts depend on the channel alone
                pulses.append(device.program_matrix(h, exp.device).pulse_counts.sum())
            for r in rows:
                assert r.mean_pulses == sum(pulses[:r.trials]) / r.trials
                assert r.mean_pulses > 0

    def test_detnet_alone_programs_nothing(self, exp, params, monkeypatch):
        programs = []
        monkeypatch.setattr(device, "program_matrix", lambda *a: programs.append(a))
        harness.run_ber_sweep(only(exp, "zf", "detnet"), params=params)
        assert programs == []

    def test_mean_t_p_counts_each_programmed_channel(self, exp, params, full):
        result = harness.run_ber_sweep(only(exp, "detnet-hw"), params=params)
        for snr_index, snr in enumerate(exp.sweep.snr_db):
            rows = [r for r in result if r.snr_db == snr]
            t_p = []
            for h in drawn_channels(exp, snr_index, max(r.trials for r in rows)):
                # latency depends on the channel alone; T_p as program-sim writes it
                t_p.append(2.0 * device.program_matrix(h, exp.device).total_latency)
            for r in rows:
                assert r.mean_t_p_s == pytest.approx(sum(t_p[:r.trials]) / r.trials,
                                                     rel=1e-12)
                assert r.mean_t_p_s > 0
        assert all(r.mean_t_p_s is None for r in full if r.detector != "detnet-hw")


class TestStoppingRule:
    def sweep(self, exp, **kw):
        one = replace(exp, sweep=replace(exp.sweep, snr_db=[0.0], **kw))
        return harness.run_ber_sweep(only(one, "zf"))[0]

    def test_stops_at_first_wave_boundary_past_the_targets(self, exp):
        bits_per_trial = exp.sweep.symbols_per_slot * exp.mimo.bits_per_vector  # 56
        # 1000 bits need 18 trials: the rule is checked after whole waves
        trials = -(-18 // harness.WAVE) * harness.WAVE
        row = self.sweep(exp, min_bits=1000, min_errors=1, max_trials=trials + 50)
        assert (row.trials, row.stop_reason) == (trials, "target")
        assert row.bits == trials * bits_per_trial

    def test_error_target_also_gates(self, exp):
        row = self.sweep(exp, min_bits=1000, min_errors=400, max_trials=1000)
        assert row.stop_reason == "target"
        assert row.trials % harness.WAVE == 0
        assert row.errors >= 400
        # the wave before did not reach the error target
        shorter = self.sweep(exp, min_bits=1000, min_errors=400,
                             max_trials=row.trials - harness.WAVE)
        assert shorter.errors < 400
        assert shorter.stop_reason == "max_trials"

    def test_cap_ends_a_partial_wave(self, exp):
        # the cap falls inside the second wave
        cap = harness.WAVE + 13
        row = self.sweep(exp, min_bits=10**9, min_errors=1, max_trials=cap)
        assert (row.trials, row.stop_reason) == (cap, "max_trials")

    # (min_errors, max_trials), at 4 dB.  With the first pair the deep rows
    # stop on the error target after one wave and zf and mmse after two, and
    # the cap cuts ml's and sd's third wave short.  With the second, detnet-hw
    # at gamma 0.02 stops after one wave, detnet and gamma 0 after two, and
    # the classical rows run to the cap
    @pytest.mark.parametrize("min_errors,max_trials", [
        (290, 2 * harness.WAVE + 8), (1000, 2 * harness.WAVE + 8)])
    def test_every_lane_equals_the_per_wave_reference(self, exp, params, min_errors,
                                                      max_trials):
        one = replace(exp, sweep=replace(exp.sweep, snr_db=[4.0], min_bits=1,
                                         min_errors=min_errors, max_trials=max_trials))
        rows = harness.run_ber_sweep(one, params=params)
        got = {(r.detector, r.gamma if r.detector == "detnet-hw" else None): r for r in rows}
        lanes = ([(d, None) for d in ("zf", "mmse", "ml", "sd", "detnet")]
                 + [("detnet-hw", g) for g in exp.sweep.gammas])
        for detector, gamma in lanes:
            r = got[(detector, gamma)]
            want = per_wave_reference(one, params, detector, gamma)
            assert (r.errors, r.trials, r.stop_reason, r.mean_nodes, r.mean_pulses,
                    r.mean_t_p_s) == want, (detector, gamma)
        # lanes stop in different waves, and the cap cuts the last wave short
        stops = {(got[lane].trials, got[lane].stop_reason) for lane in lanes}
        assert {harness.WAVE, 2 * harness.WAVE} <= {t for t, _ in stops}
        assert (max_trials, "max_trials") in stops


def per_wave_reference(exp, params, detector, gamma):
    """(errors, trials, stop_reason, mean_nodes, mean_pulses, mean_t_p_s) of
    one lane at the first SNR, detected one drawn wave at a time, with the
    stop rule checked after each wave."""
    cfg, s = exp.mimo, exp.sweep
    vectors = s.symbols_per_slot
    sigma = mimo.sigma_from_snr(s.snr_db[0])
    weights = detnet.detection_weights(params.astype(detnet.DTYPE))
    bits = errors = trials = nodes = pulses = 0
    t_p = 0.0
    stop_reason = "max_trials"
    while trials < s.max_trials:
        count = min(harness.WAVE, s.max_trials - trials)
        h, sent, ys, z = harness._draw_wave(cfg, vectors, exp.seed, 0,
                                            trials // harness.WAVE, sigma, count)
        if detector in ("zf", "mmse"):
            x_hat = baselines.linear_soft_batch(
                h, ys, cfg, sigma_n=sigma if detector == "mmse" else None)
        elif detector == "ml":
            x_hat = baselines.ml_detect_batch(h, ys, cfg)
        elif detector == "sd":
            out = baselines.sphere_decode(h, ys, cfg)
            x_hat, nodes = out.x_hat_real, nodes + out.node_count
        else:
            if detector == "detnet-hw":
                program = device.program_matrix(h, exp.device)
                pulses += int(program.pulse_counts.sum())
                t_p += program.t_p
                h = program.realized(gamma, z)
            x_hat = detnet.ideal_forward(weights, *detnet.channel_products(
                h.astype(detnet.DTYPE), ys.astype(detnet.DTYPE)))
        errors += int(np.count_nonzero(mimo.demodulate(x_hat, cfg) != sent))
        bits += sent.size
        trials += count
        if bits >= s.min_bits and errors >= s.min_errors:
            stop_reason = "target"
            break
    hw = detector == "detnet-hw"
    return (errors, trials, stop_reason,
            nodes / (trials * vectors) if detector == "sd" else None,
            pulses / trials if hw else None, t_p / trials if hw else None)


class TestManifest:
    def test_records_the_wave_size(self, exp, params, tmp_path):
        training.save_params(tmp_path / "p.npz", params, exp.mimo)
        text = TINY + f"mode = eval-ber\neval.params = {tmp_path / 'p.npz'}\n"
        harness.run_pipeline(config.parse_config(text), tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["sweep"] == {"wave_trials": 32}


class TestLatencyMode:
    def test_mean_is_over_the_programmed_channel_draws(self, tmp_path):
        # the mode draws each trial's channel, and nothing else, from the seed
        text = "seed = 9\nmode = latency\nmimo.n_t = 2\nmimo.n_r = 3\nlatency.trials = 7\n"
        exp = config.parse_config(text)
        harness.run_pipeline(exp, tmp_path / "out")
        with open(tmp_path / "out" / "latency.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        rng = np.random.default_rng(9)
        sims = [device.program_matrix(mimo.generate_channel(exp.mimo, rng), exp.device).t_p
                for _ in range(7)]
        assert row["t_p_sim_mean_s"] == f"{np.mean(sims):.12g}"
        assert row["t_p_sim_max_s"] == f"{np.max(sims):.12g}"

    @pytest.mark.parametrize("preset", sorted(device.DEVICE_PRESETS))
    def test_abstract_latency_claims_hold_at_the_reference_size(self, tmp_path, preset):
        # reprogramming plus computation meets the 6G budget of 0.1 ms,
        # reprogramming dominates computation, and the simulated mean stays
        # under its closed-form bound; at seed 1 the mean T_p reads 1.33 us
        # (bound 1.76) on luo2022, 33.7 (44.0) on jerry2017 and 36.0 (70.2)
        # on zeng2023, against a T_c of 30 ns
        text = ("seed = 1\nmode = latency\nmimo.n_t = 4\nmimo.n_r = 6\n"
                f"device.preset = {preset}\n")
        harness.run_pipeline(config.parse_config(text), tmp_path / "out")
        with open(tmp_path / "out" / "latency.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        t_p, t_c, bound = (float(row[k]) for k in ("t_p_sim_mean_s", "t_c_s", "t_p_bound_s"))
        assert t_p + t_c < 1e-4
        assert t_p >= 10 * t_c
        assert t_p <= bound


class TestCsvText:
    def test_floats_python_and_numpy_as_12g(self):
        text = harness.csv_text([{"a": 1 / 3, "b": np.float64(2e-7), "c": np.float32(0.1),
                                  "d": 1e20, "e": 6.0}])
        assert text == "a,b,c,d,e\n0.333333333333,2e-07,0.10000000149,1e+20,6\n"

    def test_bools_as_0_1_and_none_as_empty(self):
        text = harness.csv_text([{"a": True, "b": False, "c": np.bool_(True),
                                  "d": np.bool_(False), "e": None}])
        assert text == "a,b,c,d,e\n1,0,1,0,\n"

    def test_ints_and_strings_as_written(self):
        text = harness.csv_text([{"n": 12345678901234, "s": "target", "m": np.int64(-3)}])
        assert text == "n,s,m\n12345678901234,target,-3\n"

    def test_first_record_orders_the_columns(self):
        text = harness.csv_text([{"z": 1, "a": 2}, {"a": 3, "z": 4}])
        assert text == "z,a\n1,2\n4,3\n"


class TestWilson:
    def test_contains_estimate_and_narrows(self):
        lo, hi = harness.wilson_interval(50, 1000)
        assert lo < 0.05 < hi
        lo2, hi2 = harness.wilson_interval(500, 10000)
        assert hi2 - lo2 < hi - lo

    def test_known_value(self):
        # p = 0.5, n = 100: center 0.5, half-width z*sqrt(0.25/100 + z^2/40000)/(1 + z^2/100)
        z = 1.959964
        half = z * np.sqrt(0.0025 + z * z / 40000) / (1 + z * z / 100)
        lo, hi = harness.wilson_interval(50, 100)
        assert lo == pytest.approx(0.5 - half)
        assert hi == pytest.approx(0.5 + half)

    def test_edges(self):
        assert harness.wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = harness.wilson_interval(0, 100)
        assert lo == 0.0 and 0 < hi < 0.05
        lo, hi = harness.wilson_interval(100, 100)
        assert hi == 1.0 and 0.95 < lo < 1.0


class TestBatchedSphereDecoder:
    @pytest.mark.parametrize("mod,n_t,n_r", [
        ("qpsk", 4, 6), ("bpsk", 4, 6), ("qam16", 2, 3),
    ])
    def test_batch_equals_per_vector_and_ml(self, mod, n_t, n_r):
        c = MimoConfig(n_t=n_t, n_r=n_r, modulation=mod)
        rng = np.random.default_rng(9)
        for snr in (0.0, 10.0):
            for _ in range(15):
                h = mimo.generate_channel(c, rng)
                bits = mimo.random_bits(c, rng, count=7)
                ys = mimo.transmit(h, mimo.modulate(bits, c),
                                   mimo.sigma_from_snr(snr), rng)
                batch = baselines.sphere_decode(h, ys, c)
                singles = [baselines.sphere_decode(h, y, c) for y in ys]
                assert batch.x_hat_real.shape == (7, 2 * n_t)
                assert np.array_equal(batch.x_hat_real,
                                      np.stack([s.x_hat_real for s in singles]))
                assert batch.node_count == sum(s.node_count for s in singles)
                assert np.array_equal(batch.x_hat_real,
                                      baselines.ml_detect_batch(h, ys, c))

    def test_single_vector_keeps_its_shape(self):
        c = MimoConfig(n_t=2, n_r=3)
        rng = np.random.default_rng(4)
        h = mimo.generate_channel(c, rng)
        out = baselines.sphere_decode(h, rng.standard_normal(6), c)
        assert out.x_hat_real.shape == (4,)
