import json

import numpy as np
import pytest

from immimo import cli, config, detnet, mimo, training

SWEEP = (
    "mimo.n_t = 2\nmimo.n_r = 3\nmimo.l = 2\nmimo.s = 8\n"
    "sweep.snr_db = 10\nsweep.max_trials = 8\n"
)


def run(tmp_path, text, capsys, mode="eval-ber", flags=()):
    path = tmp_path / "x.cfg"
    path.write_text(text)
    code = cli.main([mode, "--config", str(path), "--out", str(tmp_path / "out"), *flags])
    return code, capsys.readouterr().err


def assert_one_line(err, prefix):
    assert err.startswith(prefix)
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_success_writes_artifacts(tmp_path, capsys):
    code, err = run(tmp_path, SWEEP + "sweep.detectors = zf, sd\n", capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    assert (tmp_path / "out" / "ber.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_missing_params_file_exits_2(tmp_path, capsys):
    text = SWEEP + f"sweep.detectors = detnet\neval.params = {tmp_path / 'none.npz'}\n"
    code, err = run(tmp_path, text, capsys)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, "config error: eval.params")


def test_deep_detector_without_params_exits_2(tmp_path, capsys):
    code, err = run(tmp_path, SWEEP + "sweep.detectors = zf, detnet\n", capsys)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, "config error: deep detectors need trained params (eval.params)")


def test_checkpoint_header_mismatch_exits_2(tmp_path, capsys):
    other = mimo.MimoConfig(n_t=2, n_r=3, L=3, S=8)
    ckpt = tmp_path / "p.npz"
    training.save_params(ckpt, detnet.init_params(other, np.random.default_rng(0)), other)
    code, err = run(tmp_path, SWEEP + f"sweep.detectors = detnet\neval.params = {ckpt}\n",
                    capsys)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, "config error: eval.params")
    assert "L=3" in err


@pytest.mark.parametrize("field,value", [
    ("n_t", 1), ("n_r", 4), ("modulation", "qam16"), ("L", 3), ("S", 16), ("a_size", 5),
])
def test_each_checkpoint_header_mismatch_is_named(tmp_path, capsys, field, value):
    # SWEEP's detector but for one header field
    other = mimo.MimoConfig(**{"n_t": 2, "n_r": 3, "L": 2, "S": 8, field: value})
    ckpt = tmp_path / "p.npz"
    training.save_params(ckpt, detnet.init_params(other, np.random.default_rng(0)), other)
    code, err = run(tmp_path, SWEEP + f"sweep.detectors = detnet\neval.params = {ckpt}\n",
                    capsys)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, f"config error: eval.params {str(ckpt)!r}: checkpoint {field}=")
    assert " does not match configured " in err


def test_rank_deficient_channel_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mimo, "generate_channel",
                        lambda config, rng, count: np.zeros((count, 2 * config.n_r,
                                                             2 * config.n_t)))
    code, err = run(tmp_path, SWEEP + "sweep.detectors = zf\n", capsys)
    assert code == cli.EXIT_NUMERIC
    assert_one_line(err, "numeric failure:")


def test_gamma_out_of_range_exits_2(tmp_path, capsys):
    config = mimo.MimoConfig(n_t=2, n_r=3, L=2, S=8)
    ckpt = tmp_path / "p.npz"
    training.save_params(ckpt, detnet.init_params(config, np.random.default_rng(0)), config)
    text = SWEEP + f"sweep.detectors = detnet-hw\neval.params = {ckpt}\nsweep.gammas = 0, 0.5\n"
    code, err = run(tmp_path, text, capsys)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, "config error: sweep.gammas: gamma outside")
    assert not (tmp_path / "out").exists()


def test_gamma_is_not_checked_without_detnet_hw(tmp_path, capsys):
    # only detnet-hw reads gamma; other detectors report the same row at each
    code, err = run(tmp_path, SWEEP + "sweep.detectors = zf\nsweep.gammas = 0, 0.5\n", capsys)
    assert (code, err) == (cli.EXIT_OK, "")


# manifests written while train.weighting was a key echo this line
@pytest.mark.parametrize("line", ["threads = 2", "mimo.n_x = 3", "train.lr_decay = true",
                                  "train.weighting = lnk"])
def test_unknown_key_exits_2(tmp_path, capsys, line):
    code, err = run(tmp_path, SWEEP + line + "\n", capsys)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, "config error: line 7: unknown key")


@pytest.mark.parametrize("mode,line,message", [
    ("train", "train.gamma = 0.1", "train section: gamma outside"),
    ("train", "train.gamma = -0.5", "train section: gamma outside"),
    ("latency", "latency.trials = 0", "latency.trials must be >= 1"),
    ("latency", "latency.trials = -2", "latency.trials must be >= 1"),
    ("eval-ber", "sweep.snr_db = 6, 6", "sweep.snr_db lists a value more than once"),
    ("eval-ber", "sweep.gammas = 0, 0.02, 0", "sweep.gammas lists a value more than once"),
    ("eval-ber", "sweep.detectors = zf, mmse, zf",
     "sweep.detectors lists a value more than once"),
    ("eval-ber", "sweep.detectors =", "sweep.snr_db, sweep.gammas and sweep.detectors"),
    ("eval-ber", "seed = -1", "seed must be a nonnegative integer"),
    ("latency", "latency.t_array_ns = -1", "latency.t_array_ns must be >= 0"),
    ("flops", "latency.t_adder_ns = -0.5", "latency.t_adder_ns must be >= 0"),
    ("latency", "latency.t_relu_ns = -2", "latency.t_relu_ns must be >= 0"),
    ("eval-ber", "sweep.snr_db = nan, 10", "key 'sweep.snr_db': 'nan' is not a finite number"),
    ("latency", "latency.t_array_ns = nan", "key 'latency.t_array_ns': 'nan' is not a finite"),
    ("bounds", "bounds.sigma_n = nan", "key 'bounds.sigma_n': 'nan' is not a finite"),
    ("eval-ber", "sweep.gammas = 0, inf", "key 'sweep.gammas': 'inf' is not a finite"),
    ("train", "train.lr = -inf", "key 'train.lr': '-inf' is not a finite"),
    ("bounds", "bounds.varpi2 = Infinity", "key 'bounds.varpi2': 'Infinity' is not a finite"),
    ("eval-ber", "sweep.detectors = zf, mystery, sd",
     "sweep.detectors: unknown mystery; known: zf, mmse, ml, sd, detnet, detnet-hw"),
    ("bounds", "bounds.varpi1 = -1", "bounds.varpi1 must be > 0"),
    ("bounds", "bounds.varpi2 = 0", "bounds.varpi2 must be > 0"),
    ("bounds", "bounds.sigma_n = -0.3", "bounds.sigma_n must be >= 0"),
    ("eval-ber", "sweep.min_errors = -5", "sweep.min_errors must be >= 0"),
    # 10^(7000/20) overflows a float; the floor rejects it first
    ("eval-ber", "sweep.snr_db = 10, -7000",
     "sweep.snr_db: SNR -7000.0 dB is below the floor of -100 dB"),
    ("train", "train.snr_low_db = -7000",
     "train.snr_low_db: SNR -7000.0 dB is below the floor of -100 dB"),
    ("eval-ber", "sweep.snr_db = -101", "sweep.snr_db: SNR -101.0 dB is below the floor"),
    ("train", "train.snr_low_db = -101", "train.snr_low_db: SNR -101.0 dB is below the floor"),
], ids=["gamma-high", "gamma-negative", "trials-zero", "trials-negative",
        "snr-repeat", "gamma-repeat", "detector-repeat", "no-detector", "seed-negative",
        "t-array-negative", "t-adder-negative", "t-relu-negative", "snr-nan",
        "t-array-nan", "sigma-n-nan", "gamma-inf", "lr-minus-inf", "varpi2-infinity",
        "detector-unknown", "varpi1-negative", "varpi2-zero", "sigma-n-negative",
        "min-errors-negative", "snr-overflow", "train-snr-overflow", "snr-below-floor",
        "train-snr-below-floor"])
def test_invalid_value_exits_2_when_parsed(tmp_path, capsys, mode, line, message):
    # SWEEP without its snr_db line, so that each case sets its key once
    base = SWEEP.replace("sweep.snr_db = 10\n", "")
    code, err = run(tmp_path, base + line + "\n", capsys, mode=mode)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, f"config error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode,lines", [
    ("eval-ber", "sweep.snr_db = -100\nsweep.detectors = zf, ml, sd\n"),
    ("train", "train.snr_low_db = -100\ntrain.epochs = 2\n"),
], ids=["sweep", "train"])
def test_snr_at_the_floor_runs(tmp_path, capsys, mode, lines):
    base = SWEEP.replace("sweep.snr_db = 10\n", "")
    code, err = run(tmp_path, base + lines, capsys, mode=mode)
    assert (code, err) == (cli.EXIT_OK, "")


def test_oversized_ml_exits_2_when_parsed(tmp_path, capsys):
    # 4^12 QPSK candidates per vector, above baselines.ML_GUARD
    text = SWEEP.replace("n_t = 2", "n_t = 12").replace("n_r = 3", "n_r = 12")
    code, err = run(tmp_path, text + "sweep.detectors = zf, ml\n", capsys)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, "config error: sweep.detectors: ml would search 16777216 candidates")
    assert not (tmp_path / "out").exists()


def test_subcommand_overrides_the_config_mode(tmp_path, capsys):
    code, err = run(tmp_path, "mode = train\n" + SWEEP + "sweep.detectors = zf\n", capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    assert (tmp_path / "out" / "ber.csv").exists()
    assert not (tmp_path / "out" / "loss_history.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["mode"] == "eval-ber"
    assert "mode = eval-ber\n" in manifest["config"]


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    code, err = run(tmp_path, SWEEP + "sweep.detectors = zf\n", capsys, flags=["--seed", "-1"])
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, "config error: seed must be a nonnegative integer")


def test_unknown_preset_exits_2_with_one_unquoted_line(tmp_path, capsys):
    code, err = run(tmp_path, SWEEP, capsys, mode="complexity", flags=["--preset", "nope"])
    assert code == cli.EXIT_CONFIG
    assert err == ("config error: device section: unknown device preset 'nope'; "
                   "have ['jerry2017', 'luo2022', 'zeng2023']\n")
    assert not (tmp_path / "out").exists()


def test_bound_outside_its_regime_exits_2(tmp_path, capsys):
    # at n_t 2, n_r 3 the default varpi2 = 0.05 gives phi = 0.99 <= 1
    code, err = run(tmp_path, SWEEP, capsys, mode="bounds")
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, "config error: bounds.varpi2 = 0.05: phi=0.989898 <= 1")


@pytest.mark.parametrize("mode", ["latency", "flops"])
def test_single_antenna_latency_bound_exits_2(tmp_path, capsys, mode):
    text = SWEEP.replace("mimo.n_t = 2", "mimo.n_t = 1")
    code, err = run(tmp_path, text, capsys, mode=mode)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, f"config error: {mode} mode needs mimo.n_t >= 2")
    assert not (tmp_path / "out").exists()


def write_truncated_checkpoint(path):
    config = mimo.MimoConfig(n_t=2, n_r=3, L=2, S=8)
    training.save_params(path, detnet.init_params(config, np.random.default_rng(0)), config)
    path.write_bytes(path.read_bytes()[:2000])


PARAMS_AT_P = SWEEP + "sweep.detectors = detnet\neval.params = {tmp}/p.npz\n"


def write_edited_checkpoint(path, key, edit):
    """A checkpoint of the SWEEP detector whose array `key` is edit(array)."""
    config = mimo.MimoConfig(n_t=2, n_r=3, L=2, S=8)
    training.save_params(path, detnet.init_params(config, np.random.default_rng(0)), config)
    with np.load(path) as data:
        arrays = dict(data)
    arrays[key] = edit(arrays[key])
    np.savez(path, **arrays)


@pytest.mark.parametrize("key,cut", [
    pytest.param("w1", lambda w: w[:, :4], id="w1-narrower-than-S"),
    pytest.param("alpha1", lambda alpha: alpha[:1], id="alpha1-shorter-than-L"),
])
def test_checkpoint_array_disagreeing_with_its_header_exits_2(tmp_path, capsys, key, cut):
    ckpt = tmp_path / "p.npz"
    write_edited_checkpoint(ckpt, key, cut)
    code, err = run(tmp_path, PARAMS_AT_P.format(tmp=tmp_path), capsys)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, f"config error: eval.params {str(ckpt)!r}: checkpoint {key} has shape")


def test_npy_checkpoint_exits_2(tmp_path, capsys):
    # np.load returns a bare array for a file np.save wrote
    np.save(tmp_path / "p.npy", np.zeros(3))
    text = SWEEP + f"sweep.detectors = detnet\neval.params = {tmp_path / 'p.npy'}\n"
    code, err = run(tmp_path, text, capsys)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, "config error: eval.params")
    assert err.endswith(": not an .npz checkpoint\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,edit,message", [
    pytest.param("n_t", lambda n_t: np.full(2, n_t),
                 "checkpoint n_t has shape (2,); a header field is a scalar", id="array-header-field"),
    pytest.param("w1", lambda w: w.astype(str), "checkpoint w1 has dtype <U", id="string-params"),
    pytest.param("w1", lambda w: w + 1j, "checkpoint w1 has dtype complex128", id="complex-params"),
    # a float integer field would be truncated: n_t 2.9 to 2, version 1.7 to 1
    pytest.param("n_t", lambda n_t: n_t + 0.9,
                 "checkpoint n_t has dtype float64; it is an integer field", id="float-n_t"),
    pytest.param("version", lambda version: version + 0.7,
                 "checkpoint version has dtype float64; it is an integer field",
                 id="float-version"),
])
def test_malformed_checkpoint_field_exits_2(tmp_path, capsys, key, edit, message):
    ckpt = tmp_path / "p.npz"
    write_edited_checkpoint(ckpt, key, edit)
    code, err = run(tmp_path, PARAMS_AT_P.format(tmp=tmp_path), capsys)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, f"config error: eval.params {str(ckpt)!r}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode,text,write", [
    # at n_t 2, n_r 3 the default varpi2 = 0.05 puts phi below 1
    pytest.param("bounds", SWEEP, None, id="bound-regime"),
    pytest.param("eval-ber", SWEEP + "sweep.detectors = detnet\neval.params = {tmp}/none.npz\n",
                 None, id="missing-params"),
    pytest.param("eval-ber", PARAMS_AT_P, lambda p: p.write_bytes(b""), id="empty-params"),
    pytest.param("eval-ber", PARAMS_AT_P, write_truncated_checkpoint, id="truncated-params"),
])
def test_user_error_while_running_leaves_no_output_directory(tmp_path, capsys, mode, text,
                                                              write):
    if write is not None:
        write(tmp_path / "p.npz")
    code, err = run(tmp_path, text.format(tmp=tmp_path), capsys, mode=mode)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, "config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
def test_out_blocked_by_a_file_exits_2_naming_it(tmp_path, capsys, under):
    (tmp_path / "x.cfg").write_text(SWEEP + "sweep.detectors = zf\n")
    (tmp_path / "f").write_text("kept\n")
    out = tmp_path / "f" / under
    code = cli.main(["eval-ber", "--config", str(tmp_path / "x.cfg"), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert_one_line(err, f"config error: output directory {str(out)!r}: ")
    assert err.endswith(f": {str(tmp_path / 'f')!r} is a file\n")
    assert (tmp_path / "f").read_text() == "kept\n"


def test_out_with_an_unusable_name_exits_2_naming_it(tmp_path, capsys):
    # a path component longer than any file system allows
    (tmp_path / "x.cfg").write_text(SWEEP + "sweep.detectors = zf\n")
    out = tmp_path / ("o" * 300)
    code = cli.main(["eval-ber", "--config", str(tmp_path / "x.cfg"), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert_one_line(capsys.readouterr().err, f"config error: output directory {str(out)!r}: ")


@pytest.mark.parametrize("mode,blocked", [
    pytest.param("complexity", "complexity.csv", id="csv"),
    pytest.param("complexity", "manifest.json", id="manifest"),
    pytest.param("train", "params.npz", id="params"),
])
def test_directory_in_the_way_of_an_output_exits_2_writing_nothing(tmp_path, capsys,
                                                                    monkeypatch, mode,
                                                                    blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    # found before the mode runs, so no training is thrown away
    monkeypatch.setattr(training, "train", None)
    code, err = run(tmp_path, SWEEP + "train.epochs = 1\ntrain.batch_size = 4\n", capsys,
                    mode=mode)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, f"config error: output {str(out / blocked)!r} is a directory\n")
    assert [p.name for p in out.iterdir()] == [blocked]
    assert not any((out / blocked).iterdir())


def test_manifest_records_the_environment(tmp_path, capsys):
    code, err = run(tmp_path, SWEEP, capsys, mode="complexity")
    assert (code, err) == (cli.EXIT_OK, "")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    env = manifest["environment"]
    assert sorted(env) == ["blas", "numpy", "python"]
    assert env["numpy"] == np.__version__
    assert all(isinstance(v, str) and v for v in env.values())


def test_preset_flag_keeps_explicit_device_keys(tmp_path, capsys):
    text = SWEEP + "sweep.detectors = zf\nseed = 4\ndevice.gamma = 0.01\n"
    code, err = run(tmp_path, text, capsys, mode="latency",
                    flags=["--preset", "jerry2017", "--seed", "9"])
    assert (code, err) == (cli.EXIT_OK, "")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    used = config.parse_config(manifest["config"])
    assert used.device.gamma == 0.01
    assert used.device.n_p == 32  # the rest comes from the flag's preset
    assert used.seed == manifest["seed"] == 9


# the CSV each mode writes, and its header
MODE_CSV = {
    "train": ("loss_history.csv", "epoch,mean_loss"),
    "eval-ber": ("ber.csv", "detector,snr_db,gamma,bits,errors,ber,ci_lo,ci_hi,low_errors,"
                            "wall_time_s,trials,stop_reason,mean_nodes,mean_pulses,mean_t_p_s"),
    "bounds": ("bounds.csv", "phi,tau,xi,omega,gamma_cap,bound"),
    "latency": ("latency.csv",
                "t_p_bound_s,t_p_sim_mean_s,t_p_sim_max_s,t_c_s,t_total_bound_s"),
    "complexity": ("complexity.csv", "memristors,inverters,tias,adders,relu_circuits"),
    "flops": ("flops.csv",
              "flops_per_symbol,flops_counted,symbols,latency_s,throughput_flops"),
    "program-sim": ("program_sim.csv", "trial,t_p_s,total_pulses,dh_std"),
}


@pytest.mark.parametrize("mode,flags", [
    ("train", ()),
    ("eval-ber", ("--seed", "5", "--preset", "jerry2017")),
    ("bounds", ()),
    ("latency", ("--preset", "zeng2023")),
    ("complexity", ()),
    ("flops", ("--seed", "3")),
    ("program-sim", ("--seed", "2", "--preset", "jerry2017")),
])
def test_every_mode_runs_end_to_end(tmp_path, capsys, monkeypatch, mode, flags):
    used = []
    run_pipeline = cli.run_pipeline
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda exp, out: used.append(exp) or run_pipeline(exp, out))
    # varpi2 = 0.1 puts the bound's phi above 1 at this size; 0.05 leaves it below
    text = SWEEP + ("sweep.detectors = zf, sd\ntrain.epochs = 3\nlatency.trials = 2\n"
                    "bounds.varpi2 = 0.1\n")
    code, err = run(tmp_path, text, capsys, mode=mode, flags=flags)
    assert (code, err) == (cli.EXIT_OK, "")
    name, header = MODE_CSV[mode]
    lines = (tmp_path / "out" / name).read_text().splitlines()
    assert lines[0] == header and len(lines) > 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["mode"] == mode
    assert config.parse_config(manifest["config"]) == used[0]


# the whole CSV of each draw-free mode at 4x6 with the default preset and keys
PINNED_CSV = {
    "bounds": ("bounds.csv", "phi,tau,xi,omega,gamma_cap,bound\n"
               "1.97979589711,6.28788606139,2.53351273743,0.0012651087948,"
               "195221335.85,197439031.652\n"),
    "complexity": ("complexity.csv", "memristors,inverters,tias,adders,relu_circuits\n"
                   "67136,1592,1108,960,640\n"),
    "flops": ("flops.csv", "flops_per_symbol,flops_counted,symbols,latency_s,"
              "throughput_flops\n64616,64616,14,1.78786218271e-06,505980834960\n"),
}


@pytest.mark.parametrize("mode", sorted(PINNED_CSV))
def test_draw_free_mode_writes_its_pinned_csv(tmp_path, capsys, mode):
    code, err = run(tmp_path, "mimo.n_t = 4\nmimo.n_r = 6\n", capsys, mode=mode)
    assert (code, err) == (cli.EXIT_OK, "")
    name, text = PINNED_CSV[mode]
    assert (tmp_path / "out" / name).read_text() == text


def test_threads_flag_is_gone(tmp_path):
    (tmp_path / "x.cfg").write_text(SWEEP)
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval-ber", "--config", str(tmp_path / "x.cfg"), "--threads", "2"])
    assert exc.value.code == 2


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = cli.main(["eval-ber", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert_one_line(capsys.readouterr().err, "config error:")
