import json

import numpy as np
import pytest

from immimo import analysis, cli, config, detnet, harness, mimo, training

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


def test_rank_deficient_channel_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mimo, "generate_channel",
                        lambda config, rng: np.zeros((config.n_r, config.n_t), complex))
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


def test_gamma_is_not_checked_without_detnet_hw(tmp_path, capsys):
    # only detnet-hw reads gamma; other detectors report the same row at each
    code, err = run(tmp_path, SWEEP + "sweep.detectors = zf\nsweep.gammas = 0, 0.5\n", capsys)
    assert (code, err) == (cli.EXIT_OK, "")


@pytest.mark.parametrize("line", ["threads = 2", "mimo.n_x = 3"])
def test_unknown_key_exits_2(tmp_path, capsys, line):
    code, err = run(tmp_path, SWEEP + line + "\n", capsys)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, "config error: line 7: unknown key")


@pytest.mark.parametrize("mode,line,message", [
    ("train", "train.weighting = foo", "train section: unknown loss weighting 'foo'"),
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
], ids=["weighting", "gamma-high", "gamma-negative", "trials-zero", "trials-negative",
        "snr-repeat", "gamma-repeat", "detector-repeat", "no-detector", "seed-negative",
        "t-array-negative", "t-adder-negative", "t-relu-negative"])
def test_invalid_value_exits_2_when_parsed(tmp_path, capsys, mode, line, message):
    # SWEEP without its snr_db line, so that each case sets its key once
    base = SWEEP.replace("sweep.snr_db = 10\n", "")
    code, err = run(tmp_path, base + line + "\n", capsys, mode=mode)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, f"config error: {message}")
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    code, err = run(tmp_path, SWEEP + "sweep.detectors = zf\n", capsys, flags=["--seed", "-1"])
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, "config error: seed must be a nonnegative integer")


@pytest.mark.parametrize("mode", ["latency", "flops"])
def test_single_antenna_latency_bound_exits_2(tmp_path, capsys, mode):
    text = SWEEP.replace("mimo.n_t = 2", "mimo.n_t = 1")
    code, err = run(tmp_path, text, capsys, mode=mode)
    assert code == cli.EXIT_CONFIG
    assert_one_line(err, f"config error: {mode} mode needs mimo.n_t >= 2")
    assert not (tmp_path / "out").exists()


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
    "eval-ber": ("ber.csv", harness.SweepResult.CSV_HEADER),
    "bounds": ("bounds.csv", analysis.BoundReport.CSV_HEADER),
    "latency": ("latency.csv",
                "t_p_bound_s,t_p_sim_mean_s,t_p_sim_max_s,t_c_s,t_total_bound_s"),
    "complexity": ("complexity.csv", analysis.ComplexityReport.CSV_HEADER),
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
