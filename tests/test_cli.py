import numpy as np
import pytest

from immimo import cli, detnet, mimo, training

SWEEP = (
    "mimo.n_t = 2\nmimo.n_r = 3\nmimo.l = 2\nmimo.s = 8\n"
    "sweep.snr_db = 10\nsweep.max_trials = 8\n"
)


def run(tmp_path, text, capsys):
    path = tmp_path / "x.cfg"
    path.write_text(text)
    code = cli.main(["eval-ber", "--config", str(path), "--out", str(tmp_path / "out")])
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
