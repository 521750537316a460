import csv
import json
from dataclasses import replace
from pathlib import Path

import pytest

import calib
import run
import workloads
from immimo import config, training

BENCHMARK_JSON = Path(run.ROOT) / "BENCHMARK.json"

TINY = {
    "sweep": replace(
        workloads.WORKLOADS["ref-sweep"],
        name="tiny-sweep",
        config=(
            "mimo.n_t = 2\nmimo.n_r = 3\nmimo.l = 2\nmimo.s = 8\n"
            "sweep.snr_db = 6\nsweep.gammas = 0, 0.02\n"
            "sweep.detectors = zf, ml, sd, detnet, detnet-hw\n"
            "sweep.min_bits = 10000\nsweep.max_trials = 8\n"
            "eval.params = {params}\n"
        ),
    ),
    "train": replace(
        workloads.WORKLOADS["train"],
        name="tiny-train",
        config="mimo.n_t = 2\nmimo.n_r = 3\nmimo.l = 2\nmimo.s = 8\ntrain.epochs = 40\n",
    ),
}


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    return tmp_path


@pytest.mark.parametrize("kind", ["sweep", "train"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_reports_every_metric(kind, trace, work_dir):
    lines = []
    summary, metrics = run.run_workload(TINY[kind], seed=3, seconds=0, trace=trace,
                                        out=lines.append)
    assert summary["correct"], lines
    assert summary["failed"] == 0
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in metrics.items()] == list(declared)
    if trace:
        assert metrics["detnet.ideal_forward.self_s"]["value"] > 0
        assert not any("absent" in line for line in lines)
        if kind == "sweep":
            assert metrics["harness.drawn_per_reported"]["value"] == 1.0
            assert metrics["baselines.sphere_decode.calls"]["value"] == 2 * 8 * 14
            assert metrics["crossbar.HardwareDetector.forward.vectors_per_call"]["value"] == 14
    else:
        assert summary["attempted"] == (10 if kind == "sweep" else 1) * run.MIN_JOBS
        assert all(v["value"] > 0 for v in metrics.values())
    fp = json.loads((work_dir / f"fingerprint-tiny-{kind}-seed3-trace{trace}.json").read_text())
    assert ("rows" in fp) == (kind == "sweep")
    assert ("sd_nodes" in fp) == bool(trace)


def write_ber(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["detector", "snr_db", "gamma", "bits", "errors", "extra"])
        writer.writerows(rows)


def tiny_exp():
    text = TINY["sweep"].config.replace("eval.params = {params}\n", "")
    return config.parse_config(text.replace("zf, ml, sd, detnet, detnet-hw", "zf, ml, sd"))


def test_check_sweep_accepts_consistent_rows(tmp_path):
    rows = [[d, 6, g, 448, 30, "x"] for d in ("zf", "ml", "sd") for g in (0, 0.02)]
    write_ber(tmp_path / "ber.csv", rows)
    failed, problems, by_key = workloads.check_sweep(tiny_exp(), tmp_path / "ber.csv")
    assert (failed, problems) == (set(), [])
    assert len(by_key) == 6


def test_check_sweep_flags_each_broken_point(tmp_path):
    rows = [
        ["zf", 6, 0, 224, 3, ""],     # below min_bits and short of the 8-trial cap
        ["ml", 6, 0, 448, 700, ""],   # more errors than bits
        ["ml", 6, 0.02, 448, 3, ""],
        ["sd", 6, 0, 448, 30, ""],
        ["sd", 6, 0, 448, 30, ""],    # repeated
        ["sd", 6, 0.02, 448, 400, ""],  # disjoint from ml's interval
    ]                                 # and no zf row at gamma 0.02
    write_ber(tmp_path / "ber.csv", rows)
    failed, problems, _ = workloads.check_sweep(tiny_exp(), tmp_path / "ber.csv")
    assert failed == {("zf", 6.0, 0.0), ("zf", 6.0, 0.02), ("ml", 6.0, 0.0),
                      ("sd", 6.0, 0.0), ("sd", 6.0, 0.02)}
    assert len(problems) == 5


def test_check_train_flags_rising_loss_and_bad_checkpoint(tmp_path):
    exp = config.parse_config("train.epochs = 20\n")
    (tmp_path / "loss.csv").write_text(
        "epoch,mean_loss\n" + "".join(f"{i},{i}\n" for i in range(1, 21)))
    problems, final = workloads.check_train(exp, tmp_path / "loss.csv",
                                            tmp_path / "missing.npz", training.load_params)
    assert final == 20.0
    assert len(problems) == 2


def test_missing_source_tree_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "train", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_calibrate_removes_kernel_time_and_scales_by_speed():
    ref = calib.REFERENCE_S
    samples = [(0.5, 2 * ref), (1.5, ref), (5.0, ref / 2)]
    # inside [0, 2): speed factors 0.5 and 1
    assert calib.calibrate(samples, 0.0, 2.0) == pytest.approx((2.0 - 3 * ref) * 0.75)
    # no sample inside: all of the job's samples set the factor
    assert calib.calibrate(samples, 2.0, 3.0) == pytest.approx(1.0 * (0.5 + 1 + 2) / 3)
