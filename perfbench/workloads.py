"""Workload definitions and the checks run on every job's artifacts.

A workload is a config for one CLI mode.  The benchmark's ``--seed`` is passed
to the CLI as ``--seed``; deep detectors read a checkpoint of
``detnet.init_params(cfg, default_rng(0))`` written during set-up, so their
BER is about 0.5 until a trained checkpoint is checked in.  No hardware
measurement of BER exists in the repository, so no accuracy error against
hardware is reported: the checks below test internal consistency only.

Artifacts are read by column name, so columns added later do not break the
checks.
"""

import csv
import math
from dataclasses import dataclass

# Two-sided 95% normal quantile for the SD-versus-ML Wilson intervals.
Z95 = 1.959964

# share of the epochs averaged at each end of the loss history
LOSS_WINDOW = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # "eval-ber" or "train"
    config: str  # config text; "{params}" is replaced by the checkpoint path
    first_work: tuple  # "module.attr" whose first call ends set-up

    @property
    def is_sweep(self):
        return self.mode == "eval-ber"


_MIMO = "mimo.n_t = 4\nmimo.n_r = 6\nmimo.modulation = qpsk\n"

SWEEP_FIRST_WORK = ("mimo.generate_channel", "mimo.random_bits")
TRAIN_FIRST_WORK = ("training.draw_batch", "mimo.random_bits")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref-sweep",
            why="the reference eval-ber sweep users run; the sphere decoder, "
                "trial draws and demapping dominate, so SD reuse, shared draws "
                "and gamma dedup show here",
            mode="eval-ber",
            config=_MIMO + (
                "sweep.snr_db = 6, 10, 14\n"
                "sweep.gammas = 0, 0.02\n"
                "sweep.detectors = zf, mmse, ml, sd, detnet, detnet-hw\n"
                "sweep.min_bits = 10000\n"
                "sweep.max_trials = 2000\n"
                "eval.params = {params}\n"
            ),
            first_work=SWEEP_FIRST_WORK,
        ),
        Workload(
            name="hw-sweep",
            why="detnet-hw alone over five programming-noise levels at a fixed "
                "trial count; crossbar, device and forward-kernel changes show, "
                "SD, dedup and shared-draw changes must not",
            mode="eval-ber",
            config=_MIMO + (
                "sweep.snr_db = 10\n"
                "sweep.gammas = 0, 0.01, 0.02, 0.03, 0.04\n"
                "sweep.detectors = detnet-hw\n"
                # above 1000 trials x 112 bits, so every point runs to the cap
                "sweep.min_bits = 1000000\n"
                "sweep.max_trials = 1000\n"
                "eval.params = {params}\n"
            ),
            first_work=SWEEP_FIRST_WORK,
        ),
        Workload(
            name="train",
            why="noise-aware training at the reference MIMO size and default "
                "TrainConfig; batched forward, backward, draws and Adam on a "
                "per-sample channel batch, no harness or programming",
            mode="train",
            config=_MIMO + "train.epochs = 1000\n",
            first_work=TRAIN_FIRST_WORK,
        ),
    )
}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def wilson(p, n, z=Z95):
    """Wilson score interval for a proportion p estimated from n samples."""
    if n == 0:
        return 0.0, 1.0
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


def ber_interval(row, bits_per_trial):
    """Wilson interval of a row's BER with channel realizations as samples.

    Bit errors cluster within a realization (a deep fade corrupts many of its
    vectors), so bits are not independent: one seed gave ml 102/36736 and sd
    101/70784 at 10 dB, disjoint even at 99.9% per-bit intervals.  A
    realization's error fraction lies in [0, 1], so its variance is at most
    p(1 - p), and an interval over realizations is conservative.
    """
    return wilson(int(row["errors"]) / int(row["bits"]), row_trials(row, bits_per_trial))


def sweep_points(exp):
    s = exp.sweep
    return [(d, snr, g) for d in s.detectors for snr in s.snr_db for g in s.gammas]


def row_trials(row, bits_per_trial):
    """Trials behind one ber.csv row: the `trials` column, else bits/trial."""
    if row.get("trials") not in (None, ""):
        return int(row["trials"])
    return int(row["bits"]) // bits_per_trial


def check_sweep(exp, ber_csv):
    """Check ber.csv against the sweep config.

    Returns (failed point keys, problems, rows by key).  Every configured
    (detector, snr, gamma) is one operation.
    """
    points = sweep_points(exp)
    bits_per_trial = exp.sweep.symbols_per_slot * exp.mimo.bits_per_vector
    problems = []
    failed = set()
    by_key = {}
    for row in read_csv(ber_csv):
        key = (row["detector"], float(row["snr_db"]), float(row["gamma"]))
        if key in by_key or key not in points:
            problems.append(f"unexpected or repeated row {key}")
            failed.add(key)
            continue
        by_key[key] = row
    for key in points:
        row = by_key.get(key)
        if row is None:
            problems.append(f"missing row {key}")
            failed.add(key)
            continue
        bits, errors = int(row["bits"]), int(row["errors"])
        trials = row_trials(row, bits_per_trial)
        if not (bits >= exp.sweep.min_bits or trials == exp.sweep.max_trials):
            problems.append(f"{key}: {bits} bits below min_bits and not at the cap")
            failed.add(key)
        if not 0 <= errors <= bits:
            problems.append(f"{key}: errors {errors} outside [0, bits={bits}]")
            failed.add(key)
    if "sd" in exp.sweep.detectors and "ml" in exp.sweep.detectors:
        for snr in exp.sweep.snr_db:
            for g in exp.sweep.gammas:
                if {("sd", snr, g), ("ml", snr, g)} & failed:
                    continue  # missing or already inconsistent
                sd_lo, sd_hi = ber_interval(by_key[("sd", snr, g)], bits_per_trial)
                ml_lo, ml_hi = ber_interval(by_key[("ml", snr, g)], bits_per_trial)
                if sd_lo > ml_hi or ml_lo > sd_hi:
                    problems.append(f"sd and ml intervals disjoint at snr={snr} gamma={g}")
                    failed.add(("sd", snr, g))
    return failed, problems, by_key


def check_train(exp, loss_csv, params_path, load_params):
    """Check loss history and checkpoint; returns (problems, final loss)."""
    problems = []
    losses = [float(r["mean_loss"]) for r in read_csv(loss_csv)]
    if len(losses) != exp.train.epochs:
        problems.append(f"{len(losses)} loss rows for {exp.train.epochs} epochs")
    if not losses or not all(math.isfinite(v) for v in losses):
        problems.append("loss history empty or not finite")
        return problems, None
    w = max(1, int(len(losses) * LOSS_WINDOW))
    first, last = sum(losses[:w]) / w, sum(losses[-w:]) / w
    if not last < first:
        problems.append(f"last-window loss {last:.6g} not below first {first:.6g}")
    try:
        load_params(params_path, expected_config=exp.mimo)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"params.npz does not reload: {exc}")
    return problems, losses[-1]


def fingerprint(exp, workload, by_key=None, final_loss=None, counters=None):
    """Simulated statistics that a pure speed-up must leave identical."""
    fp = {"workload": workload.name, "seed": exp.seed}
    if workload.is_sweep:
        bits_per_trial = exp.sweep.symbols_per_slot * exp.mimo.bits_per_vector
        fp["rows"] = [
            [d, snr, g, int(r["errors"]), row_trials(r, bits_per_trial)]
            for (d, snr, g), r in sorted((by_key or {}).items())
        ]
    else:
        fp["final_loss"] = final_loss
    if counters is not None:
        fp["sd_nodes"] = counters["sd_nodes"]
        fp["pulses"] = counters["pulses"]
        fp["sim_latency_s"] = counters["sim_latency_s"]
    return fp
