"""immimo benchmark: end-to-end and per-layer cost of sweeps and training.

Usage, from the repository root::

    python3 perfbench/run.py --workload ref-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Each run is a closed loop of jobs, one at a time.  A job is a fresh
single-threaded interpreter that drives ``immimo.cli.main`` (``eval-ber`` or
``train``) on the workload's config with ``--seed``; the run keeps starting
jobs until the next one would end after ``--seconds``, and always runs at
least ``MIN_JOBS``.  Every job's artifacts are checked (see workloads.py);
an operation is one sweep point or one training run, and it fails on a
non-zero exit or a failed check.

``--trace 0`` prints the end-to-end metrics, medians over jobs.  ``--trace 1``
alternates untraced and traced jobs and prints the per-layer metrics from the
traced ones, medians over traced jobs, plus the tracing overhead.  Human
readable lines come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(percentiles, sample counts, environment, fingerprint) goes to
``.perfbench-work/`` at the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from workloads import (WORKLOADS, check_sweep, check_train, fingerprint,
                       row_trials, sweep_points)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# The matrices are at most 128 wide; one BLAS thread keeps each job a single
# thread and the timings free of thread start-up and contention.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_JOBS = 2  # untraced jobs per untraced run; a traced run makes >= 1 pair
SETUP_PROBES = 5  # extra set-up-only interpreters per untraced run
DEADLINE_S = 165.0  # start no job that would end later than this

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("bits_per_s", "bit/s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("harness.run_ber_sweep.self_s", "s"),
    ("harness.drawn_per_reported", "ratio"),
    ("mimo.draw.self_s", "s"),
    ("mimo.draw.calls", "count"),
    ("mimo.demodulate.self_s", "s"),
    ("mimo.decide_rails.self_s", "s"),
    ("baselines.sphere_decode.self_s", "s"),
    ("baselines.sphere_decode.calls", "count"),
    ("baselines.sphere_decode.nodes_per_vector", "nodes/vector"),
    ("baselines.ml_detect_batch.self_s", "s"),
    ("baselines.linear_soft_batch.self_s", "s"),
    ("device.program_matrix.self_s", "s"),
    ("device.program_matrix.calls", "count"),
    ("device.program_matrix.pulses_per_call", "pulses/call"),
    ("device.program_matrix.sim_latency_us", "us"),
    ("crossbar.HardwareDetector.forward.self_s", "s"),
    ("crossbar.HardwareDetector.forward.vectors_per_call", "vectors/call"),
    ("crossbar.HardwareDetector.program_channel.self_s", "s"),
    ("crossbar.HardwareDetector.init_s", "s"),
    ("detnet.ideal_forward.self_s", "s"),
    ("detnet.ideal_forward.vectors_per_call", "vectors/call"),
    ("detnet.backward.self_s", "s"),
    ("detnet.loss.self_s", "s"),
    ("training.draw_batch.self_s", "s"),
    ("training.Adam.step.self_s", "s"),
    ("training.train.self_s", "s"),
    ("config.load_config.self_s", "s"),
    ("training.load_params.self_s", "s"),
    ("training.save_params.self_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "machine": platform.machine(),
    }


def git_commit(root):
    """HEAD's commit read from .git without running git; "unknown" outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """One workload at one seed: set-up, the job loop, checks and metrics."""

    def __init__(self, workload, seed):
        from immimo import config, detnet, training
        import numpy as np

        self.workload = workload
        self.seed = seed
        self.load_params = training.load_params
        self.dir = WORK / f"{workload.name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        params_path = self.dir / "bench_params.npz"
        self.config_path = self.dir / "workload.cfg"
        self.config_path.write_text(
            workload.config.format(params=params_path), encoding="utf-8")
        self.exp = config.load_config(self.config_path)
        self.exp.seed = seed
        self.exp.mode = workload.mode
        if workload.is_sweep:
            cfg = self.exp.mimo
            training.save_params(params_path,
                                 detnet.init_params(cfg, np.random.default_rng(0)), cfg)
        self.env = dict(os.environ, **{v: BLAS_THREADS for v in THREAD_VARS})
        self.jobs = []
        self.setups = []  # calibrated set-up seconds of probes and untraced jobs
        self.probes = 0
        self.problems = []
        self.reference = None  # first job's fingerprint, for determinism

    @property
    def ops_per_job(self):
        return len(sweep_points(self.exp)) if self.workload.is_sweep else 1

    def _spawn(self, name, deadline, traced=False, setup_only=False):
        """Run job.py once in a fresh interpreter.

        Returns (result, spawn time, out dir); result is None on failure.
        """
        job_dir = self.dir / name
        out = job_dir / "out"
        out.mkdir(parents=True)
        spec = {
            "src": str(SRC),
            "argv": [self.workload.mode, "--config", str(self.config_path),
                     "--seed", str(self.seed), "--out", str(out)],
            "first_work": list(self.workload.first_work),
            "trace": traced,
            "setup_only": setup_only,
            "result": str(job_dir / "job.json"),
            "spans": str(job_dir / "spans.npz"),
        }
        spec_path = job_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "job.py"), str(spec_path)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - spawned),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{name}: timed out")
            return None, spawned, out
        if proc.returncode != 0:
            self.problems.append(f"{name}: runner exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
            return None, spawned, out
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        if result["exit_code"] != 0:
            self.problems.append(f"{name}: CLI exited {result['exit_code']}: "
                                 f"{result['stderr'].strip()[-500:]}")
            return None, spawned, out
        return result, spawned, out

    def probe_setup(self, deadline):
        """One set-up probe: a fresh interpreter stopped at the first trial."""
        result, spawned, _ = self._spawn(f"probe{self.probes}", deadline,
                                         setup_only=True)
        self.probes += 1
        if result is not None:
            stamps = result["stamps"]
            first = stamps.get("first_work", stamps["end"])
            self.setups.append(calib.calibrate(result["speed_samples"], spawned, first))

    def run_job(self, traced, deadline):
        idx = len(self.jobs)
        job = {"traced": traced, "ok": False, "failed_ops": self.ops_per_job}
        self.jobs.append(job)
        result, spawned, out = self._spawn(f"job{idx}", deadline, traced=traced)
        if result is None:
            return job
        stamps, samples = result["stamps"], result["speed_samples"]
        first = stamps.get("first_work", stamps["main_start"])
        job.update(
            wall_setup_s=first - spawned,
            wall_run_s=stamps["end"] - first,
            setup_s=calib.calibrate(samples, spawned, first),
            run_s=calib.calibrate(samples, first, stamps["end"]),
            peak_rss_mb=result["peak_rss_kib"] / 1024.0,
            trace=result.get("trace"),
        )
        job["speed"] = job["run_s"] / job["wall_run_s"]
        if not traced:
            self.setups.append(job["setup_s"])
        self.check(idx, job, out)
        return job

    def check(self, idx, job, out):
        exp = self.exp
        by_key, final_loss = None, None
        try:
            if self.workload.is_sweep:
                failed, problems, by_key = check_sweep(exp, out / "ber.csv")
                per_trial = exp.sweep.symbols_per_slot * exp.mimo.bits_per_vector
                job["bits"] = sum(int(r["bits"]) for r in by_key.values())
                job["trials"] = sum(row_trials(r, per_trial) for r in by_key.values())
                job["failed_ops"] = min(len(failed), self.ops_per_job)
            else:
                problems, final_loss = check_train(
                    exp, out / "loss_history.csv", out / "params.npz", self.load_params)
                job["epochs"] = exp.train.epochs
                job["bits"] = exp.train.epochs * exp.train.batch_size * exp.mimo.bits_per_vector
                job["failed_ops"] = 1 if problems else 0
        except (OSError, KeyError, ValueError) as exc:
            self.problems.append(f"job{idx}: unreadable artifacts: {exc!r}")
            return
        fp = fingerprint(exp, self.workload, by_key, final_loss)
        if self.reference is None:
            self.reference = fp
        elif fp != self.reference:
            problems.append("simulated statistics differ from the run's first job")
            job["failed_ops"] = self.ops_per_job
        trace = job.get("trace")
        if trace is not None:
            gap = abs(trace["self_sum_s"] - trace["root_s"])
            if gap > 1e-9 * max(1.0, trace["root_s"]):
                problems.append(f"span self times miss the root by {gap:.3g} s")
                job["failed_ops"] = self.ops_per_job
            job["fingerprint"] = fingerprint(exp, self.workload, by_key, final_loss,
                                             trace["counters"])
        self.problems.extend(f"job{idx}: {p}" for p in problems)
        job["ok"] = not problems

    def measure(self, seconds, traced):
        """Run jobs until the next would end after `seconds` (or the deadline)."""
        start = time.monotonic()
        deadline = start + DEADLINE_S
        if not traced:
            for _ in range(SETUP_PROBES):
                self.probe_setup(deadline)
        last = 0.0
        while True:
            elapsed = time.monotonic() - start
            done = len(self.jobs) // (2 if traced else 1)
            wanted = done < (1 if traced else MIN_JOBS) or elapsed + last <= seconds
            if self.jobs and (not wanted or start + elapsed + last > deadline):
                break
            t0 = time.monotonic()
            # a traced run alternates which side of each pair runs first
            sides = (False, True) if done % 2 == 0 else (True, False)
            for side in sides if traced else (False,):
                self.run_job(side, deadline)
            last = time.monotonic() - t0

    def attempted(self):
        return self.ops_per_job * len(self.jobs)

    def failed(self):
        return sum(j["failed_ops"] for j in self.jobs)


def ratio(num, den):
    return num / den if den else 0.0


def median_max(values):
    return (statistics.median(values), max(values), len(values)) if values else (0.0, 0.0, 0)


def end_to_end(bench):
    jobs = [j for j in bench.jobs if not j["traced"] and j["ok"]]
    stats = {
        "setup_s": bench.setups,
        "run_s": [j["run_s"] for j in jobs],
        "bits_per_s": [j["bits"] / j["run_s"] for j in jobs],
        "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
    }
    if bench.workload.is_sweep:
        stats["ber_bits_per_s"] = stats["bits_per_s"]
    else:
        stats["epochs_per_s"] = [j["epochs"] / j["run_s"] for j in jobs]
    stats["wall_setup_s"] = [j["wall_setup_s"] for j in jobs]
    stats["wall_run_s"] = [j["wall_run_s"] for j in jobs]
    stats["speed"] = [j["speed"] for j in jobs]
    return {name: median_max(values) for name, values in stats.items()}


def per_layer(bench):
    """Per-layer metrics: medians over traced jobs of each job's figures.

    Seconds are scaled by the job's calibration factor, like the end-to-end
    times, so that layer and end-to-end figures share one unit.
    """
    traced = [j for j in bench.jobs if j["traced"] and j["ok"]]
    untraced = [j["run_s"] for j in bench.jobs if not j["traced"] and j["ok"]]
    rows = {name: [] for name, _ in PER_LAYER}
    for job in traced:
        layers, counters = job["trace"]["layers"], job["trace"]["counters"]
        speed = job["speed"]
        for name, _ in PER_LAYER:
            prefix, _, leaf = name.rpartition(".")
            if leaf == "self_s" and prefix in layers:
                rows[name].append(layers[prefix]["self_s"] * speed)
            elif leaf == "calls" and prefix in layers:
                rows[name].append(layers[prefix]["calls"])
        sd = layers["baselines.sphere_decode"]["calls"]
        pm = layers["device.program_matrix"]["calls"]
        rows["harness.drawn_per_reported"].append(
            ratio(counters["channels_drawn"], job.get("trials", 0)))
        rows["baselines.sphere_decode.nodes_per_vector"].append(
            ratio(counters["sd_nodes"], sd))
        rows["device.program_matrix.pulses_per_call"].append(ratio(counters["pulses"], pm))
        rows["device.program_matrix.sim_latency_us"].append(
            1e6 * ratio(counters["sim_latency_s"], pm))
        rows["crossbar.HardwareDetector.forward.vectors_per_call"].append(ratio(
            counters["hw_vectors"], layers["crossbar.HardwareDetector.forward"]["calls"]))
        rows["crossbar.HardwareDetector.init_s"].append(
            layers["crossbar.HardwareDetector.init"]["total_s"] * speed)
        rows["detnet.ideal_forward.vectors_per_call"].append(ratio(
            counters["ideal_vectors"], layers["detnet.ideal_forward"]["calls"]))
        rows["trace.untraced_s"].append(layers["cli.main"]["self_s"] * speed)
    traced_run = [j["run_s"] for j in traced]
    if traced_run and untraced:
        rows["trace.overhead_frac"].append(
            statistics.median(traced_run) / statistics.median(untraced) - 1.0)
    return {name: median_max(values) for name, values in rows.items()}


def run_workload(workload, seed, seconds, trace, out=print):
    """Set up, measure and check one workload; returns (summary, metrics)."""
    bench = Bench(workload, seed)
    bench.measure(seconds, bool(trace))
    attempted, failed = bench.attempted(), bench.failed()
    failed_frac = failed / attempted if attempted else 1.0
    declared = PER_LAYER if trace else END_TO_END
    stats = per_layer(bench) if trace else end_to_end(bench)
    units = dict(declared, ber_bits_per_s="bit/s", epochs_per_s="1/s",
                 wall_setup_s="s", wall_run_s="s", speed="ratio")

    out(f"workload {workload.name} seed {seed} trace {trace}: {len(bench.jobs)} jobs, "
        f"{attempted} operations, {failed} failed")
    for name, (med, top, n) in stats.items():
        out(f"  {name:<52} median {med:<14.6g} max {top:<14.6g} n={n}  [{units[name]}]")
    out(f"  {'failed_frac':<52} {failed_frac:.6g}  [ratio]")
    traces = [j["trace"] for j in bench.jobs if j.get("trace")]
    absent = sorted({a for t in traces for a in t["absent"]})
    if absent:
        out(f"  absent layers (reported as 0): {', '.join(absent)}")
    for error in sorted({e for t in traces for e in t["counter_errors"]}):
        out(f"  counter failed (its ratio reads 0): {error}")
    for problem in bench.problems:
        out(f"  problem: {problem}")

    env = environment()
    out("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    tag = f"{workload.name}-seed{seed}-trace{trace}"
    fp = next((j["fingerprint"] for j in bench.jobs if "fingerprint" in j), bench.reference)
    if fp is not None:
        text = json.dumps(fp, indent=1, sort_keys=True) + "\n"
        (WORK / f"fingerprint-{tag}.json").write_text(text, encoding="utf-8")
        out(f"  fingerprint sha256 {hashlib.sha256(text.encode()).hexdigest()[:16]}")
    summary = {"correct": failed == 0 and attempted > 0 and not bench.problems,
               "attempted": attempted,
               "failed": failed}
    record = dict(summary, workload=workload.name, seed=seed, trace=trace,
                  seconds=seconds, env=env, failed_frac=failed_frac,
                  problems=bench.problems, fingerprint=fp,
                  metrics={k: {"median": m, "max": t, "n": n, "unit": units[k]}
                           for k, (m, t, n) in stats.items()})
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                             encoding="utf-8")
    metrics = {name: {"value": stats[name][0], "unit": unit} for name, unit in declared}
    return summary, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "immimo" / "__init__.py").is_file():
        print(f"error: no immimo source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0}
    metrics = {}
    for name in names:
        summary, m = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        total["correct"] &= summary["correct"]
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps(dict(total, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
