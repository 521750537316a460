"""Experiment orchestration: seeded sweeps, pipelines, CSV emission.

Reproducibility contract: wave w at SNR index i draws its WAVE channels H,
then their payload bits, channel noise and one unit normal per channel cell,
each stacked, from one RNG stream keyed on (seed, i, w), so output depends on
WAVE; a wave cut short by `max_trials` keeps its first trials.  Every
detector and gamma at that SNR reuses these draws (common random numbers),
so detector differences are paired and the sphere decoder reproduces
exhaustive ML to the bit.  `detnet-hw` programs each channel once, and
every gamma realizes that programming with the same unit normals, which
gamma only scales.  Each lane detects in calls of its own, whose inputs are
these draws alone, so adding or removing a detector or a gamma never
changes another row, bit for bit, wall_time_s aside.
Detectors that ignore gamma run once per SNR and their row is copied to
every gamma.
The deep detectors (`detnet`, `detnet-hw`) decide from a float32 forward
pass (detnet.DTYPE): the draws, the programming and every other detector
stay float64, and the params, each wave's received vectors and each channel
they detect on are cast to float32 before it.  The params are cast, checked
and then packed once per sweep into the stacks [W1 | b1] and
[W2 | b2; W3 | b3] (detnet.DetectionWeights), as the weight arrays are
programmed once, offline; each deep call runs the detection pass on those
stacks and on its channel products H^T H and H^T y.

Trials run in waves of WAVE, and the wave is the sweep's one unit: at an SNR
point each step draws one wave and every lane still running detects all of
it in one call: `detnet` on the wave's channels H, each running `detnet-hw`
gamma on H + dH, the one programming of the wave's channels realized at that
gamma, and each classical detector on H.  A BER point, one SweepRow, then
adds the whole wave to its totals and stops once it has at least `min_bits`
bits AND `min_errors` bit errors (confidence at low BER), capped at
`max_trials` channel realizations; each detector stops on its own.  A wave
is scored on rail levels, not bits: the draw keeps the level index each
bit-carrying rail was sent at, and mimo.bit_errors counts a lane's bit
errors from its decided levels, as demapping them to bits would.  Every
emitted row carries a Wilson 95% interval, a flag for points with fewer than
10 errors, the trials run, why the point stopped and the means derived from
its totals.

Artifacts: every mode writes one CSV table plus manifest.json (`train` also
its checkpoint).  A mode builds its table as records, dicts of column ->
value, and csv_text alone formats them, so each artifact's columns are
stated once, where its record is built.  An `eval-ber` manifest also
records WAVE.
"""

import json
import platform
import time
import zipfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, baselines, detnet
from . import device as dev
from . import mimo, training
from .config import HW_DETECTOR, ConfigError, config_echo

# trials per wave; stopping rules are evaluated only at wave boundaries
WAVE = 32

# the CSV table each mode writes; `train` also writes its checkpoint
TABLES = {
    "train": "loss_history.csv", "eval-ber": "ber.csv", "bounds": "bounds.csv",
    "latency": "latency.csv", "complexity": "complexity.csv", "flops": "flops.csv",
    "program-sim": "program_sim.csv",
}


def csv_text(records):
    """One CSV table from a nonempty list of dicts, column -> value.

    The first record's keys, in order, are the header.  Floats, numpy floats
    included, are written as .12g, bools as 0/1, None as an empty cell and
    any other value with str().
    """
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, (bool, np.bool_)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return f"{value:.12g}"
        return str(value)

    header = list(records[0])
    lines = [",".join(header)]
    lines += [",".join(cell(r[key]) for key in header) for r in records]
    return "\n".join(lines) + "\n"


def wilson_interval(errors, bits, z=1.959964):
    """Wilson 95% score interval for a binomial proportion."""
    if bits == 0:
        return 0.0, 1.0
    p = errors / bits
    denom = 1.0 + z * z / bits
    center = (p + z * z / (2 * bits)) / denom
    half = z * np.sqrt(p * (1 - p) / bits + z * z / (4 * bits * bits)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


@dataclass
class SweepRow:
    """One BER point: the totals of the waves run for it, and its ber.csv row.

    The sweep adds each wave it runs for this point to the totals: bits,
    errors, trials, vectors detected and wall_time_s, plus the sphere
    decoder's tree nodes for `sd`, and the programming pulses and simulated
    programming latency t_p_s for detnet-hw (None for other detectors).
    wall_time_s is the time this row's own detection and scoring of its
    waves took, a detnet-hw row's realizing of the channel at its gamma
    included.  The shared trial draws and channel programming are
    attributed to no row.
    The means derive from the totals: mean_nodes is tree nodes per
    vector, mean_pulses programming pulses and mean_t_p_s the programming
    latency T_p (device.ProgrammingResult.t_p, as program-sim's t_p_s) per
    channel realization.
    """

    detector: str
    snr_db: float
    gamma: float | None
    bits: int = 0
    errors: int = 0
    trials: int = 0
    vectors: int = 0
    wall_time_s: float = 0.0
    nodes: int | None = None
    pulses: int | None = None
    t_p_s: float | None = None
    stop_reason: str | None = None  # "target" or "max_trials" once stopped

    @property
    def mean_nodes(self):
        return None if self.nodes is None else self.nodes / self.vectors

    @property
    def mean_pulses(self):
        return None if self.pulses is None else self.pulses / self.trials

    @property
    def mean_t_p_s(self):
        return None if self.t_p_s is None else self.t_p_s / self.trials

    def record(self):
        """This row's ber.csv record.

        It adds the BER, its Wilson 95% interval and a flag for fewer than 10
        errors to the totals, and keeps the wall time to the microsecond.
        """
        lo, hi = wilson_interval(self.errors, self.bits)
        return {
            "detector": self.detector, "snr_db": self.snr_db, "gamma": self.gamma,
            "bits": self.bits, "errors": self.errors, "ber": self.errors / self.bits,
            "ci_lo": lo, "ci_hi": hi, "low_errors": self.errors < 10,
            "wall_time_s": f"{self.wall_time_s:.6f}", "trials": self.trials,
            "stop_reason": self.stop_reason, "mean_nodes": self.mean_nodes,
            "mean_pulses": self.mean_pulses, "mean_t_p_s": self.mean_t_p_s,
        }


def _draw_wave(cfg, vectors, seed, snr_index, wave_index, sigma, trials=WAVE):
    """One sweep step's draws: the first `trials` trials of wave `wave_index`.

    Returns H (trials, 2n_r, 2n_t), the sent level indices (trials, vectors,
    rails) of the payload bits (mimo.bit_levels), ys (trials, vectors, 2n_r)
    and the programming noise's unit normals z (trials, 2n_r, 2n_t).
    """
    rng = np.random.default_rng([seed, snr_index, wave_index])
    h = mimo.generate_channel(cfg, rng, count=WAVE)
    bits = mimo.random_bits(cfg, rng, count=WAVE * vectors).reshape(WAVE, vectors, -1)
    sent = mimo.bit_levels(bits, cfg)
    ys = mimo.transmit(h, mimo.level_rails(sent, cfg), sigma, rng)
    z = rng.standard_normal(h.shape)
    return h[:trials], sent[:trials], ys[:trials], z[:trials]


def _detect(detector, h, ys, sigma, cfg, weights):
    """Decisions (trials, vectors, 2n_t) on a wave, and SD's tree nodes.

    One call detects a whole wave with any detector: zf, mmse and the deep
    detectors return soft outputs, which scoring decides as their nearest
    levels, ml and sd hard ones.  For detnet-hw, h is the wave's channel
    programming realized at the lane's gamma.  A deep detector runs the
    detection pass with weights, the sweep's packed detnet.DetectionWeights,
    on the float32 channel products of h and ys.
    """
    if detector in ("zf", "mmse"):
        return baselines.linear_soft_batch(
            h, ys, cfg, sigma_n=sigma if detector == "mmse" else None
        ), None
    if detector == "ml":
        return baselines.ml_detect_batch(h, ys, cfg), None
    if detector == "sd":
        out = baselines.sphere_decode(h, ys, cfg)
        return out.x_hat_real, out.node_count
    products = mimo.channel_products(h.astype(detnet.DTYPE), ys.astype(detnet.DTYPE))
    return detnet.ideal_forward(weights, *products), None


def run_ber_sweep(exp, params=None):
    """Monte Carlo BER over (detector, snr_db, gamma) grid points.

    Deep detectors require trained params, with finite values and positive
    gains (DetNetParams.validate).  Each trial is one channel realization
    carrying `symbols_per_slot` symbol vectors; hardware detection
    reprograms the channel arrays exactly once per realization.
    Returns the SweepRows, ordered by detector, then SNR, then gamma.
    """
    cfg = exp.mimo
    sweep = exp.sweep
    detectors = sweep.detectors
    weights = None
    if "detnet" in detectors or HW_DETECTOR in detectors:
        if params is None:
            raise ConfigError("deep detectors need trained params (eval.params)")
        params = params.astype(detnet.DTYPE)
        params.validate()
        # packed once, as the weight arrays are programmed once; the float32
        # copy is not kept besides
        weights = detnet.detection_weights(params)
    del params

    # one lane per detector; detnet-hw gets one per gamma
    lanes = [
        (det, gamma)
        for det in detectors
        for gamma in (sweep.gammas if det == HW_DETECTOR else (None,))
    ]
    vectors = sweep.symbols_per_slot
    bits_per_trial = vectors * cfg.bits_per_vector
    points = []
    for s_idx, snr in enumerate(sweep.snr_db):
        sigma = mimo.sigma_from_snr(snr)
        point = {(det, gamma): SweepRow(det, snr, gamma) for det, gamma in lanes}
        points.append(point)
        active = list(point.values())
        trial = 0
        while active and trial < sweep.max_trials:
            trials = min(WAVE, sweep.max_trials - trial)
            h, sent, ys, z = _draw_wave(cfg, vectors, exp.seed, s_idx, trial // WAVE,
                                        sigma, trials)
            if any(row.detector == HW_DETECTOR for row in active):
                # the one reprogramming event per channel realization, for the
                # whole wave, realized at every gamma still running
                program = dev.program_matrix(h, exp.device)
                pulses, t_p = int(program.pulse_counts.sum()), program.t_p
            for row in active:
                t0 = time.perf_counter()
                hw = row.detector == HW_DETECTOR
                x_hat, nodes = _detect(row.detector,
                                       program.realized(row.gamma, z) if hw else h,
                                       ys, sigma, cfg, weights)
                row.errors += mimo.bit_errors(x_hat, sent, cfg)
                row.wall_time_s += time.perf_counter() - t0
                row.bits += trials * bits_per_trial
                row.trials += trials
                row.vectors += trials * vectors
                if nodes is not None:
                    row.nodes = (row.nodes or 0) + nodes
                if hw:
                    row.pulses = (row.pulses or 0) + pulses
                    row.t_p_s = (row.t_p_s or 0.0) + t_p
                if row.bits >= sweep.min_bits and row.errors >= sweep.min_errors:
                    row.stop_reason = "target"
            active = [row for row in active if row.stop_reason is None]
            trial += trials
        for row in active:
            row.stop_reason = "max_trials"

    # a gamma-insensitive detector's row is reported at every gamma
    return [
        point[(det, gamma)] if det == HW_DETECTOR
        else replace(point[(det, None)], gamma=gamma)
        for det in detectors
        for point in points
        for gamma in sweep.gammas
    ]


def environment():
    """The Python, numpy and BLAS versions a run used, for its manifest."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def _latency_pair(exp):
    """(programming-latency bound, computation latency) of exp, in seconds."""
    cfg, lat = exp.mimo, exp.latency
    bound = analysis.programming_latency_bound(cfg.n_t, cfg.n_r, exp.device)
    t_c = analysis.computation_latency(
        cfg.L, lat.t_array_ns * 1e-9, lat.t_adder_ns * 1e-9, lat.t_relu_ns * 1e-9
    )
    return bound, t_c


def run_pipeline(exp, out_dir):
    """Dispatch one experiment mode; writes its CSV plus a manifest.

    Returns the list of files written.
    """
    if exp.mode not in TABLES:
        raise ConfigError(f"unknown mode {exp.mode!r}")
    out = Path(out_dir)
    # made and written only after the run (below), so what is in their way
    # is looked for now
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output directory {str(out)!r}: {str(existing)!r} is a file")
    outputs = ([out / "params.npz"] if exp.mode == "train" else []) + [out / TABLES[exp.mode]]
    for path in (*outputs, out / "manifest.json"):
        if path.is_dir():
            raise ConfigError(f"output {str(path)!r} is a directory")
    started = time.perf_counter()
    rng = np.random.default_rng(exp.seed)
    cfg = exp.mimo
    spec = exp.device
    checkpoint = None
    recorded = {}  # mode-specific manifest entries

    if exp.mode == "train":
        checkpoint, history = training.train(cfg, exp.train, spec, rng)
        records = [{"epoch": i, "mean_loss": v} for i, v in enumerate(history, start=1)]

    elif exp.mode == "eval-ber":
        params = None
        if exp.params_path:
            try:
                params, _ = training.load_params(exp.params_path, expected_config=cfg)
            except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
                raise ConfigError(f"eval.params {exp.params_path!r}: {exc}") from exc
        records = [row.record() for row in run_ber_sweep(exp, params=params)]
        recorded["sweep"] = {"wave_trials": WAVE}

    elif exp.mode == "bounds":
        b = exp.bounds
        inputs = analysis.BoundInputs(
            n_t=cfg.n_t, n_r=cfg.n_r, L=cfg.L, S=cfg.S, n_p=spec.n_p,
            gamma=spec.gamma, sigma_n=b.sigma_n, varpi1=b.varpi1, varpi2=b.varpi2,
        )
        try:
            report = analysis.eval_bound(inputs)
        except analysis.BoundRegimeError as exc:
            # phi = 2 varpi2 (sqrt(n_t) + sqrt(n_r))^2 must exceed 1
            raise ConfigError(f"bounds.varpi2 = {b.varpi2!r}: {exc}") from exc
        records = [asdict(report)]

    elif exp.mode == "latency":
        bound, t_c = _latency_pair(exp)
        sims = [dev.program_matrix(mimo.generate_channel(cfg, rng), spec).t_p
                for _ in range(exp.latency.trials)]
        records = [{
            "t_p_bound_s": bound, "t_p_sim_mean_s": np.mean(sims),
            "t_p_sim_max_s": np.max(sims), "t_c_s": t_c, "t_total_bound_s": bound + t_c,
        }]

    elif exp.mode == "complexity":
        records = [asdict(analysis.hardware_complexity(cfg))]

    elif exp.mode == "flops":
        flops = analysis.flops_per_symbol(cfg)
        symbols = exp.sweep.symbols_per_slot
        bound, t_c = _latency_pair(exp)
        latency = bound + t_c
        records = [{
            "flops_per_symbol": flops, "flops_counted": analysis.count_forward_flops(cfg),
            "symbols": symbols, "latency_s": latency,
            "throughput_flops": analysis.throughput(flops, symbols, latency),
        }]

    elif exp.mode == "program-sim":
        records = []
        for t in range(exp.latency.trials):
            h = mimo.generate_channel(cfg, rng)
            result = dev.program_matrix(h, spec)
            dh = result.realized(spec.gamma, rng.standard_normal(h.shape)) - result.h_clipped
            records.append({
                "trial": t, "t_p_s": result.t_p,
                "total_pulses": int(result.pulse_counts.sum()), "dh_std": np.std(dh),
            })

    # made only now, so that a user error found while running the mode
    # leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
    if checkpoint is not None:
        training.save_params(outputs[0], checkpoint, cfg)
    outputs[-1].write_text(csv_text(records), encoding="utf-8")
    manifest = {
        "version": f"immimo-{__version__}",
        "mode": exp.mode,
        "seed": exp.seed,
        "outputs": [o.name for o in outputs],
        "wall_clock_s": round(time.perf_counter() - started, 6),
        "config": config_echo(exp),
        "environment": environment(),
        **recorded,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                       encoding="utf-8")
    return [str(o) for o in outputs]
