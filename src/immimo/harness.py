"""Experiment orchestration: seeded sweeps, pipelines, CSV emission.

Reproducibility contract: trial t at SNR index i draws its channel H, its
payload bits and its channel noise, in that order, from one RNG stream keyed
on (seed, i, t).  Every detector, and every gamma, at that SNR reuses the same
draws (common random numbers), so detector differences are paired and the
sphere decoder reproduces exhaustive ML to the bit.  `detnet-hw` programs
trial t's channel once: its pulse noise comes from a second stream keyed on
(seed, i, t, 1), drawn once per trial and shared by every gamma, which only
scales it.  Adding or removing a detector or a gamma therefore never changes
another row.  Detectors that ignore gamma run once per SNR and their row is
reported at every gamma.

Trials run in waves of WAVE, drawn one wave at a time.  A BER point
accumulates whole waves until it has at least `min_bits` bits AND
`min_errors` bit errors (confidence at low BER), capped at `max_trials`
channel realizations; each detector stops on its own.  Every emitted row
carries a Wilson 95% interval, a flag for points with fewer than 10 errors,
the trials run and why the point stopped.
"""

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, baselines, crossbar, detnet
from . import device as dev
from . import mimo, training
from .config import ConfigError, config_echo

# trials per wave; stopping rules are evaluated only at wave boundaries
WAVE = 8

KNOWN_DETECTORS = ("zf", "mmse", "ml", "sd", "detnet", "detnet-hw")
# the only detector whose output depends on the programming-noise level gamma
HW_DETECTOR = "detnet-hw"


class UnknownDetector(Exception):
    pass


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
    """One BER point.

    wall_time_s is the detection-plus-demapping time of this row's
    computation; the shared trial draws and channel programming are
    attributed to no row.  mean_nodes is the sphere decoder's tree nodes per
    vector and mean_pulses the programming pulses per channel realization
    of detnet-hw (None for other detectors).
    """

    detector: str
    snr_db: float
    gamma: float
    bits: int
    errors: int
    wall_time_s: float
    trials: int
    stop_reason: str  # "target" or "max_trials"
    mean_nodes: float | None = None
    mean_pulses: float | None = None

    @property
    def ber(self):
        return self.errors / self.bits if self.bits else 0.0

    @property
    def ci(self):
        return wilson_interval(self.errors, self.bits)

    @property
    def low_errors(self):
        return self.errors < 10


@dataclass
class SweepResult:
    rows: list

    CSV_HEADER = (
        "detector,snr_db,gamma,bits,errors,ber,ci_lo,ci_hi,low_errors,wall_time_s,"
        "trials,stop_reason,mean_nodes,mean_pulses"
    )

    def to_csv(self):
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lo, hi = r.ci
            nodes = "" if r.mean_nodes is None else f"{r.mean_nodes:.12g}"
            pulses = "" if r.mean_pulses is None else f"{r.mean_pulses:.12g}"
            lines.append(
                f"{r.detector},{r.snr_db:.12g},{r.gamma:.12g},{r.bits},{r.errors},"
                f"{r.ber:.12g},{lo:.12g},{hi:.12g},{int(r.low_errors)},"
                f"{r.wall_time_s:.6f},{r.trials},{r.stop_reason},{nodes},{pulses}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class _Tally:
    """Running totals of one detector (one gamma, for detnet-hw) at one SNR."""

    bits: int = 0
    errors: int = 0
    trials: int = 0
    nodes: int | None = None
    pulses: int | None = None
    seconds: float = 0.0
    stop_reason: str | None = None

    def row(self, detector, snr_db, gamma, vectors_per_trial):
        mean_nodes = None
        if self.nodes is not None:
            mean_nodes = self.nodes / (self.trials * vectors_per_trial)
        mean_pulses = None
        if self.pulses is not None:
            mean_pulses = self.pulses / self.trials
        return SweepRow(
            detector=detector, snr_db=snr_db, gamma=gamma, bits=self.bits,
            errors=self.errors, wall_time_s=self.seconds, trials=self.trials,
            stop_reason=self.stop_reason, mean_nodes=mean_nodes,
            mean_pulses=mean_pulses,
        )


def _trial_rng(seed, snr_index, trial_index):
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(snr_index), int(trial_index)])
    )


def _draw_wave(cfg, vectors, seed, snr_index, trials, sigma):
    """Stacked draws of one wave: H (W, 2n_r, 2n_t), bits, ys (W, vectors, 2n_r)."""
    rngs = [_trial_rng(seed, snr_index, t) for t in trials]
    h_complex = []
    bits = []
    for rng in rngs:
        h_complex.append(mimo.generate_channel(cfg, rng))
        bits.append(mimo.random_bits(cfg, rng, count=vectors))
    h = mimo.to_real(np.stack(h_complex))
    bits = np.stack(bits)
    x = mimo.modulate(bits, cfg).real
    ys = np.stack([mimo.transmit(h[i], x[i], sigma, rng) for i, rng in enumerate(rngs)])
    return h, bits, ys


def _detect_wave(detector, h, ys, sigma, cfg, params, hw_det, hw_spec, programs):
    """Hard decisions (W, vectors, 2n_t) for one wave, and the SD node total.

    programs holds the wave's programmed channels for detnet-hw, which
    realizes them at hw_spec's gamma.
    """
    if detector in ("zf", "mmse"):
        soft = baselines.linear_soft_batch(
            h, ys, cfg, sigma_n=sigma if detector == "mmse" else None
        )
        return mimo.decide_rails(soft, cfg), None
    if detector == "ml":
        return baselines.ml_detect_batch(h, ys, cfg), None
    if detector == "sd":
        outs = [baselines.sphere_decode(h_t, ys_t, cfg) for h_t, ys_t in zip(h, ys)]
        return (np.stack([o.x_hat_real for o in outs]),
                sum(o.node_count for o in outs))
    if detector == "detnet":
        trajectory, _ = detnet.ideal_forward(params, h, ys)
        return trajectory[-1], None
    if detector == HW_DETECTOR:
        h_hw = np.stack([result.realized(hw_spec) for result in programs])
        return hw_det.forward(h_hw, ys), None
    raise UnknownDetector(detector)


def run_ber_sweep(exp, detectors=None, params=None, rng_seed=None):
    """Monte Carlo BER over (detector, snr_db, gamma) grid points.

    Deep detectors require trained params.  Each trial is one channel
    realization carrying `symbols_per_slot` symbol vectors; hardware
    detection reprograms the channel arrays exactly once per realization.
    Rows are ordered by detector, then SNR, then gamma.
    """
    cfg = exp.mimo
    sweep = exp.sweep
    detectors = list(detectors or sweep.detectors)
    seed = exp.seed if rng_seed is None else rng_seed
    for det in detectors:
        if det not in KNOWN_DETECTORS:
            raise UnknownDetector(f"{det!r}; known: {KNOWN_DETECTORS}")
    if any(d in ("detnet", HW_DETECTOR) for d in detectors) and params is None:
        raise ConfigError("deep detectors need trained params (eval.params)")

    hw_det = None
    hw_specs = {}
    if HW_DETECTOR in detectors:
        hw_det = crossbar.HardwareDetector(params, exp.device)
        try:
            hw_specs = {g: replace(exp.device, gamma=g) for g in sweep.gammas}
        except ValueError as exc:
            raise ConfigError(f"sweep.gammas: {exc}") from exc

    # one lane per detector; detnet-hw gets one per gamma
    lanes = [
        (det, gamma)
        for det in detectors
        for gamma in (sweep.gammas if det == HW_DETECTOR else (None,))
    ]
    vectors = sweep.symbols_per_slot
    tallies = []
    for s_idx, snr in enumerate(sweep.snr_db):
        sigma = mimo.sigma_from_snr(snr)
        point = {lane: _Tally() for lane in lanes}
        tallies.append(point)
        active = list(point.items())
        trial = 0
        while active and trial < sweep.max_trials:
            wave = range(trial, min(trial + WAVE, sweep.max_trials))
            h, bits, ys = _draw_wave(cfg, vectors, seed, s_idx, wave, sigma)
            programs = None
            if any(det == HW_DETECTOR for (det, _), _ in active):
                # the one reprogramming event per channel realization, each
                # from its own stream and realized at every gamma
                programs = [
                    hw_det.program_channel(
                        h_t, np.random.default_rng([int(seed), s_idx, t, 1]))
                    for h_t, t in zip(h, wave)
                ]
                pulses = sum(int(result.pulse_counts.sum()) for result in programs)
            for (det, gamma), tally in active:
                t0 = time.perf_counter()
                x_hat, nodes = _detect_wave(
                    det, h, ys, sigma, cfg, params, hw_det, hw_specs.get(gamma),
                    programs,
                )
                errors = int(np.count_nonzero(mimo.demodulate(x_hat, cfg) != bits))
                tally.seconds += time.perf_counter() - t0
                tally.bits += bits.size
                tally.errors += errors
                tally.trials += len(wave)
                if nodes is not None:
                    tally.nodes = (tally.nodes or 0) + nodes
                if det == HW_DETECTOR:
                    tally.pulses = (tally.pulses or 0) + pulses
                if tally.bits >= sweep.min_bits and tally.errors >= sweep.min_errors:
                    tally.stop_reason = "target"
            trial += len(wave)
            active = [(lane, t) for lane, t in active if t.stop_reason is None]
        for _, tally in active:
            tally.stop_reason = "max_trials"

    rows = [
        tallies[s_idx][(det, gamma if det == HW_DETECTOR else None)].row(
            det, snr, gamma, vectors)
        for det in detectors
        for s_idx, snr in enumerate(sweep.snr_db)
        for gamma in sweep.gammas
    ]
    return SweepResult(rows=rows)


def _write(path, text):
    Path(path).write_text(text, encoding="utf-8")
    return str(path)


def _csv(header, rows):
    return "\n".join([header] + rows) + "\n"


def run_pipeline(exp, out_dir):
    """Dispatch one experiment mode; writes CSV artifacts plus a manifest.

    Returns the list of files written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    rng = np.random.default_rng(exp.seed)
    cfg = exp.mimo
    spec = exp.device
    outputs = []

    if exp.mode == "train":
        params, history = training.train(cfg, exp.train, spec, rng)
        ckpt = out / "params.npz"
        training.save_params(ckpt, params, cfg)
        outputs.append(str(ckpt))
        rows = [f"{i},{v:.12g}" for i, v in enumerate(history, start=1)]
        outputs.append(_write(out / "loss_history.csv", _csv("epoch,mean_loss", rows)))

    elif exp.mode == "eval-ber":
        params = None
        if any(d in ("detnet", "detnet-hw") for d in exp.sweep.detectors):
            if not exp.params_path:
                raise ConfigError("eval.params required for deep detectors")
            try:
                params, _ = training.load_params(exp.params_path, expected_config=cfg)
            except (OSError, KeyError, ValueError) as exc:
                raise ConfigError(f"eval.params {exp.params_path!r}: {exc}") from exc
        result = run_ber_sweep(exp, params=params)
        outputs.append(_write(out / "ber.csv", result.to_csv()))

    elif exp.mode == "bounds":
        inputs = analysis.BoundInputs(
            n_t=cfg.n_t, n_r=cfg.n_r, L=cfg.L, S=cfg.S, n_p=spec.n_p,
            gamma=spec.gamma, sigma_n=exp.bounds.sigma_n,
            varpi1=exp.bounds.varpi1, varpi2=exp.bounds.varpi2,
        )
        report = analysis.eval_bound(inputs)
        outputs.append(
            _write(out / "bounds.csv",
                   _csv(analysis.BoundReport.CSV_HEADER, [report.csv_row()]))
        )

    elif exp.mode == "latency":
        lat = exp.latency
        bound = analysis.programming_latency_bound(cfg.n_t, cfg.n_r, spec)
        sims = [
            dev.total_programming_latency(cfg, spec, rng) for _ in range(lat.trials)
        ]
        t_c = analysis.computation_latency(
            cfg.L, lat.t_array_ns * 1e-9, lat.t_adder_ns * 1e-9, lat.t_relu_ns * 1e-9
        )
        row = (
            f"{bound:.12g},{np.mean(sims):.12g},{np.max(sims):.12g},"
            f"{t_c:.12g},{bound + t_c:.12g}"
        )
        outputs.append(
            _write(out / "latency.csv",
                   _csv("t_p_bound_s,t_p_sim_mean_s,t_p_sim_max_s,t_c_s,t_total_bound_s",
                        [row]))
        )

    elif exp.mode == "complexity":
        report = analysis.hardware_complexity(cfg)
        outputs.append(
            _write(out / "complexity.csv",
                   _csv(analysis.ComplexityReport.CSV_HEADER, [report.csv_row()]))
        )

    elif exp.mode == "flops":
        flops = analysis.flops_per_symbol(cfg)
        counted = analysis.count_forward_flops(cfg)
        bound = analysis.programming_latency_bound(cfg.n_t, cfg.n_r, spec)
        lat = exp.latency
        t_c = analysis.computation_latency(
            cfg.L, lat.t_array_ns * 1e-9, lat.t_adder_ns * 1e-9, lat.t_relu_ns * 1e-9
        )
        total_latency = bound + t_c
        tput = analysis.throughput(flops, exp.sweep.symbols_per_slot, total_latency)
        row = (
            f"{flops},{counted.total},{exp.sweep.symbols_per_slot},"
            f"{total_latency:.12g},{tput:.12g}"
        )
        outputs.append(
            _write(out / "flops.csv",
                   _csv("flops_per_symbol,flops_counted,symbols,latency_s,throughput_flops",
                        [row]))
        )

    elif exp.mode == "program-sim":
        rows = []
        for t in range(exp.latency.trials):
            h = mimo.to_real(mimo.generate_channel(cfg, rng))
            result = dev.program_matrix(h, spec, rng)
            dh = result.realized(spec) - result.h_clipped
            rows.append(
                f"{t},{2.0 * result.total_latency:.12g},"
                f"{int(result.pulse_counts.sum())},{np.std(dh):.12g}"
            )
        outputs.append(
            _write(out / "program_sim.csv",
                   _csv("trial,t_p_s,total_pulses,dh_std", rows))
        )

    else:
        raise ConfigError(f"unknown mode {exp.mode!r}")

    manifest = {
        "version": f"immimo-{__version__}",
        "mode": exp.mode,
        "seed": exp.seed,
        "outputs": [Path(o).name for o in outputs],
        "wall_clock_s": round(time.perf_counter() - started, 6),
        "config": config_echo(exp),
    }
    _write(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return outputs
