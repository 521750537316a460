"""Deep-unfolded MIMO detection on behavioral memristor crossbar arrays.

Subpackages:
    mimo       MIMO system model on real rails (complex channel draw and its
               real embedding, modulation, AWGN, nearest-level demapping)
    device     pulse-programmed memristor behavior and programming latency
    crossbar   hardware detector: program the channel arrays, then run the
               forward pass on the realized channel H + dH
    detnet     software forward/backward pass of the unfolded detector
    training   noise-aware training loop, Adam, checkpoints
    baselines  ZF / MMSE / batched exhaustive ML / sphere decoding
    analysis   closed-form error bounds, latency, complexity, FLOPs models
    harness    seeded Monte Carlo sweeps, pipelines, CSV emission
    config     flat key = value config files, parsing and canonical echo
    cli        command-line entry point and exit-code map
"""

__version__ = "0.1.0"
