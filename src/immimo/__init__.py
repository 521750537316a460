"""Deep-unfolded MIMO detection on behavioral memristor crossbar arrays.

Subpackages:
    mimo       complex MIMO system model (channels, modulation, AWGN, BER)
    device     pulse-programmed memristor behavior and programming latency
    crossbar   hardware detector: program the channel arrays, then run the
               forward pass on the realized channel H + dH
    detnet     software forward/backward pass of the unfolded detector
    training   noise-aware training loop, Adam, checkpoints
    baselines  ZF / MMSE / exhaustive ML / sphere decoding
    analysis   closed-form error bounds, latency, complexity, FLOPs models
    harness    seeded Monte Carlo sweeps, pipelines, CSV emission
    config     flat key = value config files, parsing and canonical echo
    cli        command-line entry point and exit-code map
"""

__version__ = "0.1.0"
