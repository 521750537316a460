"""Closed-form performance models.

Implemented evaluators:

* detection-error bound: constants phi, tau, xi, Omega, Gamma built from the
  block-error propagation analysis, combined into an upper bound on the
  expected output error E||e_L|| (the order-Omega^2 remainder is dropped);
* programming-latency bound, O(N_r sqrt(ln N_t)), for the open-loop row-by-row
  scheme, plus the linear computation-latency model L (t_array + t_adder +
  t_relu);
* hardware component counts (memristors, inverters, TIAs, adders, rectifiers);
* FLOPs-per-symbol and throughput models, validated by an operation counter
  that walks the actual forward-pass structure.

The bound and the FLOPs formula are cross-checked in the tests against a
second, symbolically different evaluation path (expanded algebra and an
explicit power sum; the operation counter).
"""

from dataclasses import dataclass

import numpy as np

from . import device as dev

SINGULARITY_TOL = 1e-9


class BoundRegimeError(Exception):
    """The bound's geometric closed forms degenerate for these inputs.

    Raised at the phi = 1 pole and for phi <= 1, where the per-block
    propagation factor no longer dominates and the closed-form accumulation
    term goes negative (the series algebra assumes phi > 1).
    """


@dataclass
class BoundInputs:
    """Everything the detection-error bound needs.

    varpi1/varpi2 are the maxima of the per-block gains alpha1/alpha2 and
    should be extracted from a trained parameter set.
    """

    n_t: int
    n_r: int
    L: int
    S: int
    n_p: int
    gamma: float
    sigma_n: float
    varpi1: float
    varpi2: float


@dataclass
class BoundReport:
    phi: float
    tau: float
    xi: float
    omega: float
    gamma_cap: float
    bound: float


def eval_bound(inputs):
    """Evaluate the detection-error upper bound from its closed forms.

    phi    = 2 varpi2 Phi^2                       (noise-free block scaling)
    tau    = varpi2 Phi^2 (gamma Phi sqrt(6 sqrt(2/pi) N_p) + 2)
    xi     = 2 varpi1 sqrt(N_t+N_r) (sigma_n sqrt(2 N_r)
             + gamma (N_t+N_r) sqrt(3 sqrt(2/pi) N_p))
    Omega  = sqrt(4S / (3 N_r)) exp(-S/8)
    Gamma  = 2 varpi1 varpi2 gamma Phi^5 (phi^L - tau^L)
             * sqrt(6 sqrt(2/pi) N_p) / ((phi-1)(phi-tau))
    bound  = xi + Gamma + [xi (1 - tau L)/(1 - tau)
             + Gamma (L - 1/(phi-1))] Omega

    with Phi = sqrt(N_t) + sqrt(N_r).  The phi -> tau degeneracy is handled
    by its explicit limit; phi <= 1 raises BoundRegimeError.
    """
    i = inputs
    phi_cap = np.sqrt(i.n_t) + np.sqrt(i.n_r)
    root6 = np.sqrt(6.0 * np.sqrt(2.0 / np.pi) * i.n_p)
    root3 = np.sqrt(3.0 * np.sqrt(2.0 / np.pi) * i.n_p)

    phi = 2.0 * i.varpi2 * phi_cap**2
    tau = i.varpi2 * phi_cap**2 * (i.gamma * phi_cap * root6 + 2.0)
    xi = 2.0 * i.varpi1 * np.sqrt(i.n_t + i.n_r) * (
        i.sigma_n * np.sqrt(2.0 * i.n_r) + i.gamma * (i.n_t + i.n_r) * root3
    )
    omega = np.sqrt(4.0 * i.S / (3.0 * i.n_r)) * np.exp(-i.S / 8.0)

    if phi <= 1.0 + SINGULARITY_TOL:
        raise BoundRegimeError(
            f"phi={phi:.6g} <= 1: closed-form accumulation term is invalid"
        )
    if abs(phi - tau) < SINGULARITY_TOL:
        geo = i.L * phi ** (i.L - 1)  # limit of (phi^L - tau^L)/(phi - tau)
    else:
        geo = (phi**i.L - tau**i.L) / (phi - tau)
    gamma_cap = (
        2.0 * i.varpi1 * i.varpi2 * i.gamma * phi_cap**5 * root6 * geo / (phi - 1.0)
    )

    correction = xi * (1.0 - tau * i.L) / (1.0 - tau) + gamma_cap * (
        i.L - 1.0 / (phi - 1.0)
    )
    bound = xi + gamma_cap + correction * omega
    return BoundReport(
        phi=float(phi), tau=float(tau), xi=float(xi), omega=float(omega),
        gamma_cap=float(gamma_cap), bound=float(bound),
    )


def programming_latency_bound(n_t, n_r, spec):
    """Upper bound on the total open-loop programming latency T_p.

    Two array sets on the Gram-product path are programmed sequentially, each
    holding 2 N_r rows, giving 4 N_r row latencies at the per-row bound.
    """
    return 4.0 * n_r * dev.row_latency_bound(n_t, spec)


def computation_latency(L, t_array=1e-9, t_adder=1e-9, t_relu=1e-9):
    """Pipeline settling time: L (t_array + t_adder + t_relu)."""
    if min(t_array, t_adder, t_relu) < 0:
        raise ValueError("component delays must be nonnegative")
    return L * (t_array + t_adder + t_relu)


@dataclass
class ComplexityReport:
    memristors: int
    inverters: int
    tias: int
    adders: int
    relu_circuits: int


def hardware_complexity(config):
    """Component counts for the full detector circuit.

    Channel-dependent module: six 2N_r x 2N_t arrays shared by all blocks.
    Per block: three array groups of sizes S x (2N_r + a), 2N_t x S, a x S
    (differential pairs double every memristor count), plus their peripherals.
    """
    n_t, n_r, L, s, a = config.n_t, config.n_r, config.L, config.S, config.a_size
    memristors = 24 * n_r * n_t + 2 * L * (s * (2 * n_r + a) + 2 * n_t * s + s * a)
    inverters = 4 * n_r + 2 * n_t + L * (2 * n_r + 2 * s + a)
    tias = 2 * n_r + 4 * n_t + L * (4 * n_t + 2 * n_r + s + a)
    adders = L * (4 * n_t + s + a)
    relu = s * L
    return ComplexityReport(
        memristors=memristors, inverters=inverters, tias=tias,
        adders=adders, relu_circuits=relu,
    )


def flops_per_symbol(config):
    """Digital-equivalent FLOPs to detect one symbol vector.

    16 N_t^2 N_r - 4 N_t^2 + 8 N_t N_r - 2 N_t + L (8 N_t^2 + 6 N_t + 24 N_t S)
    """
    n_t, n_r, L, s = config.n_t, config.n_r, config.L, config.S
    return (
        16 * n_t**2 * n_r - 4 * n_t**2 + 8 * n_t * n_r - 2 * n_t
        + L * (8 * n_t**2 + 6 * n_t + 24 * n_t * s)
    )


def throughput(flops, symbols, latency):
    """Equivalent FLOPS when `symbols` detections finish within `latency`."""
    if latency <= 0:
        raise ValueError("latency must be positive")
    return flops * symbols / latency


def _matvec_flops(m, n, bias=False):
    return m * n + m * (n - 1) + (m if bias else 0)


def count_forward_flops(config):
    """FLOPs of one forward pass, counted over its actual structure.

    This is the oracle for the FLOPs formula.  Counting convention: an
    (m x n) mat-vec costs m*n multiplies and m*(n-1) adds; adding a bias
    costs m adds; a scalar gain on a length-n vector costs n multiplies; a
    vector sum costs n adds; the rectifier is not a FLOP.

    With a_size = 4 n_t the count reproduces the closed-form expression
    exactly, constant term included; other widths change the dense-layer
    term and the delta is visible by comparing against flops_per_symbol().
    """
    n_t, n_r, L, s, a = config.n_t, config.n_r, config.L, config.S, config.a_size
    rows, cols = 2 * n_r, 2 * n_t
    # once per channel: Gram matrix H^T H and matched filter H^T y
    setup = cols * (cols * rows + cols * (rows - 1))  # (2n_t x 2n_r) @ (2n_r x 2n_t)
    setup += _matvec_flops(cols, rows)
    # per block: (H^T H) x, two scalar gains, two vector additions
    block = _matvec_flops(cols, cols)
    block += 2 * cols  # alpha1 * (H^T y), alpha2 * (H^T H x)
    block += 2 * cols  # the three-term sum needs two vector adds
    # dense layers with biases; the rectifier costs no FLOPs
    block += _matvec_flops(s, cols + a, bias=True)
    block += _matvec_flops(cols, s, bias=True)
    block += _matvec_flops(a, s, bias=True)
    return setup + L * block

