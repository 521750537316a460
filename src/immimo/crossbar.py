"""Behavioral execution of the detector on differential crossbar arrays.

Two circuit roles are modeled:

* channel-dependent arrays hold the real channel H; they are programmed open
  loop (imprecise, see :mod:`immimo.device`) once per channel realization and
  reused by every block for both the H^T y and H^T H x_{k-1} paths;
* weight arrays hold the trained W1/W2/W3 matrices; weights are tuned offline
  with verification, so their mapping is treated as exact.

Peripherals (TIAs, inverters, adders, the ReLU rectifier) are ideal: the TIA
feedback resistances realize the scalar gains alpha1 (one stage) and alpha2
(two cascaded stages), here exact multiplications.  All signals stay in
normalized numeric units with the mapping coefficient mu divided out; no
volt/ampere headroom is enforced.

With exact weights and ideal peripherals the in-memory detector is exactly
the software forward pass run on the realized channel H + dH, so detection
programs the channel and then runs :func:`immimo.detnet.ideal_forward`.
Programming only counts pulses; its C2C noise enters when the result is
realized with one unit normal per cell, so a stack of channels is programmed
in one call and realized at any gamma.
"""

from . import device as dev
from . import detnet


class HardwareDetector:
    """Trained weights resident on exact arrays and a reprogrammable channel.

    program_channel() is the one reprogramming event per channel realization;
    forward() reuses the realized channel for every symbol vector of the slot.
    """

    def __init__(self, params, spec):
        params.validate()
        self.params = params
        self.spec = spec

    def program_channel(self, h_real):
        """Program H, or a stack of channels, onto the channel arrays.

        Returns the ProgrammingResult; the realized H + dH is
        result.realized(spec, z), at this detector's spec or at any other
        gamma of the same device, with z one unit normal per cell.
        """
        return dev.program_matrix(h_real, self.spec)

    def forward(self, h_realized, ys):
        """Final-block estimate x_L (..., n_vec, 2n_t) for every received vector.

        Vectors are rows, as in :func:`immimo.detnet.ideal_forward`: the
        realized channels are (..., 2n_r, 2n_t) and ys is (..., n_vec, 2n_r),
        so a wave's W channels and all their vectors run in one call; a
        single vector is passed as y[None].
        """
        trajectory, _ = detnet.ideal_forward(self.params, h_realized, ys)
        return trajectory[-1]
