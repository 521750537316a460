"""Noise-aware training of the unfolded detector.

Every epoch draws a fresh batch of (x, H, y0 = Hx, n): channel noise n at an
SNR sampled uniformly from the training range.  Above a training C2C level of
zero, H is programmed and realized with one unit normal per cell
(device.program_matrix, ProgrammingResult.realized), the law the sweep's
`detnet-hw` lanes detect on; at zero it stays exact, as for `detnet`.  The
forward pass runs on (H + dH, y0 + n) while the loss targets the true x, so
the network learns to tolerate both noise sources.  Training is plain Adam on
the manually backpropagated gradients; the step gains alpha are clamped to
stay strictly positive because they map to physical resistances.
The parameters, their gradients and Adam's moments are held in detnet.DTYPE,
float32, and each batch is cast to it before the forward pass, so the
trained checkpoint is float32.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import detnet
from . import device as dev
from . import mimo

CHECKPOINT_VERSION = 1

# the scalar fields of a checkpoint's header
HEADER_KEYS = ("version", "n_t", "n_r", "modulation", "L", "S", "a_size")

# the least value of a step gain after an Adam step
ALPHA_FLOOR = 1e-6


class TrainingDiverged(Exception):
    """Loss became non-finite; carries the epoch for diagnostics."""


@dataclass
class TrainConfig:
    epochs: int = 3000
    batch_size: int = 128
    lr: float = 8e-4
    snr_low_db: float = 8.0
    snr_high_db: float = 13.0
    gamma_train: float = 0.02
    loss_weighting: str = "lnk"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.snr_low_db > self.snr_high_db:
            raise ValueError("snr_low_db must be <= snr_high_db")
        detnet.loss_weights(1, self.loss_weighting)  # rejects an unknown name
        dev.check_gamma(self.gamma_train)


class Adam:
    """Standard Adam over one flat parameter buffer, updated in place.

    The update is elementwise, so running it once over the flat buffer gives
    the same numbers as running it array by array; the moment buffers and
    the two scratch arrays are allocated once, on the first step.
    """

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = None
        self.v = None
        self.t = 0

    def step(self, p, g):
        """One update of the flat buffer p from its gradient g."""
        if self.m is None:
            self.m, self.v = np.zeros_like(p), np.zeros_like(p)
            self._num, self._den = np.empty_like(p), np.empty_like(p)
        m, v, num, den = self.m, self.v, self._num, self._den
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + ((1 - beta2) g) g
        m *= self.beta1
        np.multiply(1 - self.beta1, g, out=num)
        m += num
        v *= self.beta2
        np.multiply(1 - self.beta2, g, out=num)
        num *= g
        v += num
        # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=num)
        num *= self.lr
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        p -= num


def draw_batch(config, train_cfg, spec, rng):
    """One epoch's training samples as rows, one vector per channel.

    Returns (x (B, 1, 2n_t), H_in = H + dH (B, 2n_r, 2n_t),
    y_in = y0 + n (B, 1, 2n_r)) for batch size B.  H + dH is H programmed on
    `spec` and realized at gamma_train, as the sweep stores it; at
    gamma_train 0, H itself.
    """
    b = train_cfg.batch_size
    bits = mimo.random_bits(config, rng, count=b)
    x = mimo.modulate(bits, config)
    h = mimo.generate_channel(config, rng, count=b)
    y = (h @ x[..., None])[..., 0]

    lo, hi = train_cfg.snr_low_db, train_cfg.snr_high_db
    snr = np.full(b, lo) if lo == hi else rng.uniform(lo, hi, size=b)
    noise = rng.standard_normal(y.shape)
    noise *= mimo.sigma_from_snr(snr)[:, None]
    y += noise

    if train_cfg.gamma_train > 0:
        z = rng.standard_normal(h.shape)
        h = dev.program_matrix(h, spec).realized(train_cfg.gamma_train, z)
    return x[:, None], h, y[:, None]


def _views(buf, like):
    """Views into the flat buffer `buf`, shaped like the arrays of `like`."""
    views = {}
    offset = 0
    for key, arr in like.as_dict().items():
        views[key] = buf[offset: offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return views


def train(config, train_cfg, spec, rng, params=None):
    """Adam-train the detector; returns (params, per-epoch mean loss).

    Training works on a copy in detnet.DTYPE, which the returned params keep:
    a `params` passed in is left unchanged.
    """
    if params is None:
        params = detnet.init_params(config, rng)
    # parameters and gradients are views into two flat buffers, so that Adam
    # updates every array in one pass
    flat = np.concatenate([arr.ravel() for arr in params.as_dict().values()],
                          dtype=detnet.DTYPE)
    flat_grad = np.empty_like(flat)
    grads = _views(flat_grad, params)
    params = detnet.DetNetParams(**_views(flat, params))
    opt = Adam(train_cfg.lr)
    history = np.empty(train_cfg.epochs)

    for epoch in range(train_cfg.epochs):
        x, h_in, y_in = (a.astype(detnet.DTYPE)
                         for a in draw_batch(config, train_cfg, spec, rng))
        trajectory, cache = detnet.ideal_forward(params, h_in, y_in)
        value = detnet.loss(trajectory, x, train_cfg.loss_weighting)
        if not math.isfinite(value):
            raise TrainingDiverged(f"loss became {value} at epoch {epoch}")
        history[epoch] = value
        detnet.backward(params, cache, x, train_cfg.loss_weighting, out=grads)
        opt.step(flat, flat_grad)
        # alphas map to resistor values; project back into the feasible set
        np.clip(params.alpha1, ALPHA_FLOOR, None, out=params.alpha1)
        np.clip(params.alpha2, ALPHA_FLOOR, None, out=params.alpha2)

    return params, history


def save_params(path, params, config):
    """Versioned checkpoint: config header plus row-major parameter blocks."""
    np.savez(
        path,
        version=CHECKPOINT_VERSION,
        n_t=config.n_t,
        n_r=config.n_r,
        L=config.L,
        S=config.S,
        a_size=config.a_size,
        modulation=config.modulation.value,
        **{k: np.ascontiguousarray(v) for k, v in params.as_dict().items()},
    )


def load_params(path, expected_config=None):
    """Load a checkpoint; returns (params, config).

    A header field that is not a scalar, an integer field that does not hold
    an integer and an array whose shape disagrees with the header are
    rejected, and so, if expected_config is given, is any header mismatch.
    """
    # np.load leaks the file it opened when the file is not a zip archive
    with open(path, "rb") as file:
        data = np.load(file, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz checkpoint")
        header = {k: data[k] for k in HEADER_KEYS}
        for key, value in header.items():
            if value.ndim != 0:
                raise ValueError(f"checkpoint {key} has shape {value.shape}; "
                                 "a header field is a scalar")
            if key != "modulation" and value.dtype.kind not in "iu":
                raise ValueError(f"checkpoint {key} has dtype {value.dtype}; "
                                 "it is an integer field")
        version = int(header["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        config = mimo.MimoConfig(
            n_t=int(header["n_t"]),
            n_r=int(header["n_r"]),
            modulation=str(header["modulation"]),
            L=int(header["L"]),
            S=int(header["S"]),
            a_size=int(header["a_size"]),
        )
        params = detnet.DetNetParams(**{k: data[k] for k in detnet.PARAM_KEYS})
    if expected_config is not None:
        for attr in ("n_t", "n_r", "modulation", "L", "S", "a_size"):
            got, want = getattr(config, attr), getattr(expected_config, attr)
            if got != want:
                raise ValueError(
                    f"checkpoint {attr}={got} does not match configured {want}"
                )
    for key, shape in detnet.param_shapes(config).items():
        value = getattr(params, key)
        if value.dtype.kind != "f":
            raise ValueError(f"checkpoint {key} has dtype {value.dtype}; "
                             "parameters are real floating point")
        if value.shape != shape:
            raise ValueError(f"checkpoint {key} has shape {value.shape}; "
                             f"its header implies {shape}")
    params.validate()
    return params, config
