"""Noise-aware training of the unfolded detector.

Every epoch draws a fresh batch of (x, H, y0 = Hx, n, dH): channel noise n at
an SNR sampled uniformly from the training range, and dH from the closed-form
programming-noise law at the training C2C level.  The forward pass runs on
the perturbed pair (H + dH, y0 + n) while the loss targets the true x, so the
network learns representations that tolerate both noise sources.  Training is
plain Adam on the manually backpropagated gradients; the step gains alpha are
clamped to stay strictly positive because they map to physical resistances.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import detnet
from . import device as dev
from . import mimo

CHECKPOINT_VERSION = 1


class TrainingDiverged(Exception):
    """Loss became non-finite; carries the epoch for diagnostics."""


@dataclass
class TrainConfig:
    epochs: int = 3000
    batch_size: int = 128
    lr: float = 8e-4
    snr_train_range_db: tuple = (8.0, 13.0)
    gamma_train: float = 0.02
    loss_weighting: str = "lnk"
    # constant learning rate by default; the decay multiplies by 0.97 every
    # 1000 epochs when enabled
    lr_decay: bool = False
    alpha_floor: float = 1e-6

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        lo, hi = self.snr_train_range_db
        if lo > hi:
            raise ValueError("snr_train_range_db must be (low, high)")
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
    y_in = y0 + n (B, 1, 2n_r)) for batch size B.
    """
    b = train_cfg.batch_size
    bits = mimo.random_bits(config, rng, count=b)
    x = mimo.modulate(bits, config)
    h_c = rng.standard_normal((b, config.n_r, config.n_t)) + 1j * rng.standard_normal(
        (b, config.n_r, config.n_t)
    )
    h = mimo.to_real(h_c)
    y0 = (h @ x[..., None])[..., 0]

    lo, hi = train_cfg.snr_train_range_db
    snr = np.full(b, lo) if lo == hi else rng.uniform(lo, hi, size=b)
    sigma = mimo.sigma_from_snr(snr)
    n = sigma[:, None] * rng.standard_normal(y0.shape)

    if train_cfg.gamma_train > 0:
        dh = dev.sample_dh_matrix(h, replace(spec, gamma=train_cfg.gamma_train), rng)
    else:
        dh = 0.0
    return x[:, None], h + dh, (y0 + n)[:, None]


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

    Training works on a copy: a `params` passed in is left unchanged.
    """
    if params is None:
        params = detnet.init_params(config, rng)
    # parameters and gradients are views into two flat buffers, so that Adam
    # updates every array in one pass
    flat = np.concatenate([arr.ravel() for arr in params.as_dict().values()])
    flat_grad = np.empty_like(flat)
    grads = _views(flat_grad, params)
    params = detnet.DetNetParams(**_views(flat, params))
    opt = Adam(train_cfg.lr)
    history = np.empty(train_cfg.epochs)

    for epoch in range(train_cfg.epochs):
        if train_cfg.lr_decay:
            opt.lr = train_cfg.lr * 0.97 ** (epoch // 1000)
        x, h_in, y_in = draw_batch(config, train_cfg, spec, rng)
        trajectory, cache = detnet.ideal_forward(params, h_in, y_in)
        value = detnet.loss(trajectory, x, train_cfg.loss_weighting)
        if not math.isfinite(value):
            raise TrainingDiverged(f"loss became {value} at epoch {epoch}")
        history[epoch] = value
        detnet.backward(params, cache, x, train_cfg.loss_weighting, out=grads)
        opt.step(flat, flat_grad)
        # alphas map to resistor values; project back into the feasible set
        np.clip(params.alpha1, train_cfg.alpha_floor, None, out=params.alpha1)
        np.clip(params.alpha2, train_cfg.alpha_floor, None, out=params.alpha2)

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

    If expected_config is given, any header mismatch is rejected.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        config = mimo.MimoConfig(
            n_t=int(data["n_t"]),
            n_r=int(data["n_r"]),
            modulation=str(data["modulation"]),
            L=int(data["L"]),
            S=int(data["S"]),
            a_size=int(data["a_size"]),
        )
        params = detnet.DetNetParams(**{k: data[k] for k in detnet.PARAM_KEYS})
    if expected_config is not None:
        for attr in ("n_t", "n_r", "modulation", "L", "S", "a_size"):
            got, want = getattr(config, attr), getattr(expected_config, attr)
            if got != want:
                raise ValueError(
                    f"checkpoint {attr}={got} does not match configured {want}"
                )
    params.validate()
    return params, config
