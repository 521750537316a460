"""Classical detectors: ZF, MMSE, exhaustive ML, and a sphere decoder.

All detectors work on the real-valued model y = Hx + n with per-rail
constellation alphabets from :mod:`immimo.mimo`.  The sphere decoder runs a
QR-based depth-first search with Schnorr-Euchner enumeration over the 2n_t
real rails and shrinks its radius at every leaf, so it returns exactly the
exhaustive-ML decision while visiting far fewer nodes at high SNR.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import mimo


class RankDeficientChannel(Exception):
    """H lost full column rank; linear detection is not well posed."""


@dataclass
class DetectorOutput:
    x_hat_real: np.ndarray
    node_count: int | None = None


def rail_symbol_energy(config):
    """Mean per-real-rail symbol energy under unit total transmit power."""
    return 1.0 / (2.0 * config.n_t)


def linear_soft_batch(h_real, ys, config, sigma_n=None):
    """ZF (sigma_n None) or MMSE soft outputs for many y per channel.

    ZF:   soft = (H^T H)^{-1} H^T y
    MMSE: soft = (H^T H + (sigma_n^2 / E_rail) I)^{-1} H^T y

    h_real has shape (..., 2n_r, 2n_t) and ys (..., n_vec, 2n_r), with the
    same leading shape (a stack of channels, or none); returns
    (..., n_vec, 2n_t).  ZF raises RankDeficientChannel if any channel in the
    stack lost full column rank.
    """
    h_real = np.asarray(h_real, dtype=float)
    h_t = np.swapaxes(h_real, -1, -2)
    g = h_t @ h_real
    if sigma_n is None:
        if np.any(np.linalg.matrix_rank(h_real) < h_real.shape[-1]):
            raise RankDeficientChannel("channel matrix is column-rank deficient")
    else:
        g = g + sigma_n**2 / rail_symbol_energy(config) * np.eye(g.shape[-1])
    rhs = h_t @ np.swapaxes(np.asarray(ys, dtype=float), -1, -2)
    try:
        soft = np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientChannel(str(exc)) from exc
    return np.swapaxes(soft, -1, -2)


ML_GUARD = 10**6


def candidate_matrix(config):
    """All M^n_t transmit vectors as real columns, lex order by symbol index.

    Cached per (n_t, modulation) since enumeration is the expensive part.
    """
    key = (config.n_t, config.modulation)
    cached = _CANDIDATE_CACHE.get(key)
    if cached is not None:
        return cached
    points, _ = mimo.constellation_points(config)
    m = len(points)
    if m**config.n_t > ML_GUARD:
        raise ValueError(
            f"exhaustive search space {m}^{config.n_t} exceeds guard {ML_GUARD}"
        )
    combos = np.array(list(itertools.product(points, repeat=config.n_t)))
    x_real = np.concatenate([combos.real, combos.imag], axis=1).T  # (2n_t, M^n_t)
    _CANDIDATE_CACHE[key] = x_real
    return x_real


_CANDIDATE_CACHE = {}


def ml_detect_exhaustive(h_real, y, config):
    """Exact argmin of ||y - Hx||^2 over the full constellation product set.

    Ties go to the lexicographically smaller symbol-index tuple (argmin keeps
    the first minimum and candidates are enumerated in that order).
    """
    x_cands = candidate_matrix(config)
    resid = np.asarray(y, dtype=float)[:, None] - np.asarray(h_real, float) @ x_cands
    metrics = np.sum(resid * resid, axis=0)
    best = int(np.argmin(metrics))
    return DetectorOutput(x_hat_real=x_cands[:, best].copy(), node_count=x_cands.shape[1])


def ml_detect_batch(h_real, ys, config):
    """Exhaustive ML for many received vectors per channel.

    h_real has shape (..., 2n_r, 2n_t) and ys (..., n_vec, 2n_r), with the
    same leading shape; returns (..., n_vec, 2n_t).
    """
    x_cands = candidate_matrix(config)
    images = np.asarray(h_real, float) @ x_cands  # (..., 2n_r, n_cand)
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    # ||y - Hx||^2 expanded; the ||y||^2 term is constant per row
    metrics = np.sum(images * images, axis=-2)[..., None, :] - 2.0 * ys @ images
    best = np.argmin(metrics, axis=-1)
    return x_cands.T[best]


def sphere_decode(h_real, y, config):
    """Depth-first sphere decoder with Schnorr-Euchner enumeration.

    y is one received vector (2n_r,) or several sharing the channel
    (n_vec, 2n_r); the QR factorization is computed once per call.  Returns
    the same decisions as :func:`ml_detect_exhaustive`, in y's leading shape,
    together with the total number of tree nodes visited.
    """
    h_real = np.asarray(h_real, dtype=float)
    y = np.asarray(y, dtype=float)
    n_rails = h_real.shape[1]
    q, r = np.linalg.qr(h_real)
    diag = np.abs(np.diag(r))
    if np.any(diag < 1e-12 * diag.max()):
        raise RankDeficientChannel("QR exposed a numerically zero pivot")
    # the search runs on Python floats: per-node numpy scalar arithmetic
    # costs more than the arithmetic itself at these sizes
    y_red = np.atleast_2d(y) @ q
    rows = r.tolist()
    alphabets = [a.tolist() for a in mimo.rail_alphabets(config)]

    x_work = [0.0] * n_rails
    best_x = list(x_work)
    best_metric = math.inf
    node_count = 0

    def descend(level, partial, target):
        nonlocal best_metric, best_x, node_count
        row = rows[level]
        # interference-cancelled target for this rail
        upper = target[level]
        for j in range(level + 1, n_rails):
            upper -= row[j] * x_work[j]
        pivot = row[level]
        center = upper / pivot
        # Schnorr-Euchner: try candidates closest to the unconstrained
        # solution first so the radius shrinks as early as possible; ties
        # keep alphabet order.  The swap gives the order sorted() would for
        # two-point rails (BPSK, QPSK) without a sort per node, which takes
        # about 13% off the reference QPSK sweep.
        alpha = alphabets[level]
        if len(alpha) == 2:
            if abs(alpha[1] - center) < abs(alpha[0] - center):
                alpha = alpha[::-1]
        else:
            alpha = sorted(alpha, key=lambda v: abs(v - center))
        for value in alpha:
            inc = upper - pivot * value
            metric = partial + inc * inc
            node_count += 1
            if metric >= best_metric:
                # children along SE order only get worse; prune the rest
                break
            x_work[level] = value
            if level:
                descend(level - 1, metric, target)
            else:
                best_metric = metric
                best_x = list(x_work)

    decisions = []
    for target in y_red.tolist():
        best_metric = math.inf
        descend(n_rails - 1, 0.0, target)
        decisions.append(best_x)
    x_hat = np.array(decisions).reshape(y.shape[:-1] + (n_rails,))
    return DetectorOutput(x_hat_real=x_hat, node_count=node_count)
