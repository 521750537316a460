"""Software forward/backward pass of the unfolded projected-gradient detector.

Each of the L blocks computes

    s_k = x_{k-1} - alpha1_k H^T y + alpha2_k H^T H x_{k-1}
    u_k = [s_k; a_{k-1}]
    z_k = relu(W1_k u_k + b1_k)
    x_k = W2_k z_k + b2_k
    a_k = W3_k z_k + b3_k

starting from x_0 = a_0 = 0.  The auxiliary vector a_k widens the block input
and carries state between blocks; it has no physical meaning.

The training loss sums squared errors over blocks with logarithmic weights
w_k = ln(k), which zeroes block 1 and damps unstable early-block errors.
ln(k+1) is available as an alternative that keeps block 1 in the loss.

All functions here are pure numpy and take one layout, vectors as rows: a
stack of channels H (..., 2n_r, 2n_t) and the vectors received through them,
ys (..., n_vec, 2n_r), one row per vector.  Then H^T y is ys @ H and H^T H x
is x @ H^T H, each one stacked product, and the dense layers act on all N
rows at once as (N, d) @ (d, S) products.  A single vector is ys = y[None].
"""

from dataclasses import dataclass

import numpy as np

PARAM_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3", "alpha1", "alpha2")


@dataclass
class DetNetParams:
    """Trainable parameter set, stacked along a leading block axis.

    Shapes: w1 (L, S, 2n_t + a_size), b1 (L, S), w2 (L, 2n_t, S), b2 (L, 2n_t),
    w3 (L, a_size, S), b3 (L, a_size), alpha1 (L,), alpha2 (L,).
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray

    @property
    def L(self):
        return self.w1.shape[0]

    @property
    def S(self):
        return self.w1.shape[1]

    @property
    def x_dim(self):
        return self.w2.shape[1]

    @property
    def a_size(self):
        return self.w3.shape[1]

    def as_dict(self):
        return {k: getattr(self, k) for k in PARAM_KEYS}

    def validate(self):
        for k in PARAM_KEYS:
            if not np.all(np.isfinite(getattr(self, k))):
                raise ValueError(f"non-finite values in parameter {k}")
        if np.any(self.alpha1 <= 0) or np.any(self.alpha2 <= 0):
            raise ValueError("alpha gains must stay strictly positive")


def init_params(config, rng):
    """He-initialized weights, zero biases, small positive step gains."""
    d_in = 2 * config.n_t + config.a_size
    L, S, a = config.L, config.S, config.a_size
    x_dim = 2 * config.n_t

    def he(shape, fan_in):
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)

    return DetNetParams(
        w1=he((L, S, d_in), d_in),
        b1=np.zeros((L, S)),
        w2=he((L, x_dim, S), S),
        b2=np.zeros((L, x_dim)),
        w3=he((L, a, S), S),
        b3=np.zeros((L, a)),
        alpha1=np.full(L, 1e-2),
        alpha2=np.full(L, 1e-2),
    )


def _fused_output(params):
    """W2 over W3 and b2 over b3, so x_k and a_k come from one product."""
    return (np.concatenate([params.w2, params.w3], axis=1),
            np.concatenate([params.b2, params.b3], axis=1))


def ideal_forward(params, h_real, ys):
    """Run all L blocks in exact arithmetic.

    Vectors are rows: h_real is (..., 2n_r, 2n_t) and ys is (..., n_vec, 2n_r),
    n_vec received vectors per channel, so a single vector is passed as y[None].
    Returns (trajectory, cache): trajectory is the list [x_1, ..., x_L], each of
    shape (..., n_vec, 2n_t); the cache retains what backprop needs: the Gram
    products, and for every block its H^T H x_{k-1}, its input u_k = [s_k;
    a_{k-1}] and its rectified output z_k, stacked over blocks with the N
    vectors as rows, e.g. u (L, N, 2n_t + a_size).
    """
    h_real = np.asarray(h_real, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ys.ndim < h_real.ndim:
        raise ValueError(
            f"ys {ys.shape} has fewer dims than h {h_real.shape}; "
            "vectors are rows, pass one vector as y[None]"
        )
    hty = ys @ h_real
    hth = np.ascontiguousarray(np.swapaxes(h_real, -1, -2)) @ h_real
    n_rows = int(np.prod(hty.shape[:-1], dtype=np.int64))
    L, x_dim = params.L, params.x_dim
    w23, b23 = _fused_output(params)
    hthxs = np.empty((L,) + hty.shape)
    us = np.empty((L, n_rows, x_dim + params.a_size))
    zs = np.empty((L, n_rows, params.S))
    xas = np.empty((L, n_rows, x_dim + params.a_size))  # [x_k, a_k]

    x = np.zeros(hty.shape)
    a = 0.0
    trajectory = []
    for k in range(L):
        hthx = np.matmul(x, hth, out=hthxs[k])  # (H^T H x)^T = x^T H^T H
        s = x - params.alpha1[k] * hty + params.alpha2[k] * hthx
        us[k, :, :x_dim] = s.reshape(n_rows, x_dim)
        us[k, :, x_dim:] = a
        z = np.matmul(us[k], params.w1[k].T, out=zs[k])
        z += params.b1[k]
        np.maximum(z, 0.0, out=z)  # a NaN input stays NaN
        xa = np.matmul(z, w23[k].T, out=xas[k])
        xa += b23[k]
        x = xa[:, :x_dim].reshape(hty.shape)
        a = xa[:, x_dim:]
        trajectory.append(x)

    cache = {"hty": hty, "hth": hth, "hthx": hthxs, "u": us, "z": zs,
             "trajectory": trajectory}
    return trajectory, cache


def loss_weights(L, weighting="lnk"):
    k = np.arange(1, L + 1, dtype=float)
    if weighting == "lnk":
        return np.log(k)
    if weighting == "lnk1":
        return np.log(k + 1)
    raise ValueError(f"unknown loss weighting {weighting!r}")


def loss(trajectory, x_true, weighting="lnk"):
    """Batch-mean block-weighted squared error sum_k w_k ||x - x_k||^2."""
    w = loss_weights(len(trajectory), weighting)
    x_true = np.asarray(x_true, dtype=float)
    if np.broadcast_shapes(trajectory[0].shape, x_true.shape) != trajectory[0].shape:
        raise ValueError(f"x_true {x_true.shape} does not match x_k {trajectory[0].shape}")
    err = np.stack(trajectory)  # (L, ..., 2n_t)
    err -= x_true
    per_block = np.einsum("k...d,k...d->k...", err, err).reshape(len(trajectory), -1)
    return float(np.mean(w @ per_block))


def backward(params, cache, x_true, weighting="lnk", out=None):
    """Exact gradients of :func:`loss` w.r.t. every parameter array.

    Returns a dict keyed like DetNetParams.as_dict(); given `out`, a dict of
    arrays of those shapes, the gradients are written into it instead.
    Gradients flow through x_k into the next block's linear combination and
    through a_k into the next block's input, so the recursion runs from block
    L back to block 1.  It keeps the gradients w.r.t. each block's output,
    pre-activation and s_k; the parameter gradients are then one stacked
    product or sum over all blocks.
    """
    hty = cache["hty"]
    hth = cache["hth"]
    us, zs = cache["u"], cache["z"]
    trajectory = cache["trajectory"]
    x_true = np.asarray(x_true, dtype=float)
    L, x_dim = params.L, params.x_dim
    w = loss_weights(L, weighting)
    n_rows = us.shape[1]
    w23, _ = _fused_output(params)
    gxas = np.empty_like(us)  # dL/d[x_k, a_k]
    gzs = np.empty_like(zs)   # dL/d(W1 u_k + b1)
    gss = np.empty((L,) + hty.shape)  # dL/ds_k

    gx = np.zeros(hty.shape)  # dL/dx_k, accumulated from later blocks
    ga = 0.0
    for k in range(L - 1, -1, -1):
        gx = gx + (2.0 * w[k] / n_rows) * (trajectory[k] - x_true)
        gxas[k, :, :x_dim] = gx.reshape(n_rows, x_dim)
        gxas[k, :, x_dim:] = ga
        gz = np.matmul(gxas[k], w23[k], out=gzs[k])
        gz *= zs[k] > 0  # through the rectifier: z > 0 exactly where pre > 0
        gu = gz @ params.w1[k]
        gs = gss[k]
        gs[...] = gu[:, :x_dim].reshape(hty.shape)
        ga = gu[:, x_dim:]
        # s_k = x_{k-1} - alpha1 H^T y + alpha2 H^T H x_{k-1}; H^T H symmetric
        gx = gs + params.alpha2[k] * (gs @ hth)

    grads = out if out is not None else {
        k: np.empty_like(getattr(params, k)) for k in PARAM_KEYS
    }
    np.matmul(gzs.transpose(0, 2, 1), us, out=grads["w1"])
    gzs.sum(axis=1, out=grads["b1"])
    gw23 = gxas.transpose(0, 2, 1) @ zs
    grads["w2"][...] = gw23[:, :x_dim]
    grads["w3"][...] = gw23[:, x_dim:]
    gb23 = gxas.sum(axis=1)
    grads["b2"][...] = gb23[:, :x_dim]
    grads["b3"][...] = gb23[:, x_dim:]
    per_block = tuple(range(1, gss.ndim))
    grads["alpha1"][...] = -np.sum(gss * hty, axis=per_block)
    grads["alpha2"][...] = np.sum(gss * cache["hthx"], axis=per_block)
    return grads
