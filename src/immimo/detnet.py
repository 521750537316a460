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
is x @ H^T H, each one stacked product.  A single vector is ys = y[None].

Inside, the two modes of ideal_forward lay the block loop out differently.
Only training keeps the forward pass's cache: backward reads every block's
intermediates, stacked over the L blocks with the N vectors as rows, and its
parameter gradients are sums over those rows, so the cached loop runs on
rows, the dense layers as (N, d) @ (d, S) products.  A feature-major training
pass measured slower and changes the loss history from the first epoch (see
ROADMAP.md).  Detection needs x_L alone, so the BER sweep runs the block loop
with keep_cache=False, and that loop runs feature-major, as a crossbar
applies each input vector as a column: one (2n_t + a_size + 1, N) buffer
holds x_k over a_k over a constant-one row, and z carries a constant-one
row too, so each bias rides in its product as one more weight column.  The
dense layers are [W1 | b1] u and [W2 | b2; W3 | b3] z, with no elementwise
bias pass, and a_k lands in place with no copy.  Its memory does not grow
with L.  The weight stacks [W1 | b1] and [W2 | b2; W3 | b3] are packed once
into DetectionWeights (detection_weights), as the weight crossbars are
programmed once, and the loop only indexes them: the BER sweep packs once
per sweep and passes the packed value, while a caller that passes
DetNetParams pays the packing on every call.

The two loops do the same arithmetic in the same order: the bias enters the
cache-free loop's BLAS sum last, with weight 1, where the cached loop adds
it after the product.  Only the layout and width BLAS sees differ, and BLAS
picks its kernel by layout and size.  At the shapes tests/test_detnet.py's
TestCacheFree pins bit for bit (one vector, a wave of 8 channels with 14
vectors each, and that wave at 5 programming-noise levels, with nonzero
biases) the cache-free x_L equals the cached pass's bit for bit.  Elsewhere,
for instance a wave capped at one trial, x_L agrees to rounding and the
decisions have been equal at every shape tested; only a value within
rounding of a decision boundary could fall the other way.

On hardware the same pass runs on differential memristor arrays in two roles:

* channel-dependent arrays hold the real channel H; they are programmed open
  loop (imprecise, see :mod:`immimo.device`) once per channel realization and
  reused by every block for both the H^T y and H^T H x_{k-1} paths;
* weight arrays hold the trained [W1 | b1] and [W2 | b2; W3 | b3] matrices,
  each bias a column of conductances driven by a constant input line; weights
  are tuned offline with verification, so their mapping is treated as exact.

Peripherals (TIAs, inverters, adders, the ReLU rectifier) are ideal: the TIA
feedback resistances realize the gains alpha1 (one stage) and alpha2 (two
cascaded stages), here exact multiplications, so both must stay positive.
All signals stay in normalized numeric units with the mapping coefficient mu
divided out; no volt/ampere headroom is enforced.  With exact weights and
ideal peripherals the in-memory detector is therefore exactly this forward
pass run on the realized channel H + dH (device.ProgrammingResult.realized).

Precision follows the inputs: the forward and backward passes compute in the
result type of the params and the channel and received arrays (at least
float32), so float64 inputs give float64 arithmetic throughout.  The BER
sweep and training cast their params and inputs to DTYPE, float32: analog
arrays compute with far less precision than that, and on a trained detector
float32 and float64 give the same bit decisions.
"""

from dataclasses import dataclass

import numpy as np

PARAM_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3", "alpha1", "alpha2")

# the precision of the BER sweep's deep detectors and of training
DTYPE = np.float32


@dataclass
class DetNetParams:
    """Trainable parameter set, stacked along a leading block axis.

    param_shapes gives each array's shape.
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

    def astype(self, dtype):
        """A copy with every array cast to dtype."""
        return DetNetParams(**{k: v.astype(dtype) for k, v in self.as_dict().items()})

    def validate(self):
        for k in PARAM_KEYS:
            if not np.all(np.isfinite(getattr(self, k))):
                raise ValueError(f"non-finite values in parameter {k}")
        if np.any(self.alpha1 <= 0) or np.any(self.alpha2 <= 0):
            raise ValueError("alpha gains must stay strictly positive")


@dataclass(frozen=True)
class DetectionWeights:
    """The weight arrays as detection reads them, packed once from DetNetParams.

    w1b is the stack [W1 | b1], (L, S, 2n_t + a_size + 1), and w23b the stack
    [W2 | b2; W3 | b3], (L, 2n_t + a_size, S + 1): each block's two weight
    crossbars with their bias columns.  alpha1 and alpha2 are the gains.  A
    snapshot: its arrays are read-only copies, so later edits to the params
    it was packed from do not reach it.
    """

    w1b: np.ndarray
    w23b: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    x_dim: int


def detection_weights(params):
    """Pack params for the cache-free detection loop.

    The arrays take the dtype of params.w1, at least float32.  The BER sweep
    packs once, as the weight arrays are programmed once, offline.
    """
    dtype = np.result_type(params.w1, np.float32)
    x_dim, width = params.x_dim, params.x_dim + params.a_size
    # filled in place: packing allocates nothing but the stacks
    w1b = np.empty((params.L, params.S, width + 1), dtype)
    w1b[..., :-1] = params.w1
    w1b[..., -1] = params.b1
    w23b = np.empty((params.L, width, params.S + 1), dtype)
    w23b[:, :x_dim, :-1] = params.w2
    w23b[:, x_dim:, :-1] = params.w3
    w23b[:, :x_dim, -1] = params.b2
    w23b[:, x_dim:, -1] = params.b3
    arrays = {"w1b": w1b, "w23b": w23b,
              "alpha1": params.alpha1.astype(dtype), "alpha2": params.alpha2.astype(dtype)}
    for value in arrays.values():
        value.flags.writeable = False
    return DetectionWeights(**arrays, x_dim=params.x_dim)


def param_shapes(config):
    """The shape of each parameter array, keyed and ordered as PARAM_KEYS."""
    L, S, x, a = config.L, config.S, 2 * config.n_t, config.a_size
    return {"w1": (L, S, x + a), "b1": (L, S), "w2": (L, x, S), "b2": (L, x),
            "w3": (L, a, S), "b3": (L, a), "alpha1": (L,), "alpha2": (L,)}


def init_params(config, rng):
    """He-initialized weights, zero biases, small positive step gains."""
    arrays = {}
    for key, shape in param_shapes(config).items():
        if key.startswith("w"):
            # fan-in is the width of the vector the matrix multiplies
            arrays[key] = rng.normal(0.0, np.sqrt(2.0 / shape[-1]), size=shape)
        elif key.startswith("b"):
            arrays[key] = np.zeros(shape)
        else:
            arrays[key] = np.full(shape, 1e-2)
    return DetNetParams(**arrays)


def _fused_output(params):
    """W2 over W3 and b2 over b3, so x_k and a_k come from one product."""
    return (np.concatenate([params.w2, params.w3], axis=1),
            np.concatenate([params.b2, params.b3], axis=1))


def ideal_forward(params, h_real, ys, keep_cache=True):
    """Run all L blocks in exact arithmetic at the precision of the inputs.

    Vectors are rows: h_real is (..., 2n_r, 2n_t) and ys is (..., n_vec, 2n_r),
    n_vec received vectors per channel, so a single vector is passed as y[None];
    ys broadcasts against the channels' leading dims.  Returns (trajectory,
    cache): trajectory is the list [x_1, ..., x_L], each of shape (...,
    n_vec, 2n_t); the cache retains what backprop needs: the Gram products,
    and for every block its H^T H x_{k-1}, its input u_k = [s_k; a_{k-1}] and
    its rectified output z_k, stacked over blocks with the N vectors as rows,
    e.g. u (L, N, 2n_t + a_size).  Everything is computed in
    np.result_type(params.w1, h_real, ys, np.float32), so float32 params and
    inputs run in float32 and any float64 one makes it float64.

    With keep_cache=False the trajectory is [x_L] alone and the cache is
    None.  That loop runs feature-major on one set of buffers, with each bias
    carried in its product, so memory does not grow with L: x_L agrees with
    the cached pass's to rounding, bit for bit at the shapes TestCacheFree
    pins (see the module docstring).  It also takes params already packed
    by detection_weights, whose w1b then stands for params.w1 in the result
    type; DetNetParams are packed on entry.
    """
    h_real, ys = np.asarray(h_real), np.asarray(ys)
    packed = isinstance(params, DetectionWeights)
    if packed and keep_cache:
        raise TypeError("the cached pass takes DetNetParams, not DetectionWeights")
    dtype = np.result_type(params.w1b if packed else params.w1, h_real, ys, np.float32)
    h_real = h_real.astype(dtype, copy=False)
    ys = ys.astype(dtype, copy=False)
    if ys.ndim < h_real.ndim:
        raise ValueError(
            f"ys {ys.shape} has fewer dims than h {h_real.shape}; "
            "vectors are rows, pass one vector as y[None]"
        )
    hty = ys @ h_real
    hth = np.ascontiguousarray(np.swapaxes(h_real, -1, -2)) @ h_real
    if not keep_cache:
        weights = params if packed else detection_weights(params)
        return [_last_block_output(weights, hty, hth)], None
    n_rows = int(np.prod(hty.shape[:-1], dtype=np.int64))
    L, x_dim = params.L, params.x_dim
    w23, b23 = _fused_output(params)
    # block k writes slot k of the stacks backprop reads
    hthxs = np.empty((L,) + hty.shape, dtype)
    us = np.empty((L, n_rows, x_dim + params.a_size), dtype)
    zs = np.empty((L, n_rows, params.S), dtype)
    xas = np.empty((L, n_rows, x_dim + params.a_size), dtype)  # [x_k, a_k]

    x = np.zeros(hty.shape, dtype)
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


def _last_block_output(weights, hty, hth):
    """x_L from DetectionWeights, the rows H^T y (..., n_vec, 2n_t) and H^T H.

    Runs feature-major, one column per vector: u holds x_k in its first 2n_t
    rows, overwritten in place by s_{k+1}, then a_k, then a constant-one row,
    and z ends in a constant-one row too.  So each bias rides in its product
    as one more weight column, as on a crossbar whose bias conductances are
    driven by a constant input line, and each block is two products,
    [W1 | b1] u and [W2 | b2; W3 | b3] z, with no copy between them.  The
    weight stacks are packed once, as the weight crossbars are programmed
    once, and block k only indexes them; weights in another dtype than the
    inputs' are cast once per call.  The ones enter each BLAS sum last with
    weight 1, as the cached pass's bias add does, so x_L stays bit for bit at
    the shapes TestCacheFree pins.
    """
    w1b = weights.w1b.astype(hty.dtype, copy=False)
    w23b = weights.w23b.astype(hty.dtype, copy=False)
    x_dim, width = weights.x_dim, w23b.shape[1]
    L, S = w1b.shape[:2]
    # (2n_t, ..., n_vec): one contiguous row per feature
    hty = np.ascontiguousarray(np.moveaxis(hty, -1, 0))
    hthx = np.empty_like(hty)
    step = np.empty_like(hty)
    u = np.zeros((width + 1, hty[0].size), hty.dtype)
    u[-1] = 1.0
    z = np.empty((S + 1, u.shape[1]), hty.dtype)
    z[-1] = 1.0  # the rectifier keeps it: max(1, 0) = 1
    x = u[:x_dim].reshape(hty.shape)
    # x^T H^T H, oriented as in the cached pass so that it rounds alike; H^T H
    # keeps h's leading dims, so one channel broadcasts over many vector sets
    x_rows, hthx_rows = np.moveaxis(x, 0, -1), np.moveaxis(hthx, 0, -1)
    for k in range(L):
        np.matmul(x_rows, hth, out=hthx_rows)
        # s_k = (x_{k-1} - alpha1 H^T y) + alpha2 H^T H x_{k-1}, in place
        np.multiply(hty, weights.alpha1[k], out=step)
        x -= step
        hthx *= weights.alpha2[k]
        x += hthx
        np.matmul(w1b[k], u, out=z[:-1])
        np.maximum(z, 0.0, out=z)  # a NaN input stays NaN
        # x_k and a_k land in u, over s_k and a_{k-1}
        np.matmul(w23b[k], z, out=u[:width])
    return x_rows


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
    x_true = np.asarray(x_true, dtype=trajectory[0].dtype)
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
    product or sum over all blocks.  They are computed at the precision of
    the forward pass that filled the cache.
    """
    hty = cache["hty"]
    hth = cache["hth"]
    us, zs = cache["u"], cache["z"]
    trajectory = cache["trajectory"]
    dtype = us.dtype
    x_true = np.asarray(x_true, dtype=dtype)
    L, x_dim = params.L, params.x_dim
    w = loss_weights(L, weighting).astype(dtype)
    n_rows = us.shape[1]
    w23, _ = _fused_output(params)
    gxas = np.empty_like(us)  # dL/d[x_k, a_k]
    gzs = np.empty_like(zs)   # dL/d(W1 u_k + b1)
    gss = np.empty((L,) + hty.shape, dtype)  # dL/ds_k

    gx = np.zeros(hty.shape, dtype)  # dL/dx_k, accumulated from later blocks
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
