"""Classical detectors: ZF, MMSE, exhaustive ML, and a sphere decoder.

All detectors work on the real-valued model y = Hx + n with per-rail
constellation alphabets from :mod:`immimo.mimo`.  ZF, MMSE and exhaustive ML
start from G = H^T H and the rows y^T H of mimo.channel_products, the sphere
decoder from a QR factorization of H.  Exhaustive ML scores every
candidate by ||Hx||^2 - 2 y^T Hx, which differs from ||y - Hx||^2 by a
constant per y, in Gram form: x^T G x with G = H^T H comes from one product
of G's upper triangle with a cached table of the candidates' pairwise rail
products, and y^T Hx from one product of the rows y^T H with the
candidates.

The sphere decoder runs a QR-based depth-first search with Schnorr-Euchner
enumeration over the 2n_t real rails and shrinks its radius at every leaf,
so it returns exactly the exhaustive-ML decision while visiting far fewer
nodes at high SNR.  It takes a whole stack of channels per call: one numpy
pass on level-major (rail, channel, vector) arrays runs the search's first
descent, to the Babai point, for every vector, cancelling each decided rail
from every lower level in the search's own top-down order.  The search then
resumes at that Babai leaf: only the levels whose second sibling beats the
Babai metric are walked in Python, and a vector with none is done without
Python work.  Its node count, summed over the stack, is the search's from
the root either way.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import mimo


class RankDeficientChannel(Exception):
    """H lost full column rank; linear detection is not well posed."""


@dataclass
class DetectorOutput:
    """Decisions, and for the sphere decoder its total tree nodes."""

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
    (..., n_vec, 2n_t), solved from mimo.channel_products in float64.  ZF
    raises RankDeficientChannel if any channel in the stack lost full column
    rank, by the sphere decoder's pivot test (_check_pivots).
    """
    h_real = np.asarray(h_real, dtype=float)
    g, hty = mimo.channel_products(h_real, np.asarray(ys, dtype=float))
    if sigma_n is None:
        _check_pivots(np.linalg.qr(h_real, mode="r"))
    else:
        g = g + sigma_n**2 / rail_symbol_energy(config) * np.eye(g.shape[-1])
    try:
        soft = np.linalg.solve(g, np.swapaxes(hty, -1, -2))
    except np.linalg.LinAlgError as exc:
        raise RankDeficientChannel(str(exc)) from exc
    return np.swapaxes(soft, -1, -2)


def _check_pivots(r):
    """Raise RankDeficientChannel if any R of a stack of QR factors has a
    numerically zero pivot: |R_ii| at most 1e-12 times its largest |R_jj|,
    so an all-zero channel fails too.
    """
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if np.any(diag <= 1e-12 * diag.max(axis=-1, keepdims=True)):
        raise RankDeficientChannel("QR exposed a numerically zero pivot")


ML_GUARD = 10**6


def _ml_tables(config):
    """The candidates X (2n_t, M^n_t), -2X, a pair table, and its pairs.

    X holds all M^n_t transmit vectors as real columns, following the
    payloads in bit-lexicographic order: antenna 0 varies slowest, and each
    antenna runs through its (I, Q) level pairs with Q fastest, so argmin
    ties go to the smaller bit pattern.  The pairs are the upper triangle
    i <= j of a 2n_t x 2n_t matrix, as flat indices.  Row k of the pair table
    holds x_i x_j of pair k for every candidate, doubled for i < j, so that a
    symmetric G's upper triangle times the table is x^T G x for all of them.
    Cached per (n_t, modulation).
    """
    key = (config.n_t, config.modulation)
    cached = _CANDIDATE_CACHE.get(key)
    if cached is not None:
        return cached
    m = 2**config.modulation.bits_per_symbol
    if m**config.n_t > ML_GUARD:
        raise ValueError(
            f"exhaustive search space {m}^{config.n_t} exceeds guard {ML_GUARD}"
        )
    n_bits = config.bits_per_vector
    payloads = (np.arange(2**n_bits)[:, None] >> np.arange(n_bits - 1, -1, -1)) & 1
    x_real = mimo.modulate(payloads, config).T
    rows, cols = np.triu_indices(len(x_real))
    pairs = x_real[rows] * x_real[cols]
    pairs[rows != cols] *= 2.0
    tables = x_real, -2.0 * x_real, pairs, rows * len(x_real) + cols
    _CANDIDATE_CACHE[key] = tables
    return tables


_CANDIDATE_CACHE = {}

# channels whose metrics ml_detect_batch builds at a time: at 4x6 QPSK,
# blocks of 1-4 spent more time per wave on numpy calls, and larger ones held
# more memory for little speed
ML_BLOCK = 8


def ml_detect_batch(h_real, ys, config):
    """Exhaustive ML for many received vectors per channel.

    h_real is a stack of channels (n_ch, 2n_r, 2n_t) and ys (n_ch, n_vec,
    2n_r) the vectors received through them; returns (n_ch, n_vec, 2n_t).
    The stack is walked ML_BLOCK channels at a time.  The metric
    ||y - Hx||^2 less its constant ||y||^2 is evaluated in Gram form,
    q + (y^T H)(-2x) with q = x^T G x and G = H^T H, from each block's
    mimo.channel_products: one product of the channels' upper triangles of
    G with the cached pair table gives q for every candidate, and one
    product of the rows y^T H with the cached -2X fills the block's metrics,
    in one buffer made once per call; scaling by -2 is exact.  The block's
    decisions go into its rows of one index array.  A channel's metrics,
    and so its decisions, are the same bits wherever it sits in whatever
    stack.
    """
    x_cands, minus_two_x, pairs, upper = _ml_tables(config)
    h_real = np.asarray(h_real, float)
    ys = np.asarray(ys, dtype=float)
    if h_real.ndim != 3 or ys.ndim != 3 or len(ys) != len(h_real):
        raise ValueError(f"expected channels (n_ch, 2n_r, 2n_t) and ys (n_ch, n_vec, 2n_r), "
                         f"got {h_real.shape} and {ys.shape}")
    n_vec, n_rails, n_cand = ys.shape[1], h_real.shape[2], x_cands.shape[1]
    # Every block, a short last one too, runs the two products at the full
    # block's shape: each is then a GEMM of one size, never a GEMV at one
    # row, whose rows do not depend on where a channel sits.  Rows past a
    # short block are stale and unread.  The metrics take about 229 KB at
    # 4x6 QPSK, against 918 KB for a whole 32-trial wave; G's triangles, q
    # and y^T H a few KB.
    grams = np.zeros((ML_BLOCK, len(upper)))
    q = np.empty((ML_BLOCK, 1, n_cand))
    yh = np.zeros((ML_BLOCK, n_vec, n_rails))
    metrics = np.empty((ML_BLOCK, n_vec, n_cand))
    best = np.empty((len(h_real), n_vec), dtype=np.intp)
    for start in range(0, len(h_real), ML_BLOCK):
        stop = start + ML_BLOCK
        gram, hty = mimo.channel_products(h_real[start:stop], ys[start:stop])
        n_block = len(gram)
        np.take(gram.reshape(n_block, -1), upper, axis=1, out=grams[:n_block])
        np.matmul(grams, pairs, out=q[:, 0])
        yh[:n_block] = hty
        np.matmul(yh.reshape(-1, n_rails), minus_two_x, out=metrics.reshape(-1, n_cand))
        metrics += q
        np.argmin(metrics[:n_block], axis=-1, out=best[start:stop])
    return x_cands.T[best]


def sphere_decode(h_real, ys, config):
    """Sphere decoder with Schnorr-Euchner enumeration for many channels.

    h_real has shape (..., 2n_r, 2n_t) and ys (..., n_vec, 2n_r), with the
    same leading shape (a stack of channels, or none).  Returns the same
    decisions as :func:`ml_detect_batch`, shaped (..., n_vec, 2n_t), together
    with the number of tree nodes the depth-first search visits over the
    whole stack (node_count).  A channel's decisions and nodes do not depend
    on the rest of the stack.

    One stacked QR factors every channel.  The search's first leaf is the
    Babai (successive-interference-cancellation) point, so one numpy pass
    runs that first descent for every vector at once, on level-major
    (rail, channel, vector) arrays.  At each level it keeps the cancelled
    target, the partial metric of the levels above and the metric of the
    second-best sibling, and it cancels the decided rail from every lower
    level's running target in one operation, top-down, in the order the
    search subtracts.  The search then walks back up the Babai path, trying
    one sibling per multi-point level: a vector whose siblings all reach its
    Babai metric is done with sum over levels of min(2, |alphabet|) nodes,
    and only the levels whose sibling metric is below it are handed to
    :func:`_search`, at the Babai leaf.  Decisions and node counts equal
    those of a per-vector search from the root.
    """
    h_real = np.asarray(h_real, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n_rails = h_real.shape[-1]
    q, r = np.linalg.qr(h_real)
    _check_pivots(r)
    y_red = ys @ q  # (..., n_vec, 2n_t)
    del q
    r = r.reshape(-1, n_rails, n_rails)
    targets = y_red.reshape(len(r), -1, n_rails)
    alphabets = mimo.rail_alphabets(config)

    # first descent for every vector on (rail, channel, vector) arrays.  The
    # running targets are a copy: for one channel's single vector, moveaxis
    # gives a contiguous view of the targets the search still reads.
    uppers = np.moveaxis(targets, -1, 0).copy()
    cols = np.ascontiguousarray(r.transpose(2, 1, 0))[..., None]  # cols[j, i] = R[i, j]
    x = np.empty_like(uppers)
    # partials[level]: metric of the levels at and above level on the Babai
    # path, so partials[0] is the Babai metric and partials[n_rails] is 0
    partials = np.zeros((n_rails + 1,) + uppers.shape[1:])
    siblings = np.full_like(uppers, math.inf)
    # scratch: two (channel, vector) arrays and the choice of a two-point rail
    work, inc = np.empty((2,) + uppers.shape[1:])
    closer = np.empty(uppers.shape[1:], dtype=bool)
    for level in range(n_rails - 1, -1, -1):
        upper, pivot, alpha = uppers[level], cols[level, level], alphabets[level]
        above, decided = partials[level + 1], x[level]
        # Schnorr-Euchner order as in the search: nearest first, ties in
        # alphabet order, and two-point rails swap only when strictly closer
        if len(alpha) == 2:
            # every two-point rail alphabet is (s, -s), as rail_alphabets
            # builds it, so |alpha[1] - center| is exactly |center + s|, and
            # the second sibling is -x, whose increment upper - pivot * -x is
            # exactly upper + pivot * x
            center = np.divide(upper, pivot, out=work)
            np.abs(np.add(center, alpha[0], out=inc), out=inc)
            np.abs(np.subtract(center, alpha[0], out=work), out=work)
            np.less(inc, work, out=closer)
            decided[...] = alpha[0]
            np.negative(decided, out=decided, where=closer)
            product = np.multiply(pivot, decided, out=work)
            np.add(upper, product, out=inc)
            np.add(above, np.multiply(inc, inc, out=inc), out=siblings[level])
        else:
            if len(alpha) > 2:
                dist = np.abs(alpha - (upper / pivot)[..., None])
                order = np.argsort(dist, axis=-1, kind="stable")
                decided[...], second = alpha[order[..., 0]], alpha[order[..., 1]]
                sibling = upper - pivot * second
                np.add(above, sibling * sibling, out=siblings[level])
            else:
                decided[...] = alpha[0]
            product = np.multiply(pivot, decided, out=work)
        np.subtract(upper, product, out=inc)
        np.add(above, np.multiply(inc, inc, out=inc), out=partials[level])
        uppers[:level] -= cols[level, :level] * decided
    nodes = partials[0].size * sum(min(2, len(a)) for a in alphabets)

    # the levels whose second sibling beats the Babai metric, ordered by
    # vector and then level; every other vector is done at its Babai point
    beaten = (siblings < partials[0]).reshape(n_rails, -1).T  # (vector, level)
    vecs, levels = np.divmod(np.flatnonzero(beaten), n_rails)
    opened = zip(vecs.tolist(), levels.tolist(),
                 uppers.reshape(n_rails, -1)[levels, vecs].tolist(),
                 partials.reshape(n_rails + 1, -1)[levels + 1, vecs].tolist())
    flat_x, metrics = x.reshape(n_rails, -1), partials[0].ravel()
    alphabets = [a.tolist() for a in alphabets]
    channel = None
    for vec, group in itertools.groupby(opened, key=operator.itemgetter(0)):
        c, v = divmod(vec, targets.shape[1])
        if c != channel:
            channel, rows = c, r[c].tolist()
        babai = flat_x[:, vec].tolist()
        best, searched = _search(rows, alphabets, targets[c, v].tolist(), babai,
                                 float(metrics[vec]), (entry[1:] for entry in group))
        if best is not babai:
            flat_x[:, vec] = best
        nodes += searched
    x_hat = np.moveaxis(x, 0, -1).reshape(y_red.shape)
    return DetectorOutput(x_hat_real=x_hat, node_count=nodes)


def _search(rows, alphabets, target, babai, babai_metric, resumes):
    """Depth-first search for one reduced target, resumed at its Babai leaf.

    rows is R as nested lists, alphabets the per-rail candidate lists,
    babai the first leaf's rails and babai_metric its metric.  resumes holds,
    in ascending level order, (level, cancelled target, metric of the levels
    above) for each level whose second sibling beats the Babai metric; every
    other level would prune it.  Walking back up the Babai path, the search
    tries each such level's siblings after the first in Schnorr-Euchner
    order against the best metric so far, subtracting the decided rails
    top-down as the first descent does, so both agree bitwise.  The
    search runs on Python floats: per-node numpy scalar arithmetic costs
    more than the arithmetic itself at these sizes.  The radius shrinks at
    every leaf, so the result is the ML decision.  Returns it, as a list of
    rail values (babai itself when no leaf beats it), and the number of tree
    nodes visited beyond the Babai path and its second siblings.
    """
    n_rails = len(rows)
    x_work = list(babai)
    best_x = babai
    best_metric = babai_metric
    node_count = 0

    def descend(level, partial, upper=None, first=0):
        nonlocal best_metric, best_x, node_count
        row = rows[level]
        if upper is None:
            # interference-cancelled target for this rail, top-down as in
            # the first descent
            upper = target[level]
            for j in range(n_rails - 1, level, -1):
                upper -= row[j] * x_work[j]
        pivot = row[level]
        center = upper / pivot
        # Schnorr-Euchner: try candidates closest to the unconstrained
        # solution first so the radius shrinks as early as possible; ties
        # keep alphabet order.  The swap gives the order sorted() would for
        # two-point rails (BPSK, QPSK) without a sort per node.
        alpha = alphabets[level]
        if len(alpha) == 2:
            if abs(alpha[1] - center) < abs(alpha[0] - center):
                alpha = alpha[::-1]
        else:
            alpha = sorted(alpha, key=lambda v: abs(v - center))
        for value in alpha[first:]:
            inc = upper - pivot * value
            metric = partial + inc * inc
            node_count += 1
            if metric >= best_metric:
                # children along SE order only get worse; prune the rest
                break
            x_work[level] = value
            if level:
                descend(level - 1, metric)
            else:
                best_metric = metric
                best_x = list(x_work)

    for level, upper, partial in resumes:
        node_count -= 1  # the second sibling is counted with the Babai path
        descend(level, partial, upper, first=1)
    # descend holds itself in its closure; dropping it frees this frame's
    # lists now rather than at the next garbage collection
    del descend
    return best_x, node_count
