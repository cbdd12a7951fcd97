"""Frame-level feature extractor with statistics pooling.

Two per-frame leaky-rectifier layers (F -> H -> H), pooling to
[mean over time, std over time] (2H), then an affine projection to a
d-dimensional embedding.  All gradients are exact analytic derivatives,
accumulated additively into same-shape slots on the parameter object.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import rng
from .corpus import Segments, group_rows
from .errors import ShapeError

LEAKY_SLOPE = 0.01
STD_FLOOR = 1e-6  # std pooling computes sqrt(var + STD_FLOOR**2)
# Frames per inference block: embed_by_length without caches pools a
# length-T group max(1, BLOCK_FRAMES // T) rows at a time (32 rows at T = 80).
BLOCK_FRAMES = 2560
ALIGN = 64  # bytes; every Workspace buffer starts on such a boundary


class EmbedderParams:
    """The embedder's tensors ``w1`` (H, F), ``b1`` (H,), ``w2`` (H, H),
    ``b2`` (H,), ``wp`` (d, 2H) and ``bp`` (d,), as views of one
    C-contiguous buffer ``flat`` in that order, the order of a checkpoint's
    payload; their gradients ``g_w1`` ... ``g_bp`` are views of ``g_flat``,
    laid out alike.  The six tensors given are copied in and must share one
    dtype, so one call over a flat buffer updates, zeroes or checks them all.
    """

    def __init__(self, w1, b1, w2, b2, wp, bp):
        tensors = [np.asarray(t) for t in (w1, b1, w2, b2, wp, bp)]
        dtypes = sorted({str(t.dtype) for t in tensors})
        if len(dtypes) > 1:
            raise ShapeError(f"parameter tensors must share one dtype, got {dtypes}")
        self._shapes = [t.shape for t in tensors]
        self.flat = np.concatenate([t.ravel() for t in tensors])
        self.g_flat = np.zeros_like(self.flat)
        self.w1, self.b1, self.w2, self.b2, self.wp, self.bp = self.views(self.flat)
        self.g_w1, self.g_b1, self.g_w2, self.g_b2, self.g_wp, self.g_bp = self.views(self.g_flat)

    def views(self, flat):
        """One view per tensor, in declaration order, of a buffer laid out
        like ``flat``."""
        ends = list(accumulate(math.prod(shape) for shape in self._shapes))
        return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), self._shapes)]

    @property
    def feat_dim(self):
        return self.w1.shape[1]

    @property
    def hidden_dim(self):
        return self.w1.shape[0]

    @property
    def embed_dim(self):
        return self.wp.shape[0]

    @property
    def dtype(self):
        return self.flat.dtype

    def tensors(self):
        """Parameter tensors in declaration order."""
        return [self.w1, self.b1, self.w2, self.b2, self.wp, self.bp]

    def grads(self):
        return [self.g_w1, self.g_b1, self.g_w2, self.g_b2, self.g_wp, self.g_bp]

    def zero_grads(self):
        self.g_flat[...] = 0

    def copy(self, dtype=None):
        return EmbedderParams(*[t.astype(dtype or self.dtype) for t in self.tensors()])


def init_params(feat_dim, hidden_dim=64, embed_dim=32, seed=0, dtype=np.float32):
    """Glorot-uniform weights, zero biases, seeded."""
    shapes = [(hidden_dim, feat_dim), (hidden_dim, hidden_dim), (embed_dim, 2 * hidden_dim)]
    tensors = []
    for i, (fan_out, fan_in) in enumerate(shapes):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.stream(seed, rng.INIT, i).uniform(-bound, bound, size=(fan_out, fan_in))
        tensors.append(w.astype(dtype))
        tensors.append(np.zeros(fan_out, dtype=dtype))
    return EmbedderParams(*tensors)


@dataclass
class ForwardCache:
    """One length group's activations, kept for :func:`backward`, which
    builds both rectifier masks from ``z1`` and ``z2``: the leaky rectifier
    is positive exactly where its input is."""
    positions: np.ndarray  # the group's positions in the embedded ``feats``
    x: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    pooled: np.ndarray  # [mean, std]
    # (n, T, H) temporaries that every backward call overwrites; the
    # forward writes the pre-activations a1 in g_a1 and a2 in g_a2, and
    # then squares its deviations from the mean in g_a2
    g_a2: np.ndarray
    g_a1: np.ndarray


class Workspace:
    """Flat buffers, one per array kind (``x``, ``z1``, ``z2``, ``g_a1`` and
    ``g_a2``), that :func:`embed_by_length` and :func:`backward` write into
    instead of allocating.

    A kind's buffer grows to the largest request and is then reused, so a
    training run that passes one workspace to every forward allocates no
    (B, T, H) array after its first step, and holds at most
    max(B * T, BLOCK_FRAMES) * (F + 4H) floats however its crops' lengths
    vary, while no utterance it embeds without caches is longer than
    BLOCK_FRAMES (such an utterance is a block of its own).  The arrays that
    one forward hands out, its :class:`ForwardCache` arrays among them, are
    views of these buffers and stay valid until the workspace's next
    forward.  Every buffer starts on an ALIGN-byte boundary.
    """

    def __init__(self):
        self._flat = {}

    def frames(self, kind, n, width, dtype):
        """An (n, width) view of ``kind``'s buffer."""
        size = n * width
        flat = self._flat.get(kind)
        if flat is None or flat.dtype != dtype or flat.size < size:
            flat = self._flat[kind] = _aligned_empty(size, dtype)
        return flat[:size].reshape(n, width)


def _aligned_empty(size, dtype):
    """An empty 1-D array of ``size`` items that starts on an ALIGN-byte
    boundary, so vector loads and stores sweeping it from its start do not
    straddle two cache lines: a view into a byte buffer ALIGN bytes longer."""
    itemsize = np.dtype(dtype).itemsize
    raw = np.empty(size * itemsize + ALIGN, dtype=np.uint8)
    skip = -raw.ctypes.data % ALIGN
    return raw[skip:skip + size * itemsize].view(dtype)


def _lrelu(a, out=None):
    # slope * a first: np.maximum returns its first argument when both are
    # NaN, so a NaN input comes out as slope * a, exactly as a masked select
    # would give it
    out = np.multiply(LEAKY_SLOPE, a, out=out)
    return np.maximum(out, a, out=out)


def _lrelu_grad(a, out):
    """1 where a > 0, else the slope, written into ``out``; built from the
    0/1 mask without a masked select, which costs about 10x as much."""
    slope = np.asarray(LEAKY_SLOPE, dtype=a.dtype)
    np.greater(a, 0, out=out, casting="unsafe")
    out *= 1 - slope
    out += slope
    return out


def _add_bias(a, tiled):
    """``a += bias`` on a C-contiguous (B, T, H) array, given the bias tiled
    T times: one pass over its (B, T*H) rows, the same bits as the
    broadcast add, without its inner loop of only H elements."""
    rows = a.reshape(len(a), -1)  # a view, as ``a`` is C-contiguous
    rows += tiled


def _group_constants(params, t):
    """What every block of a length-T group reuses: C-contiguous copies of
    ``w1.T`` and ``w2.T`` (OpenBLAS's no-transpose kernel runs the frame
    products nearly twice as fast as on the transposed views), both biases
    tiled T times and a (1, T) ones row."""
    return (np.ascontiguousarray(params.w1.T), np.tile(params.b1, t),
            np.ascontiguousarray(params.w2.T), np.tile(params.b2, t),
            np.ones((1, t), dtype=params.dtype))


def _frames_and_pool(consts, x, a1, z1, a2, z2, sq, pooled):
    """Frame layers and statistics pooling of a (B, T, F) batch ``x``, written
    into the arrays given: ``a1``, ``z1``, ``a2``, ``z2`` and ``sq`` are
    C-contiguous (B, T, H), ``pooled`` is (B, 2H) and receives [mean, std].
    ``consts`` are the length's :func:`_group_constants`.

    ``a1`` is last read before ``a2`` is written, ``a2`` before ``sq`` and
    ``z1`` before ``z2``, so a caller that keeps nothing may pass one array
    as ``a1``, ``a2`` and ``sq`` and another as ``z1`` and ``z2``.  A pooled
    row depends only on its own utterance.
    """
    w1t, b1, w2t, b2, ones = consts
    h, t = a1.shape[2], x.shape[1]
    # one product per utterance, on the contiguous weight copies
    np.matmul(x, w1t, out=a1)
    _add_bias(a1, b1)
    _lrelu(a1, out=z1)
    np.matmul(z1, w2t, out=a2)
    _add_bias(a2, b2)
    _lrelu(a2, out=z2)
    # time sums as one (1, T) @ (T, H) product per utterance, about 5x as
    # fast as a reduction over the time axis; the variance stays two-pass
    # (deviations from the mean, then squares), which does not cancel when
    # std << |mean| as E[z^2] - mean^2 would
    mean, std = pooled[:, :h], pooled[:, h:]
    np.matmul(ones, z2, out=mean[:, None, :])
    mean /= t
    np.subtract(z2, mean[:, None, :], out=sq)
    sq *= sq
    np.matmul(ones, sq, out=std[:, None, :])
    std /= t
    std += np.asarray(STD_FLOOR, dtype=pooled.dtype) ** 2
    np.sqrt(std, out=std)


def _project(params, pooled):
    """(B, d) embeddings of (B, 2H) pooled rows, one (1, 2H) @ (2H, d)
    product per row, so a row's bits do not depend on the other rows."""
    return (pooled[:, None, :] @ params.wp.T)[:, 0] + params.bp


def embed_by_length(params: EmbedderParams, feats: Segments, caches=None, workspace=None):
    """(N, d) embeddings of the utterances of ``feats``, a :class:`corpus.Segments`,
    one group per length, shortest first; the only forward pass.

    An embedding depends only on its utterance and the model: not on the
    other utterances of the call, their order, or whether the call keeps a
    cache.  With ``caches`` a list (training), each group runs as one block
    on its own slice of the workspace's frames, and one
    :class:`ForwardCache` per group is appended for :func:`backward`.  With
    ``caches`` None (inference), a length-T group is pooled in blocks of
    ``max(1, BLOCK_FRAMES // T)`` rows through two (rows, T, H) arrays that
    every block of the call reuses, so beyond the inputs and the result
    memory is O(BLOCK_FRAMES * H) plus one group's pooled rows.

    One ``np.take`` gathers a block's frames from the segments' buffer into
    the workspace's ``x``, in the buffer's dtype (a float64 model's products
    widen float32 frames exactly).  The arrays are taken from ``workspace``, a
    :class:`Workspace`, or a fresh one.  A wrong F raises ShapeError first.
    """
    f_dim, h, dtype = params.feat_dim, params.hidden_dim, params.dtype
    if len(feats) and feats.frames.shape[1] != f_dim:
        raise ShapeError(f"feature dim {feats.frames.shape[1]} does not match model F={f_dim}")
    order, lengths, firsts, _ = group_rows(feats.lengths)
    groups = list(zip(lengths.tolist(), np.split(order, firsts[1:])))
    embs = np.empty((len(feats), params.embed_dim), dtype=dtype)
    ws = Workspace() if workspace is None else workspace
    if caches is None:
        # a block keeps nothing, so every block of every group starts at
        # frame 0, g_a1 holds a1, a2 and the squared deviations, and z1 holds z2
        rows_of = [min(len(idx), max(1, BLOCK_FRAMES // t)) for t, idx in groups]
        starts = [0] * len(groups)
        kinds = ("g_a1", "z1", "g_a1", "z1", "g_a1")
    else:
        rows_of = [len(idx) for _, idx in groups]
        starts = list(accumulate((t * len(idx) for t, idx in groups), initial=0))
        # a1, a2 and the squared deviations go in the backward's temporaries,
        # which it overwrites before it reads them
        kinds = ("g_a1", "z1", "g_a2", "z2", "g_a2")
    n = max((start + t * rows for (t, _), rows, start in zip(groups, rows_of, starts)), default=0)
    x_all = ws.frames("x", n, f_dim, feats.frames.dtype)
    acts_all = {kind: ws.frames(kind, n, h, dtype) for kind in kinds}
    for (t, idx), rows, start in zip(groups, rows_of, starts):
        x = x_all[start:start + rows * t].reshape(rows, t, f_dim)
        acts = [acts_all[kind][start:start + rows * t].reshape(rows, t, h) for kind in kinds]
        consts = _group_constants(params, t)
        pooled = np.empty((len(idx), 2 * h), dtype=dtype)
        if caches is not None:
            g_a1, z1, g_a2, z2, _ = acts
            caches.append(ForwardCache(idx, x, z1, z2, pooled, g_a2, g_a1))
        for lo in range(0, len(idx), rows):
            block = idx[lo:lo + rows]
            r = len(block)
            # the indices are in range, and mode="raise" would buffer the output
            np.take(feats.frames, (feats.starts[block, None] + np.arange(t)).ravel(), axis=0,
                    out=x_all[start:start + r * t], mode="clip")
            _frames_and_pool(consts, x[:r], *(act[:r] for act in acts), pooled[lo:lo + r])
        embs[idx] = _project(params, pooled)
    return embs


def backward(params: EmbedderParams, caches, grad_embedding):
    """Accumulate parameter gradients for the ``caches`` one
    :func:`embed_by_length` call filled.

    ``grad_embedding`` is (N, d), one row per utterance in the order of
    that call's ``feats``.  Repeated calls accumulate additively; the input
    features are leaves, so nothing is returned.
    """
    g_all = np.asarray(grad_embedding, dtype=params.dtype)
    n = sum(len(cache.positions) for cache in caches)
    if g_all.shape != (n, params.embed_dim):
        raise ShapeError(f"grad_embedding shape {g_all.shape} does not match the "
                         f"{n} cached rows")

    h = params.hidden_dim
    for cache in caches:
        g = g_all[cache.positions]
        t = cache.x.shape[1]
        mean, std = cache.pooled[:, :h], cache.pooled[:, h:]

        params.g_wp += g.T @ cache.pooled
        params.g_bp += g.sum(axis=0)
        g_pooled = g @ params.wp

        # g_z2 = g_mean / T + (g_std / std) * (z2 - mean) / T, as one affine
        # pass z2 * c1 + c0 with (n, H) coefficients; g_a1 holds the
        # rectifier derivative at a2 until g_a1 is computed, and g_a2 then
        # holds the one at a1; z > 0 exactly where a > 0, so both masks
        # come from the cached outputs
        c1 = g_pooled[:, h:] / std / t
        c0 = g_pooled[:, :h] / t - mean * c1
        g_a2, g_a1 = cache.g_a2, cache.g_a1
        np.multiply(cache.z2, c1[:, None, :], out=g_a2)
        g_a2 += c0[:, None, :]
        g_a2 *= _lrelu_grad(cache.z2, out=g_a1)
        # weight gradients sum over batch and time at once: (B*T, H).T @ (B*T, K);
        # bias gradients are the same sums as ones(B*T) @ (B*T, H) products
        ones = np.ones(len(g) * t, dtype=params.dtype)
        params.g_w2 += g_a2.reshape(-1, h).T @ cache.z1.reshape(-1, h)
        params.g_b2 += ones @ g_a2.reshape(-1, h)
        np.matmul(g_a2, params.w2, out=g_a1)
        g_a1 *= _lrelu_grad(cache.z1, out=g_a2)
        params.g_w1 += g_a1.reshape(-1, h).T @ cache.x.reshape(-1, params.feat_dim)
        params.g_b1 += ones @ g_a1.reshape(-1, h)
