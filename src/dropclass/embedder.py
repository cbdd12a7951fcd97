"""Frame-level feature extractor with statistics pooling.

Two per-frame leaky-rectifier layers (F -> H -> H), pooling to
[mean over time, std over time] (2H), then an affine projection to a
d-dimensional embedding.  All gradients are exact analytic derivatives,
accumulated additively into same-shape slots on the parameter object.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import EmptyDataError, NumericError, ShapeError, ValidationError

LEAKY_SLOPE = 0.01
STD_FLOOR = 1e-6  # std pooling computes sqrt(var + STD_FLOOR**2)
# Frames per inference block: embed_by_length pools a length-T group
# max(1, BLOCK_FRAMES // T) rows at a time (32 rows at T = 80).
BLOCK_FRAMES = 2560


@dataclass
class EmbedderParams:
    w1: np.ndarray  # (H, F)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H, H)
    b2: np.ndarray  # (H,)
    wp: np.ndarray  # (d, 2H)
    bp: np.ndarray  # (d,)
    g_w1: np.ndarray = None
    g_b1: np.ndarray = None
    g_w2: np.ndarray = None
    g_b2: np.ndarray = None
    g_wp: np.ndarray = None
    g_bp: np.ndarray = None

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2", "wp", "bp"):
            if getattr(self, "g_" + name) is None:
                setattr(self, "g_" + name, np.zeros_like(getattr(self, name)))

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
        return self.w1.dtype

    def tensors(self):
        """Parameter tensors in declaration order."""
        return [self.w1, self.b1, self.w2, self.b2, self.wp, self.bp]

    def grads(self):
        return [self.g_w1, self.g_b1, self.g_w2, self.g_b2, self.g_wp, self.g_bp]

    def zero_grads(self):
        for g in self.grads():
            g[...] = 0

    def copy(self, dtype=None):
        dtype = dtype or self.dtype
        return EmbedderParams(*[t.astype(dtype) for t in self.tensors()])


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
    x: np.ndarray
    a1: np.ndarray
    z1: np.ndarray
    a2: np.ndarray
    z2: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    pooled: np.ndarray


def _lrelu(a, out=None):
    # slope * a first: np.maximum returns its first argument when both are
    # NaN, so a NaN input comes out as slope * a, exactly as a masked select
    # would give it
    out = np.multiply(LEAKY_SLOPE, a, out=out)
    return np.maximum(out, a, out=out)


def _lrelu_grad(a):
    """1 where a > 0, else the slope; built from the 0/1 mask without a masked select."""
    slope = np.asarray(LEAKY_SLOPE, dtype=a.dtype)
    g = (a > 0).astype(a.dtype)
    g *= 1 - slope
    g += slope
    return g


def _frames_and_pool(params, x, a1, z1, a2, z2, sq, pooled):
    """Frame layers and statistics pooling of a (B, T, F) batch ``x``, written
    into the arrays given: ``a1``, ``z1``, ``a2``, ``z2`` and ``sq`` are
    (B, T, H), ``pooled`` is (B, 2H) and receives [mean, std].

    ``a1`` is last read before ``a2`` is written, ``a2`` before ``sq`` and
    ``z1`` before ``z2``, so a caller that keeps nothing may pass one array
    as ``a1``, ``a2`` and ``sq`` and another as ``z1`` and ``z2``.  A pooled
    row depends only on its own utterance.
    """
    h = params.hidden_dim
    np.matmul(x, params.w1.T, out=a1)
    a1 += params.b1
    _lrelu(a1, out=z1)
    np.matmul(z1, params.w2.T, out=a2)
    a2 += params.b2
    _lrelu(a2, out=z2)
    mean, std = pooled[:, :h], pooled[:, h:]
    np.mean(z2, axis=1, out=mean)
    np.subtract(z2, mean[:, None, :], out=sq)
    sq *= sq
    np.mean(sq, axis=1, out=std)
    std += np.asarray(STD_FLOOR, dtype=x.dtype) ** 2
    np.sqrt(std, out=std)


def _project(params, pooled):
    """(B, d) embeddings of (B, 2H) pooled rows; the only step whose bits
    depend on which rows share the batch."""
    return pooled @ params.wp.T + params.bp


def forward(params: EmbedderParams, features):
    """Embed one utterance (T, F); returns (embedding, batch-1 cache)."""
    features = np.asarray(features, dtype=params.dtype)
    if features.ndim != 2:
        raise ShapeError(f"features must be (T, F), got shape {features.shape}")
    if features.shape[0] == 0:
        raise EmptyDataError("utterance has no frames")
    emb, cache = forward_batch(params, features[None])
    return emb[0], cache


def forward_batch(params: EmbedderParams, features):
    """Embed a batch (B, T, F) of equal-length utterances; returns ((B, d), cache)."""
    x = np.asarray(features, dtype=params.dtype)
    if x.ndim != 3:
        raise ShapeError(f"batch features must be (B, T, F), got shape {x.shape}")
    if x.shape[1] == 0:
        raise EmptyDataError("utterances have no frames")
    if x.shape[2] != params.feat_dim:
        raise ShapeError(f"feature dim {x.shape[2]} does not match model F={params.feat_dim}")

    # every (B, T, H) array is kept for backward except the squared deviations
    b, t, _ = x.shape
    h = params.hidden_dim
    a1, z1, a2, z2, sq = (np.empty((b, t, h), dtype=x.dtype) for _ in range(5))
    pooled = np.empty((b, 2 * h), dtype=x.dtype)
    _frames_and_pool(params, x, a1, z1, a2, z2, sq, pooled)
    cache = ForwardCache(x, a1, z1, a2, z2, pooled[:, :h], pooled[:, h:], pooled)
    return _project(params, pooled), cache


def _length_groups(feats):
    """``(T, positions)`` for each group of equal-length arrays in ``feats``,
    shortest first."""
    by_len = {}
    for i, f in enumerate(feats):
        by_len.setdefault(f.shape[0], []).append(i)
    return sorted(by_len.items())


def forward_by_length(params: EmbedderParams, feats):
    """Embed (T, F) arrays of mixed lengths, one batch per length.

    Yields ``(indices, embeddings, cache)`` for each group of equal-length
    inputs, shortest first; ``indices`` are positions in ``feats``.
    """
    for _, idx in _length_groups(feats):
        h, cache = forward_batch(params, np.stack([feats[i] for i in idx]))
        yield idx, h, cache


def embed_by_length(params: EmbedderParams, feats):
    """(N, d) embeddings of (T, F) arrays of mixed lengths, for inference.

    Gives the bits of :func:`forward_by_length` and keeps no cache.  Each
    length group is pooled in blocks of ``max(1, BLOCK_FRAMES // T)`` rows
    through two (rows, T, H) workspaces that every block of the call reuses,
    and its (n, 2H) pooled rows are projected in one product, as
    :func:`forward_batch` projects the group.  Beyond the inputs and the
    result, memory is O(BLOCK_FRAMES * H) plus one group's pooled rows.
    """
    f_dim, h = params.feat_dim, params.hidden_dim
    groups = []  # (T, positions, rows per block)
    for t, idx in _length_groups(feats):
        shapes = {feats[i].shape for i in idx}
        if len(shapes) > 1 or len(feats[idx[0]].shape) != 2:
            raise ShapeError(f"features must be (T, F) arrays of one F, got shapes {sorted(shapes)}")
        if t == 0:
            raise EmptyDataError("utterances have no frames")
        if feats[idx[0]].shape[1] != f_dim:
            raise ShapeError(f"feature dim {feats[idx[0]].shape[1]} does not match model F={f_dim}")
        groups.append((t, idx, min(len(idx), max(1, BLOCK_FRAMES // t))))
    embs = np.empty((len(feats), params.embed_dim), dtype=params.dtype)
    if not groups:
        return embs
    frames = max(t * rows for t, _, rows in groups)
    x_ws = np.empty(frames * f_dim, dtype=params.dtype)
    a_ws, z_ws = (np.empty(frames * h, dtype=params.dtype) for _ in range(2))
    for t, idx, rows in groups:
        x = x_ws[:rows * t * f_dim].reshape(rows, t, f_dim)
        a = a_ws[:rows * t * h].reshape(rows, t, h)
        z = z_ws[:rows * t * h].reshape(rows, t, h)
        pooled = np.empty((len(idx), 2 * h), dtype=params.dtype)
        for lo in range(0, len(idx), rows):
            block = idx[lo:lo + rows]
            r = len(block)
            np.stack([feats[i] for i in block], out=x[:r])
            _frames_and_pool(params, x[:r], a[:r], z[:r], a[:r], z[:r], a[:r], pooled[lo:lo + r])
        embs[idx] = _project(params, pooled)
    return embs


def backward(params: EmbedderParams, cache: ForwardCache, grad_embedding):
    """Accumulate parameter gradients for a cached batch.

    ``grad_embedding`` is (B, d), one row per utterance of the cache.
    Repeated calls accumulate additively; the input features are leaves,
    so nothing is returned.
    """
    g = np.asarray(grad_embedding, dtype=params.dtype)
    if g.shape != (cache.x.shape[0], params.embed_dim):
        raise ShapeError(f"grad_embedding shape {g.shape} does not match cached batch")

    h = params.hidden_dim
    t = cache.x.shape[1]

    params.g_wp += g.T @ cache.pooled
    params.g_bp += g.sum(axis=0)
    g_pooled = g @ params.wp
    g_mean = g_pooled[:, :h]
    g_std = g_pooled[:, h:]

    # g_z2 = g_mean / T + (g_std / std) * (z2 - mean) / T, built in place
    g_a2 = cache.z2 - cache.mean[:, None, :]
    g_a2 *= (g_std / cache.std)[:, None, :]
    g_a2 /= t
    g_a2 += g_mean[:, None, :] / t
    g_a2 *= _lrelu_grad(cache.a2)
    # weight gradients sum over batch and time at once: (B*T, H).T @ (B*T, K)
    params.g_w2 += g_a2.reshape(-1, h).T @ cache.z1.reshape(-1, h)
    params.g_b2 += g_a2.sum(axis=(0, 1))
    g_a1 = g_a2 @ params.w2
    g_a1 *= _lrelu_grad(cache.a1)
    params.g_w1 += g_a1.reshape(-1, h).T @ cache.x.reshape(-1, params.feat_dim)
    params.g_b1 += g_a1.sum(axis=(0, 1))


def finite_diff_check(params, features, loss_closure, epsilon=1e-5, n_coords=100, seed=0):
    """Compare analytic parameter gradients to central finite differences.

    ``loss_closure`` maps an embedding to ``(loss, grad_wrt_embedding)``;
    the analytic side seeds ``backward`` with that gradient while the
    numeric side only ever evaluates the scalar loss.  Returns the max
    relative error over at least ``n_coords`` sampled coordinates.
    """
    if not (0 < epsilon <= 1e-2):
        raise ValidationError(f"epsilon must be in (0, 1e-2], got {epsilon!r}")

    def scalar_loss(p):
        emb, _ = forward(p, features)
        loss = loss_closure(emb)[0]
        if not np.isfinite(loss):
            raise NumericError("loss_closure returned a non-finite loss")
        return float(loss)

    work = params.copy(np.float64)
    work.zero_grads()
    emb, cache = forward(work, features)
    _, grad_h = loss_closure(emb)
    backward(work, cache, np.asarray(grad_h, dtype=np.float64)[None])

    coords = []
    for ti, tensor in enumerate(work.tensors()):
        for flat in range(tensor.size):
            coords.append((ti, flat))
    g = rng.stream(seed, rng.INIT, 99)
    if len(coords) > n_coords:
        chosen = g.choice(len(coords), size=n_coords, replace=False)
        coords = [coords[int(i)] for i in chosen]

    max_rel = 0.0
    tensors = work.tensors()
    grads = work.grads()
    for ti, flat in coords:
        tensor = tensors[ti].reshape(-1)
        orig = tensor[flat]
        tensor[flat] = orig + epsilon
        lp = scalar_loss(work)
        tensor[flat] = orig - epsilon
        lm = scalar_loss(work)
        tensor[flat] = orig
        numeric = (lp - lm) / (2 * epsilon)
        analytic = grads[ti].reshape(-1)[flat]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        max_rel = max(max_rel, rel)
    return max_rel
