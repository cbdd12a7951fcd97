"""Reference implementations that only the tests call.

Each is the plain, one-example form of a job the package does in batches:
the tests compare the package against these, or check the guarantees of
the paper's math (gradients, masking, loss identities) through them.
"""

import struct

import numpy as np

from dropclass import corpus, embedder, head, rng
from dropclass.errors import FormatError, NumericError, ShapeError, ValidationError


def logits(h, hm: head.HeadMatrix):
    """Raw logits W @ h of one (d,) embedding."""
    h = np.asarray(h)
    if h.shape != (hm.w.shape[1],):
        raise ShapeError(f"embedding shape {h.shape} does not match head d={hm.w.shape[1]}")
    return hm.w @ h


def masked_logits(h, hm: head.HeadMatrix, active):
    """Logits restricted to the rows of W named by the active subset.

    Selects rows of the full logit vector rather than re-multiplying the
    sliced matrix, so the result is bit-identical to ``logits(h, hm)[active]``
    regardless of how the BLAS kernel orders its accumulations.
    """
    active = head.check_subset(active, hm.n_classes)
    return logits(h, hm)[active]


def loss_and_grads(h, w_active, label, spec: head.LossSpec):
    """Single-example loss and gradients: (loss, grad_h (d,), grad_w (|R|, d)).

    ``spec.adacos_scale`` is restored after the batch call, so an AdaCos
    spec's scale never moves.
    """
    scale = spec.adacos_scale
    try:
        losses, grad_h, grad_w = head.batch_loss_and_grads(np.asarray(h)[None], w_active,
                                                           [label], spec)
    finally:
        spec.adacos_scale = scale
    return float(losses[0]), grad_h[0], grad_w


def cosine_score(a, b):
    """Cosine of two vectors in float64; the oracle of ``evaluation.score_pairs``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise NumericError("cannot cosine-score a zero embedding")
    return float(a @ b / (na * nb))


def finite_diff_check(params, features, loss_closure, epsilon=1e-5, n_coords=100, seed=0):
    """Compare analytic parameter gradients to central finite differences.

    ``features`` is one (T, F) utterance, and ``loss_closure`` maps its (d,)
    embedding to ``(loss, grad_wrt_embedding)``; or ``features`` is a list
    of (T, F) utterances of any lengths, and ``loss_closure`` maps their
    (N, d) embeddings to ``(loss, (N, d) gradient)``.  The analytic side
    seeds ``embedder.backward`` with that gradient while the numeric side
    only ever evaluates the scalar loss.  Returns the max relative error
    over at least ``n_coords`` sampled coordinates.
    """
    if not (0 < epsilon <= 1e-2):
        raise ValidationError(f"epsilon must be in (0, 1e-2], got {epsilon!r}")
    batch = isinstance(features, list)
    feats = features if batch else [np.asarray(features)]

    def embed(p, caches=None):
        emb = embedder.embed_by_length(p, feats, caches)
        return emb if batch else emb[0]

    def scalar_loss(p):
        loss = loss_closure(embed(p))[0]
        if not np.isfinite(loss):
            raise NumericError("loss_closure returned a non-finite loss")
        return float(loss)

    work = params.copy(np.float64)
    work.zero_grads()
    caches = []
    _, grad_h = loss_closure(embed(work, caches))
    grad_h = np.asarray(grad_h, dtype=np.float64)
    embedder.backward(work, caches, grad_h if batch else grad_h[None])

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


def fresh_step(model, velocity, feats, labels, loss_spec, lr, momentum):
    """``trainer.step`` with a fresh array for every frame activation and
    backward temporary, as the step was before the training workspace:
    the reference that a run's workspace must match byte for byte.
    Returns the mean loss; inputs must keep every value finite."""
    params = model.params
    h, dtype = params.hidden_dim, params.dtype
    embs = np.empty((len(feats), params.embed_dim), dtype=dtype)
    caches = []
    for t, idx in embedder._length_groups(params, feats):
        x = np.stack([feats[i] for i in idx])
        a1, z1, a2, z2, sq = (np.empty((len(idx), t, h), dtype=dtype) for _ in range(5))
        pooled = np.empty((len(idx), 2 * h), dtype=dtype)
        embedder._frames_and_pool(embedder._group_constants(params, t), x, a1, z1, a2, z2,
                                  sq, pooled)
        embs[idx] = embedder._project(params, pooled)
        caches.append((idx, t, x, a1, z1, a2, z2, pooled))
    losses, grad_h, grad_w = head.batch_loss_and_grads(embs, model.active_weights(), labels,
                                                       loss_spec)
    b = len(feats)
    grad_h = np.asarray(grad_h / b, dtype=dtype)
    grad_w = grad_w / b

    def lrelu_grad(a):
        slope = np.asarray(embedder.LEAKY_SLOPE, dtype=a.dtype)
        g = (a > 0).astype(a.dtype)
        g *= 1 - slope
        g += slope
        return g

    params.zero_grads()
    for idx, t, x, a1, z1, a2, z2, pooled in caches:
        g = grad_h[idx]
        mean, std = pooled[:, :h], pooled[:, h:]
        params.g_wp += g.T @ pooled
        params.g_bp += g.sum(axis=0)
        g_pooled = g @ params.wp
        c1 = g_pooled[:, h:] / std / t
        c0 = g_pooled[:, :h] / t - mean * c1
        g_a2 = z2 * c1[:, None, :] + c0[:, None, :]
        g_a2 *= lrelu_grad(a2)
        ones = np.ones(len(idx) * t, dtype=dtype)
        params.g_w2 += g_a2.reshape(-1, h).T @ z1.reshape(-1, h)
        params.g_b2 += ones @ g_a2.reshape(-1, h)
        g_a1 = g_a2 @ params.w2
        g_a1 *= lrelu_grad(a1)
        params.g_w1 += g_a1.reshape(-1, h).T @ x.reshape(-1, params.feat_dim)
        params.g_b1 += ones @ g_a1.reshape(-1, h)

    mu, step_lr = dtype.type(momentum), dtype.type(lr)
    for v, p, g in zip(velocity.embedder, params.tensors(), params.grads()):
        v *= mu
        v -= step_lr * g
        p += v
    vh, active = velocity.head, model.active
    vh[active] = mu * vh[active] - step_lr * grad_w
    model.head.w[active] += vh[active]
    return float(np.mean(losses))


def compose_batch(view, batch_size, frames_per_example, gen):
    """``trainer.compose_batch`` as a per-class loop of scalar draws: each
    class's utterance, then its crop start if the utterance is longer than
    the crop.  The package draws every utterance before every start, so the
    two agree, generator state included, whenever no utterance is cropped."""
    b = min(batch_size, view.present.size)
    chosen = gen.choice(view.present.size, size=b, replace=False)
    feats = []
    for lo, k in zip(view.starts[chosen].tolist(), view.sizes[chosen].tolist()):
        x = view.features[view.order[lo + int(gen.integers(0, k))]]
        t = x.shape[0]
        if t > frames_per_example:
            start = int(gen.integers(0, t - frames_per_example + 1))
            x = x[start:start + frames_per_example]
        feats.append(x)
    return feats, view.present[chosen]


def read_corpus(path, split_tag="train", keep=None):
    """``corpus.read_corpus`` over the whole file held in memory: every
    header first, then one NaN/infinity pass in file order.  The reference
    of the windowed reader, which must give the same corpus or the same
    FormatError message and offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0

    def advance(n, what):
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"truncated payload while reading {what}", offset=off)
        off += n
        return off - n

    def unpack(fmt, what):
        return struct.unpack_from(fmt, data, advance(struct.calcsize(fmt), what))

    if data[advance(4, "magic"):off] != corpus.MAGIC:
        raise FormatError("wrong magic bytes, expected DCK1", offset=0)
    m, n_utts, f = unpack("<III", "header")
    if f < 1:
        raise FormatError("feature dim F=0", offset=12)
    ids, class_ids, features, spans = [], [], [], []
    for _ in range(n_utts):
        (id_len,) = unpack("<I", "id length")
        try:
            ident = data[advance(id_len, "utt id"):off].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("utt id is not valid UTF-8", offset=off - id_len) from None
        class_id, t = unpack("<II", "class_id/T")
        if class_id >= m:
            raise FormatError(f"class_id {class_id} out of range for M={m}", offset=off - 8)
        if t < 1:
            raise FormatError("utterance with T=0 frames", offset=off - 4)
        at = advance(4 * t * f, f"features of {ident}")
        spans.append((ident, at, t * f))
        if keep is None or ident in keep:
            ids.append(ident)
            class_ids.append(class_id)
            features.append(np.frombuffer(data, "<f4", t * f, at).reshape(t, f).copy())
    if off != len(data):
        raise FormatError("trailing bytes after last utterance", offset=off)
    for ident, at, n in spans:
        bad = np.flatnonzero(~np.isfinite(np.frombuffer(data, "<f4", n, at)))
        if bad.size:
            raise FormatError(f"non-finite feature value in {ident}", offset=at + 4 * int(bad[0]))
    return corpus.LabeledCorpus(ids, class_ids, features, n_classes=m, split_tag=split_tag)
