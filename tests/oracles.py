"""Reference implementations that only the tests call.

Each is the plain, one-example form of a job the package does in batches:
the tests compare the package against these, or check the guarantees of
the paper's math (gradients, masking, loss identities) through them.
"""

import numpy as np

from dropclass import embedder, head, rng
from dropclass.errors import NumericError, ShapeError, ValidationError


def logits(h, hm: head.HeadMatrix):
    """Raw logits W @ h of one (d,) embedding."""
    h = np.asarray(h)
    if h.shape != (hm.embed_dim,):
        raise ShapeError(f"embedding shape {h.shape} does not match head d={hm.embed_dim}")
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

    ``features`` is one (T, F) utterance.  ``loss_closure`` maps its (d,)
    embedding to ``(loss, grad_wrt_embedding)``; the analytic side seeds
    ``embedder.backward`` with that gradient while the numeric side only
    ever evaluates the scalar loss.  Returns the max relative error over at
    least ``n_coords`` sampled coordinates.
    """
    if not (0 < epsilon <= 1e-2):
        raise ValidationError(f"epsilon must be in (0, 1e-2], got {epsilon!r}")
    x = np.asarray(features)[None]

    def scalar_loss(p):
        emb, _ = embedder.forward_batch(p, x)
        loss = loss_closure(emb[0])[0]
        if not np.isfinite(loss):
            raise NumericError("loss_closure returned a non-finite loss")
        return float(loss)

    work = params.copy(np.float64)
    work.zero_grads()
    emb, cache = embedder.forward_batch(work, x)
    _, grad_h = loss_closure(emb[0])
    embedder.backward(work, cache, np.asarray(grad_h, dtype=np.float64)[None])

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
