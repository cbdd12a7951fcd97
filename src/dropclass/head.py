"""Bias-free classification head and the angular-penalty loss family.

The head is a single matrix W of shape (M, d): logits are h @ W.T with no
bias.  Training can restrict the head to an active class subset R by row
selection.  Five losses are supported: plain softmax cross-entropy on raw
logits, and the normalized-cosine family (CosFace, ArcFace, SphereFace,
AdaCos) which operate on cos(theta) between the unit embedding and unit
weight rows, modifying only the target-class logit.

All gradients are exact analytic derivatives through normalization,
arccos, and a max-shifted log-sum-exp.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import MaskError, NumericError, ShapeError, ValidationError

# arccos input is clamped to +-(1 - COS_CLAMP) to keep its derivative finite
COS_CLAMP = 1e-7

ADACOS_MIN_SCALE = 1.0
ADACOS_MAX_SCALE = 100.0


class HeadMatrix:
    """The M class rows ``w`` (M, d), kept as the first rows of one
    (M + 1, d) buffer ``rows``; row M, ``merged_row``, is the merged
    class's output row, which only a combine-mode model trains."""

    def __init__(self, w, merged_row=0):
        if w.ndim != 2 or w.shape[0] < 2:
            raise ValidationError(f"head matrix needs at least 2 rows, got shape {w.shape}")
        self.rows = np.empty((w.shape[0] + 1, w.shape[1]), dtype=w.dtype)
        self.rows[:-1], self.rows[-1] = w, merged_row
        self.w = self.rows[:-1]

    @property
    def n_classes(self):
        return self.w.shape[0]


def init_head(n_classes, embed_dim, seed=0, dtype=np.float32):
    bound = np.sqrt(6.0 / (n_classes + embed_dim))
    w = rng.stream(seed, rng.INIT, 10).uniform(-bound, bound, size=(n_classes, embed_dim))
    return HeadMatrix(w.astype(dtype))


_DEFAULTS = {
    # kind: (scale, margin)
    "softmax": (1.0, 0.0),
    "cosface": (30.0, 0.35),
    "sphereface": (30.0, 4),
    "arcface": (30.0, 0.2),
    "adacos": (1.0, 0.0),
}
KINDS = tuple(_DEFAULTS)


@dataclass
class LossSpec:
    kind: str
    scale: float = 30.0
    margin: float = 0.0
    # AdaCos dynamic-scale state; scale above is ignored for this kind.
    adacos_scale: float = None

    @classmethod
    def for_kind(cls, kind, scale=None, margin=None):
        if kind not in KINDS:
            raise ValidationError(f"must be one of {KINDS}, got {kind!r}", "kind")
        d_scale, d_margin = _DEFAULTS[kind]
        spec = cls(kind,
                   scale=d_scale if scale is None else scale,
                   margin=d_margin if margin is None else margin)
        spec.validate()
        return spec

    def validate(self):
        if self.kind not in KINDS:
            raise ValidationError(f"must be one of {KINDS}, got {self.kind!r}", "kind")
        if not (0 < self.scale < math.inf):
            raise ValidationError(f"must be a finite number > 0, got {self.scale!r}", "scale")
        if not math.isfinite(self.margin):
            raise ValidationError(f"must be a finite number, got {self.margin!r}", "margin")
        if self.kind in ("cosface", "arcface") and not (0.0 <= self.margin < 1.0):
            raise ValidationError(f"must be in [0, 1) for {self.kind}, got {self.margin!r}",
                                  "margin")
        if self.kind == "sphereface":
            if self.margin not in (1, 2, 3, 4):
                raise ValidationError(
                    f"must be an integer in 1..4 for sphereface, got {self.margin!r}", "margin")

    def reset_adacos(self, n_classes):
        """Set the dynamic scale to its class-count-dependent initial value."""
        self.adacos_scale = max(ADACOS_MIN_SCALE, math.sqrt(2.0) * math.log(max(n_classes - 1, 2)))

    def effective_scale(self, n_classes):
        if self.kind != "adacos":
            return self.scale
        if self.adacos_scale is None:
            self.reset_adacos(n_classes)
        return self.adacos_scale


def check_subset(active, n_classes):
    """Validate an active class-id subset: non-empty, strictly increasing, in range."""
    active = np.asarray(active, dtype=np.int64)
    if active.size == 0:
        raise MaskError("active class subset is empty")
    if np.any(active < 0) or np.any(active >= n_classes):
        raise MaskError(f"class id out of range [0, {n_classes})")
    if np.any(np.diff(active) <= 0):
        raise MaskError("active class ids must be strictly increasing")
    return active


def _stable_softmax_ce(z, labels):
    """Row-wise CE via max-shifted log-sum-exp: (losses, grad_z = softmax - one-hot)."""
    zmax = z.max(axis=1, keepdims=True)
    gz = np.exp(z - zmax)
    denom = gz.sum(axis=1, keepdims=True)
    gz /= denom
    b_idx = np.arange(z.shape[0])
    losses = np.log(denom[:, 0]) - (z[b_idx, labels] - zmax[:, 0])
    gz[b_idx, labels] -= 1.0
    return losses, gz


def _target_logit_and_slope(c, spec: LossSpec, s):
    """Modified target logit z_y(c) and dz_y/dc for the angular kinds."""
    if spec.kind == "cosface":
        return s * (c - spec.margin), np.full_like(np.asarray(c), s)
    if spec.kind == "adacos":
        return s * c, np.full_like(np.asarray(c), s)
    # the margin kinds go through theta = arccos(c)
    cc = np.clip(c, -1.0 + COS_CLAMP, 1.0 - COS_CLAMP)
    sin_t = np.sqrt(1.0 - cc * cc)
    if spec.kind == "arcface":
        m = spec.margin
        z = s * (cc * math.cos(m) - sin_t * math.sin(m))
        slope = s * (math.cos(m) + cc * math.sin(m) / sin_t)
        return z, slope
    if spec.kind == "sphereface":
        m = int(spec.margin)
        theta = np.arccos(cc)
        k = np.clip(np.floor(m * theta / math.pi), 0, m - 1)
        sign = np.where(k % 2 == 0, 1.0, -1.0)
        psi = sign * np.cos(m * theta) - 2.0 * k
        slope = s * sign * m * np.sin(m * theta) / sin_t
        return s * psi, slope
    raise ValidationError(f"not an angular kind: {spec.kind}")


def batch_loss_and_grads(h_batch, w_active, labels, spec: LossSpec):
    """Loss and exact gradients for a batch of embeddings.

    Returns (losses (B,), grad_h (B, d), grad_w (|R|, d)) where grad_w is the
    SUM of per-example contributions; callers divide by B for a batch mean.
    For the adacos kind the dynamic scale is updated from this batch's
    statistics after the loss is computed.
    """
    spec.validate()
    h_batch = np.atleast_2d(np.asarray(h_batch))
    w_active = np.asarray(w_active)
    labels = np.asarray(labels, dtype=np.int64)
    n_active, d = w_active.shape
    if h_batch.shape[1] != d:
        raise ShapeError(f"embedding dim {h_batch.shape[1]} vs head dim {d}")
    if np.any(labels < 0) or np.any(labels >= n_active):
        raise ValidationError(f"label out of range [0, {n_active})")
    b_idx = np.arange(h_batch.shape[0])

    if spec.kind == "softmax":
        z = h_batch @ w_active.T
        losses, gz = _stable_softmax_ce(z, labels)
        grad_h = gz @ w_active
        grad_w = gz.T @ h_batch
        _require_finite(losses, grad_h, grad_w)
        return losses, grad_h, grad_w

    h_norm = np.linalg.norm(h_batch, axis=1)
    w_norm = np.linalg.norm(w_active, axis=1)
    if np.any(h_norm == 0) or np.any(w_norm == 0):
        raise NumericError("zero-norm embedding or head row cannot be angle-normalized")
    hn = h_batch / h_norm[:, None]
    wn = w_active / w_norm[None, :].T
    cos = hn @ wn.T

    s = spec.effective_scale(n_active)
    z = s * cos
    c_y = cos[b_idx, labels]
    z_y, slope_y = _target_logit_and_slope(c_y, spec, s)
    z[b_idx, labels] = z_y

    losses, gz = _stable_softmax_ce(z, labels)

    dldc = gz * s
    dldc[b_idx, labels] = gz[b_idx, labels] * slope_y

    g_hn = dldc @ wn
    grad_h = (g_hn - np.sum(g_hn * hn, axis=1, keepdims=True) * hn) / h_norm[:, None]
    g_wn = dldc.T @ hn
    grad_w = (g_wn - np.sum(g_wn * wn, axis=1, keepdims=True) * wn) / w_norm[:, None]
    _require_finite(losses, grad_h, grad_w)

    if spec.kind == "adacos":
        _adacos_update(spec, cos, labels, s)
    return losses, grad_h, grad_w


def _adacos_update(spec, cos, labels, s):
    """Dynamic-scale update from batch statistics, clamped to [1, 100]."""
    # in float64: exp(s * cos) overflows float32 at s = 100 once cos > 0.887
    cos = np.asarray(cos, dtype=np.float64)
    b_idx = np.arange(cos.shape[0])
    exp_all = np.exp(s * cos)
    nontarget_mass = exp_all.sum(axis=1) - exp_all[b_idx, labels]
    b_avg = max(float(np.mean(nontarget_mass)), 1e-12)
    theta_med = float(np.median(np.arccos(np.clip(cos[b_idx, labels], -1.0, 1.0))))
    denom = math.cos(min(math.pi / 4.0, theta_med))
    spec.adacos_scale = float(np.clip(math.log(b_avg) / denom, ADACOS_MIN_SCALE, ADACOS_MAX_SCALE))


def _require_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericError("non-finite value in loss computation")
