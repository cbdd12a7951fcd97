"""Model container and self-describing binary checkpoints.

Checkpoint format ("DCKM"): 4 magic bytes, little-endian u32 schema
version, u32 dims (F, H, d, M), u32 active-row count followed by that many
u32 row ids, u32 merged-row flag, f32 final learning rate, then parameter
tensors as little-endian float32 in declaration order (w1, b1, w2, b2, wp,
bp), the full head matrix W (M x d), and the merged-class row if flagged.
"""

import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .embedder import EmbedderParams
from .errors import FormatError, MaskError
from .head import HeadMatrix, check_subset

MAGIC = b"DCKM"
SCHEMA_VERSION = 1


@dataclass
class Model:
    params: EmbedderParams
    head: HeadMatrix
    active: np.ndarray           # ascending head-row ids currently trained
    merged_row: Optional[np.ndarray] = None  # combine-mode output row
    final_lr: float = 0.0

    @property
    def n_classes(self):
        return self.head.n_classes

    def active_weights(self):
        """Active head matrix: selected rows of W plus the merged row, if any."""
        w = self.head.w[self.active]
        if self.merged_row is not None:
            w = np.vstack([w, self.merged_row[None]])
        return w

    def copy(self):
        return Model(
            params=self.params.copy(),
            head=HeadMatrix(self.head.w.copy()),
            active=self.active.copy(),
            merged_row=None if self.merged_row is None else self.merged_row.copy(),
            final_lr=self.final_lr,
        )


def new_model(feat_dim, n_classes, hidden_dim=64, embed_dim=32, seed=0):
    from . import embedder, head as head_mod
    params = embedder.init_params(feat_dim, hidden_dim, embed_dim, seed=seed)
    head = head_mod.init_head(n_classes, embed_dim, seed=seed)
    return Model(params, head, active=np.arange(n_classes, dtype=np.int64))


def save_checkpoint(model: Model, path):
    """Atomically write the model to a DCKM checkpoint."""
    p = model.params
    chunks = [MAGIC, struct.pack("<I", SCHEMA_VERSION)]
    chunks.append(struct.pack("<IIII", p.feat_dim, p.hidden_dim, p.embed_dim, model.n_classes))
    active = np.asarray(model.active, dtype=np.int64)
    chunks.append(struct.pack("<I", active.size))
    chunks.append(active.astype("<u4").tobytes())
    chunks.append(struct.pack("<I", 0 if model.merged_row is None else 1))
    chunks.append(struct.pack("<f", float(model.final_lr)))
    tensors = p.tensors() + [model.head.w]
    if model.merged_row is not None:
        tensors.append(model.merged_row)
    for t in tensors:
        chunks.append(np.ascontiguousarray(t, dtype="<f4").tobytes())
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(b"".join(chunks))
    os.replace(tmp, path)


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"truncated checkpoint while reading {what}", offset=off)
        chunk = data[off:off + n]
        off += n
        return chunk

    if take(4, "magic") != MAGIC:
        raise FormatError("wrong magic bytes, expected DCKM", offset=0)
    (version,) = struct.unpack("<I", take(4, "schema version"))
    if version != SCHEMA_VERSION:
        raise FormatError(f"unsupported checkpoint schema version {version}", offset=4)
    f, h, d, m = struct.unpack("<IIII", take(16, "dims"))
    if 0 in (f, h, d, m):
        raise FormatError(f"zero dimension in (F, H, d, M) = {(f, h, d, m)}", offset=8)
    if m < 2:
        raise FormatError(f"head matrix needs at least 2 rows, got M = {m}", offset=20)
    (n_active,) = struct.unpack("<I", take(4, "active count"))
    active = np.frombuffer(take(4 * n_active, "active ids"), dtype="<u4").astype(np.int64)
    try:
        check_subset(active, m)
    except MaskError as exc:
        raise FormatError(f"invalid active ids: {exc}", offset=off - 4 * n_active) from None
    (has_merged,) = struct.unpack("<I", take(4, "merged flag"))
    (final_lr,) = struct.unpack("<f", take(4, "final lr"))

    def tensor(shape, what):
        n = int(np.prod(shape))
        raw = take(4 * n, what)
        return np.frombuffer(raw, dtype="<f4").reshape(shape).copy()

    params = EmbedderParams(
        tensor((h, f), "w1"), tensor((h,), "b1"),
        tensor((h, h), "w2"), tensor((h,), "b2"),
        tensor((d, 2 * h), "wp"), tensor((d,), "bp"),
    )
    head = HeadMatrix(tensor((m, d), "head matrix"))
    merged = tensor((d,), "merged row") if has_merged else None
    if off != len(data):
        raise FormatError("trailing bytes after checkpoint payload", offset=off)
    return Model(params, head, active=active, merged_row=merged, final_lr=float(final_lr))
