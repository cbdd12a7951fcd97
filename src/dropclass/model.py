"""Model container and self-describing binary checkpoints.

Checkpoint format ("DCKM"): 4 magic bytes, little-endian u32 schema
version, u32 dims (F, H, d, M), u32 active-row count followed by that many
u32 row ids, u32 merged-row flag, f32 final learning rate, then parameter
tensors as little-endian float32 in declaration order (w1, b1, w2, b2, wp,
bp), the head's M class rows W (M x d), and row M, the merged class, if
flagged.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .embedder import EmbedderParams
from .errors import FormatError, MaskError, NumericError
from .files import ByteReader, atomic_open
from .head import HeadMatrix, check_subset

MAGIC = b"DCKM"
SCHEMA_VERSION = 1
# the stored tensors in file order; the merged row only if flagged
TENSOR_NAMES = ("w1", "b1", "w2", "b2", "wp", "bp", "head matrix", "merged row")


@dataclass
class Model:
    params: EmbedderParams
    head: HeadMatrix
    active: np.ndarray           # ascending head-row ids currently trained
    merged: bool = False         # head row M is a combine-mode merged class
    final_lr: float = 0.0

    @property
    def n_classes(self):
        return self.head.n_classes

    @property
    def merged_row(self):
        """Head row M if the model has a merged class, else None."""
        return self.head.rows[-1] if self.merged else None

    def output_rows(self):
        """The head rows a run trains, in label order: the active ids, then
        M if merged."""
        return np.append(self.active, self.n_classes) if self.merged else self.active

    def active_weights(self):
        """The rows of ``head.rows`` named by ``output_rows()``."""
        return self.head.rows[self.output_rows()]

    def copy(self):
        return Model(params=self.params.copy(), head=HeadMatrix(self.head.w, self.head.rows[-1]),
                     active=self.active.copy(), merged=self.merged, final_lr=self.final_lr)


def new_model(feat_dim, n_classes, hidden_dim=64, embed_dim=32, seed=0):
    from . import embedder, head as head_mod
    params = embedder.init_params(feat_dim, hidden_dim, embed_dim, seed=seed)
    head = head_mod.init_head(n_classes, embed_dim, seed=seed)
    return Model(params, head, active=np.arange(n_classes, dtype=np.int64))


def save_checkpoint(model: Model, path):
    """Atomically write the model to a DCKM checkpoint.

    Raises NumericError, before the file is opened, if a tensor holds a
    value that is not finite as float32, which ``load_checkpoint`` would
    reject."""
    p = model.params
    active = np.asarray(model.active, dtype=np.int64)
    tensors = p.tensors() + [model.head.w] + ([model.merged_row] if model.merged else [])
    with np.errstate(over="ignore"):
        final_lr = np.float32(model.final_lr)
        tensors = [np.ascontiguousarray(t, dtype="<f4") for t in tensors]
    for name, t in zip(("final lr",) + TENSOR_NAMES, [final_lr] + tensors):
        if not np.all(np.isfinite(t)):
            raise NumericError(f"non-finite value in {name}; no checkpoint written")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", SCHEMA_VERSION))
        fh.write(struct.pack("<IIII", p.feat_dim, p.hidden_dim, p.embed_dim, model.n_classes))
        fh.write(struct.pack("<I", active.size))
        fh.write(active.astype("<u4").tobytes())
        fh.write(struct.pack("<I", int(model.merged)))
        fh.write(final_lr.astype("<f4").tobytes())
        for t in tensors:
            fh.write(t.tobytes())


def load_checkpoint(path) -> Model:
    with ByteReader(path, "checkpoint") as r:
        if r.take(4, "magic") != MAGIC:
            raise FormatError("wrong magic bytes, expected DCKM", offset=0)
        (version,) = r.unpack("<I", "schema version")
        if version != SCHEMA_VERSION:
            raise FormatError(f"unsupported checkpoint schema version {version}", offset=4)
        f, h, d, m = r.unpack("<IIII", "dims")
        if 0 in (f, h, d, m):
            raise FormatError(f"zero dimension in (F, H, d, M) = {(f, h, d, m)}", offset=8)
        if m < 2:
            raise FormatError(f"head matrix needs at least 2 rows, got M = {m}", offset=20)
        (n_active,) = r.unpack("<I", "active count")
        active = np.frombuffer(r.take(4 * n_active, "active ids"), dtype="<u4").astype(np.int64)
        try:
            check_subset(active, m)
        except MaskError as exc:
            raise FormatError(f"invalid active ids: {exc}", offset=r.off - 4 * n_active) from None
        (merged,) = r.unpack("<I", "merged flag")
        if merged > 1:
            raise FormatError(f"merged flag must be 0 or 1, got {merged}", offset=r.off - 4)
        (final_lr,) = r.unpack("<f", "final lr")
        if not math.isfinite(final_lr):
            raise FormatError(f"non-finite final lr {final_lr}", offset=r.off - 4)
        shapes = [(h, f), (h,), (h, h), (h,), (d, 2 * h), (d,), (m, d), (d,)][:7 + merged]
        tensors = [(name, r.off, r.floats(shape, name))
                   for name, shape in zip(TENSOR_NAMES, shapes)]
        r.expect_end("checkpoint payload")
    for name, at, x in tensors:
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise FormatError(f"non-finite value in {name}", offset=at + 4 * int(bad[0]))
    w = [x for _, _, x in tensors]
    return Model(EmbedderParams(*w[:6]), HeadMatrix(*w[6:]), active=active, merged=bool(merged),
                 final_lr=float(final_lr))
