"""Synthetic multi-class frame-sequence corpora.

Each class (speaker) gets a Gaussian cluster in feature space; utterances
are frame sequences drawn around per-utterance offsets of the class mean.
A nonzero ``skew_factor`` shifts the first half of the class means along a
constant direction, manufacturing a latent two-group structure that makes
held-out class-probability estimates genuinely non-uniform.

Binary corpus format ("DCK1"): 4 magic bytes, little-endian u32 fields
M (class count), n_utts, F (feature dim); then per utterance: u32 id
length, UTF-8 id bytes, u32 class_id, u32 T, then T*F little-endian
float32 values, frames as rows.
"""

import collections
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import (EmptyDataError, FormatError, NumericError, ShapeError, SplitError,
                     TrialError, ValidationError)
from .files import ByteReader, atomic_open, id_table, line_blocks, open_text, write_lines

MAGIC = b"DCK1"

# Per-dimension shift applied to the first ceil(M/2) class means, scaled
# by skew_factor.
SKEW_SHIFT_PER_DIM = 2.0


@dataclass(frozen=True)
class CorpusSpec:
    n_speakers: int
    utts_per_speaker: int
    frames_per_utt: int = 50
    feat_dim: int = 20
    speaker_spread: float = 1.0
    frame_noise: float = 0.5
    skew_factor: float = 0.0
    seed: int = 0

    def validate(self):
        for name in ("n_speakers", "utts_per_speaker", "frames_per_utt", "feat_dim"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValidationError(f"must be a positive integer, got {v!r}", name)
        for name in ("speaker_spread", "frame_noise"):
            v = getattr(self, name)
            if not (0 < v < math.inf):
                raise ValidationError(f"must be a finite number > 0, got {v!r}", name)
        if not (0.0 <= self.skew_factor <= 1.0):
            raise ValidationError(f"must be in [0, 1], got {self.skew_factor!r}",
                                  "skew_factor")
        rng.check_seed(self.seed)


class Segments:
    """Utterance i is the (T, F) view ``segments[i]`` of one C-contiguous (frames,
    F) buffer ``frames``, float32 in every corpus: its rows ``starts[i]:starts[i]
    + lengths[i]``, back to back unless ``starts`` is given.  Subsets and crops
    are ``Segments`` over the same buffer, so they keep all of it alive."""

    def __init__(self, frames, lengths, starts=None):
        self.frames, self.lengths = frames, np.asarray(lengths, dtype=np.int64)
        self.starts = np.cumsum(self.lengths) - self.lengths if starts is None else starts

    @classmethod
    def pack(cls, arrays):
        """(T, F) arrays of one F, each with T >= 1, copied into one float32 buffer."""
        arrays = [np.asarray(a) for a in arrays]
        if len({a.shape[1:] for a in arrays}) > 1 or any(a.ndim != 2 for a in arrays):
            raise ShapeError(f"features must be (T, F) arrays of one F, got shapes "
                             f"{sorted({a.shape for a in arrays})}")
        if any(len(a) == 0 for a in arrays):
            raise EmptyDataError("utterances have no frames")
        return cls(np.concatenate(arrays or [np.empty((0, 0))], dtype=np.float32),
                   [len(a) for a in arrays])

    def __len__(self):
        return self.lengths.size

    def __getitem__(self, i):
        return self.frames[self.starts[i]:self.starts[i] + self.lengths[i]]

    def select(self, rows):
        """The segments at ``rows``, in that order, over the same buffer."""
        return Segments(self.frames, self.lengths[rows], self.starts[rows])

    def crops(self, length, gen):
        """A contiguous crop of ``length`` frames of each segment (all of a shorter
        one), its start drawn by one ``gen.integers`` with bounds max(T - length, 0) + 1."""
        offsets = gen.integers(0, np.maximum(self.lengths - length, 0) + 1)
        return Segments(self.frames, np.minimum(self.lengths, length), self.starts + offsets)


@dataclass(eq=False)
class LabeledCorpus:
    """Utterances as columns: row i is utterance ``ids[i]`` of class
    ``class_ids[i]``, whose frames are the view ``features[i]`` of a
    :class:`Segments`, which a list of (T, F) arrays is packed into."""
    ids: list
    class_ids: np.ndarray  # (N,) int64
    features: Segments
    n_classes: int
    split_tag: str = "train"

    def __post_init__(self):
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64)
        if not isinstance(self.features, Segments):
            self.features = Segments.pack(self.features)
        if not len(self.ids) == self.class_ids.size == len(self.features):
            raise ValidationError("corpus columns ids, class_ids and features differ in length")
        if self.class_ids.size and self.class_ids.min() < 0:
            raise ValidationError(f"class ids must be >= 0, got {int(self.class_ids.min())}")

    def __len__(self):
        return len(self.ids)

    def take(self, rows, split_tag=None):
        """The utterances at ``rows``, in that order, sharing this corpus's frames."""
        rows = np.asarray(rows, dtype=np.intp)
        return LabeledCorpus([self.ids[i] for i in rows.tolist()], self.class_ids[rows],
                             self.features.select(rows), self.n_classes,
                             self.split_tag if split_tag is None else split_tag)


def group_rows(labels):
    """``(order, distinct, starts, sizes)``: ``order`` lists the rows by label
    ascending, keeping row order within a label, and the rows of label
    ``distinct[k]`` are ``order[starts[k]:starts[k] + sizes[k]]``."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    distinct, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    return order, distinct, starts, sizes


@dataclass(frozen=True, eq=False)
class TrialList:
    """Verification trials as arrays: trial k pairs ``ids[a[k]]`` with ``ids[b[k]]``."""
    ids: list             # sorted distinct utterance ids the trials name
    a: np.ndarray         # (n,) intp rows into ids
    b: np.ndarray         # (n,) intp rows into ids
    target: np.ndarray    # (n,) bool

    def __len__(self):
        return self.target.size

    @property
    def trials(self):
        """The trials as ``(utt_id_a, utt_id_b, is_target)`` tuples, built on access."""
        return tuple(zip(map(self.ids.__getitem__, self.a.tolist()),
                         map(self.ids.__getitem__, self.b.tolist()), self.target.tolist()))


def generate_corpus(spec: CorpusSpec) -> LabeledCorpus:
    """Generate a deterministic synthetic corpus from the spec."""
    spec.validate()
    m = spec.n_speakers
    f = spec.feat_dim
    means_rng = rng.stream(spec.seed, rng.CLASS_MEANS)
    means = means_rng.normal(0.0, spec.speaker_spread, size=(m, f))
    if spec.skew_factor > 0:
        shifted = math.ceil(m / 2)
        means[:shifted] += spec.skew_factor * SKEW_SHIFT_PER_DIM

    n, t = spec.utts_per_speaker, spec.frames_per_utt
    ids = []
    frames = np.empty((m * n * t, f), dtype=np.float32)
    # a finite spread can still overflow float32: the cast raises, and the
    # corpus is refused rather than written with infinities that its reader rejects
    try:
        with np.errstate(over="raise"):
            for idx in range(m * n):
                c, j = divmod(idx, n)
                ids.append(f"spk{c:04d}_utt{j:04d}")
                u_rng = rng.stream(spec.seed, rng.UTTERANCE, idx)
                offset = u_rng.normal(0.0, spec.speaker_spread / 4.0, size=f)
                noise = u_rng.normal(0.0, spec.frame_noise, size=(t, f))
                frames[idx * t:(idx + 1) * t] = means[c] + offset + noise
    except FloatingPointError:
        raise NumericError(f"features of {ids[-1]} overflow float32") from None
    return LabeledCorpus(ids, np.repeat(np.arange(m), n), Segments(frames, np.full(m * n, t)),
                         n_classes=m)


def check_train_class_fraction(fraction):
    if not (0.0 < fraction < 1.0):
        raise SplitError(f"must be in (0, 1), got {fraction!r}", "train_class_fraction")


def check_trial_counts(n_target, n_nontarget):
    for name, n in (("n_target_trials", n_target), ("n_nontarget_trials", n_nontarget)):
        if n < 1:
            raise TrialError(f"must be >= 1, got {n!r}", name)


def split_corpus(corpus: LabeledCorpus, train_class_fraction: float, seed: int):
    """Partition classes into a train set and a held-out enrol/test pair.

    Held-out classes keep all their utterances, split 50/50 between enrol
    and test (enrol gets the rounded-down half).
    """
    check_train_class_fraction(train_class_fraction)
    m = corpus.n_classes
    n_train = int(round(train_class_fraction * m))
    if n_train < 2:
        raise SplitError(f"fraction {train_class_fraction} leaves {n_train} train classes (< 2)")
    if m - n_train < 2:
        raise SplitError(f"fraction {train_class_fraction} leaves {m - n_train} held-out classes (< 2)")

    perm = rng.stream(seed, rng.SPLIT).permutation(m)
    # rows class by class, classes ascending; k is each row's class position
    order, distinct, starts, sizes = group_rows(corpus.class_ids)
    k = np.repeat(np.arange(distinct.size), sizes)
    train = np.isin(distinct, perm[:n_train])[k]
    enrol = ~train & (np.arange(order.size) - starts[k] < sizes[k] // 2)
    return tuple(corpus.take(order[rows], tag) for rows, tag in
                 ((train, "train"), (enrol, "enrol"), (~train & ~enrol, "test")))


def reindex_classes(corpus: LabeledCorpus):
    """Relabel to contiguous [0, n) class ids; returns (corpus, old->new map)."""
    distinct, new_ids = np.unique(corpus.class_ids, return_inverse=True)
    relabelled = LabeledCorpus(list(corpus.ids), new_ids, corpus.features,
                               n_classes=distinct.size, split_tag=corpus.split_tag)
    return relabelled, {c: i for i, c in enumerate(distinct.tolist())}


def make_trials(test: LabeledCorpus, n_target: int, n_nontarget: int, seed: int) -> TrialList:
    """Sample verification trials from a split, deterministically per seed:
    the target trials, then the nontarget ones.  ``ids`` holds only the
    utterances that the trials name."""
    check_trial_counts(n_target, n_nontarget)
    # Trials first pick positions in the split's utterances listed class by
    # class, classes in ascending id order.
    order, distinct, starts, sizes = group_rows(test.class_ids)
    if distinct.size < 2:
        raise TrialError("trial construction needs at least 2 classes in the split")
    # same-class pairs: class by class, then i < j within the class
    same = [np.triu_indices(k, 1) for k in sizes.tolist()]
    same_a = np.concatenate([lo + i for lo, (i, _) in zip(starts, same)])
    same_b = np.concatenate([lo + j for lo, (_, j) in zip(starts, same)])
    if not same_a.size:
        raise TrialError("no same-class pair exists in the split")

    g = rng.stream(seed, rng.TRIALS)

    def draw(n_pairs, n):
        return g.choice(n_pairs, size=n, replace=n > n_pairs)

    k = draw(same_a.size, n_target)
    a, b = [same_a[k]], [same_b[k]]

    # Cross-class pairs are indexed as if listed class pair by class pair
    # (ci < cj), then a in ci, then b in cj; an index is decoded without
    # building that list, which grows with the square of the split.
    pair_ci, pair_cj = np.triu_indices(distinct.size, k=1)
    block = sizes[pair_ci] * sizes[pair_cj]
    ends = np.cumsum(block)
    idx = draw(int(ends[-1]), n_nontarget)
    k = np.searchsorted(ends, idx, side="right")
    pos_a, pos_b = np.divmod(idx - (ends[k] - block[k]), sizes[pair_cj[k]])
    a.append(starts[pair_ci[k]] + pos_a)
    b.append(starts[pair_cj[k]] + pos_b)
    a, b = np.concatenate(a), np.concatenate(b)

    # keep the ids the trials name, sorted, and renumber positions into them
    names = [test.ids[i] for i in order.tolist()]
    ids = sorted({names[p] for p in np.unique(np.concatenate([a, b])).tolist()})
    rank = {u: r for r, u in enumerate(ids)}
    row = np.fromiter((rank.get(u, -1) for u in names), np.intp, len(names))
    return TrialList(ids, row[a], row[b], np.arange(a.size) < n_target)


# ---------------------------------------------------------------------------
# binary corpus IO

def write_corpus(corpus: LabeledCorpus, path):
    if not len(corpus):
        raise EmptyDataError("cannot write an empty corpus")
    feat_dim = corpus.features[0].shape[1]
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", corpus.n_classes, len(corpus), feat_dim))
        for ident, class_id, x in zip(corpus.ids, corpus.class_ids.tolist(), corpus.features):
            ident = ident.encode("utf-8")
            fh.write(struct.pack("<I", len(ident)))
            fh.write(ident)
            fh.write(struct.pack("<II", class_id, x.shape[0]))
            fh.write(np.ascontiguousarray(x, dtype="<f4").tobytes())


def read_corpus(path, split_tag="train", keep=None) -> LabeledCorpus:
    """Read a DCK1 corpus file.

    The binary format carries no split tag (that lives in the manifest), so
    the caller supplies it.  With ``keep``, a set of utterance ids, only
    those utterances are returned; every header is still parsed and every
    utterance's features are still checked for NaN/infinity; only the kept
    frames fill the corpus's buffer.  A header error anywhere in the file is
    reported before a non-finite value.
    """
    ids, class_ids, lengths, kept = [], [], [], bytearray()
    # The features of up to _CHECK_CHUNK utterances are copied out of the
    # window into the first `fill` bytes of one reused buffer, `held`, and
    # checked at once; `group` lists their (utt id, offset, start in held).
    held, fill, group = memoryview(bytearray()), 0, []
    bad = None  # the FormatError of the first non-finite value
    with ByteReader(path, "payload") as r:
        if r.take(4, "magic") != MAGIC:
            raise FormatError("wrong magic bytes, expected DCK1", offset=0)
        m, n_utts, f = r.unpack("<III", "header")
        if f < 1:
            raise FormatError("feature dim F=0", offset=12)
        # The records are parsed in the window, at file offset `off`; the
        # reader is called only to refill when a field runs past its end.
        u32, class_t = struct.Struct("<I").unpack_from, struct.Struct("<II").unpack_from
        off = r.off
        buf, base, stop = r.window(off, 0, "header")
        for _ in range(n_utts):
            if off + 4 > stop:
                buf, base, stop = r.window(off, 4, "id length")
            (id_len,) = u32(buf, off - base)
            off += 4
            if off + id_len > stop:
                buf, base, stop = r.window(off, id_len, "utt id")
            try:
                ident = buf[off - base:off - base + id_len].tobytes().decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("utt id is not valid UTF-8", offset=off) from None
            off += id_len
            if off + 8 > stop:
                buf, base, stop = r.window(off, 8, "class_id/T")
            class_id, t = class_t(buf, off - base)
            if class_id >= m:
                raise FormatError(f"class_id {class_id} out of range for M={m}", offset=off)
            if t < 1:
                raise FormatError("utterance with T=0 frames", offset=off + 4)
            off += 8
            n = 4 * t * f
            if off + n > stop:
                buf, base, stop = r.window(off, n, f"features of {ident}")
            raw = buf[off - base:off - base + n]
            if keep is None or ident in keep:
                ids.append(ident)
                class_ids.append(class_id)
                lengths.append(t)
                kept += raw
            if bad is None:
                if fill + n > len(held):
                    grown = memoryview(bytearray(fill + max(n, len(held))))
                    grown[:fill] = held[:fill]
                    held = grown
                held[fill:fill + n] = raw
                group.append((ident, off, fill))
                fill += n
                if len(group) == _CHECK_CHUNK:
                    bad = _first_non_finite(held, fill, group)
                    fill, group = 0, []
            off += n
        r.off = off
        r.expect_end("last utterance")
    if bad is None:
        bad = _first_non_finite(held, fill, group)
    if bad is not None:
        raise bad
    segments = Segments(np.frombuffer(kept, dtype="<f4").reshape(-1, f), lengths)
    return LabeledCorpus(ids, class_ids, segments, n_classes=m, split_tag=split_tag)


# Utterances whose features are checked for NaN/infinity at once.  A
# reduction per utterance cost twice as much.
_CHECK_CHUNK = 64


def _first_non_finite(held, fill, group):
    """The FormatError at the byte offset of the first NaN or infinity in
    the first ``fill`` bytes of ``held``, the features of ``group`` (a list
    of (utt id, byte offset in the file, byte offset in ``held``) in file
    order), or None."""
    frames = np.frombuffer(held, dtype="<f4", count=fill // 4)
    # a NaN propagates through min and max, and an infinity is one of them
    if frames.size == 0 or (np.isfinite(frames.min()) and np.isfinite(frames.max())):
        return None
    at = 4 * int(np.flatnonzero(~np.isfinite(frames))[0])
    ident, off, start = [member for member in group if member[2] <= at][-1]
    return FormatError(f"non-finite feature value in {ident}", offset=off + at - start)


# ---------------------------------------------------------------------------
# text manifests and trial lists

def write_manifest(splits, path):
    """Write `utt_id<TAB>class_id<TAB>split_tag` lines for the given splits."""
    with atomic_open(path) as fh:
        for corpus in splits:
            for ident, class_id in zip(corpus.ids, corpus.class_ids.tolist()):
                fh.write(f"{ident}\t{class_id}\t{corpus.split_tag}\n")


def read_manifest(path):
    """Return {utt_id: (class_id, split_tag)} preserving file order."""
    entries = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"manifest line {lineno} has {len(parts)} fields, expected 3")
            try:
                class_id = int(parts[1])
            except ValueError:
                raise FormatError(f"manifest line {lineno} has non-integer class id {parts[1]!r}") from None
            entries[parts[0]] = (class_id, parts[2])
    return entries


# Bytes of a trials file parsed at once, so that memory does not grow with it.
_TRIAL_BLOCK = 1 << 16


def write_trials(trials: TrialList, path):
    """Write `a<TAB>b<TAB>0|1` lines through :func:`files.write_lines`."""
    table = id_table(trials.ids)
    write_lines(path, len(trials), lambda part: (
        table[trials.a[part]], table[trials.b[part]], trials.target[part, None] + ord("0")))


def read_trials(path) -> TrialList:
    """Read `a<TAB>b<TAB>0|1` lines (blank lines skipped) as a :class:`TrialList`.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``; the first malformed line
    raises FormatError.
    """
    # an id seen for the first time gets the next row number
    rows = collections.defaultdict()
    rows.default_factory = rows.__len__
    a, b, target = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0, bool)]
    lineno = 1
    for raw, text in line_blocks(path, _TRIAL_BLOCK):
        if not raw.endswith(b"\n"):  # the last line has no line end
            raw, text = raw + b"\n", text + "\n"
        fields, is_target, n_lines = _parse_trial_block(raw, text, lineno)
        a.append(np.fromiter(map(rows.__getitem__, fields[0::3]), np.intp, is_target.size))
        b.append(np.fromiter(map(rows.__getitem__, fields[1::3]), np.intp, is_target.size))
        target.append(is_target)
        lineno += n_lines
    # renumber the rows into sorted-id order
    first_seen = list(rows)
    order = sorted(range(len(first_seen)), key=first_seen.__getitem__)
    rank = np.empty(len(order), np.intp)
    rank[order] = np.arange(len(order))
    return TrialList([first_seen[i] for i in order], rank[np.concatenate(a)],
                     rank[np.concatenate(b)], np.concatenate(target))


def _parse_trial_block(raw, text, lineno):
    """(fields ``[a, b, label, a, b, label, ...]``, targets, line count) of
    a block that ends in a line end and starts at line ``lineno``; its
    first malformed line raises FormatError."""
    if b"\r" in raw:  # \r\n and \r end a line as \n does
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    buf = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(buf == 10)
    n_lines = ends.size
    ends = ends[np.diff(ends, prepend=-1) > 1]  # those of the filled lines
    tabs = np.flatnonzero(buf == 9)
    # Two tabs per filled line, the second just before a 0/1 label.  Tab
    # 2k+1 ends line k's second field; tab 2k then lies after line k-1's
    # label and newline, so it is line k's first.  A block that fails this
    # has a malformed line: find the first.
    if not (tabs.size == 2 * ends.size and np.all(tabs[1::2] == ends - 2)
            and np.all((buf[ends - 1] | 1) == 49)):
        for n, line in enumerate(text.split("\n"), lineno):
            if line and not (line.count("\t") == 2 and line[-2:] in ("\t0", "\t1")):
                raise FormatError(f"trial line {n} malformed: {line!r}")
    if ends.size < n_lines:
        text = "\n".join(filter(None, text.split("\n"))) + "\n"
    # the slice drops what follows the last line end
    fields = text.replace("\n", "\t").split("\t")[:3 * ends.size]
    return fields, buf[ends - 1] == 49, n_lines
