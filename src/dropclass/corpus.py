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

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import EmptyDataError, FormatError, SplitError, TrialError, ValidationError
from .files import ByteReader, atomic_open, open_text

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
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")
        for name in ("speaker_spread", "frame_noise"):
            v = getattr(self, name)
            if not (v > 0):
                raise ValidationError(f"{name} must be > 0, got {v!r}")
        if not (0.0 <= self.skew_factor <= 1.0):
            raise ValidationError(f"skew_factor must be in [0, 1], got {self.skew_factor!r}")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class Utterance:
    utt_id: str
    class_id: int
    features: np.ndarray  # (T, F) float32


@dataclass
class LabeledCorpus:
    utterances: list
    n_classes: int
    split_tag: str = "train"

    def __len__(self):
        return len(self.utterances)

    @property
    def class_ids(self):
        """Sorted distinct class ids present in this split."""
        return sorted({u.class_id for u in self.utterances})

    def by_class(self):
        groups = {}
        for u in self.utterances:
            groups.setdefault(u.class_id, []).append(u)
        return groups

    def by_id(self):
        return {u.utt_id: u for u in self.utterances}


@dataclass(frozen=True)
class TrialList:
    trials: tuple  # of (utt_id_a, utt_id_b, is_target)


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

    utts = []
    idx = 0
    for c in range(m):
        for j in range(spec.utts_per_speaker):
            u_rng = rng.stream(spec.seed, rng.UTTERANCE, idx)
            offset = u_rng.normal(0.0, spec.speaker_spread / 4.0, size=f)
            noise = u_rng.normal(0.0, spec.frame_noise, size=(spec.frames_per_utt, f))
            feats = (means[c] + offset + noise).astype(np.float32)
            utts.append(Utterance(f"spk{c:04d}_utt{j:04d}", c, feats))
            idx += 1
    return LabeledCorpus(utts, n_classes=m, split_tag="train")


def split_corpus(corpus: LabeledCorpus, train_class_fraction: float, seed: int):
    """Partition classes into a train set and a held-out enrol/test pair.

    Held-out classes keep all their utterances, split 50/50 between enrol
    and test (enrol gets the rounded-down half).
    """
    if not (0.0 < train_class_fraction < 1.0):
        raise SplitError(f"train_class_fraction must be in (0,1), got {train_class_fraction!r}")
    m = corpus.n_classes
    n_train = int(round(train_class_fraction * m))
    if n_train < 2:
        raise SplitError(f"fraction {train_class_fraction} leaves {n_train} train classes (< 2)")
    if m - n_train < 2:
        raise SplitError(f"fraction {train_class_fraction} leaves {m - n_train} held-out classes (< 2)")

    perm = rng.stream(seed, rng.SPLIT).permutation(m)
    train_classes = set(int(c) for c in perm[:n_train])

    groups = corpus.by_class()
    train_utts, enrol_utts, test_utts = [], [], []
    for c in sorted(groups):
        if c in train_classes:
            train_utts.extend(groups[c])
        else:
            utts = groups[c]
            half = len(utts) // 2
            enrol_utts.extend(utts[:half])
            test_utts.extend(utts[half:])
    train = LabeledCorpus(train_utts, n_classes=m, split_tag="train")
    enrol = LabeledCorpus(enrol_utts, n_classes=m, split_tag="enrol")
    test = LabeledCorpus(test_utts, n_classes=m, split_tag="test")
    return train, enrol, test


def reindex_classes(corpus: LabeledCorpus):
    """Relabel to contiguous [0, n) class ids; returns (corpus, old->new map)."""
    mapping = {c: i for i, c in enumerate(corpus.class_ids)}
    utts = [replace(u, class_id=mapping[u.class_id]) for u in corpus.utterances]
    return LabeledCorpus(utts, n_classes=len(mapping), split_tag=corpus.split_tag), mapping


def make_trials(test: LabeledCorpus, n_target: int, n_nontarget: int, seed: int) -> TrialList:
    """Sample verification trials from a split, deterministically per seed."""
    if n_target < 1 or n_nontarget < 1:
        raise TrialError("need at least one target and one nontarget trial")
    groups = test.by_class()
    if len(groups) < 2:
        raise TrialError("trial construction needs at least 2 classes in the split")

    same_pairs = []
    for c in sorted(groups):
        utts = groups[c]
        for i in range(len(utts)):
            for j in range(i + 1, len(utts)):
                same_pairs.append((utts[i].utt_id, utts[j].utt_id))
    if not same_pairs:
        raise TrialError("no same-class pair exists in the split")

    g = rng.stream(seed, rng.TRIALS)

    def draw(n_pairs, n):
        return g.choice(n_pairs, size=n, replace=n > n_pairs)

    trials = [(*same_pairs[int(i)], True) for i in draw(len(same_pairs), n_target)]

    # Cross-class pairs are indexed as if listed class pair by class pair
    # (ci < cj), then a in ci, then b in cj; an index is decoded without
    # building that list, which grows with the square of the split.
    members = [groups[c] for c in sorted(groups)]
    sizes = np.array([len(m) for m in members], dtype=np.int64)
    pair_ci, pair_cj = np.triu_indices(len(members), k=1)
    block = sizes[pair_ci] * sizes[pair_cj]
    ends = np.cumsum(block)
    idx = draw(int(ends[-1]), n_nontarget)
    k = np.searchsorted(ends, idx, side="right")
    pos_a, pos_b = np.divmod(idx - (ends[k] - block[k]), sizes[pair_cj[k]])
    for ci, cj, i, j in zip(pair_ci[k].tolist(), pair_cj[k].tolist(), pos_a.tolist(), pos_b.tolist()):
        trials.append((members[ci][i].utt_id, members[cj][j].utt_id, False))
    return TrialList(tuple(trials))


# ---------------------------------------------------------------------------
# binary corpus IO

def write_corpus(corpus: LabeledCorpus, path):
    if not corpus.utterances:
        raise EmptyDataError("cannot write an empty corpus")
    feat_dim = corpus.utterances[0].features.shape[1]
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", corpus.n_classes, len(corpus.utterances), feat_dim))
        for u in corpus.utterances:
            ident = u.utt_id.encode("utf-8")
            fh.write(struct.pack("<I", len(ident)))
            fh.write(ident)
            fh.write(struct.pack("<II", u.class_id, u.features.shape[0]))
            fh.write(np.ascontiguousarray(u.features, dtype="<f4").tobytes())


def read_corpus(path, split_tag="train") -> LabeledCorpus:
    """Read a DCK1 corpus file.

    The binary format carries no split tag (that lives in the manifest), so
    the caller supplies it.
    """
    r = ByteReader(path, "payload")
    if r.take(4, "magic") != MAGIC:
        raise FormatError("wrong magic bytes, expected DCK1", offset=0)
    m, n_utts, f = r.unpack("<III", "header")
    utts, feature_offsets = [], []
    for _ in range(n_utts):
        (id_len,) = r.unpack("<I", "id length")
        try:
            ident = r.take(id_len, "utt id").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("utt id is not valid UTF-8", offset=r.off - id_len) from None
        class_id, t = r.unpack("<II", "class_id/T")
        if class_id >= m:
            raise FormatError(f"class_id {class_id} out of range for M={m}", offset=r.off - 8)
        if t < 1:
            raise FormatError("utterance with T=0 frames", offset=r.off - 4)
        feature_offsets.append(r.off)
        utts.append(Utterance(ident, class_id, r.floats((t, f), f"features of {ident}")))
    r.expect_end("last utterance")
    _reject_non_finite(utts, feature_offsets)
    return LabeledCorpus(utts, n_classes=m, split_tag=split_tag)


# Utterances whose features are joined for one NaN/infinity check.  A
# reduction per utterance cost twice as much, and features kept as views of
# shared arrays, instead of copies of their own, raised peak memory.
_CHECK_CHUNK = 64


def _reject_non_finite(utts, feature_offsets):
    """Raise FormatError at the byte offset of the first NaN or infinity."""
    for lo in range(0, len(utts), _CHECK_CHUNK):
        group = utts[lo:lo + _CHECK_CHUNK]
        frames = np.concatenate([u.features for u in group])
        # a NaN propagates through min and max, and an infinity is one of them
        if frames.size == 0 or (np.isfinite(frames.min()) and np.isfinite(frames.max())):
            continue
        for u, at in zip(group, feature_offsets[lo:lo + _CHECK_CHUNK]):
            bad = np.flatnonzero(~np.isfinite(u.features))
            if bad.size:
                raise FormatError(f"non-finite feature value in {u.utt_id}",
                                  offset=at + 4 * int(bad[0]))


# ---------------------------------------------------------------------------
# text manifests and trial lists

def write_manifest(splits, path):
    """Write `utt_id<TAB>class_id<TAB>split_tag` lines for the given splits."""
    with atomic_open(path) as fh:
        for corpus in splits:
            for u in corpus.utterances:
                fh.write(f"{u.utt_id}\t{u.class_id}\t{corpus.split_tag}\n")


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


def write_trials(trials: TrialList, path):
    with atomic_open(path) as fh:
        for a, b, is_target in trials.trials:
            fh.write(f"{a}\t{b}\t{1 if is_target else 0}\n")


def read_trials(path) -> TrialList:
    out = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise FormatError(f"trial line {lineno} malformed: {line!r}")
            out.append((parts[0], parts[1], parts[2] == "1"))
    return TrialList(tuple(out))
