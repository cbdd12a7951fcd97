"""Verification scoring and diagnostics.

Cosine trial scoring, equal error rate via a threshold sweep with linear
interpolation at the FAR/FRR crossing, KL divergence to the uniform
distribution (in nats), and a two-level bootstrap of ranked average class
probabilities (classes resampled with replacement, then utterances within
each class).
"""

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import blas, embedder, rng
from .corpus import LabeledCorpus, TrialList, group_rows
from .errors import EmptyDataError, FormatError, NumericError, ValidationError
from .files import atomic_open, open_text
from .model import Model


# Trials whose embedding rows are gathered, or whose score lines are
# formatted, at once; doing so for a whole trial list raises peak memory
# with its length, for no speed.
_SCORE_CHUNK = 4096


def _norms(embs):
    """Row norms as stacked (1, d) @ (d, 1) products, the BLAS dot that
    ``np.linalg.norm`` takes for one vector."""
    return np.sqrt((embs[:, None, :] @ embs[:, :, None]).ravel())


def score_pairs(embs, ia, ib):
    """Cosine scores of embedding rows ``ia[k]`` and ``ib[k]``, as float64.

    Each score equals the pair's ``cosine_score`` in ``tests/oracles.py``
    bit for bit: the norms and dots are stacked (1, d) @ (d, 1) products,
    which take the same BLAS dot as the 1-D forms there.  A zero row in a
    pair raises NumericError.
    """
    embs = np.asarray(embs, dtype=np.float64)
    norms = _norms(embs)
    zero = norms == 0
    if zero[ia].any() or zero[ib].any():
        raise NumericError("cannot cosine-score a zero embedding")
    scores = np.empty(len(ia))
    for lo in range(0, len(ia), _SCORE_CHUNK):
        ja, jb = ia[lo:lo + _SCORE_CHUNK], ib[lo:lo + _SCORE_CHUNK]
        dots = (embs[ja][:, None, :] @ embs[jb][:, :, None]).ravel()
        scores[lo:lo + _SCORE_CHUNK] = dots / (norms[ja] * norms[jb])
    return scores


def score_trials(model: Model, corpus: LabeledCorpus, trials: TrialList):
    """Cosine scores of the trials, float64, in trial order.

    The utterances the trials name are embedded once, in ``trials.ids``
    order, and scored by :func:`score_pairs`.  An embedding depends only
    on its utterance, so the scores do not depend on what else ``corpus``
    holds.  When an utterance id repeats, its last occurrence is the one
    scored.  Raises ValidationError naming the trial ids that ``corpus``
    lacks, then EmptyDataError for an empty corpus, and NumericError for a
    zero embedding.
    """
    row_of = {ident: i for i, ident in enumerate(corpus.ids)}
    missing = [i for i in trials.ids if i not in row_of]
    if missing:
        raise ValidationError(f"trials reference utterances missing from the corpus: {missing[:3]}...")
    if not row_of:
        raise EmptyDataError("no utterances to embed")
    embs = embedder.embed_by_length(model.params,
                                    corpus.features.select([row_of[i] for i in trials.ids]))
    return score_pairs(embs, trials.a, trials.b)


class EerResult(NamedTuple):
    eer: float
    threshold: float
    degenerate: bool


def eer(target_scores, nontarget_scores) -> EerResult:
    """Equal error rate from a sweep over all distinct score thresholds.

    At threshold t, FAR(t) is the fraction of nontargets >= t and FRR(t)
    the fraction of targets < t.  The returned rate is linearly
    interpolated between the two adjacent operating points where FAR - FRR
    changes sign.  If no crossing exists among the finite thresholds (for
    example, all scores equal), the sweep is extended with a virtual
    all-reject endpoint and the result is flagged degenerate.
    """
    tar = np.sort(np.asarray(target_scores, dtype=np.float64))
    non = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    if tar.size == 0 or non.size == 0:
        raise ValidationError("need at least one target and one nontarget score")
    if not (np.all(np.isfinite(tar)) and np.all(np.isfinite(non))):
        raise NumericError("scores must be finite")

    thresholds = np.unique(np.concatenate([tar, non]))
    far = 1.0 - np.searchsorted(non, thresholds, side="left") / non.size
    frr = np.searchsorted(tar, thresholds, side="left") / tar.size

    degenerate = False
    diff = far - frr
    if diff[-1] > 0:
        # no crossing within the data: append an all-reject endpoint
        thresholds = np.append(thresholds, thresholds[-1] + 1.0)
        far = np.append(far, 0.0)
        frr = np.append(frr, 1.0)
        diff = np.append(diff, -1.0)
        degenerate = True

    k = int(np.argmax(diff <= 0))
    if diff[k] == 0.0:
        return EerResult(float(far[k]), float(thresholds[k]), degenerate)
    # interpolate between operating points k-1 (diff > 0) and k (diff < 0)
    d0, d1 = diff[k - 1], diff[k]
    alpha = d0 / (d0 - d1)
    rate = far[k - 1] + alpha * (far[k] - far[k - 1])
    thr = thresholds[k - 1] + alpha * (thresholds[k] - thresholds[k - 1])
    return EerResult(float(rate), float(thr), degenerate)


def eer_from_scored(scored) -> EerResult:
    """EER from (a, b, score, is_target) records or (score, is_target) pairs."""
    records = list(scored)
    scores = np.fromiter((rec[-2] for rec in records), dtype=np.float64, count=len(records))
    target = np.fromiter((bool(rec[-1]) for rec in records), dtype=bool, count=len(records))
    return eer(scores[target], scores[~target])


def kl_to_uniform(p):
    """KL divergence from p to the uniform distribution over its support, in nats."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise NumericError("probability vector holds a non-finite value")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError("probability vector must be nonnegative and sum to 1")
    m = p.size
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] * m)))


@dataclass
class RankedProbabilityReport:
    median: np.ndarray   # per-rank 50% quantile, descending
    low: np.ndarray      # per-rank 2.5% quantile
    high: np.ndarray     # per-rank 97.5% quantile

    def to_csv(self, path):
        with atomic_open(path) as fh:
            fh.write("rank,p_median,p_low,p_high\n")
            for r in range(self.median.size):
                fh.write(f"{r},{self.median[r]:.12g},{self.low[r]:.12g},{self.high[r]:.12g}\n")


def bootstrap_ranked_probabilities(probs, class_ids, n_bootstrap=300, seed=0):
    """Bootstrap bands for the descending-sorted average class probability.

    ``probs`` is (N, M), one row per utterance, and ``class_ids`` holds the
    N utterances' classes.  Each replica resamples classes with replacement
    (keeping the class count), then utterances within each chosen class
    with replacement, and averages the chosen rows in one ``counts @ probs``
    at one BLAS thread, or in a BLAS-free ``einsum`` where that cannot be
    set, so the bands do not depend on the thread count.  Memory peaks at
    about three R·N 8-byte arrays.  A ``probs`` of no real-number dtype
    raises ValidationError, and a non-finite one NumericError.
    """
    if not isinstance(n_bootstrap, (int, np.integer)) or n_bootstrap < 1:
        raise ValidationError(f"must be an integer >= 1, got {n_bootstrap!r}", "n_bootstrap")
    probs = np.asarray(probs)
    if probs.ndim != 2:
        raise ValidationError(f"probs must be 2-D (utterances, classes), got shape {probs.shape}")
    if len(class_ids) != len(probs):
        raise ValidationError(f"class_ids has {len(class_ids)} entries for {len(probs)} rows of probs")
    if len(probs) == 0:
        raise EmptyDataError("bootstrap needs at least one utterance")
    if probs.dtype.kind not in "biuf":
        raise ValidationError(f"probs must hold real numbers, got dtype {probs.dtype}")
    if not np.isfinite(probs).all():
        raise NumericError("probs holds a non-finite value")
    # numpy raises ValueError, not MemoryError, for an array whose byte
    # count exceeds the largest index it can hold
    if n_bootstrap > np.iinfo(np.intp).max // (8 * len(probs)):
        raise MemoryError(f"a ({n_bootstrap}, {len(probs)}) count matrix is larger than "
                          "any array numpy can describe")
    counts = _draw_counts(class_ids, n_bootstrap, seed)
    with blas.one_thread() as pinned:
        # einsum without `optimize` runs numpy's own loops, not BLAS
        curves = counts @ probs if pinned else np.einsum("rn,nm->rm", counts, probs)
    curves /= counts.sum(axis=1, keepdims=True)
    curves.sort(axis=1)
    curves = curves[:, ::-1]

    low, median, high = np.quantile(curves, [0.025, 0.5, 0.975], axis=0)
    return RankedProbabilityReport(median, low, high)


def _draw_counts(class_ids, n_bootstrap, seed):
    """(R, N) float64 counts of how often replica r drew each utterance.

    Stream ``(seed, BOOTSTRAP, 0)`` picks every replica's G classes in one
    ``integers(0, G, size=(R, G))`` call.  Stream 1 picks their utterances,
    replica after replica, in one ``integers(0, bounds)`` call: k draws
    below k per chosen class of size k.  Both draw like one ``choice(k,
    size=k, replace=True)`` per pick, and each is read in order, so replica
    r draws the same whatever R is.
    """
    n = len(class_ids)
    counts = np.empty((n_bootstrap, n))
    # rows of each class in utterance order, classes in ascending id order
    order, _, starts, sizes = group_rows(class_ids)
    picked = rng.stream(seed, rng.BOOTSTRAP, 0).integers(0, sizes.size, size=(n_bootstrap, sizes.size))
    k = sizes[picked].ravel()
    draws = rng.stream(seed, rng.BOOTSTRAP, 1).integers(0, np.repeat(k, k))
    # each draw's position in the flattened matrix, its row in class order
    draws += np.repeat((starts[picked] + n * np.arange(n_bootstrap)[:, None]).ravel(), k)
    counts[:, order] = np.bincount(draws, minlength=counts.size).reshape(counts.shape)
    return counts


# ---------------------------------------------------------------------------
# file formats

def write_scores(trials: TrialList, scores, path):
    """Write ``a<TAB>b<TAB>score<TAB>0|1`` lines, one per trial, the score as
    ``%.9f``, _SCORE_CHUNK lines per write so that memory stays bounded."""
    with atomic_open(path, "wb") as fh:
        _write_score_lines(fh, trials.ids, trials.a, trials.b, scores, trials.target)


def _write_score_lines(fh, ids, a, b, scores, target):
    encoded = [i.encode("utf-8") for i in ids]
    # an id's UTF-8 bytes, NUL-padded to one width; padding is dropped from
    # each rendered chunk, so an id holding a NUL is formatted in Python
    table = None
    if not any(b"\0" in e for e in encoded):
        table = np.array(encoded, dtype=bytes)
        table = table.view(np.uint8).reshape(table.size, table.itemsize)
    for lo in range(0, len(a), _SCORE_CHUNK):
        part = slice(lo, lo + _SCORE_CHUNK)
        chunk = None if table is None else _render_lines(table, a[part], b[part],
                                                         scores[part], target[part])
        if chunk is None:
            chunk = "".join(f"{ids[i]}\t{ids[j]}\t{s:.9f}\t{1 if t else 0}\n"
                            for i, j, s, t in zip(a[part].tolist(), b[part].tolist(),
                                                  scores[part].tolist(),
                                                  target[part].tolist())).encode("utf-8")
        fh.write(chunk)


_TAB, _NL, _DOT, _MINUS, _ZERO = 9, 10, 46, 45, 48


def _render_lines(table, a, b, scores, target):
    """The score lines as bytes, or None when a score is not finite or its
    ``%.9f`` form has more than one integer digit."""
    text = _fixed9(scores)
    if text is None:
        return None
    w = table.shape[1]
    lines = np.zeros((len(a), 2 * w + 17), dtype=np.uint8)
    lines[:, :w] = table[a]
    lines[:, w] = _TAB
    lines[:, w + 1:2 * w + 1] = table[b]
    lines[:, 2 * w + 1] = _TAB
    lines[:, 2 * w + 2:2 * w + 14] = text
    lines[:, 2 * w + 14] = _TAB
    lines[:, 2 * w + 15] = _ZERO + target
    lines[:, 2 * w + 16] = _NL
    return lines.tobytes().replace(b"\0", b"")


def _fixed9(x):
    """``"%.9f" % v`` for each float64 ``v`` as a (n, 12) uint8 array, a NUL
    where a positive value has no sign; None unless every value is finite
    and formats with one integer digit.

    ``%.9f`` rounds the exact value v * 10**9 = M * 5**9 / 2**s half to
    even, with M the integer mantissa.  M * 5**9 needs up to 74 bits, so it
    is held as hi * 2**32 + lo.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if not np.all(np.abs(x) < 10):
        return None
    bits = x.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    mantissa = bits & ((1 << 52) - 1)
    normal = biased != 0
    mantissa[normal] |= np.uint64(1 << 52)
    # v = M * 2**e with e = biased - 1075, so s = 1066 - biased, and |v| < 10
    # gives s >= 40.  u = s - 32 is capped at 50, where the quotient is
    # already 0 and the remainder under half: so are all subnormals.
    u = np.minimum(1034 - biased.astype(np.int64), 50).astype(np.uint64)
    hi = (mantissa >> 32) * 5 ** 9
    lo = (mantissa & 0xFFFFFFFF) * 5 ** 9
    hi += lo >> 32
    lo &= 0xFFFFFFFF
    q = hi >> u
    rem = hi & ((np.uint64(1) << u) - 1)
    half = np.uint64(1) << (u - 1)
    q += (rem > half) | ((rem == half) & ((lo > 0) | (q & 1).astype(bool)))
    if np.any(q >= 10 ** 10):
        return None
    text = np.empty((x.size, 12), dtype=np.uint8)
    text[:, 0] = np.where(bits >> 63, _MINUS, 0)
    whole, frac = np.divmod(q, 10 ** 9)
    text[:, 1] = _ZERO + whole
    text[:, 2] = _DOT
    frac = frac.astype(np.uint32)
    for col in range(11, 2, -1):
        frac, digit = np.divmod(frac, np.uint32(10))
        text[:, col] = _ZERO + digit
    return text


def read_scores(path):
    out = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4 or parts[3] not in ("0", "1"):
                raise FormatError(f"score line {lineno} malformed: {line!r}")
            try:
                out.append((parts[0], parts[1], float(parts[2]), parts[3] == "1"))
            except ValueError:
                raise FormatError(f"score line {lineno} has non-numeric score {parts[2]!r}") from None
    return out


def write_eer_json(result: EerResult, n_target, n_nontarget, path):
    with atomic_open(path) as fh:
        json.dump({"eer": result.eer, "threshold": result.threshold,
                   "n_target": n_target, "n_nontarget": n_nontarget}, fh, indent=2)
        fh.write("\n")
