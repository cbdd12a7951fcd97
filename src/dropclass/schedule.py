"""Class-dropping schedules.

Implements the subset bookkeeping shared by all dropping regimes:

* ``dropclass``: every refresh, resample a fresh random proper subset of
  size M - D from ALL classes (no permanence).
* ``dropadapt`` / ``dropadapt_combine``: every refresh, estimate the average
  class probability on enrolment data and permanently drop the D active
  classes with the lowest probability.  The combine variant relabels the
  dropped classes' data into a single merged class with its own output row.
* ``drop_random``: permanently drop D random classes from the current set.
* ``drop_only_data``: shrink the training data by the probability ranking
  but keep the full head matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from . import blas
from .corpus import LabeledCorpus, Segments, group_rows
from .errors import EmptyDataError, NumericError, ValidationError
from .model import Model

MODES = ("none", "dropclass", "dropadapt", "dropadapt_combine", "drop_random", "drop_only_data")
PROBABILITY_MODES = ("dropadapt", "dropadapt_combine", "drop_only_data")


def sample_subset(n_classes, n_drop, gen):
    """Uniform random subset of size n_classes - n_drop, sorted ascending."""
    if not (1 <= n_drop < n_classes):
        raise ValidationError(f"drop count must satisfy 1 <= D < M, got D={n_drop}, M={n_classes}")
    keep = gen.choice(n_classes, size=n_classes - n_drop, replace=False)
    return np.sort(keep).astype(np.int64)


@dataclass(eq=False)
class DataView:
    """Training utterances, segments of a corpus's buffer, with head-local labels.

    The label index is built once, when the view is made, since batch
    composition reads it on every iteration: label ``present[k]`` holds
    rows ``order[offsets[k]:offsets[k] + sizes[k]]`` (see ``group_rows``).
    The view is not meant to be changed after that.
    """
    features: Segments
    labels: np.ndarray
    order: np.ndarray = field(init=False, repr=False)
    present: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.order, self.present, self.offsets, self.sizes = group_rows(self.labels)

    def __len__(self):
        return len(self.features)


def class_probabilities(embs, weight_matrix):
    """(N, rows) float64 softmax of the raw logits embs @ W.T, computed in
    the one (N, rows) array that it returns, at one BLAS thread."""
    with blas.one_thread():
        z = np.asarray(embs, dtype=np.float64) @ np.asarray(weight_matrix, dtype=np.float64).T
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def average_probability(embs, weight_matrix):
    """Mean softmax of raw logits h @ W.T over (N, d) embeddings (float64);
    a caller that needs several averages over one set embeds it once.

    Raises NumericError if the average is not finite, so that no refresh
    ranks classes by it.
    """
    if len(embs) == 0:
        raise EmptyDataError("average probability needs at least one utterance")
    p = class_probabilities(embs, weight_matrix).mean(axis=0)
    if not np.all(np.isfinite(p)):
        raise NumericError("average class probability holds a non-finite value")
    return p


def rank_and_drop(p, active, n_drop):
    """Remove the n_drop active classes with the smallest probability.

    Ties break toward dropping the lower class id first.  ``p`` is indexed
    by class id and must cover every active id.
    """
    active = np.asarray(active, dtype=np.int64)
    if not (0 < n_drop < active.size):
        raise ValidationError(f"drop count must satisfy 0 < D < |R|, got D={n_drop}, |R|={active.size}")
    p = np.asarray(p, dtype=np.float64)
    dropped = np.sort(active[np.lexsort((active, p[active]))[:n_drop]])
    return active[~np.isin(active, dropped)], dropped


def check_refreshes(mode, n_classes, n_active, n_drop, period, total_iterations):
    """Raise ValidationError unless every refresh of a run can drop D classes.

    A run of T iterations refreshes at iterations 1, 1 + P, 1 + 2P, ...:
    n = (T - 1) // P + 1 times.  ``dropclass`` keeps M - D of all M head
    rows at each, so it needs D < M; a permanent mode removes D of the |R|
    classes it ranks at each, so it needs |R| > D * n.  The error names
    the largest D and the smallest P that fit, where they exist: D at most
    (|R| - 1) // n, and P at least (T - 1) // k + 1 for the k = (|R| - 1) // D
    refreshes of D classes that |R| allows.
    """
    if mode == "dropclass" and n_drop >= n_classes:
        raise ValidationError(f"dropclass needs D < M, got D={n_drop}, M={n_classes}")
    if mode not in ("none", "dropclass"):
        n = (total_iterations - 1) // period + 1
        if n_active <= n_drop * n:
            d_max, k = (n_active - 1) // n, (n_active - 1) // n_drop
            fits = [f"a drop count of at most {d_max}"] if d_max else []
            if k:
                fits.append(f"a period of at least {(total_iterations - 1) // k + 1}")
            hint = f"; use {' or '.join(fits)}" if fits else ""
            raise ValidationError(
                f"{n} refreshes (T={total_iterations}, P={period}) of D={n_drop} classes each "
                f"need |R| > {n_drop * n}, got |R|={n_active}{hint}")


@dataclass
class DropState:
    """What a schedule keeps beyond the model: the model owns its active
    head rows and merged class, and a refresh rewrites them."""
    mode: str
    n_drop: int = 0
    gen: object = None
    data_classes: np.ndarray = None    # drop_only_data's training classes; None: the active rows
    merged_members: set = field(default_factory=set)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown drop mode {self.mode!r}, expected one of {MODES}")

    def build_view(self, model: Model, corpus: LabeledCorpus) -> DataView:
        """Training data view consistent with the model's subset and the mode:
        an active class that is also a data class keeps its position in
        ``model.active`` as label, else a merged member takes the merged
        label ``|R|``, else the utterance is left out; corpus order is kept."""
        active = model.active
        data = active if self.data_classes is None else self.data_classes
        class_ids = corpus.class_ids
        label_of = np.full(max(model.n_classes, int(class_ids.max(initial=-1)) + 1), -1, np.int64)
        label_of[sorted(self.merged_members)] = active.size
        in_data = np.isin(active, data)
        label_of[active[in_data]] = np.flatnonzero(in_data)
        labels = label_of[class_ids]
        rows = np.flatnonzero(labels >= 0)
        if not rows.size:
            raise EmptyDataError("no training data left under the current subset")
        return DataView(corpus.features.select(rows), labels[rows])

    def refresh(self, model: Model, enrol_embs=None) -> tuple:
        """Advance the schedule one refresh; mutates this state and the model.
        Returns the dropped class ids, ascending (``()`` for ``none``).

        ``dropclass`` resamples ``model.active`` from all classes; the
        permanent modes remove the dropped classes from it.
        Probability-driven modes rank classes by the average probability the
        CURRENT ACTIVE head assigns on enrolment data: ``enrol_embs`` are its
        :func:`embedder.embed_by_length` embeddings under ``model.params``.
        The caller rebuilds its view.
        """
        active = model.active
        if self.mode == "none":
            return ()

        if self.mode == "dropclass":
            model.active = sample_subset(model.n_classes, self.n_drop, self.gen)
            return tuple(np.setdiff1d(active, model.active).tolist())

        if self.mode == "drop_random":
            if not (0 < self.n_drop < active.size):
                raise ValidationError(
                    f"drop count must satisfy 0 < D < |R|, got D={self.n_drop}, |R|={active.size}")
            dropped = np.sort(self.gen.choice(active, size=self.n_drop, replace=False))
        else:
            if enrol_embs is None or len(enrol_embs) == 0:
                raise EmptyDataError(f"mode {self.mode} needs enrolment data to rank classes")
            p_full = np.zeros(model.n_classes)
            p_full[active] = average_probability(enrol_embs, model.active_weights())[: active.size]
            if self.mode == "drop_only_data":  # the head keeps all rows; the data shrinks
                pool = active if self.data_classes is None else self.data_classes
                self.data_classes, dropped = rank_and_drop(p_full, pool, self.n_drop)
                return tuple(dropped.tolist())
            dropped = rank_and_drop(p_full, active, self.n_drop)[1]
            if self.mode == "dropadapt_combine":
                rows = model.head.rows
                rows[-1] = rows[np.append(dropped, model.n_classes) if model.merged
                                else dropped].mean(axis=0, dtype=rows.dtype)
                model.merged = True
                self.merged_members |= set(dropped.tolist())
        model.active = np.setdiff1d(active, dropped)
        return tuple(dropped.tolist())
