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

from . import head as head_mod
from .corpus import LabeledCorpus, group_rows
from .errors import EmptyDataError, ValidationError
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
    """Training feature arrays paired with head-local labels.

    The label index is built once, when the view is made, since batch
    composition reads it on every iteration: label ``present[k]`` holds
    rows ``order[starts[k]:starts[k] + sizes[k]]`` (see ``group_rows``).
    The view is not meant to be changed after that.
    """
    features: list
    labels: np.ndarray
    n_outputs: int  # number of distinct output rows (|R|, or |R|+1 with a merged class)
    order: np.ndarray = field(init=False, repr=False)
    present: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.order, self.present, self.starts, self.sizes = group_rows(self.labels)

    def __len__(self):
        return len(self.features)


def class_probabilities(embs, weight_matrix):
    """(N, rows) float64 softmax of the raw logits embs @ W.T."""
    z = np.asarray(embs, dtype=np.float64) @ np.asarray(weight_matrix, dtype=np.float64).T
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def average_probability(embs, weight_matrix):
    """Mean softmax of raw logits h @ W.T over (N, d) embeddings (float64);
    a caller that needs several averages over one set embeds it once."""
    if len(embs) == 0:
        raise EmptyDataError("average probability needs at least one utterance")
    return class_probabilities(embs, weight_matrix).mean(axis=0)


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
    classes it ranks at each, so it needs |R| > D * n.
    """
    if mode == "dropclass" and n_drop >= n_classes:
        raise ValidationError(f"dropclass needs D < M, got D={n_drop}, M={n_classes}")
    if mode not in ("none", "dropclass"):
        n = (total_iterations - 1) // period + 1
        if n_active <= n_drop * n:
            raise ValidationError(
                f"{n} refreshes (T={total_iterations}, P={period}) of D={n_drop} classes each "
                f"need |R| > {n_drop * n}, got |R|={n_active}; lower the drop count or raise "
                f"the period")


@dataclass
class RefreshEvent:
    mode: str
    n_active: int
    dropped: tuple

    def record(self, iteration):
        csv = ",".join(str(c) for c in self.dropped)
        return f"{iteration}\t{self.mode}\t{self.n_active}\t{csv}"


@dataclass
class DropState:
    mode: str
    n_classes: int
    n_drop: int = 0
    gen: object = None
    active: np.ndarray = None          # head rows currently trained
    data_classes: np.ndarray = None    # classes allowed in the training data
    merged_members: set = field(default_factory=set)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown drop mode {self.mode!r}, expected one of {MODES}")
        if self.active is None:
            self.active = np.arange(self.n_classes, dtype=np.int64)
        else:
            self.active = head_mod.check_subset(self.active, self.n_classes)
        if self.data_classes is None:
            self.data_classes = self.active.copy()

    @property
    def has_merged(self):
        return bool(self.merged_members)

    def build_view(self, corpus: LabeledCorpus) -> DataView:
        """Training data view consistent with the current subset and mode:
        an active class that is also a data class keeps its position in
        ``active`` as label, else a merged member takes the merged label
        ``|R|``, else the utterance is left out; corpus order is kept."""
        class_ids = corpus.class_ids
        label_of = np.full(max(self.n_classes, int(class_ids.max(initial=-1)) + 1), -1, np.int64)
        label_of[sorted(self.merged_members)] = self.active.size
        in_data = np.isin(self.active, self.data_classes)
        label_of[self.active[in_data]] = np.flatnonzero(in_data)
        labels = label_of[class_ids]
        rows = np.flatnonzero(labels >= 0)
        if not rows.size:
            raise EmptyDataError("no training data left under the current subset")
        n_out = self.active.size + (1 if self.has_merged else 0)
        return DataView([corpus.features[i] for i in rows.tolist()], labels[rows], n_outputs=n_out)

    def refresh(self, model: Model, enrol_embs=None) -> RefreshEvent:
        """Advance the schedule one refresh; mutates this state and the model.

        ``dropclass`` resamples from all classes; the permanent modes shrink
        the current set.  Probability-driven modes rank classes by the
        average probability the CURRENT ACTIVE head assigns on enrolment
        data: ``enrol_embs`` are its :func:`embedder.embed_by_length`
        embeddings under ``model.params``.  The caller rebuilds its view.
        """
        if self.mode == "none":
            return RefreshEvent("none", self.active.size, ())

        if self.mode == "dropclass":
            previous = set(self.active.tolist())
            self.active = sample_subset(self.n_classes, self.n_drop, self.gen)
            self.data_classes = self.active.copy()
            model.active = self.active.copy()
            dropped = tuple(sorted(previous - set(self.active.tolist())))
            return RefreshEvent(self.mode, self.active.size, dropped)

        if self.mode == "drop_random":
            if not (0 < self.n_drop < self.active.size):
                raise ValidationError(
                    f"drop count must satisfy 0 < D < |R|, got D={self.n_drop}, |R|={self.active.size}")
            dropped = np.sort(self.gen.choice(self.active, size=self.n_drop, replace=False))
            self.active = np.setdiff1d(self.active, dropped)
            self.data_classes = self.active.copy()
            model.active = self.active.copy()
            return RefreshEvent(self.mode, self.active.size, tuple(dropped.tolist()))

        if self.mode in PROBABILITY_MODES:
            if enrol_embs is None or len(enrol_embs) == 0:
                raise EmptyDataError(f"mode {self.mode} needs enrolment data to rank classes")
            if self.mode == "drop_only_data":
                rank_pool = self.data_classes
            else:
                rank_pool = self.active
            p_active = average_probability(enrol_embs, model.active_weights())
            p_full = np.zeros(self.n_classes)
            p_full[self.active] = p_active[: self.active.size]
            kept, dropped = rank_and_drop(p_full, rank_pool, self.n_drop)

            if self.mode == "drop_only_data":
                self.data_classes = kept  # head keeps all rows
            elif self.mode == "dropadapt":
                self.active = kept
                self.data_classes = kept.copy()
                model.active = kept.copy()
            else:  # dropadapt_combine
                rows = [model.head.w[dropped]]
                if model.merged_row is not None:
                    rows.append(model.merged_row[None])
                model.merged_row = np.vstack(rows).mean(axis=0, dtype=model.head.w.dtype)
                self.merged_members |= set(int(c) for c in dropped)
                self.active = kept
                model.active = kept.copy()
                # merged data stays in; kept classes keep plain labels
                self.data_classes = kept.copy()
            return RefreshEvent(self.mode, self.active.size, tuple(int(c) for c in dropped))

        raise ValidationError(f"unhandled mode {self.mode!r}")
