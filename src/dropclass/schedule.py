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

from . import embedder, head as head_mod
from .corpus import LabeledCorpus
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


@dataclass
class DataView:
    """Utterances paired with head-local labels.

    The label -> indices index is built once, when the view is made, since
    batch composition reads it on every iteration; the view is not meant
    to be changed after that.
    """
    utterances: list
    labels: np.ndarray
    n_outputs: int  # number of distinct output rows (|R|, or |R|+1 with a merged class)
    _groups: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out = {}
        for i, lab in enumerate(self.labels.tolist()):
            out.setdefault(lab, []).append(i)
        self._groups = dict(sorted(out.items()))

    def __len__(self):
        return len(self.utterances)

    def groups(self):
        """{label: [indices]} in ascending label order; shared, do not mutate."""
        return self._groups


def embed_all(params, utterances):
    """(N, d) embeddings for a list of utterances, batching equal-length groups."""
    embs = np.empty((len(utterances), params.embed_dim), dtype=params.dtype)
    for idx, h, _ in embedder.forward_by_length(params, [u.features for u in utterances]):
        embs[idx] = h
    return embs


def class_probabilities(embs, weight_matrix):
    """(N, rows) float64 softmax of the raw logits embs @ W.T."""
    z = np.asarray(embs, dtype=np.float64) @ np.asarray(weight_matrix, dtype=np.float64).T
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def average_probability(params, weight_matrix, data):
    """Mean softmax of raw logits h @ W.T over the utterances (float64).

    ``data`` is a list of utterances, or their (N, d) embeddings from
    :func:`embed_all` under the same ``params``, so that a caller that
    needs several averages over one set embeds it once.
    """
    if len(data) == 0:
        raise EmptyDataError("average probability needs at least one utterance")
    embs = data if isinstance(data, np.ndarray) else embed_all(params, data)
    return class_probabilities(embs, weight_matrix).mean(axis=0)


def p_average(model: Model, data):
    """Average class probability over a corpus, using the FULL head matrix."""
    utts = data.utterances if isinstance(data, LabeledCorpus) else list(data)
    return average_probability(model.params, model.head.w, utts)


def rank_and_drop(p, active, n_drop):
    """Remove the n_drop active classes with the smallest probability.

    Ties break toward dropping the lower class id first.  ``p`` is indexed
    by class id and must cover every active id.
    """
    active = np.asarray(active, dtype=np.int64)
    if not (0 < n_drop < active.size):
        raise ValidationError(f"drop count must satisfy 0 < D < |R|, got D={n_drop}, |R|={active.size}")
    p = np.asarray(p, dtype=np.float64)
    order = sorted(active.tolist(), key=lambda c: (p[c], c))
    dropped = set(order[:n_drop])
    kept = np.array([c for c in active if c not in dropped], dtype=np.int64)
    return kept, np.array(sorted(dropped), dtype=np.int64)


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
        """Training data view consistent with the current subset and mode."""
        local = {int(c): i for i, c in enumerate(self.active)}
        merged_label = self.active.size
        allowed = set(int(c) for c in self.data_classes)
        utts, labels = [], []
        for u in corpus.utterances:
            if u.class_id in local and u.class_id in allowed:
                utts.append(u)
                labels.append(local[u.class_id])
            elif u.class_id in self.merged_members:
                utts.append(u)
                labels.append(merged_label)
        if not utts:
            raise EmptyDataError("no training data left under the current subset")
        n_out = merged_label + (1 if self.has_merged else 0)
        return DataView(utts, np.asarray(labels, dtype=np.int64), n_outputs=n_out)

    def refresh(self, model: Model, enrol=None) -> RefreshEvent:
        """Advance the schedule one refresh; mutates this state and the model.

        ``dropclass`` resamples from all classes; the permanent modes shrink
        the current set.  Probability-driven modes rank classes by the
        average probability the CURRENT ACTIVE head assigns on enrolment
        data: ``enrol`` is the utterance list or its :func:`embed_all`
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
            drop = self.gen.choice(self.active, size=self.n_drop, replace=False)
            dropped = np.array(sorted(int(c) for c in drop), dtype=np.int64)
            self.active = np.array([c for c in self.active if c not in set(dropped.tolist())],
                                   dtype=np.int64)
            self.data_classes = self.active.copy()
            model.active = self.active.copy()
            return RefreshEvent(self.mode, self.active.size, tuple(dropped.tolist()))

        if self.mode in PROBABILITY_MODES:
            if enrol is None or len(enrol) == 0:
                raise EmptyDataError(f"mode {self.mode} needs enrolment data to rank classes")
            if self.mode == "drop_only_data":
                rank_pool = self.data_classes
            else:
                rank_pool = self.active
            p_active = average_probability(model.params, model.active_weights(), enrol)
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
