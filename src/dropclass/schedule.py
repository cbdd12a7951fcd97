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
from typing import Optional

import numpy as np

from . import embedder, head as head_mod
from .corpus import LabeledCorpus
from .errors import EmptyDataError, MaskError, ValidationError
from .model import Model

MODES = ("none", "dropclass", "dropadapt", "dropadapt_combine", "drop_random", "drop_only_data")
PROBABILITY_MODES = ("dropadapt", "dropadapt_combine", "drop_only_data")


def sample_subset(n_classes, n_drop, gen):
    """Uniform random subset of size n_classes - n_drop, sorted ascending."""
    if not (1 <= n_drop < n_classes):
        raise ValidationError(f"drop count must satisfy 1 <= D < M, got D={n_drop}, M={n_classes}")
    keep = gen.choice(n_classes, size=n_classes - n_drop, replace=False)
    return np.sort(keep).astype(np.int64)


class MaskedHead:
    """Row-masked view of a head matrix with gradient write-back.

    Reads expose the selected rows in ascending-id order; updates applied
    through :meth:`apply_update` land in the corresponding rows of the
    underlying full matrix, leaving excluded rows untouched.
    """

    def __init__(self, head: head_mod.HeadMatrix, active):
        self.head = head
        self.active = head_mod.check_subset(active, head.n_classes)

    @property
    def w(self):
        return self.head.w[self.active]

    def apply_update(self, delta):
        if delta.shape != (self.active.size, self.head.embed_dim):
            raise MaskError(f"update shape {delta.shape} does not match masked head")
        self.head.w[self.active] += delta


def mask_weights(head: head_mod.HeadMatrix, active) -> MaskedHead:
    return MaskedHead(head, active)


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


def filter_data(corpus: LabeledCorpus, active) -> DataView:
    """View of the utterances whose class is in the active set, with local labels."""
    active = head_mod.check_subset(active, corpus.n_classes)
    local = {int(c): i for i, c in enumerate(active)}
    utts, labels = [], []
    for u in corpus.utterances:
        if u.class_id in local:
            utts.append(u)
            labels.append(local[u.class_id])
    if not utts:
        raise EmptyDataError("active set shares no classes with the corpus")
    return DataView(utts, np.asarray(labels, dtype=np.int64), n_outputs=active.size)


def embed_all(params, utterances):
    """(N, d) embeddings for a list of utterances, batching equal-length groups."""
    embs = np.empty((len(utterances), params.embed_dim), dtype=params.dtype)
    by_len = {}
    for i, u in enumerate(utterances):
        by_len.setdefault(u.features.shape[0], []).append(i)
    for t in sorted(by_len):
        idx = by_len[t]
        feats = np.stack([utterances[i].features for i in idx])
        h, _ = embedder.forward_batch(params, feats)
        embs[idx] = h
    return embs


def average_probability(params, weight_matrix, data):
    """Mean softmax of raw logits h @ W.T over the utterances (float64).

    ``data`` is a list of utterances, or their (N, d) embeddings from
    :func:`embed_all` under the same ``params``, so that a caller that
    needs several averages over one set embeds it once.
    """
    if len(data) == 0:
        raise EmptyDataError("average probability needs at least one utterance")
    embs = data if isinstance(data, np.ndarray) else embed_all(params, data)
    embs = embs.astype(np.float64)
    z = embs @ np.asarray(weight_matrix, dtype=np.float64).T
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    return p.mean(axis=0)


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


def apply_combine(corpus: LabeledCorpus, dropped, w, active):
    """Relabel dropped-class data into one merged class and extend the head.

    Returns ``(view, w_plus)`` where the view keeps every utterance (kept
    classes keep their plain local labels, dropped classes share the new
    label |R|) and ``w_plus`` stacks the kept rows with one appended row
    initialized to the elementwise mean of the dropped rows.
    """
    dropped = np.asarray(sorted(int(c) for c in dropped), dtype=np.int64)
    if dropped.size == 0:
        raise ValidationError("combine needs a non-empty dropped set")
    active = head_mod.check_subset(active, w.shape[0])
    local = {int(c): i for i, c in enumerate(active)}
    merged_label = active.size
    utts, labels = [], []
    for u in corpus.utterances:
        if u.class_id in local:
            utts.append(u)
            labels.append(local[u.class_id])
        elif u.class_id in dropped:
            utts.append(u)
            labels.append(merged_label)
    view = DataView(utts, np.asarray(labels, dtype=np.int64), n_outputs=merged_label + 1)
    w_plus = np.vstack([w[active], w[dropped].mean(axis=0, dtype=w.dtype)[None]])
    return view, w_plus


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
