"""Training loop: batch composition, SGD with classical momentum, learning
rate halving, and schedule refreshes for from-scratch training and
fine-tuning.

Batches draw one utterance from each of B distinct classes and take a
contiguous random frame crop.  Head updates write only the active rows,
so rows outside the active subset are never touched; the head velocity is
kept full-size so re-included classes resume their momentum.
"""

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import embedder, head as head_mod, rng, schedule
from .errors import EmptyDataError, NumericError, ValidationError
from .files import atomic_open
from .model import Model, new_model, save_checkpoint

log = logging.getLogger(__name__)

# Relative positions of the default learning-rate halvings within the
# iteration budget (the 60/80/90/110k-of-120k shape, rescaled).
DEFAULT_HALVING_FRACTIONS = (0.5, 2.0 / 3.0, 0.75, 11.0 / 12.0)


def default_halving_steps(total_iterations):
    steps = sorted({int(round(f * total_iterations)) for f in DEFAULT_HALVING_FRACTIONS})
    return tuple(s for s in steps if 0 < s < total_iterations)


@dataclass
class TrainConfig:
    total_iterations: int
    batch_size: int = 32
    frames_per_example: int = 50
    lr: float = 0.2
    momentum: float = 0.5
    lr_halving_steps: tuple = ()
    loss: head_mod.LossSpec = field(default_factory=lambda: head_mod.LossSpec.for_kind("cosface"))
    drop_mode: str = "none"
    drop_period: int = 0
    drop_count: int = 0
    seed: int = 0
    hidden_dim: int = 64
    embed_dim: int = 32

    def validate(self):
        if self.total_iterations < 1:
            raise ValidationError("total_iterations must be >= 1")
        if self.batch_size < 2:
            raise ValidationError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.frames_per_example < 1:
            raise ValidationError("frames_per_example must be >= 1")
        for name in ("hidden_dim", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (self.lr > 0):
            raise ValidationError(f"lr must be > 0, got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")
        steps = tuple(self.lr_halving_steps)
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValidationError("lr_halving_steps must be strictly increasing")
        if steps and steps[-1] >= self.total_iterations:
            raise ValidationError("lr_halving_steps must be < total_iterations")
        if self.drop_mode not in schedule.MODES:
            raise ValidationError(f"unknown drop mode {self.drop_mode!r}")
        if self.drop_mode != "none":
            if self.drop_period < 1:
                raise ValidationError("drop period P must be >= 1")
            if self.drop_count < 1:
                raise ValidationError("drop count D must be >= 1")
        self.loss.validate()


@dataclass
class MetricsLog:
    iterations: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    active_counts: list = field(default_factory=list)
    kls: list = field(default_factory=list)       # None except at refreshes
    refresh_records: list = field(default_factory=list)
    refresh_kl_active: list = field(default_factory=list)
    refresh_kl_full: list = field(default_factory=list)

    def append(self, iteration, loss, lr, n_active, kl=None):
        if self.iterations and iteration <= self.iterations[-1]:
            raise ValidationError("metrics iterations must be strictly increasing")
        self.iterations.append(iteration)
        self.losses.append(loss)
        self.lrs.append(lr)
        self.active_counts.append(n_active)
        self.kls.append(kl)

    def to_csv(self, path):
        # the eer column stays, empty, so that the file keeps its shape
        with atomic_open(path) as fh:
            fh.write("iter,loss,lr,active_classes,kl_to_uniform,eer\n")
            for i in range(len(self.iterations)):
                kl = "" if self.kls[i] is None else f"{self.kls[i]:.9g}"
                fh.write(f"{self.iterations[i]},{self.losses[i]:.9g},{self.lrs[i]:.9g},"
                         f"{self.active_counts[i]},{kl},\n")

    def write_refresh_log(self, path):
        with atomic_open(path) as fh:
            for rec in self.refresh_records:
                fh.write(rec + "\n")


class Velocity:
    """Momentum state: one slot per embedder tensor, a full-size head slot,
    and a merged-row slot created on first use."""

    def __init__(self, model: Model):
        self.embedder = [np.zeros_like(t) for t in model.params.tensors()]
        self.head = np.zeros_like(model.head.w)
        self.merged = None

    def merged_slot(self, embed_dim, dtype):
        if self.merged is None:
            self.merged = np.zeros(embed_dim, dtype=dtype)
        return self.merged


def compose_batch(view: schedule.DataView, batch_size, frames_per_example, gen):
    """Sample one utterance from each of ``batch_size`` distinct classes.

    Classes are drawn uniformly without replacement; if the view has fewer
    distinct classes than the batch size, the batch silently shrinks to the
    class count (training warns once per view).  Each utterance contributes
    a contiguous random crop of ``frames_per_example`` frames (the whole
    utterance if it is shorter).
    """
    if len(view) == 0:
        raise EmptyDataError("cannot compose a batch from an empty view")
    b = min(batch_size, view.present.size)
    chosen = gen.choice(view.present.size, size=b, replace=False)
    feats = []
    for lo, k in zip(view.starts[chosen].tolist(), view.sizes[chosen].tolist()):
        x = view.features[view.order[lo + int(gen.integers(0, k))]]
        t = x.shape[0]
        if t > frames_per_example:
            start = int(gen.integers(0, t - frames_per_example + 1))
            x = x[start:start + frames_per_example]
        feats.append(x)
    return feats, view.present[chosen]


def _batch_grads(model: Model, feats, labels, loss_spec):
    """Mean loss and batch-mean gradients; raises NumericError before any
    state is mutated."""
    params = model.params
    b = len(feats)
    embs = np.empty((b, params.embed_dim), dtype=params.dtype)
    caches = []
    for idx, h, cache in embedder.forward_by_length(params, feats):
        embs[idx] = h
        caches.append((idx, cache))

    w_active = model.active_weights()
    losses, grad_h, grad_w = head_mod.batch_loss_and_grads(embs, w_active, labels, loss_spec)
    loss = float(np.mean(losses))
    if not math.isfinite(loss):
        raise NumericError("non-finite batch loss")
    grad_h = grad_h / b
    grad_w = grad_w / b

    params.zero_grads()
    for idx, cache in caches:
        embedder.backward(params, cache, grad_h[idx])
    for g in params.grads():
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite embedder gradient")
    return loss, grad_w


def step(model: Model, velocity: Velocity, feats, labels, loss_spec, lr, momentum):
    """One SGD-with-momentum update: v <- mu*v - lr*g; p <- p + v."""
    loss, grad_w = _batch_grads(model, feats, labels, loss_spec)

    mu = model.params.dtype.type(momentum)
    step_lr = model.params.dtype.type(lr)
    for v, p, g in zip(velocity.embedder, model.params.tensors(), model.params.grads()):
        v *= mu
        v -= step_lr * g
        p += v

    n_rows = model.active.size
    vh = velocity.head
    vh[model.active] = mu * vh[model.active] - step_lr * grad_w[:n_rows]
    model.head.w[model.active] += vh[model.active]
    if model.merged_row is not None:
        vm = velocity.merged_slot(model.params.embed_dim, model.head.w.dtype)
        vm *= mu
        vm -= step_lr * grad_w[n_rows]
        model.merged_row += vm
    return loss


def _build_view(state, train_corpus, batch_size):
    """The state's training view; warns if its batches must shrink."""
    view = state.build_view(train_corpus)
    n_labels = view.present.size
    if batch_size > n_labels:
        log.warning("batch size %d reduced to %d distinct classes", batch_size, n_labels)
    return view


def _run(model, config: TrainConfig, train_corpus, enrol, start_lr,
         checkpoint_path=None):
    from . import evaluation

    if enrol is None and config.drop_mode in schedule.PROBABILITY_MODES:
        raise ValidationError(f"mode {config.drop_mode!r} requires enrolment data")
    schedule.check_refreshes(config.drop_mode, model.n_classes, model.active.size,
                             config.drop_count, config.drop_period, config.total_iterations)
    batch_gen = rng.stream(config.seed, rng.BATCH)
    sched_gen = rng.stream(config.seed, rng.SCHEDULE)
    state = schedule.DropState(
        mode=config.drop_mode, n_classes=model.n_classes,
        n_drop=config.drop_count, gen=sched_gen, active=model.active.copy(),
    )
    if model.merged_row is not None:
        raise ValidationError("cannot resume training a combine-mode model")
    velocity = Velocity(model)
    metrics = MetricsLog()
    # a drop mode refreshes, and so builds its view, at iteration 1
    view = None
    if config.drop_mode == "none":
        view = _build_view(state, train_corpus, config.batch_size)
    halvings = set(config.lr_halving_steps)
    lr = start_lr
    # the AdaCos scale evolves during training; keep it off the caller's spec
    loss_spec = replace(config.loss)
    if loss_spec.kind == "adacos":
        loss_spec.reset_adacos(state.active.size + (1 if state.has_merged else 0))

    try:
        for it in range(1, config.total_iterations + 1):
            kl = None
            if config.drop_mode != "none" and (it - 1) % config.drop_period == 0:
                # a refresh changes the head, not the embedder: one pass over
                # the enrolment set serves the ranking and both KL values
                enrol_embs = embedder.embed_by_length(model.params, enrol.features) if enrol else None
                event = state.refresh(model, enrol_embs)
                view = _build_view(state, train_corpus, config.batch_size)
                if loss_spec.kind == "adacos":
                    loss_spec.reset_adacos(view.n_outputs)
                if enrol_embs is not None:
                    p_act = schedule.average_probability(enrol_embs, model.active_weights())
                    kl_active = evaluation.kl_to_uniform(p_act)
                    p_full = schedule.average_probability(enrol_embs, model.head.w)
                    kl_full = evaluation.kl_to_uniform(p_full)
                    kl = kl_active
                    metrics.refresh_kl_active.append(kl_active)
                    metrics.refresh_kl_full.append(kl_full)
                metrics.refresh_records.append(event.record(it))
            if it in halvings:
                lr = lr / 2.0
            feats, labels = compose_batch(view, config.batch_size, config.frames_per_example, batch_gen)
            loss = step(model, velocity, feats, labels, loss_spec, lr, config.momentum)
            metrics.append(it, loss, lr, view.n_outputs, kl=kl)
    except NumericError:
        # the failing step never mutated the model, so it is a valid last-good state
        _finish(model, config, lr, checkpoint_path)
        raise
    _finish(model, config, lr, checkpoint_path)
    return model, metrics


def _finish(model, config, lr, checkpoint_path):
    """Record the final learning rate and save the checkpoint, if asked.
    DropClass drops classes only while it trains, so its model leaves the
    run with every head row active."""
    model.final_lr = lr
    if config.drop_mode == "dropclass":
        model.active = np.arange(model.n_classes, dtype=np.int64)
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path)


def train(config: TrainConfig, train_corpus, enrol_data=None,
          checkpoint_path=None):
    """Train a fresh model; returns (model, metrics).

    The train corpus must carry contiguous class ids in [0, M); use
    ``corpus.reindex_classes`` first if it does not.  ``enrol_data`` is
    required for the probability-driven drop modes and otherwise optional
    (it enables the KL diagnostics at refreshes).
    """
    config.validate()
    if len(train_corpus) == 0:
        raise EmptyDataError("train corpus has no utterances")
    classes = np.unique(train_corpus.class_ids)
    if not np.array_equal(classes, np.arange(classes.size)):
        raise ValidationError("train corpus class ids must be contiguous from 0; reindex first")
    feat_dim = train_corpus.features[0].shape[1]
    model = new_model(feat_dim, classes.size, config.hidden_dim, config.embed_dim, seed=config.seed)
    return _run(model, config, train_corpus, enrol_data, config.lr,
                checkpoint_path=checkpoint_path)


def adapt(model: Model, config: TrainConfig, train_corpus, enrol_data=None,
          checkpoint_path=None):
    """Fine-tune a trained model; starts at its recorded final learning rate."""
    config.validate()
    if model.final_lr <= 0:
        raise ValidationError("source model has no recorded final learning rate")
    work = model.copy()
    return _run(work, config, train_corpus, enrol_data, model.final_lr,
                checkpoint_path=checkpoint_path)
