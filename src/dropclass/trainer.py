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

from . import embedder, evaluation, head as head_mod, rng, schedule
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
            raise ValidationError(f"must be >= 1, got {self.total_iterations}", "total_iterations")
        if self.batch_size < 2:
            raise ValidationError(f"must be >= 2, got {self.batch_size}", "batch_size")
        if self.frames_per_example < 1:
            raise ValidationError(f"must be >= 1, got {self.frames_per_example}",
                                  "frames_per_example")
        for name in ("hidden_dim", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"must be >= 1, got {getattr(self, name)}", name)
        if not (0 < self.lr < math.inf):
            raise ValidationError(f"must be a finite number > 0, got {self.lr!r}", "lr")
        if not (0.0 <= self.momentum < 1.0):
            raise ValidationError(f"must be in [0, 1), got {self.momentum}", "momentum")
        steps = tuple(self.lr_halving_steps)
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValidationError("must be strictly increasing", "lr_halving_steps")
        # iterations count from 1, so an earlier step would halve nothing
        if steps and steps[0] < 1:
            raise ValidationError(f"must be >= 1, got {steps[0]}", "lr_halving_steps")
        if steps and steps[-1] >= self.total_iterations:
            raise ValidationError(f"must be < total_iterations ({self.total_iterations})",
                                  "lr_halving_steps")
        if self.drop_mode not in schedule.MODES:
            raise ValidationError(f"must be one of {schedule.MODES}, got {self.drop_mode!r}",
                                  "drop_mode")
        if self.drop_mode != "none":
            if self.drop_period < 1:
                raise ValidationError(f"must be >= 1, got {self.drop_period}", "drop_period")
            if self.drop_count < 1:
                raise ValidationError(f"must be >= 1, got {self.drop_count}", "drop_count")
        rng.check_seed(self.seed)
        self.loss.validate()


@dataclass
class MetricsLog:
    iterations: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    active_counts: list = field(default_factory=list)
    kls: list = field(default_factory=list)       # None except at refreshes
    refresh_records: list = field(default_factory=list)  # (iter, mode, |R|, dropped ids)
    refresh_kl_full: list = field(default_factory=list)

    @property
    def refresh_kl_active(self):
        """The KL to uniform over the active classes at each refresh that
        embedded enrolment data."""
        return [kl for kl in self.kls if kl is not None]

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
            for it, mode, n_active, dropped in self.refresh_records:
                fh.write(f"{it}\t{mode}\t{n_active}\t{','.join(map(str, dropped))}\n")


class Velocity:
    """Momentum state: one flat embedder slot laid out like the parameters'
    ``flat`` buffer, a full-size head slot, and a slot for the merged row,
    which a combine refresh may create."""

    def __init__(self, model: Model):
        self.embedder = np.zeros_like(model.params.flat)
        self.head = np.zeros_like(model.head.w)
        self.merged = np.zeros(model.head.w.shape[1], dtype=model.head.w.dtype)


def compose_batch(view: schedule.DataView, batch_size, frames_per_example, gen):
    """Sample one utterance from each of ``batch_size`` distinct classes.

    Classes are drawn uniformly without replacement; if the view has fewer
    distinct classes than the batch size, the batch silently shrinks to the
    class count (a training run warns when that count differs from the last
    one it warned about).  Each utterance contributes
    a contiguous random crop of ``frames_per_example`` frames (the whole
    utterance if it is not longer).

    Draw order: the classes (one ``gen.choice``), then every class's
    utterance (one array-bounded ``gen.integers``), then every crop start
    (one more, with bound ``max(T - frames_per_example, 0) + 1``).  numpy
    draws from an array of bounds what one scalar call per bound would,
    and a bound of 1 draws nothing, so when no utterance is longer than the
    crop the batch and the generator state are those of the scalar loop
    that drew each class's utterance and then its start.
    """
    if len(view) == 0:
        raise EmptyDataError("cannot compose a batch from an empty view")
    b = min(batch_size, view.present.size)
    chosen = gen.choice(view.present.size, size=b, replace=False)
    rows = view.order[view.starts[chosen] + gen.integers(0, view.sizes[chosen])]
    utts = [view.features[i] for i in rows.tolist()]
    lengths = np.array([x.shape[0] for x in utts])
    starts = gen.integers(0, np.maximum(lengths - frames_per_example, 0) + 1)
    feats = [x[s:s + frames_per_example] for x, s in zip(utts, starts.tolist())]
    return feats, view.present[chosen]


def _batch_grads(model: Model, feats, labels, loss_spec, workspace=None):
    """Mean loss and batch-mean gradients; raises NumericError before any
    state is mutated."""
    params = model.params
    b = len(feats)
    caches = []
    embs = embedder.embed_by_length(params, feats, caches, workspace)
    w_active = model.active_weights()
    losses, grad_h, grad_w = head_mod.batch_loss_and_grads(embs, w_active, labels, loss_spec)
    loss = float(np.mean(losses))
    if not math.isfinite(loss):
        raise NumericError("non-finite batch loss")
    grad_h = grad_h / b
    grad_w = grad_w / b

    params.zero_grads()
    embedder.backward(params, caches, grad_h)
    if not np.all(np.isfinite(params.g_flat)):
        raise NumericError("non-finite embedder gradient")
    return loss, grad_w


def step(model: Model, velocity: Velocity, feats, labels, loss_spec, lr, momentum,
         workspace=None):
    """One SGD-with-momentum update: v <- mu*v - lr*g; p <- p + v.

    The forward and backward arrays come from ``workspace`` (an
    :class:`embedder.Workspace`); a run passes one to every step, so its
    steps after the first allocate no (B, T, H) array.  Without one the
    step makes its own.
    """
    loss, grad_w = _batch_grads(model, feats, labels, loss_spec, workspace)

    mu = model.params.dtype.type(momentum)
    step_lr = model.params.dtype.type(lr)
    v = velocity.embedder
    v *= mu
    v -= step_lr * model.params.g_flat
    model.params.flat += v

    n_rows = model.active.size
    vh = velocity.head
    vh[model.active] = mu * vh[model.active] - step_lr * grad_w[:n_rows]
    model.head.w[model.active] += vh[model.active]
    if model.merged_row is not None:
        velocity.merged *= mu
        velocity.merged -= step_lr * grad_w[n_rows]
        model.merged_row += velocity.merged
    return loss


def _build_view(state, model, train_corpus, batch_size, warned):
    """The state's training view and the run's last warned class count:
    warns if its batches must shrink to a count other than ``warned``."""
    view = state.build_view(model, train_corpus)
    n_labels = view.present.size
    if batch_size > n_labels and n_labels != warned:
        log.warning("batch size %d reduced to %d distinct classes", batch_size, n_labels)
        warned = n_labels
    return view, warned


def check_run(model, config: TrainConfig, enrol):
    """Raise ValidationError unless a run of ``config`` can start from
    ``model``: a probability mode needs enrolment data, a combine-mode
    model (one with a merged row) cannot be trained further, and every
    refresh must be able to drop its D classes."""
    if enrol is None and config.drop_mode in schedule.PROBABILITY_MODES:
        raise ValidationError(f"mode {config.drop_mode!r} requires enrolment data")
    if model.merged_row is not None:
        raise ValidationError("cannot resume training a combine-mode model")
    schedule.check_refreshes(config.drop_mode, model.n_classes, model.active.size,
                             config.drop_count, config.drop_period, config.total_iterations)


def _run(model, config: TrainConfig, train_corpus, enrol, start_lr,
         checkpoint_path=None):
    batch_gen = rng.stream(config.seed, rng.BATCH)
    sched_gen = rng.stream(config.seed, rng.SCHEDULE)
    state = schedule.DropState(config.drop_mode, config.drop_count, sched_gen)
    velocity = Velocity(model)
    workspace = embedder.Workspace()
    metrics = MetricsLog()
    # a drop mode refreshes, and so builds its view, at iteration 1
    view, warned = None, None
    if config.drop_mode == "none":
        view, warned = _build_view(state, model, train_corpus, config.batch_size, warned)
    # every refresh embeds the whole enrolment set, so a run that refreshes
    # groups, checks and stacks it once, and each pass reads the stacks
    enrol_feats = (embedder.LengthStacks(model.params, enrol.features)
                   if enrol and config.drop_mode != "none" else None)
    halvings = set(config.lr_halving_steps)
    lr = start_lr
    # the AdaCos scale evolves during training; keep it off the caller's spec
    loss_spec = replace(config.loss)
    if loss_spec.kind == "adacos":
        loss_spec.reset_adacos(model.active.size)

    try:
        for it in range(1, config.total_iterations + 1):
            kl = None
            if config.drop_mode != "none" and (it - 1) % config.drop_period == 0:
                # a refresh changes the head, not the embedder: one pass over
                # the enrolment set serves the ranking and both KL values
                enrol_embs = (embedder.embed_by_length(model.params, enrol_feats,
                                                       workspace=workspace)
                              if enrol_feats is not None else None)
                dropped = state.refresh(model, enrol_embs)
                view, warned = _build_view(state, model, train_corpus, config.batch_size, warned)
                if loss_spec.kind == "adacos":
                    loss_spec.reset_adacos(view.n_outputs)
                if enrol_embs is not None:
                    p_act = schedule.average_probability(enrol_embs, model.active_weights())
                    kl = evaluation.kl_to_uniform(p_act)
                    p_full = schedule.average_probability(enrol_embs, model.head.w)
                    metrics.refresh_kl_full.append(evaluation.kl_to_uniform(p_full))
                metrics.refresh_records.append((it, state.mode, model.active.size, dropped))
            if it in halvings:
                lr = lr / 2.0
            feats, labels = compose_batch(view, config.batch_size, config.frames_per_example, batch_gen)
            loss = step(model, velocity, feats, labels, loss_spec, lr, config.momentum, workspace)
            metrics.append(it, loss, lr, view.n_outputs, kl=kl)
    except NumericError:
        # the failing step never mutated the model, so it is the last-good
        # state; save_checkpoint refuses it if an earlier update overflowed
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
    check_run(model, config, enrol_data)
    return _run(model, config, train_corpus, enrol_data, config.lr,
                checkpoint_path=checkpoint_path)


def adapt(model: Model, config: TrainConfig, train_corpus, enrol_data=None,
          checkpoint_path=None):
    """Fine-tune a trained model; starts at its recorded final learning rate,
    so a model without one is rejected, as is any run ``check_run`` rejects."""
    config.validate()
    if model.final_lr <= 0:
        raise ValidationError("source model has no recorded final learning rate")
    check_run(model, config, enrol_data)
    work = model.copy()
    return _run(work, config, train_corpus, enrol_data, model.final_lr,
                checkpoint_path=checkpoint_path)
