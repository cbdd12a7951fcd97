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

from . import blas, embedder, evaluation, head as head_mod, rng, schedule
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
        # the checkpoint stores the final rate, at most lr, as float32
        with np.errstate(over="ignore"):
            if not np.isfinite(np.float32(self.lr)):
                raise ValidationError(f"must be finite as float32, got {self.lr!r}", "lr")
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
    ``flat`` buffer, and one head slot laid out like ``head.rows``."""

    def __init__(self, model: Model):
        self.embedder = np.zeros_like(model.params.flat)
        self.head = np.zeros_like(model.head.rows)


def compose_batch(view: schedule.DataView, batch_size, frames_per_example, gen):
    """Sample one utterance from each of ``batch_size`` distinct classes.

    Classes are drawn uniformly without replacement; if the view has fewer
    distinct classes than the batch size, the batch silently shrinks to the
    class count (a training run warns when that count differs from the last
    one it warned about).  Each utterance contributes
    a contiguous random crop of ``frames_per_example`` frames (the whole
    utterance if it is not longer), a segment of the view's buffer.

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
    rows = view.order[view.offsets[chosen] + gen.integers(0, view.sizes[chosen])]
    return view.features.select(rows).crops(frames_per_example, gen), view.present[chosen]


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

    rows, vh = model.output_rows(), velocity.head
    vh[rows] = mu * vh[rows] - step_lr * grad_w
    model.head.rows[rows] += vh[rows]
    return loss


def check_run(model, config: TrainConfig, train_corpus, enrol):
    """Raise ValidationError unless a run of ``config`` can start from
    ``model``: a probability mode needs enrolment data, a combine-mode
    model (one with a merged class) cannot be trained further, the train
    corpus's class ids must be exactly 0..M-1 for the model's M classes,
    and every refresh must be able to drop its D classes."""
    if enrol is None and config.drop_mode in schedule.PROBABILITY_MODES:
        raise ValidationError(f"mode {config.drop_mode!r} requires enrolment data")
    if model.merged:
        raise ValidationError("cannot resume training a combine-mode model")
    classes = np.unique(train_corpus.class_ids)
    if not np.array_equal(classes, np.arange(model.n_classes)):
        raise ValidationError(f"train corpus class ids must be contiguous 0..{model.n_classes - 1},"
                              f" one per class of the model; got {classes.size} distinct ids")
    schedule.check_refreshes(config.drop_mode, model.n_classes, model.active.size,
                             config.drop_count, config.drop_period, config.total_iterations)


@blas.one_thread()  # a run's bits must not depend on the caller's BLAS thread count
def _run(model, config: TrainConfig, train_corpus, enrol, start_lr,
         checkpoint_path=None):
    batch_gen = rng.stream(config.seed, rng.BATCH)
    sched_gen = rng.stream(config.seed, rng.SCHEDULE)
    state = schedule.DropState(config.drop_mode, config.drop_count, sched_gen)
    velocity = Velocity(model)
    workspace = embedder.Workspace()
    metrics = MetricsLog()
    dropping = config.drop_mode != "none"
    warned = None  # the class count last warned about
    halvings = set(config.lr_halving_steps)
    lr = start_lr
    # the AdaCos scale evolves during training; keep it off the caller's spec
    loss_spec = replace(config.loss)

    try:
        for it in range(1, config.total_iterations + 1):
            kl = None
            # iteration 1 is every run's first refresh; only a drop mode has more
            if it == 1 or dropping and (it - 1) % config.drop_period == 0:
                # a refresh changes the head, not the embedder: one pass over
                # the enrolment set serves the ranking and both KL values
                enrol_embs = (embedder.embed_by_length(model.params, enrol.features,
                                                       workspace=workspace)
                              if enrol and dropping else None)
                dropped = state.refresh(model, enrol_embs)
                view = state.build_view(model, train_corpus)
                if config.batch_size > view.present.size and view.present.size != warned:
                    log.warning("batch size %d reduced to %d distinct classes",
                                config.batch_size, view.present.size)
                    warned = view.present.size
                if loss_spec.kind == "adacos":
                    loss_spec.reset_adacos(model.output_rows().size)
                if enrol_embs is not None:
                    p_act = schedule.average_probability(enrol_embs, model.active_weights())
                    kl = evaluation.kl_to_uniform(p_act)
                    p_full = schedule.average_probability(enrol_embs, model.head.w)
                    metrics.refresh_kl_full.append(evaluation.kl_to_uniform(p_full))
                if dropping:
                    metrics.refresh_records.append((it, state.mode, model.active.size, dropped))
            if it in halvings:
                lr = lr / 2.0
            feats, labels = compose_batch(view, config.batch_size, config.frames_per_example, batch_gen)
            loss = step(model, velocity, feats, labels, loss_spec, lr, config.momentum, workspace)
            metrics.append(it, loss, lr, model.output_rows().size, kl=kl)
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
    n_classes = np.unique(train_corpus.class_ids).size
    feat_dim = train_corpus.features[0].shape[1]
    model = new_model(feat_dim, n_classes, config.hidden_dim, config.embed_dim, seed=config.seed)
    check_run(model, config, train_corpus, enrol_data)
    return _run(model, config, train_corpus, enrol_data, config.lr,
                checkpoint_path=checkpoint_path)


def adapt(model: Model, config: TrainConfig, train_corpus, enrol_data=None,
          checkpoint_path=None):
    """Fine-tune a trained model; starts at its recorded final learning rate,
    so a model without one is rejected, as is any run ``check_run`` rejects."""
    config.validate()
    if model.final_lr <= 0:
        raise ValidationError("source model has no recorded final learning rate")
    check_run(model, config, train_corpus, enrol_data)
    work = model.copy()
    return _run(work, config, train_corpus, enrol_data, model.final_lr,
                checkpoint_path=checkpoint_path)
