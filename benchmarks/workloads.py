"""The benchmark workloads: inputs built from a seed, the operations of one
closed-loop round, and the checks on each operation's outputs.

Every workload runs the user's pipeline on its own inputs: set-up (corpus,
splits, trials, files the CLI reads, and any source model), then rounds of
fit (``trainer.train`` or ``trainer.adapt``), in-process ``dropclass
evaluate`` and in-process ``dropclass diagnose``.  The sizes put the load on
a different layer in each workload; see README.md for why each was chosen.

The package is called through module attributes (``trainer.train``, not a
name imported from it) so that the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import dropclass.cli as cli
import dropclass.corpus as corpus
import dropclass.evaluation as evaluation
import dropclass.head as head
import dropclass.trainer as trainer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    fit: str                      # "train", "adapt", or "" when the round only scores
    n_speakers: int = 200
    utts_per_speaker: int = 20
    frames_per_utt: int = 80
    feat_dim: int = 20
    skew_factor: float = 0.0
    train_class_fraction: float = 0.8
    n_target_trials: int = 2000
    n_nontarget_trials: int = 2000
    source_iterations: int = 0    # set-up training: the adapt source, or the scored checkpoint
    fit_iterations: int = 0
    drop_mode: str = "none"
    drop_period: int = 0
    drop_count: int = 0
    use_enrol: bool = False
    n_bootstrap: int = 50
    batch_size: int = 32
    frames_per_example: int = 50
    hidden_dim: int = 64
    embed_dim: int = 32
    lr: float = 0.2
    momentum: float = 0.5


WORKLOADS = {
    w.name: w for w in (
        # Step path under load; no enrolment data, so no refresh embeds anything.
        Workload("train-dropclass", fit="train", fit_iterations=150,
                 drop_mode="dropclass", drop_period=25, drop_count=40),
        # Refresh path under load: 10 refreshes in 50 iterations, each one
        # embedding the 400 enrolment utterances; |R| shrinks 160 -> 140.
        Workload("adapt-combine", fit="adapt", skew_factor=0.5, source_iterations=200,
                 fit_iterations=50, drop_mode="dropadapt_combine", drop_period=5,
                 drop_count=2, use_enrol=True),
        # Inference, file reads and per-trial scoring/EER/bootstrap loops.
        Workload("score-diagnose", fit="", source_iterations=60,
                 n_target_trials=50000, n_nontarget_trials=50000, n_bootstrap=300),
    )
}

# Sizes for the harness's own smoke test: same code paths, seconds not minutes.
TINY = dict(n_speakers=20, utts_per_speaker=6, frames_per_utt=30, n_target_trials=40,
            n_nontarget_trials=40, n_bootstrap=5, batch_size=4, frames_per_example=20,
            hidden_dim=16, embed_dim=8)


def get(name, scale):
    w = WORKLOADS[name]
    if scale == "tiny":
        w = replace(w, **TINY,
                    source_iterations=min(w.source_iterations, 10),
                    fit_iterations=min(w.fit_iterations, 10),
                    drop_period=min(w.drop_period, 2), drop_count=min(w.drop_count, 2))
    return w


class CheckFailed(Exception):
    """An operation finished but its outputs are wrong."""


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


def train_config(w, seed, iterations, drop_mode, adapting=False):
    """A fresh TrainConfig per call: training mutates the caller's LossSpec."""
    return trainer.TrainConfig(
        total_iterations=iterations, batch_size=w.batch_size,
        frames_per_example=w.frames_per_example, lr=w.lr, momentum=w.momentum,
        lr_halving_steps=() if adapting else trainer.default_halving_steps(iterations),
        loss=head.LossSpec.for_kind("cosface"), drop_mode=drop_mode,
        drop_period=w.drop_period, drop_count=w.drop_count, seed=seed,
        hidden_dim=w.hidden_dim, embed_dim=w.embed_dim)


@dataclass
class Inputs:
    workdir: str
    train: corpus.LabeledCorpus   # reindexed train split
    enrol: corpus.LabeledCorpus
    n_trials: int
    source: object = None         # set-up model, when the workload trains one
    source_iters_per_s: float = None

    def path(self, name):
        return os.path.join(self.workdir, name)


def setup(w, seed, workdir):
    """Build the workload's inputs and the files the CLI reads (what
    ``dropclass gen-data`` writes), then train the source model if any."""
    spec = corpus.CorpusSpec(w.n_speakers, w.utts_per_speaker, w.frames_per_utt, w.feat_dim,
                             skew_factor=w.skew_factor, seed=seed)
    full = corpus.generate_corpus(spec)
    train, enrol, test = corpus.split_corpus(full, w.train_class_fraction, seed=seed)
    trials = corpus.make_trials(test, w.n_target_trials, w.n_nontarget_trials, seed=seed)
    os.makedirs(workdir, exist_ok=True)
    corpus.write_corpus(full, os.path.join(workdir, "corpus.dck"))
    corpus.write_manifest([train, enrol, test], os.path.join(workdir, "manifest.tsv"))
    corpus.write_trials(trials, os.path.join(workdir, "trials.tsv"))
    train, _ = corpus.reindex_classes(train)
    inputs = Inputs(workdir, train, enrol, len(trials.trials))
    if w.source_iterations:
        cfg = train_config(w, seed, w.source_iterations, "none")
        t0 = time.perf_counter()
        inputs.source, metrics = trainer.train(cfg, train,
                                               checkpoint_path=inputs.path("source.dckm"))
        inputs.source_iters_per_s = w.source_iterations / (time.perf_counter() - t0)
        _check_finite(metrics.losses, "set-up training loss")
    return inputs


def checkpoint_to_score(w, inputs):
    return inputs.path("fit.dckm" if w.fit else "source.dckm")


def fit(w, inputs, seed):
    """One ``trainer.train`` / ``trainer.adapt`` call; returns (model, metrics, seconds)."""
    adapting = w.fit == "adapt"
    cfg = train_config(w, seed, w.fit_iterations, w.drop_mode, adapting=adapting)
    enrol = inputs.enrol if w.use_enrol else None
    ckpt = inputs.path("fit.dckm")
    t0 = time.perf_counter()
    if adapting:
        model, metrics = trainer.adapt(inputs.source, cfg, inputs.train, enrol_data=enrol,
                                       checkpoint_path=ckpt)
    else:
        model, metrics = trainer.train(cfg, inputs.train, enrol_data=enrol, checkpoint_path=ckpt)
    return model, metrics, time.perf_counter() - t0


def run_cli(argv):
    """In-process ``dropclass`` call; returns seconds.  Its console output is
    captured so that the benchmark's result stays the last line printed."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    _check(code == 0, f"dropclass {argv[0]} exited {code}: {err.getvalue().strip()}")
    return seconds


def evaluate(w, inputs):
    return run_cli(["evaluate", "--checkpoint", checkpoint_to_score(w, inputs),
                    "--manifest", inputs.path("manifest.tsv"),
                    "--trials", inputs.path("trials.tsv"), "--out", inputs.path("eval")])


def diagnose(w, inputs, seed):
    return run_cli(["diagnose", "--checkpoint", checkpoint_to_score(w, inputs),
                    "--manifest", inputs.path("manifest.tsv"), "--out", inputs.path("diag"),
                    "--n-bootstrap", str(w.n_bootstrap), "--seed", str(seed)])


# ---------------------------------------------------------------------------
# output checks

def _check_finite(values, what):
    _check(len(values) > 0 and all(math.isfinite(v) for v in values), f"{what} is not finite")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(w, scale):
    return f"{w.name}@{scale}"


def check_fit(w, scale, seed, model, metrics, reference):
    _check_finite(metrics.losses, "training loss")
    kls = metrics.refresh_kl_active + metrics.refresh_kl_full
    _check(all(math.isfinite(k) for k in kls), "a refresh KL is not finite")
    if w.fit == "train":
        # A reordered float sum may move the final loss of one seed, but not
        # by more than the final loss varies across seeds at the seed commit.
        table = reference[reference_key(w, scale)]["final_loss"]
        values = list(table.values())
        spread = max(values) - min(values)
        expected = table.get(str(seed), statistics.median(values))
        final = metrics.losses[-1]
        _check(abs(final - expected) <= spread,
               f"final loss {final:.6f} is further than the across-seed spread {spread:.6f} "
               f"from the reference {expected:.6f}")
    if w.drop_mode == "dropadapt_combine":
        refreshes = len(metrics.refresh_records)
        expected = model.n_classes - w.drop_count * refreshes
        _check(model.active.size == expected,
               f"|R| is {model.active.size} after {refreshes} refreshes, expected {expected}")
        _check(model.merged_row is not None, "no merged row after combine refreshes")


def check_evaluate(inputs):
    scored = evaluation.read_scores(inputs.path("eval/scores.tsv"))
    _check(len(scored) == inputs.n_trials,
           f"scores.tsv has {len(scored)} rows for {inputs.n_trials} trials")
    with open(inputs.path("eval/eer.json"), encoding="utf-8") as fh:
        reported = json.load(fh)["eer"]
    recomputed = evaluation.eer_from_scored(scored).eer
    # scores.tsv keeps 9 decimals; only a target/nontarget pair that rounding
    # reorders at the FAR/FRR crossing could move the rate, by one trial's share.
    tolerance = 1.0 / min(sum(1 for s in scored if s[3]), sum(1 for s in scored if not s[3]))
    _check(abs(recomputed - reported) <= tolerance,
           f"EER recomputed from scores.tsv {recomputed!r} != eer.json {reported!r}")
    _check(0.0 <= reported <= 0.5, f"EER {reported!r} outside [0, 0.5]")


def check_diagnose(inputs, n_classes):
    with open(inputs.path("diag/kl.json"), encoding="utf-8") as fh:
        kl = json.load(fh)["kl_to_uniform"]
    _check(math.isfinite(kl) and kl >= -1e-12, f"KL to uniform {kl!r} is not a finite value >= 0")
    rows = np.loadtxt(inputs.path("diag/ranked_probs.csv"), delimiter=",", skiprows=1, ndmin=2)
    _check(rows.shape == (n_classes, 4), f"ranked_probs.csv has shape {rows.shape}")
    _check(bool(np.all(np.isfinite(rows))), "ranked_probs.csv holds non-finite values")
    low, median, high = rows[:, 2], rows[:, 1], rows[:, 3]
    _check(bool(np.all(low <= median) and np.all(median <= high)), "bootstrap band is not ordered")
