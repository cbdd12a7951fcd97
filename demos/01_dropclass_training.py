"""DropClass training walkthrough.

Generates a small synthetic verification corpus, trains two embedding
extractors from scratch — a plain baseline and one that every P iterations
restricts training to a random subset of the classes (DropClass) — and
compares their held-out equal error rates.

Run:  python3 demos/01_dropclass_training.py     (~1 minute)
"""

from dropclass import (CorpusSpec, LossSpec, TrainConfig, eer, generate_corpus,
                       make_trials, new_model, reindex_classes, score_trials,
                       split_corpus, train)
from dropclass.trainer import default_halving_steps

SEED = 0

print("== 1. corpus ==")
# short, very noisy utterances: simple statistics pooling is not enough on
# its own here, so training visibly improves over a random-init extractor
spec = CorpusSpec(n_speakers=30, utts_per_speaker=12, frames_per_utt=20,
                  feat_dim=20, frame_noise=3.0, seed=SEED)
full = generate_corpus(spec)
train_split, enrol, test = split_corpus(full, 0.8, seed=SEED)
train_split, _ = reindex_classes(train_split)
trials = make_trials(test, 150, 150, seed=SEED)
print(f"{len(full)} utterances, {full.n_classes} classes; "
      f"{train_split.n_classes} train classes, "
      f"{len(trials)} trials on the held-out classes")


def evaluate(model, label):
    scores = score_trials(model, test, trials)
    result = eer(scores[trials.target], scores[~trials.target])
    print(f"{label:<24} EER {100 * result.eer:5.2f}%")
    return result.eer


def config(mode):
    total = 800
    return TrainConfig(
        total_iterations=total, batch_size=16, frames_per_example=20,
        lr=0.05, momentum=0.5, lr_halving_steps=default_halving_steps(total),
        loss=LossSpec.for_kind("cosface"),
        drop_mode=mode,
        drop_period=25 if mode != "none" else 0,
        drop_count=12 if mode != "none" else 0,  # keep 24 - 12 = 12 classes
        seed=SEED)


print("\n== 2. untrained reference ==")
untrained = new_model(20, train_split.n_classes, seed=SEED)
evaluate(untrained, "untrained")

print("\n== 3. baseline training (no dropping) ==")
baseline, base_log = train(config("none"), train_split)
print(f"final loss {base_log.losses[-1]:.3f}, final lr {baseline.final_lr:g}")
evaluate(baseline, "baseline")

print("\n== 4. DropClass training ==")
dropped, drop_log = train(config("dropclass"), train_split)
print(f"{len(drop_log.refresh_records)} subset refreshes; "
      f"active classes per iteration: {sorted(set(drop_log.active_counts))}")
evaluate(dropped, "dropclass (P=25, D=12)")

print("\nEach refresh resamples a fresh random class subset, so every class "
      "keeps participating over the whole run — compare the permanent "
      "dropping regimes in demo 02.")
