"""DropAdapt fine-tuning on a skewed deployment condition.

The average predicted class probability over unlabeled enrolment data
(p_average) is near-uniform on the training split but skewed on a
mismatched deployment set.  DropAdapt fine-tunes by permanently dropping
the lowest-probability classes each refresh; the Combine variant folds the
dropped classes into one merged class instead of discarding their data.
The KL divergence of p_average to uniform tracks adaptation progress.

Run:  python3 demos/02_dropadapt_kl.py     (~1 minute)
"""

from dropclass import (CorpusSpec, LossSpec, TrainConfig, adapt, eer,
                       generate_corpus, kl_to_uniform, make_trials, p_average,
                       reindex_classes, score_trials, split_corpus, train)
from dropclass.trainer import default_halving_steps

SEED = 3

print("== 1. skewed corpus ==")
spec = CorpusSpec(n_speakers=30, utts_per_speaker=12, frames_per_utt=50,
                  feat_dim=20, skew_factor=0.8, seed=SEED)
full = generate_corpus(spec)
train_split, enrol, test = split_corpus(full, 0.8, seed=SEED)
train_split, _ = reindex_classes(train_split)
trials = make_trials(test, 150, 150, seed=SEED)
print(f"skew_factor=0.8 shifts half the classes; enrolment split has "
      f"{len(enrol)} unlabeled utterances from the held-out classes")

print("\n== 2. baseline model ==")
base_cfg = TrainConfig(total_iterations=800, batch_size=16,
                       frames_per_example=50, lr=0.2, momentum=0.5,
                       lr_halving_steps=default_halving_steps(800),
                       loss=LossSpec.for_kind("cosface"), seed=SEED)
model, _ = train(base_cfg, train_split)
kl_train = kl_to_uniform(p_average(model, train_split))
kl_enrol = kl_to_uniform(p_average(model, enrol))
print(f"KL(p_average || uniform):  train split {kl_train:.4f} nats, "
      f"enrolment split {kl_enrol:.4f} nats")
print("the gap is the class-distribution-mismatch signal DropAdapt exploits")


def eer_of(m):
    scores = score_trials(m, test, trials)
    return eer(scores[trials.target], scores[~trials.target]).eer


def fine_tune(mode):
    cfg = TrainConfig(total_iterations=400, batch_size=16,
                      frames_per_example=50, lr=0.2, momentum=0.5,
                      loss=LossSpec.for_kind("cosface"),
                      drop_mode=mode, drop_period=100, drop_count=3,
                      seed=SEED)
    adapted, metrics = adapt(model, cfg, train_split, enrol_data=enrol)
    return adapted, metrics, eer_of(adapted)


print("\n== 3. DropAdapt-Combine fine-tuning ==")
adapted, metrics, eer_combine = fine_tune("dropadapt_combine")
print("KL on enrolment data at each refresh:")
for rec, kl in zip(metrics.refresh_records, metrics.refresh_kl_active):
    it, mode, n_active, dropped = rec.split("\t")
    print(f"  iter {it:>4}: KL {kl:.4f} nats, {n_active} active classes, "
          f"dropped [{dropped}]")
print(f"active outputs at the end: {adapted.active_weights().shape[0]} "
      f"({adapted.active.size} kept classes + 1 merged)")

print("\n== 4. comparison ==")
print(f"{'baseline (no adaptation)':<28} EER {100 * eer_of(model):5.2f}%")
print(f"{'dropadapt_combine':<28} EER {100 * eer_combine:5.2f}%")
for mode in ("dropadapt", "drop_random", "drop_only_data"):
    _, _, e = fine_tune(mode)
    print(f"{mode:<28} EER {100 * e:5.2f}%")
