"""Verification scoring and class-distribution diagnostics.

Shows the evaluation toolkit on its own: cosine trial scoring, the
threshold-sweep equal error rate, and the bootstrap confidence bands around
the ranked average class probabilities.

Run:  python3 demos/03_scoring_and_diagnostics.py     (~15 seconds)
"""

import numpy as np

from dropclass import (CorpusSpec, eer, generate_corpus, kl_to_uniform,
                       make_trials, new_model, score_trials, split_corpus,
                       bootstrap_ranked_probabilities)
from dropclass.embedder import embed_by_length
from dropclass.evaluation import score_pairs
from dropclass.schedule import average_probability, class_probabilities

SEED = 7

spec = CorpusSpec(n_speakers=20, utts_per_speaker=10, frames_per_utt=40,
                  feat_dim=16, skew_factor=0.6, seed=SEED)
full = generate_corpus(spec)
train_split, enrol, test = split_corpus(full, 0.8, seed=SEED)
model = new_model(16, full.n_classes, hidden_dim=32, embed_dim=16, seed=SEED)

print("== 1. embeddings and cosine scores ==")
first = test.take(range(4))
embs = embed_by_length(model.params, first.features)
pairs_a, pairs_b = np.array([0, 0]), np.array([1, 2])
for i, j, s in zip(pairs_a, pairs_b, score_pairs(embs, pairs_a, pairs_b)):
    print(f"cos({first.ids[i]}, {first.ids[j]}) = {s:+.4f}")

print("\n== 2. trial scoring and EER ==")
trials = make_trials(test, 100, 100, seed=SEED)
scores = score_trials(model, test, trials)
result = eer(scores[trials.target], scores[~trials.target])
print(f"{len(trials)} trials  ->  EER {100 * result.eer:.2f}% at threshold "
      f"{result.threshold:+.4f}")

print("\n== 3. EER edge cases ==")
print(f"perfectly separated: {eer([0.9, 0.8], [0.1, 0.2]).eer}")
print(f"interpolated 1/3 example: {eer([0.9, 0.8, 0.7], [0.75, 0.2, 0.1]).eer:.6f}")
degen = eer([0.5, 0.5], [0.5, 0.5])
print(f"all scores equal: {degen.eer} (degenerate={degen.degenerate})")

print("\n== 4. average class probability and KL to uniform ==")
for name, data in (("train split", train_split), ("skewed enrol", enrol)):
    p = average_probability(embed_by_length(model.params, data.features), model.head.w)
    print(f"{name:<14} top-3 p_average {np.sort(p)[::-1][:3].round(4)}  "
          f"KL {kl_to_uniform(p):.4f} nats")

print("\n== 5. bootstrap bands for the ranked probability curve ==")
probs = class_probabilities(embed_by_length(model.params, enrol.features), model.head.w)
report = bootstrap_ranked_probabilities(probs, enrol.class_ids,
                                        n_bootstrap=200, seed=SEED)
print("rank  median     [2.5%, 97.5%]")
for r in range(0, report.median.size, 4):
    print(f"{r:>4}  {report.median[r]:.5f}  [{report.low[r]:.5f}, "
          f"{report.high[r]:.5f}]")
print("a curve far from flat on enrolment data is the trigger for the "
      "adaptation regimes in demo 02")
