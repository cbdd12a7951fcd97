"""Class-dropping training (DropClass) and unsupervised class-dropping
adaptation (DropAdapt / DropAdapt-Combine) for discriminative embedding
extractors, with the angular-penalty loss family, cosine-scored
verification, EER evaluation, and class-distribution diagnostics."""

from .corpus import (CorpusSpec, LabeledCorpus, TrialList, generate_corpus, make_trials,
                     read_corpus, reindex_classes, split_corpus, write_corpus)
from .embedder import EmbedderParams, forward_batch, init_params
from .evaluation import bootstrap_ranked_probabilities, eer, kl_to_uniform, score_trials
from .head import HeadMatrix, LossSpec, init_head
from .model import Model, load_checkpoint, new_model, save_checkpoint
from .schedule import DropState, rank_and_drop, sample_subset
from .trainer import MetricsLog, TrainConfig, adapt, compose_batch, step, train

__version__ = "0.1.0"
