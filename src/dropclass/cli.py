"""Command-line front end: gen-data, train, adapt, evaluate, diagnose.

Exit codes: 0 success, 2 config/validation error or an allocation that
fails, 3 IO error, 4 numeric abort (training writes the last-good
checkpoint if its weights are finite as float32).
A command's --out directory appears with the first file written into it.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import corpus as corpus_mod
from . import embedder, evaluation, schedule, trainer
from .config import RunConfig, check_seed, schema_help
from .errors import DropClassError, FormatError, NumericError, ValidationError
from .files import atomic_open, read_bytes
from .model import load_checkpoint

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

DIAGNOSE_SEED = 3420107686481994551  # rng.derive_seed(1234, 9): the evaluation stream tag

def _split_overrides(extra):
    """Turn leftover ['--drop.mode', 'dropclass', ...] args into pairs."""
    overrides = []
    i = 0
    while i < len(extra):
        arg = extra[i]
        if not arg.startswith("--") or "." not in arg:
            raise ValidationError(f"unrecognized argument {arg!r} (overrides look like --section.key value)")
        if "=" in arg:
            dotted, value = arg[2:].split("=", 1)
        else:
            if i + 1 >= len(extra):
                raise ValidationError(f"override {arg!r} is missing a value")
            dotted, value = arg[2:], extra[i + 1]
            i += 1
        overrides.append((dotted, value))
        i += 1
    return overrides


def _load_splits(manifest_path, corpus_path, tags):
    """The manifest's splits whose tag is in ``tags``, in manifest order,
    rebuilt from the corpus; only their utterances' features are copied."""
    entries = corpus_mod.read_manifest(manifest_path)
    wanted = {utt_id: tag for utt_id, (_class_id, tag) in entries.items() if tag in tags}
    full = corpus_mod.read_corpus(corpus_path, keep=wanted)
    row_of = {utt_id: i for i, utt_id in enumerate(full.ids)}
    rows = {}
    for utt_id, tag in wanted.items():
        if utt_id not in row_of:
            raise FormatError(f"manifest references unknown utterance {utt_id!r}")
        rows.setdefault(tag, []).append(row_of[utt_id])
    return {tag: full.take(r, tag) for tag, r in rows.items()}


def _train_and_enrol(corpus_dir):
    """The reindexed train split and the enrol split (or None) of a gen-data directory."""
    splits = _load_splits(os.path.join(corpus_dir, "manifest.tsv"),
                          os.path.join(corpus_dir, "corpus.dck"), ("train", "enrol"))
    if "train" not in splits:
        raise ValidationError("manifest has no utterances with split tag 'train'")
    return corpus_mod.reindex_classes(splits["train"])[0], splits.get("enrol")


def _write_run_manifest(path, cfg: RunConfig, command, source_checkpoint=None):
    record = {"command": command, "config": cfg.to_dict(), "train_seed": cfg.train_seed()}
    if source_checkpoint is not None:
        digest = hashlib.sha256(read_bytes(source_checkpoint)).hexdigest()
        record["source_checkpoint"] = {"path": os.path.abspath(source_checkpoint),
                                       "sha256": digest}
    with atomic_open(path) as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen_data(cfg: RunConfig, out_dir):
    spec = cfg.corpus
    full = corpus_mod.generate_corpus(spec)
    train, enrol, test = corpus_mod.split_corpus(full, cfg.get("corpus", "train_class_fraction"),
                                                 seed=spec.seed)
    trials = corpus_mod.make_trials(test, cfg.get("corpus", "n_target_trials"),
                                    cfg.get("corpus", "n_nontarget_trials"), seed=spec.seed)
    corpus_mod.write_corpus(full, os.path.join(out_dir, "corpus.dck"))
    corpus_mod.write_manifest([train, enrol, test], os.path.join(out_dir, "manifest.tsv"))
    corpus_mod.write_trials(trials, os.path.join(out_dir, "trials.tsv"))
    print(f"wrote corpus ({len(full)} utts, {full.n_classes} classes) to {out_dir}")
    return EXIT_OK


def _finish_training(out_dir, metrics, cfg, command, source_checkpoint=None):
    metrics.to_csv(os.path.join(out_dir, "metrics.csv"))
    metrics.write_refresh_log(os.path.join(out_dir, "refresh.log"))
    _write_run_manifest(os.path.join(out_dir, "run.json"), cfg, command, source_checkpoint)


def cmd_train(cfg: RunConfig, corpus_dir, out_dir):
    tc = cfg.train
    if tc.drop_mode not in ("none", "dropclass"):
        raise ValidationError(f"mode {tc.drop_mode!r} is a fine-tuning mode; use the adapt command")
    train_split, enrol = _train_and_enrol(corpus_dir)
    checkpoint = os.path.join(out_dir, "checkpoint.dckm")
    model, metrics = trainer.train(tc, train_split, enrol_data=enrol,
                                   checkpoint_path=checkpoint)
    _finish_training(out_dir, metrics, cfg, "train")
    print(f"trained {tc.total_iterations} iterations; final loss "
          f"{metrics.losses[-1]:.4f}; checkpoint at {checkpoint}")
    return EXIT_OK


def cmd_adapt(cfg: RunConfig, checkpoint_path, corpus_dir, out_dir):
    tc = cfg.adapt
    if tc.drop_mode == "dropclass":
        raise ValidationError(f"mode {tc.drop_mode!r} is a training mode; use the train command")
    train_split, enrol = _train_and_enrol(corpus_dir)
    source = load_checkpoint(checkpoint_path)
    out_checkpoint = os.path.join(out_dir, "checkpoint.dckm")
    model, metrics = trainer.adapt(source, tc, train_split, enrol_data=enrol,
                                   checkpoint_path=out_checkpoint)
    _finish_training(out_dir, metrics, cfg, "adapt", source_checkpoint=checkpoint_path)
    print(f"adapted for {tc.total_iterations} iterations (mode {tc.drop_mode}); "
          f"active classes {model.active.size}; checkpoint at {out_checkpoint}")
    return EXIT_OK


def cmd_evaluate(checkpoint_path, manifest_path, corpus_path, trials_path, out_dir):
    model = load_checkpoint(checkpoint_path)
    entries = corpus_mod.read_manifest(manifest_path)
    # the trials come first: they name the utterances whose features are kept
    trials = corpus_mod.read_trials(trials_path)
    missing = [i for i in trials.ids if i not in entries]
    if missing:
        raise ValidationError(f"trials reference utterances missing from the manifest: {missing[:3]}...")
    named = corpus_mod.read_corpus(corpus_path, keep=set(trials.ids))
    scores = evaluation.score_trials(model, named, trials)
    target = trials.target
    result = evaluation.eer(scores[target], scores[~target])
    evaluation.write_scores(trials, scores, os.path.join(out_dir, "scores.tsv"))
    n_tar = int(target.sum())
    evaluation.write_eer_json(result, n_tar, target.size - n_tar,
                              os.path.join(out_dir, "eer.json"))
    print(f"EER {100 * result.eer:.2f}% at threshold {result.threshold:.4f} "
          f"({target.size} trials)")
    return EXIT_OK


def cmd_diagnose(checkpoint_path, manifest_path, corpus_path, out_dir, split="test",
                 n_bootstrap=300, seed=DIAGNOSE_SEED):
    if n_bootstrap < 1:
        raise ValidationError(f"--n-bootstrap must be >= 1, got {n_bootstrap}")
    model = load_checkpoint(checkpoint_path)
    splits = _load_splits(manifest_path, corpus_path, (split,))
    if split not in splits:
        raise ValidationError(f"manifest has no utterances with split tag {split!r}")
    data = splits[split]
    # one embedding pass: its probabilities give p_average and the bootstrap
    probs = schedule.class_probabilities(embedder.embed_by_length(model.params, data.features),
                                         model.head.w)
    kl = evaluation.kl_to_uniform(probs.mean(axis=0))
    report = evaluation.bootstrap_ranked_probabilities(probs, data.class_ids,
                                                       n_bootstrap=n_bootstrap, seed=seed)
    report.to_csv(os.path.join(out_dir, "ranked_probs.csv"))
    with atomic_open(os.path.join(out_dir, "kl.json")) as fh:
        json.dump({"kl_to_uniform": kl}, fh, indent=2)
        fh.write("\n")
    print(f"KL to uniform on split {split!r}: {kl:.4f} nats ({len(data)} utterances)")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dropclass",
        description="Class-dropping training and adaptation for embedding extractors.",
        epilog="Config keys (override any with --section.key value):\n\n" + schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus, splits, and trials")
    p.add_argument("--config", help="run config file")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train a model (modes: none, dropclass)")
    p.add_argument("--config", help="run config file")
    p.add_argument("--corpus", required=True, help="directory with corpus.dck and manifest.tsv")
    p.add_argument("--out", required=True)

    p = sub.add_parser("adapt", help="fine-tune a trained model (dropadapt family and controls)")
    p.add_argument("--config", help="run config file")
    p.add_argument("--checkpoint", required=True, help="source checkpoint")
    p.add_argument("--corpus", required=True, help="directory with corpus.dck and manifest.tsv")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score trials and compute EER")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--corpus-file", help="corpus.dck (default: next to the manifest)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("diagnose", help="ranked-probability bootstrap and KL-to-uniform")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", help="manifest split tag to diagnose (default test)")
    p.add_argument("--n-bootstrap", type=int, default=300, help="bootstrap replicas (default %(default)s)")
    p.add_argument("--seed", type=int, default=DIAGNOSE_SEED, help="bootstrap seed (default %(default)s)")
    p.add_argument("--corpus-file", help="corpus.dck (default: next to the manifest)")
    p.add_argument("--out", required=True)
    return parser


# the explicit finite checks decide a numeric abort, so numpy's own warnings
# would only add stderr lines before its one message
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        if not args.out:
            raise ValidationError("--out must not be empty")
        overrides = _split_overrides(extra)
        if args.command in ("gen-data", "train", "adapt"):
            cfg = RunConfig.load(getattr(args, "config", None), overrides)
        elif overrides:
            raise ValidationError(f"command {args.command!r} takes no config overrides")

        if args.command == "gen-data":
            return cmd_gen_data(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.corpus, args.out)
        if args.command == "adapt":
            return cmd_adapt(cfg, args.checkpoint, args.corpus, args.out)
        corpus_path = args.corpus_file or os.path.join(
            os.path.dirname(os.path.abspath(args.manifest)), "corpus.dck")
        if args.command == "evaluate":
            return cmd_evaluate(args.checkpoint, args.manifest, corpus_path, args.trials, args.out)
        if args.command == "diagnose":
            return cmd_diagnose(args.checkpoint, args.manifest, corpus_path, args.out,
                                split=args.split, n_bootstrap=args.n_bootstrap,
                                seed=check_seed(args.seed, "--seed"))
        raise ValidationError(f"unknown command {args.command!r}")
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, DropClassError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        # numpy's message names the size and shape it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
