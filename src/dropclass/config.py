"""Sectioned key=value run configuration.

The file format is INI-style with sections (corpus, model, loss, drop,
train, eval).  Unknown keys are rejected with a nearest-key suggestion.
Command-line overrides use ``--section.key value``.

Seeding: ``corpus.seed`` is the top-level seed.  ``train.seed`` and
``eval.seed`` default to streams derived from it (see ``rng.derive_seed``)
so one seed reproduces a whole pipeline, but both can be set explicitly.
"""

import configparser
import difflib
import io

from . import rng
from .corpus import CorpusSpec
from .errors import ConfigError, FormatError
from .files import open_text
from .head import LossSpec
from .trainer import TrainConfig, default_halving_steps

# section -> key -> (type, default, help)
SCHEMA = {
    "corpus": {
        "n_speakers": ("int", 50, "number of classes in the generated corpus"),
        "utts_per_speaker": ("int", 20, "utterances generated per class"),
        "frames_per_utt": ("int", 50, "frames per utterance"),
        "feat_dim": ("int", 20, "feature dimension F"),
        "speaker_spread": ("float", 1.0, "stddev of class mean vectors"),
        "frame_noise": ("float", 0.5, "per-frame noise stddev"),
        "skew_factor": ("float", 0.0, "subpopulation shift in [0,1]; >0 skews half the classes"),
        "seed": ("int", 1234, "top-level 64-bit seed"),
        "train_class_fraction": ("float", 0.8, "fraction of classes assigned to the train split"),
        "n_target_trials": ("int", 200, "same-class trials to sample"),
        "n_nontarget_trials": ("int", 200, "cross-class trials to sample"),
    },
    "model": {
        "hidden_dim": ("int", 64, "frame-level layer width H"),
        "embed_dim": ("int", 32, "embedding dimension d"),
    },
    "loss": {
        "kind": ("str", "cosface", "softmax | cosface | sphereface | arcface | adacos"),
        "scale": ("float", None, "logit scale s (default depends on kind)"),
        "margin": ("float", None, "angular margin m (default depends on kind)"),
    },
    "drop": {
        "mode": ("str", "none", "none | dropclass | dropadapt | dropadapt_combine | drop_random | drop_only_data"),
        "period": ("int", 25, "iterations between refreshes (P)"),
        "count": ("int", 20, "classes dropped per refresh (D)"),
    },
    "train": {
        "total_iterations": ("int", 2000, "training iteration budget"),
        "adapt_iterations": ("int", 500, "fine-tuning iteration budget used by the adapt command"),
        "batch_size": ("int", 20, "examples per batch, one per distinct class"),
        "frames_per_example": ("int", 50, "contiguous frame crop length"),
        "lr": ("float", 0.2, "initial learning rate"),
        "momentum": ("float", 0.5, "classical momentum coefficient"),
        "lr_halving_steps": ("str", "auto", "comma list of iterations, 'auto' (scaled 50/66.7/75/91.7%), or 'none'"),
        "seed": ("int", None, "training seed (default derived from corpus.seed)"),
    },
    "eval": {
        "n_bootstrap": ("int", 300, "bootstrap replicas for ranked-probability bands"),
        "seed": ("int", None, "evaluation seed (default derived from corpus.seed)"),
    },
}


def _convert(section, key, raw):
    kind = SCHEMA[section][key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return str(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {kind}") from None


def _reject_unknown(section, key):
    if section not in SCHEMA:
        hint = difflib.get_close_matches(section, SCHEMA, n=1)
        extra = f"; did you mean [{hint[0]}]?" if hint else ""
        raise ConfigError(f"unknown config section [{section}]{extra}")
    if key not in SCHEMA[section]:
        hint = difflib.get_close_matches(key, SCHEMA[section], n=1)
        extra = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ConfigError(f"unknown config key [{section}] {key}{extra}")


def check_seed(value, name):
    """A seed must be None (derived) or in [0, 2**64), what SeedSequence takes."""
    if value is not None and not (0 <= value < 2 ** 64):
        raise ConfigError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return value


class RunConfig:
    """Validated configuration for a whole pipeline run."""

    def __init__(self, values):
        self.values = values

    @classmethod
    def load(cls, path=None, overrides=None):
        values = {s: {k: v[1] for k, v in keys.items()} for s, keys in SCHEMA.items()}
        if path is not None:
            parser = configparser.ConfigParser()
            try:
                with open_text(path) as fh:
                    parser.read_file(fh)
            except (configparser.Error, FormatError) as exc:
                raise ConfigError(f"cannot parse config file {path}: {exc}") from None
            for section in parser.sections():
                for key, raw in parser.items(section):
                    _reject_unknown(section, key)
                    values[section][key] = _convert(section, key, raw)
        for dotted, raw in (overrides or []):
            if "." not in dotted:
                raise ConfigError(f"override {dotted!r} must look like section.key")
            section, key = dotted.split(".", 1)
            _reject_unknown(section, key)
            values[section][key] = _convert(section, key, raw)
        for section in ("corpus", "train", "eval"):
            check_seed(values[section]["seed"], f"[{section}] seed")
        return cls(values)

    def get(self, section, key):
        return self.values[section][key]

    # ------------------------------------------------------------------
    # derived objects

    def corpus_spec(self) -> CorpusSpec:
        c = self.values["corpus"]
        spec = CorpusSpec(
            n_speakers=c["n_speakers"], utts_per_speaker=c["utts_per_speaker"],
            frames_per_utt=c["frames_per_utt"], feat_dim=c["feat_dim"],
            speaker_spread=c["speaker_spread"], frame_noise=c["frame_noise"],
            skew_factor=c["skew_factor"], seed=c["seed"],
        )
        spec.validate()
        return spec

    def loss_spec(self) -> LossSpec:
        lv = self.values["loss"]
        return LossSpec.for_kind(lv["kind"], scale=lv["scale"], margin=lv["margin"])

    def train_seed(self):
        t = self.values["train"]["seed"]
        if t is not None:
            return t
        return rng.derive_seed(self.values["corpus"]["seed"], rng.TRAIN_SEED)

    def eval_seed(self):
        e = self.values["eval"]["seed"]
        if e is not None:
            return e
        return rng.derive_seed(self.values["corpus"]["seed"], rng.EVAL_SEED)

    def _halving_steps(self, total):
        raw = str(self.values["train"]["lr_halving_steps"]).strip()
        if raw == "auto":
            return default_halving_steps(total)
        if raw in ("none", ""):
            return ()
        try:
            return tuple(int(s) for s in raw.split(","))
        except ValueError:
            raise ConfigError(f"[train] lr_halving_steps: cannot parse {raw!r}") from None

    def train_config(self, adapt=False) -> TrainConfig:
        t = self.values["train"]
        d = self.values["drop"]
        m = self.values["model"]
        total = t["adapt_iterations"] if adapt else t["total_iterations"]
        cfg = TrainConfig(
            total_iterations=total,
            batch_size=t["batch_size"],
            frames_per_example=t["frames_per_example"],
            lr=t["lr"],
            momentum=t["momentum"],
            lr_halving_steps=() if adapt else self._halving_steps(total),
            loss=self.loss_spec(),
            drop_mode=d["mode"],
            drop_period=d["period"],
            drop_count=d["count"],
            seed=self.train_seed(),
            hidden_dim=m["hidden_dim"],
            embed_dim=m["embed_dim"],
        )
        cfg.validate()
        return cfg

    def to_dict(self):
        return {s: dict(keys) for s, keys in self.values.items()}


def schema_help():
    """Human-readable listing of every config key with its default."""
    buf = io.StringIO()
    for section, keys in SCHEMA.items():
        buf.write(f"[{section}]\n")
        for key, (kind, default, text) in keys.items():
            shown = "derived" if default is None and key == "seed" else \
                "kind-dependent" if default is None else default
            buf.write(f"  {key} ({kind}, default {shown}): {text}\n")
    return buf.getvalue()
