"""Sectioned key=value run configuration.

The file format is INI-style with sections (corpus, model, loss, drop,
train).  Unknown keys are rejected with a nearest-key suggestion.
Command-line overrides use ``--section.key value``.  Loading builds the
corpus spec and both training configs, so a value that any command would
reject fails every command that reads the file.

Seeding: ``corpus.seed`` is the top-level seed.  ``train.seed`` defaults to
a stream derived from it (see ``rng.derive_seed``) so one seed reproduces a
whole pipeline, but it can be set explicitly.
"""

import configparser
import contextlib
import difflib
import io
from dataclasses import fields

from . import rng
from .corpus import CorpusSpec, check_train_class_fraction, check_trial_counts
from .errors import ConfigError, FormatError, ValidationError
from .files import open_text
from .head import KINDS, LossSpec
from .schedule import MODES
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
        "kind": ("str", "cosface", " | ".join(KINDS)),
        "scale": ("float", None, "logit scale s (default depends on kind)"),
        "margin": ("float", None, "angular margin m (default depends on kind)"),
    },
    "drop": {
        "mode": ("str", "none", " | ".join(MODES)),
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
}


def _field_keys(*sections):
    """Spec field -> the (section, key) it is read from, for every key of
    ``sections``: a key fills the field of its own name, and a [drop] key
    fills drop_<key>.  RunConfig builds the specs from it, and a value that
    a spec or check rejects is reported under its key."""
    return {("drop_" if section == "drop" else "") + key: (section, key)
            for section in sections for key in SCHEMA[section]}


def _convert(section, key, raw):
    kind = SCHEMA[section][key][0]
    try:
        if kind == "int":
            value = int(raw)
        elif kind == "float":
            return float(raw)
        else:
            return str(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {kind}") from None
    if key == "seed":
        with _naming_keys({key: (section, key)}):
            return rng.check_seed(value, key)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ConfigError(f"[{section}] {key}: integer out of the 64-bit range")
    return value


def _reject_unknown(section, key):
    if section not in SCHEMA:
        hint = difflib.get_close_matches(section, SCHEMA, n=1)
        extra = f"; did you mean [{hint[0]}]?" if hint else ""
        raise ConfigError(f"unknown config section [{section}]{extra}")
    if key not in SCHEMA[section]:
        hint = difflib.get_close_matches(key, SCHEMA[section], n=1)
        extra = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ConfigError(f"unknown config key [{section}] {key}{extra}")


class RunConfig:
    """Validated configuration for a whole pipeline run: the corpus spec
    ``corpus``, and the training configs ``train`` and ``adapt``."""

    def __init__(self, values):
        self.values = values
        self.corpus = self._corpus_spec()
        self.train = self._train_config(adapt=False)
        self.adapt = self._train_config(adapt=True)

    @classmethod
    def load(cls, path=None, overrides=None):
        values = {s: {k: v[1] for k, v in keys.items()} for s, keys in SCHEMA.items()}
        if path is not None:
            # no interpolation: a value's "%" is a character, not a syntax error
            parser = configparser.ConfigParser(interpolation=None)
            try:
                with open_text(path) as fh:
                    parser.read_file(fh)
            except (configparser.Error, FormatError) as exc:
                raise ConfigError(f"cannot parse config file {path}: {exc}") from None
            # [DEFAULT] comes first: its keys would leak into every section,
            # so a non-empty one is rejected as an unknown section
            for section in [parser.default_section] + parser.sections():
                for key, raw in parser[section].items():
                    _reject_unknown(section, key)
                    values[section][key] = _convert(section, key, raw)
        for dotted, raw in (overrides or []):
            if "." not in dotted:
                raise ConfigError(f"override {dotted!r} must look like section.key")
            section, key = dotted.split(".", 1)
            _reject_unknown(section, key)
            values[section][key] = _convert(section, key, raw)
        return cls(values)

    def get(self, section, key):
        return self.values[section][key]

    # ------------------------------------------------------------------
    # derived objects

    def _read(self, spec_class, keys):
        """The fields of ``spec_class`` that ``keys`` holds, read from their keys."""
        return {f.name: self.get(*keys[f.name]) for f in fields(spec_class) if f.name in keys}

    def _corpus_spec(self) -> CorpusSpec:
        c = self.values["corpus"]
        keys = _field_keys("corpus")
        with _naming_keys(keys):
            spec = CorpusSpec(**self._read(CorpusSpec, keys))
            spec.validate()
            check_train_class_fraction(c["train_class_fraction"])
            check_trial_counts(c["n_target_trials"], c["n_nontarget_trials"])
        return spec

    def train_seed(self):
        t = self.values["train"]["seed"]
        if t is not None:
            return t
        return rng.derive_seed(self.values["corpus"]["seed"], rng.TRAIN_SEED)

    @staticmethod
    def _halving_steps(raw, total):
        raw = str(raw).strip()
        if raw == "auto":
            return default_halving_steps(total)
        if raw in ("none", ""):
            return ()
        try:
            return tuple(int(s) for s in raw.split(","))
        except ValueError:
            raise ConfigError(f"[train] lr_halving_steps: cannot parse {raw!r}") from None

    def _train_config(self, adapt) -> TrainConfig:
        keys = _field_keys("train", "drop", "model", "loss")
        if adapt:  # adapt's budget is [train] adapt_iterations
            keys = dict(keys, total_iterations=("train", "adapt_iterations"))
        args = self._read(TrainConfig, keys)
        args["lr_halving_steps"] = () if adapt else self._halving_steps(args["lr_halving_steps"],
                                                                         args["total_iterations"])
        args["seed"] = self.train_seed()
        with _naming_keys(keys):
            cfg = TrainConfig(**args, loss=LossSpec.for_kind(**self._read(LossSpec, keys)))
            cfg.validate()
        return cfg

    def to_dict(self):
        return {s: dict(keys) for s, keys in self.values.items()}


@contextlib.contextmanager
def _naming_keys(keys):
    """Raise a ValidationError as a ConfigError that names the [section] key
    its field is read from through ``keys``."""
    try:
        yield
    except ValidationError as exc:
        section, key = keys[exc.field]
        raise ConfigError(f"[{section}] {key}: {exc.requirement}") from None


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
