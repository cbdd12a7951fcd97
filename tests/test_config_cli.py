import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropclass import cli, rng, trainer
from dropclass import corpus as corpus_mod
from dropclass.config import SCHEMA, RunConfig, schema_help
from dropclass.errors import ConfigError
from dropclass.head import LossSpec
from dropclass.model import load_checkpoint, save_checkpoint


SMALL_CORPUS = [
    ("corpus.n_speakers", "10"),
    ("corpus.utts_per_speaker", "4"),
    ("corpus.frames_per_utt", "15"),
    ("corpus.feat_dim", "8"),
    ("corpus.n_target_trials", "20"),
    ("corpus.n_nontarget_trials", "20"),
]

SMALL_TRAIN = [
    ("model.hidden_dim", "6"),
    ("model.embed_dim", "4"),
    ("train.total_iterations", "12"),
    ("train.batch_size", "4"),
    ("train.frames_per_example", "10"),
]


def flat(pairs):
    out = []
    for k, v in pairs:
        out += [f"--{k}", v]
    return out


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig.load()
        assert cfg.get("corpus", "n_speakers") == 50
        assert cfg.get("loss", "kind") == "cosface"
        assert cfg.get("train", "lr") == 0.2

    def test_file_and_override_precedence(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[train]\nlr = 0.5\nmomentum = 0.9\n")
        cfg = RunConfig.load(p, overrides=[("train.lr", "0.25")])
        assert cfg.get("train", "lr") == 0.25       # override beats file
        assert cfg.get("train", "momentum") == 0.9  # file beats default

    def test_unknown_key_suggestion(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[train]\nmomentom = 0.5\n")
        with pytest.raises(ConfigError, match="did you mean 'momentum'"):
            RunConfig.load(p)

    def test_unknown_section_suggestion(self):
        with pytest.raises(ConfigError, match=r"corpus"):
            RunConfig.load(overrides=[("corpuss.seed", "1")])

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            RunConfig.load(overrides=[("train.lr", "fast")])

    def test_adacos_reset_key_is_unknown(self, tmp_path):
        # the key existed once; a config that still names it is rejected
        p = tmp_path / "run.cfg"
        p.write_text("[loss]\nadacos_reset_on_refresh = on\n")
        with pytest.raises(ConfigError, match=r"unknown config key \[loss\] adacos_reset_on_refresh"):
            RunConfig.load(p)

    def test_derived_seeds_stable_and_distinct(self):
        cfg = RunConfig.load(overrides=[("corpus.seed", "99")])
        assert cfg.train_seed() == rng.derive_seed(99, rng.TRAIN_SEED)
        # diagnose's --seed default is the default corpus seed's evaluation stream, tag 9
        assert cli.DIAGNOSE_SEED == rng.derive_seed(1234, 9)
        assert RunConfig.load().train_seed() != cli.DIAGNOSE_SEED
        explicit = RunConfig.load(overrides=[("train.seed", "7")])
        assert explicit.train_seed() == 7

    def test_halving_steps_parsing(self):
        auto = RunConfig.load(overrides=[("train.total_iterations", "120")])
        assert auto.train.lr_halving_steps == (60, 80, 90, 110)
        none = RunConfig.load(overrides=[("train.lr_halving_steps", "none"),
                                         ("train.total_iterations", "10")])
        assert none.train.lr_halving_steps == ()
        manual = RunConfig.load(overrides=[("train.lr_halving_steps", "3,6"),
                                           ("train.total_iterations", "10")])
        assert manual.train.lr_halving_steps == (3, 6)
        with pytest.raises(ConfigError):
            RunConfig.load(overrides=[("train.lr_halving_steps", "3;6")])

    def test_adapt_config_uses_adapt_budget_and_no_halvings(self):
        cfg = RunConfig.load(overrides=[("train.adapt_iterations", "77")])
        tc = cfg.adapt
        assert tc.total_iterations == 77
        assert tc.lr_halving_steps == ()

    def test_percent_is_a_character_and_empty_default_section_is_accepted(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[DEFAULT]\n[loss]\nkind = cos%face\n")
        # the value reaches the loss check whole, with no interpolation error
        with pytest.raises(ConfigError, match=r"^\[loss\] kind: must be one of .*, got 'cos%face'"):
            RunConfig.load(p)
        p.write_text("[DEFAULT]\n[loss]\nkind = arcface\n")
        assert RunConfig.load(p).get("loss", "kind") == "arcface"

    def test_every_field_has_a_key_and_every_key_a_use(self):
        # a key fills the spec field of its own name, and a [drop] key fills drop_<key>
        train = ["train", "drop", "model", "loss"]
        used = set()
        for spec, sections in [(corpus_mod.CorpusSpec, ["corpus"]), (trainer.TrainConfig, train),
                               (LossSpec, train)]:
            keys = {("drop_" if s == "drop" else "") + k: (s, k)
                    for s in sections for k in SCHEMA[s]}
            names = {f.name for f in fields(spec)} - {"loss", "adacos_scale"}
            assert names <= set(keys), f"{spec.__name__} fields without a key"
            used |= {keys[name] for name in names}
        assert {(s, k) for s in SCHEMA for k in SCHEMA[s]} - used == set(READ_ELSEWHERE)

    @pytest.mark.parametrize("section,key", [(s, k) for s in SCHEMA for k in SCHEMA[s]])
    def test_every_key_changes_what_it_names(self, section, key):
        dotted = f"{section}.{key}"
        cfg = RunConfig.load(overrides=[(dotted, NON_DEFAULT[dotted])])
        assert _named(cfg, section, key) != _named(RunConfig.load(), section, key)

    def test_schema_help_lists_every_key(self):
        text = schema_help()
        assert list(SCHEMA) == ["corpus", "model", "loss", "drop", "train"]
        for section, keys in SCHEMA.items():
            assert f"[{section}]" in text
            for key in keys:
                assert f"  {key} (" in text


# the keys that fill no spec field: the corpus split and trial counts, and
# the budget of adapt
READ_ELSEWHERE = [("corpus", "train_class_fraction"), ("corpus", "n_target_trials"),
                  ("corpus", "n_nontarget_trials"), ("train", "adapt_iterations")]

# a valid value other than the default, for every key
NON_DEFAULT = {
    "corpus.n_speakers": "51", "corpus.utts_per_speaker": "21", "corpus.frames_per_utt": "49",
    "corpus.feat_dim": "19", "corpus.speaker_spread": "1.5", "corpus.frame_noise": "0.7",
    "corpus.skew_factor": "0.5", "corpus.seed": "99", "corpus.train_class_fraction": "0.7",
    "corpus.n_target_trials": "201", "corpus.n_nontarget_trials": "202",
    "model.hidden_dim": "65", "model.embed_dim": "33",
    "loss.kind": "arcface", "loss.scale": "31", "loss.margin": "0.3",
    "drop.mode": "dropclass", "drop.period": "26", "drop.count": "21",
    "train.total_iterations": "2001", "train.adapt_iterations": "501", "train.batch_size": "21",
    "train.frames_per_example": "49", "train.lr": "0.3", "train.momentum": "0.6",
    "train.lr_halving_steps": "100,200", "train.seed": "7",
}


def _named(cfg, section, key):
    """The value that [section] key sets in a loaded RunConfig."""
    if (section, key) == ("train", "seed"):
        return cfg.train_seed()
    if (section, key) == ("train", "adapt_iterations"):
        return cfg.adapt.total_iterations
    if (section, key) in READ_ELSEWHERE:
        return cfg.get(section, key)
    if section == "corpus":
        return getattr(cfg.corpus, key)
    if section == "loss":
        return getattr(cfg.train.loss, key)
    return getattr(cfg.train, ("drop_" if section == "drop" else "") + key)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = cli.main(["gen-data", "--out", str(out)] + flat(SMALL_CORPUS))
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    code = cli.main(["train", "--corpus", str(data_dir), "--out", str(out)]
                    + flat(SMALL_CORPUS + SMALL_TRAIN))
    assert code == 0
    return out


class TestCliPipeline:
    def test_gen_data_artifacts(self, data_dir):
        for name in ("corpus.dck", "manifest.tsv", "trials.tsv"):
            assert (data_dir / name).exists()

    def test_gen_data_idempotent_checksums(self, data_dir, tmp_path):
        import hashlib
        out2 = tmp_path / "data2"
        assert cli.main(["gen-data", "--out", str(out2)] + flat(SMALL_CORPUS)) == 0
        for name in ("corpus.dck", "manifest.tsv", "trials.tsv"):
            h1 = hashlib.sha256((data_dir / name).read_bytes()).hexdigest()
            h2 = hashlib.sha256((out2 / name).read_bytes()).hexdigest()
            assert h1 == h2, name

    def test_train_artifacts(self, trained_dir):
        for name in ("checkpoint.dckm", "metrics.csv", "refresh.log", "run.json"):
            assert (trained_dir / name).exists()
        run = json.loads((trained_dir / "run.json").read_text())
        assert run["command"] == "train"
        assert run["config"]["train"]["total_iterations"] == 12

    def test_train_rejects_adapt_modes(self, data_dir, tmp_path, capsys):
        code = cli.main(["train", "--corpus", str(data_dir), "--out", str(tmp_path / "x"),
                         "--drop.mode", "dropadapt"] + flat(SMALL_CORPUS + SMALL_TRAIN))
        assert code == 2
        assert "adapt command" in capsys.readouterr().err

    def test_adapt_and_lineage(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "adapted"
        code = cli.main(["adapt", "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                         "--corpus", str(data_dir), "--out", str(out),
                         "--drop.mode", "dropadapt", "--drop.period", "4",
                         "--drop.count", "2", "--train.adapt_iterations", "8",
                         "--train.batch_size", "3"]
                        + flat(SMALL_CORPUS + SMALL_TRAIN))
        assert code == 0
        run = json.loads((out / "run.json").read_text())
        assert run["command"] == "adapt"
        src = run["source_checkpoint"]
        import hashlib
        want = hashlib.sha256((trained_dir / "checkpoint.dckm").read_bytes()).hexdigest()
        assert src["sha256"] == want
        # refreshes at iterations 1 and 5
        refresh = (out / "refresh.log").read_text().strip().split("\n")
        assert [int(r.split("\t")[0]) for r in refresh] == [1, 5]

    def test_adapt_rejects_train_modes(self, data_dir, trained_dir, tmp_path, capsys):
        code = cli.main(["adapt", "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                         "--corpus", str(data_dir), "--out", str(tmp_path / "x"),
                         "--drop.mode", "dropclass"] + flat(SMALL_CORPUS + SMALL_TRAIN))
        assert code == 2
        assert "train command" in capsys.readouterr().err

    def test_evaluate(self, data_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = cli.main(["evaluate", "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                         "--manifest", str(data_dir / "manifest.tsv"),
                         "--trials", str(data_dir / "trials.tsv"),
                         "--out", str(out)])
        assert code == 0
        assert "EER" in capsys.readouterr().out
        scores = (out / "scores.tsv").read_text().strip().split("\n")
        assert len(scores) == 40
        result = json.loads((out / "eer.json").read_text())
        assert 0.0 <= result["eer"] <= 1.0
        assert result["n_target"] == 20 and result["n_nontarget"] == 20

    def test_diagnose(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "diag"
        code = cli.main(["diagnose", "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                         "--manifest", str(data_dir / "manifest.tsv"),
                         "--split", "train", "--n-bootstrap", "10",
                         "--out", str(out)])
        assert code == 0
        kl = json.loads((out / "kl.json").read_text())
        assert kl["kl_to_uniform"] >= 0.0
        lines = (out / "ranked_probs.csv").read_text().strip().split("\n")
        assert lines[0] == "rank,p_median,p_low,p_high"
        # the model was trained on the 8-class train split
        assert len(lines) == 9

    def test_missing_corpus_is_io_error(self, tmp_path, capsys):
        code = cli.main(["train", "--corpus", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "out")] + flat(SMALL_TRAIN))
        assert code == 3
        assert "io error" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_io_error(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.dckm"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = cli.main(["evaluate", "--checkpoint", str(bad),
                         "--manifest", str(data_dir / "manifest.tsv"),
                         "--trials", str(data_dir / "trials.tsv"),
                         "--out", str(tmp_path / "e")])
        assert code == 3

    def test_trial_utterance_missing_from_corpus_is_validation_error(
            self, data_dir, trained_dir, tmp_path, capsys):
        full = corpus_mod.read_corpus(data_dir / "corpus.dck")
        gone = corpus_mod.read_trials(data_dir / "trials.tsv").ids[0]
        short = tmp_path / "short.dck"
        corpus_mod.write_corpus(full.take([i for i, u in enumerate(full.ids) if u != gone]), short)
        code = cli.main(["evaluate", "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                         "--manifest", str(data_dir / "manifest.tsv"),
                         "--trials", str(data_dir / "trials.tsv"),
                         "--corpus-file", str(short), "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing from the corpus" in err and gone in err
        assert "Traceback" not in err

    def test_unknown_override_is_validation_error(self, tmp_path, capsys):
        code = cli.main(["gen-data", "--out", str(tmp_path / "d"),
                         "--corpus.speakers", "5"])
        assert code == 2
        assert "n_speakers" in capsys.readouterr().err

    def test_malformed_override_rejected(self, tmp_path, capsys):
        code = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--bogus"])
        assert code == 2

    def test_equals_style_override(self, tmp_path):
        code = cli.main(["gen-data", "--out", str(tmp_path / "d"),
                         "--corpus.n_speakers=10", "--corpus.utts_per_speaker=4",
                         "--corpus.frames_per_utt=10", "--corpus.feat_dim=5",
                         "--corpus.n_target_trials=5", "--corpus.n_nontarget_trials=5"])
        assert code == 0


# ---------------------------------------------------------------------------
# The CLI contract as one table: each row is one run on the outputs of the
# tiny pipeline that tests/tiny.cfg configures, checked by check_row.  The
# rows are listed by the test that runs them, so older tests keep their ids.

TINY_CFG = Path(__file__).with_name("tiny.cfg")
SRC = Path(cli.__file__).parents[1]

# argv templates; {inputs} holds a corpus.dck, manifest.tsv and trials.tsv
_TRAIN = "train --config {cfg} --corpus {inputs} --drop.mode dropclass"
_ADAPT = "adapt --config {cfg} --checkpoint {train}/checkpoint.dckm --corpus {inputs} --drop.mode dropadapt"
_COMBINE = _ADAPT + "_combine"
_SOURCE = _ADAPT.replace("{train}/checkpoint.dckm", "{inputs}/source.dckm")
_EVALUATE = ("evaluate --checkpoint {adapt}/checkpoint.dckm --manifest {inputs}/manifest.tsv"
             " --trials {inputs}/trials.tsv")
_EVALUATE_SOURCE = _EVALUATE.replace("{adapt}/checkpoint.dckm", "{inputs}/source.dckm")
_DIAGNOSE = "diagnose --checkpoint {adapt}/checkpoint.dckm --manifest {inputs}/manifest.tsv --n-bootstrap 20"
_GEN_DATA = "gen-data --config {cfg}"


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def check_invariants(code, err, work, out):
    """What every run promises, whatever its input."""
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    assert list(Path(work).rglob("*.tmp")) == []
    if code != 0:
        assert not Path(out).exists()
    else:  # strict JSON: NaN and Infinity are not numbers there
        for path in Path(out).rglob("*.json"):
            json.loads(path.read_text(), parse_constant=_refuse_constant)


def run_cli(argv):
    """cli.main in-process: the exit code, stdout, and the stderr a console
    run prints, which includes each warning raised."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main(argv)
    shown = [warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught]
    return code, stdout.getvalue(), stderr.getvalue() + "".join(shown)


def run_console(argv, threads):
    """``python -m dropclass.cli`` at a BLAS thread count, which is fixed
    once numpy loads; the suite may pin one for itself, so each child sets its own."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "dropclass.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def _edit(name, change):
    """A mutation: the row's copy of ``name`` becomes change(its bytes)."""
    def mutate(pipeline, work):
        (work / name).write_bytes(change((work / name).read_bytes()))
    return mutate


def _write(name, raw):
    def mutate(pipeline, work):
        (work / name).write_bytes(raw)
    return mutate


def _lines(keep):
    return _edit("manifest.tsv", lambda raw: b"".join(
        ln for ln in raw.splitlines(keepends=True) if keep(ln)))


def _source(change):
    """A mutation: source.dckm is the pipeline's train checkpoint, changed."""
    def mutate(pipeline, work):
        model = load_checkpoint(Path(pipeline["train"]) / "checkpoint.dckm")
        change(model)
        save_checkpoint(model, work / "source.dckm")
    return mutate


def _checkpoint_field(source, field, raw):
    """A mutation: source.dckm is the pipeline's ``source`` checkpoint with
    ``field``, its merged flag or its final lr, set to the 4 bytes ``raw``."""
    def mutate(pipeline, work):
        data = bytearray((Path(pipeline[source]) / "checkpoint.dckm").read_bytes())
        (n_active,) = struct.unpack_from("<I", data, 24)
        at = 28 + 4 * n_active + (4 if field == "final lr" else 0)
        data[at:at + 4] = raw
        (work / "source.dckm").write_bytes(bytes(data))
    return mutate


def _feature(split, value):
    """A mutation: the first utterance of ``split`` gets ``value`` as its first feature."""
    def mutate(pipeline, work):
        entries = corpus_mod.read_manifest(work / "manifest.tsv")
        full = corpus_mod.read_corpus(work / "corpus.dck")
        first = next(i for i, u in enumerate(full.ids) if entries[u][1] == split)
        full.features[first][0, 0] = value
        corpus_mod.write_corpus(full, work / "corpus.dck")
    return mutate


def _gen_data(n_speakers):
    """A mutation: the inputs are gen-data's for tests/tiny.cfg with ``n_speakers`` classes."""
    def mutate(pipeline, work):
        code, _, err = run_cli(["gen-data", "--config", str(TINY_CFG), "--out", str(work),
                                "--corpus.n_speakers", str(n_speakers)])
        assert code == 0, err
    return mutate


def _class_id_spk7(raw):
    lines = raw.splitlines(keepends=True)
    utt, _, tag = lines[2].split(b"\t")
    lines[2] = b"\t".join([utt, b"spk7", tag])
    return b"".join(lines)


def _zero_feature_dim(pipeline, work):
    """The corpus rewritten with F = 0 in its header and T = 15 frames (of no
    values) per utterance."""
    full = corpus_mod.read_corpus(work / "corpus.dck")
    raw = [corpus_mod.MAGIC, struct.pack("<III", full.n_classes, len(full), 0)]
    for ident, class_id in zip(full.ids, full.class_ids.tolist()):
        raw += [struct.pack("<I", len(ident)), ident.encode(), struct.pack("<II", class_id, 15)]
    (work / "corpus.dck").write_bytes(b"".join(raw))


class Row(NamedTuple):
    id: str
    argv: str                   # template; the runner appends --out {out} unless it names --out
    code: int                   # expected exit code; any but 0 leaves no --out
    stderr: str = ""            # regex that must match the whole of stderr
    mutate: Callable = None     # mutate(pipeline, work) edits the copied inputs
    stdout: str = ""            # regex that must occur in stdout
    same_as: str = None         # pipeline output whose files the run reproduces byte for byte
    threads: int = 0            # run as a console process at this BLAS thread count
    out: str = "out"            # --out, relative to the row's work directory


def _bad_config(name, template, text, message):
    """A row: ``template`` run on a config file holding ``text`` exits 2 with ``message``."""
    return Row(name, template.replace("{cfg}", "{inputs}/run.cfg"), 2, f"error: {message}\n",
               _write("run.cfg", text))


_OUT_OF_MEMORY = r"error: out of memory: Unable to allocate [\d.]+ [PT]iB for an array with shape .*\n"

MANIFEST_WITHOUT_TRAIN_SPLIT = [
    Row(command, template, 2, r"error: manifest has no utterances with split tag 'train'\n",
        _lines(lambda ln: not ln.endswith(b"\ttrain\n")))
    for command, template in [("train", _TRAIN), ("adapt", _ADAPT)]
]

# runs that fail before their first write, one per reason
FAILED_RUNS = [
    MANIFEST_WITHOUT_TRAIN_SPLIT[0],
    # the source checkpoint is read last
    Row("adapt", _SOURCE, 3, r"io error: wrong magic bytes.*\n", _write("source.dckm", b"JUNKJUNKJUNK")),
    Row("train_schedule", _TRAIN + " --drop.count 16", 2,
        r"error: dropclass needs D < M, got D=16, M=16\n"),
    Row("adapt_schedule", _ADAPT + " --drop.count 8", 2,
        r"error: 2 refreshes \(T=20, P=10\) of D=8 classes each need \|R\| > 16, got \|R\|=16.*\n"),
    # the default [drop] values suit train --drop.mode dropclass; with
    # adapt's 500 iterations no single drop count or period fits |R| = 16
    Row("adapt_default_config", _ADAPT.replace("--config {cfg} ", ""), 2,
        r"error: 20 refreshes \(T=500, P=25\) of D=20 classes each need \|R\| > 400, "
        r"got \|R\|=16\n"),
    # a merged row cannot be trained further
    Row("adapt_combine", _ADAPT.replace("{train}", "{adapt}"), 2,
        r"error: cannot resume training a combine-mode model\n"),
    # dropadapt ranks classes on enrolment data
    Row("adapt_no_enrol", _ADAPT, 2,
        r"error: mode 'dropadapt' requires enrolment data\n",
        _lines(lambda ln: not ln.endswith(b"\tenrol\n"))),
    # the train split must hold the source's 16 classes: 24 once trained on
    # a subset of them, and 8 once left head rows without data
    Row("adapt_more_classes", _ADAPT, 2,
        r"error: train corpus class ids must be contiguous 0\.\.15, one per class of the model; "
        r"got 24 distinct ids\n", _gen_data(30)),
    Row("adapt_fewer_classes", _ADAPT, 2,
        r"error: train corpus class ids must be contiguous 0\.\.15, one per class of the model; "
        r"got 8 distinct ids\n", _gen_data(10)),
    # adapt starts at the source's final rate
    Row("adapt_no_final_lr", _SOURCE, 2, r"error: source model has no recorded final learning rate\n",
        _source(lambda model: setattr(model, "final_lr", 0.0))),
    # the reader takes only the flags and rates the writer can write; a
    # flag of 2 once loaded as merged, and a NaN rate failed at iteration 1
    Row("evaluate_merged_flag_2", _EVALUATE_SOURCE, 3,
        r"io error: merged flag must be 0 or 1, got 2 \(byte offset 76\)\n",
        _checkpoint_field("adapt", "merged flag", struct.pack("<I", 2))),
    Row("adapt_nan_final_lr", _SOURCE, 3,
        r"io error: non-finite final lr nan \(byte offset 96\)\n",
        _checkpoint_field("train", "final lr", struct.pack("<f", float("nan")))),
    Row("evaluate", _EVALUATE, 3, r"io error: trial line 121 malformed.*\n",
        _edit("trials.tsv", lambda raw: raw + b"a\tb\t2\n")),
    Row("diagnose", _DIAGNOSE + " --split nope", 2,
        r"error: manifest has no utterances with split tag 'nope'\n"),
    # an empty --out would put every file in the working directory
    Row("empty_out", _TRAIN + " --out=", 2, r"error: --out must not be empty\n"),
    # arrays past the 128 TiB user address space, so each allocation fails
    # at once whatever the host's overcommit setting
    Row("diagnose_memory", _DIAGNOSE + " --n-bootstrap 1000000000000000", 2, _OUT_OF_MEMORY),
    # a count matrix past the largest array size numpy can describe
    Row("diagnose_beyond_numpy", _DIAGNOSE + " --n-bootstrap 100000000000000000", 2,
        r"error: out of memory: a \(100000000000000000, \d+\) count matrix is larger than "
        r"any array numpy can describe\n"),
    Row("gen_data_memory", _GEN_DATA + " --corpus.n_target_trials 100000000000000000", 2,
        _OUT_OF_MEMORY),
    Row("train_memory", _TRAIN + " --model.hidden_dim 10000000000000", 2, _OUT_OF_MEMORY),
    # finite values that overflow float32: no writer emits a file its reader rejects
    Row("train_overflow", _TRAIN + " --train.lr 1e38", 4,
        r"numeric abort: non-finite value in [\w ]+; no checkpoint written\n"),
    Row("gen_data_overflow", _GEN_DATA + " --corpus.speaker_spread 1e38", 4,
        r"numeric abort: features of spk\d{4}_utt\d{4} overflow float32\n"),
]

_CUT = r"io error: truncated payload while reading features of spk0019_utt0005 \(byte offset 117496\)\n"
_TRAILING = r"io error: trailing bytes after last utterance \(byte offset 118456\)\n"
_NAN = r"io error: non-finite feature value in spk\d+_utt\d+ \(byte offset \d+\)\n"

CONTRACT = [
    # reruns give the pipeline's bytes; inference at one or two BLAS threads
    Row("adapt-rerun", _COMBINE, 0,
        stdout=r"active classes 12;", same_as="adapt"),
    # the first write creates a nested --out
    Row("train-nested-out", _TRAIN, 0, stdout=r"trained 40 iterations", same_as="train", out="a/b"),
    # exp(s * cos) at the largest AdaCos scale once overflowed float32 at iteration 22
    Row("train-adacos", "train --config {cfg} --corpus {inputs} --loss.kind adacos", 0,
        stdout=r"trained 40 iterations"),
    Row("evaluate-nested-out", _EVALUATE, 0, stdout=r"EER ", same_as="eval", out="a/b"),
    Row("evaluate-1-thread", _EVALUATE, 0, stdout=r"EER ", same_as="eval", threads=1),
    Row("evaluate-2-threads", _EVALUATE, 0, stdout=r"EER ", same_as="eval", threads=2),
    Row("evaluate-crlf-trials", _EVALUATE, 0, stdout=r"EER ", same_as="eval",
        mutate=_edit("trials.tsv", lambda raw: raw.replace(b"\n", b"\r\n"))),
    Row("diagnose-1-thread", _DIAGNOSE, 0, stdout=r"KL to uniform", same_as="diag", threads=1),
    Row("diagnose-2-threads", _DIAGNOSE, 0, stdout=r"KL to uniform", same_as="diag", threads=2),
    # the last utterance has 30 frames x 8 dims x 4 bytes = 960 bytes of
    # features, so cutting 100 bytes lands inside them
    Row("evaluate-cut-corpus", _EVALUATE, 3, _CUT, _edit("corpus.dck", lambda raw: raw[:-100])),
    Row("diagnose-cut-corpus", _DIAGNOSE, 3, _CUT, _edit("corpus.dck", lambda raw: raw[:-100])),
    Row("evaluate-trailing-byte", _EVALUATE, 3, _TRAILING, _edit("corpus.dck", lambda raw: raw + b"\0")),
    Row("diagnose-trailing-byte", _DIAGNOSE, 3, _TRAILING, _edit("corpus.dck", lambda raw: raw + b"\0")),
    # evaluate reads the trial utterances and diagnose the test split, but
    # both check every utterance
    Row("evaluate-nan-outside-trials", _EVALUATE, 3, _NAN, _feature("train", np.nan)),
    Row("diagnose-nan-outside-split", _DIAGNOSE, 3, _NAN, _feature("train", np.nan)),
    # finite, so the corpus reads; the embedding overflows, and the run
    # prints its one line and no numpy warning
    Row("evaluate-huge-feature", _EVALUATE, 4, r"numeric abort: scores must be finite\n",
        _feature("test", 3e38)),
    Row("diagnose-huge-feature", _DIAGNOSE, 4,
        r"numeric abort: probability vector holds a non-finite value\n", _feature("test", 3e38)),
]

NON_UTF8_TEXT_INPUTS = [
    Row(f"{command}-{name}", template, 3, rf"io error: \S*/{name} is not valid UTF-8: .*\n",
        _edit(name, lambda raw: b"\xff" + raw))
    for command, template, name in [("diagnose", _DIAGNOSE, "manifest.tsv"),
                                    ("evaluate", _EVALUATE, "manifest.tsv"),
                                    ("evaluate", _EVALUATE, "trials.tsv")]
]

# a config that any command rejects makes every command exit 2
CONFIG_ERRORS = [
    _bad_config("percent-train", _TRAIN, b"[train]\nlr_halving_steps = 50%\n",
                r"\[train\] lr_halving_steps: cannot parse '50%'"),
    _bad_config("percent-gen-data", _GEN_DATA, b"[corpus]\nn_speakers = 50%\n",
                r"\[corpus\] n_speakers: cannot parse '50%' as int"),
    _bad_config("interpolation", _GEN_DATA, b"[corpus]\nn_speakers = %(seed)s\n",
                r"\[corpus\] n_speakers: cannot parse '%\(seed\)s' as int"),
    # alone, [DEFAULT] keys were dropped; beside a section, they leaked into it
    _bad_config("default-alone", _GEN_DATA, b"[DEFAULT]\nseed = 7\n",
                r"unknown config section \[DEFAULT\]"),
    _bad_config("default-leaks", _GEN_DATA, b"[DEFAULT]\nseed = 7\n[corpus]\nn_speakers = 10\n",
                r"unknown config section \[DEFAULT\]"),
    _bad_config("removed-key", _GEN_DATA, b"[loss]\nadacos_reset_on_refresh = on\n",
                r"unknown config key \[loss\] adacos_reset_on_refresh"),
    _bad_config("eval-section", _GEN_DATA, b"[eval]\nseed = 7\n", r"unknown config section \[eval\]"),
    # gen-data and adapt once checked only the values they use
    _bad_config("percent-train-key-gen-data", _GEN_DATA, b"[train]\nlr_halving_steps = 50%\n",
                r"\[train\] lr_halving_steps: cannot parse '50%'"),
    _bad_config("percent-adapt", _ADAPT, b"[train]\nlr_halving_steps = 50%\n",
                r"\[train\] lr_halving_steps: cannot parse '50%'"),
    # a value that a spec rejects is reported once, under its key
    _bad_config("batch-size-1", _GEN_DATA, b"[train]\nbatch_size = 1\n",
                r"\[train\] batch_size: must be >= 2, got 1"),
    _bad_config("bogus-loss", _GEN_DATA, b"[loss]\nkind = bogus\n",
                r"\[loss\] kind: must be one of \('softmax', .*\), got 'bogus'"),
    _bad_config("drop-count-0", _GEN_DATA, b"[drop]\nmode = dropclass\ncount = 0\n",
                r"\[drop\] count: must be >= 1, got 0"),
    _bad_config("frame-noise-0", _GEN_DATA, b"[corpus]\nframe_noise = 0\n",
                r"\[corpus\] frame_noise: must be a finite number > 0, got 0.0"),
    # an infinite value once passed "> 0"
    _bad_config("lr-inf", _TRAIN, b"[train]\nlr = inf\n",
                r"\[train\] lr: must be a finite number > 0, got inf"),
    # a rate past float32's range once trained, and then failed to write its
    # final rate, or became inf in the file, or an OverflowError
    Row("train_final_lr_overflow", _TRAIN + " --train.lr 1e39 --train.lr_halving_steps none", 2,
        r"error: \[train\] lr: must be finite as float32, got 1e\+39\n"),
    _bad_config("speaker-spread-inf", _GEN_DATA, b"[corpus]\nspeaker_spread = inf\n",
                r"\[corpus\] speaker_spread: must be a finite number > 0, got inf"),
    _bad_config("frame-noise-inf", _GEN_DATA, b"[corpus]\nframe_noise = 1e999\n",
                r"\[corpus\] frame_noise: must be a finite number > 0, got inf"),
    _bad_config("loss-scale-inf", _ADAPT, b"[loss]\nscale = inf\n",
                r"\[loss\] scale: must be a finite number > 0, got inf"),
    _bad_config("margin-2", _GEN_DATA, b"[loss]\nmargin = 2\n",
                r"\[loss\] margin: must be in \[0, 1\) for cosface, got 2.0"),
    # softmax and adacos ignore the margin, and a NaN one reached run.json
    _bad_config("margin-nan-softmax", _TRAIN, b"[loss]\nkind = softmax\nmargin = nan\n",
                r"\[loss\] margin: must be a finite number, got nan"),
    _bad_config("margin-inf-adacos", _GEN_DATA, b"[loss]\nkind = adacos\nmargin = inf\n",
                r"\[loss\] margin: must be a finite number, got inf"),
    _bad_config("adapt-budget-0", _GEN_DATA, b"[train]\nadapt_iterations = 0\n",
                r"\[train\] adapt_iterations: must be >= 1, got 0"),
    _bad_config("train-seed-negative", _GEN_DATA, b"[train]\nseed = -1\n",
                r"\[train\] seed: must be an integer in \[0, 2\*\*64\), got -1"),
    # iterations count from 1, so a step below 1 halves nothing
    _bad_config("halving-step-0", _TRAIN, b"[train]\nlr_halving_steps = 0,10\n",
                r"\[train\] lr_halving_steps: must be >= 1, got 0"),
    # the split and trial counts are checked at load, by every command
    _bad_config("train-class-fraction", _TRAIN, b"[corpus]\ntrain_class_fraction = 5\n",
                r"\[corpus\] train_class_fraction: must be in \(0, 1\), got 5.0"),
    _bad_config("train-class-fraction-gen-data", _GEN_DATA, b"[corpus]\ntrain_class_fraction = 0\n",
                r"\[corpus\] train_class_fraction: must be in \(0, 1\), got 0.0"),
    _bad_config("target-trials-0", _TRAIN, b"[corpus]\nn_target_trials = 0\n",
                r"\[corpus\] n_target_trials: must be >= 1, got 0"),
    _bad_config("nontarget-trials-0-gen-data", _GEN_DATA, b"[corpus]\nn_nontarget_trials = 0\n",
                r"\[corpus\] n_nontarget_trials: must be >= 1, got 0"),
    # an integer value must fit in 64 bits
    _bad_config("huge-budget", _TRAIN, b"[train]\ntotal_iterations = " + b"9" * 400 + b"\n",
                r"\[train\] total_iterations: integer out of the 64-bit range"),
]

ZERO_FEATURE_DIM = [
    Row(command, template, 3, r"io error: feature dim F=0 .*\(byte offset 12\)\n", _zero_feature_dim)
    for command, template in [("train", _TRAIN), ("evaluate", _EVALUATE), ("diagnose", _DIAGNOSE)]
]


def _params(rows):
    two_cores = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
    return [pytest.param(row, id=row.id, marks=[two_cores] if row.threads > 1 else [])
            for row in rows]


def _argv(template, paths):
    if "--out" not in template:
        template += " --out {out}"
    return [token.format(**paths) for token in template.split()]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train -> adapt -> evaluate -> diagnose on tests/tiny.cfg,
    run once; the table's rows read these outputs and never write them."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {"cfg": str(TINY_CFG)}
    for name, template in [("data", _GEN_DATA), ("train", _TRAIN), ("adapt", _COMBINE),
                           ("eval", _EVALUATE), ("diag", _DIAGNOSE)]:
        paths[name] = str(root / name)
        code, _, err = run_cli(_argv(template, dict(paths, inputs=paths["data"], out=paths[name])))
        assert code == 0 and err == "", err
    assert list(root.rglob("*.tmp")) == []
    return paths


def check_row(row, pipeline, work):
    """Run ``row`` on a copy of the pipeline's inputs in ``work``."""
    for name in ("corpus.dck", "manifest.tsv", "trials.tsv"):
        shutil.copy(Path(pipeline["data"]) / name, work)
    if row.mutate:
        row.mutate(pipeline, work)
    out = work / row.out
    argv = _argv(row.argv, dict(pipeline, inputs=work, out=out))
    code, stdout, err = run_console(argv, row.threads) if row.threads else run_cli(argv)
    check_invariants(code, err, work, out)
    assert code == row.code, err
    assert re.fullmatch(row.stderr, err), err
    assert re.search(row.stdout, stdout), stdout
    if row.same_as:
        want = Path(pipeline[row.same_as])
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in want.iterdir())
        for path in want.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("row", _params(CONTRACT))
def test_cli_contract(pipeline, tmp_path, row):
    check_row(row, pipeline, tmp_path)


def _copy_corpus_dir(data_dir, dest, manifest_lines=None, corpus_bytes=None):
    dest.mkdir()
    (dest / "corpus.dck").write_bytes(
        corpus_bytes if corpus_bytes is not None else (data_dir / "corpus.dck").read_bytes())
    manifest = (data_dir / "manifest.tsv").read_text()
    if manifest_lines is not None:
        manifest = "".join(manifest_lines(manifest.splitlines(keepends=True)))
    (dest / "manifest.tsv").write_text(manifest)
    return dest


class TestBoundaryErrors:
    """Malformed inputs exit with their documented code and no traceback."""

    @staticmethod
    def run(argv, capsys):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def adapt_argv(self, checkpoint, data_dir, out, mode="dropadapt"):
        return (["adapt", "--checkpoint", str(checkpoint), "--corpus", str(data_dir),
                 "--out", str(out), "--drop.mode", mode, "--drop.period", "4",
                 "--drop.count", "2", "--train.adapt_iterations", "4",
                 "--train.batch_size", "3"] + flat(SMALL_CORPUS + SMALL_TRAIN))

    @pytest.mark.parametrize("active", ["decreasing", "out_of_range", "empty"])
    def test_checkpoint_with_invalid_active_ids(self, data_dir, trained_dir, tmp_path,
                                                capsys, active):
        m = load_checkpoint(trained_dir / "checkpoint.dckm")
        m.active = {"decreasing": np.array([3, 1, 7]),
                    "out_of_range": np.array([0, 1, m.n_classes + 5]),
                    "empty": np.array([], dtype=np.int64)}[active]
        bad = tmp_path / "bad.dckm"
        save_checkpoint(m, bad)
        code, err = self.run(self.adapt_argv(bad, data_dir, tmp_path / "out"), capsys)
        assert code == 3
        assert "invalid active ids" in err

    def test_checkpoint_with_zero_dim(self, data_dir, trained_dir, tmp_path, capsys):
        raw = bytearray((trained_dir / "checkpoint.dckm").read_bytes())
        raw[8:12] = (0).to_bytes(4, "little")  # F, the first of the dims
        bad = tmp_path / "bad.dckm"
        bad.write_bytes(bytes(raw))
        code, err = self.run(self.adapt_argv(bad, data_dir, tmp_path / "out"), capsys)
        assert code == 3
        assert "zero dimension" in err

    def test_checkpoint_with_one_head_row(self, data_dir, tmp_path, capsys):
        f, h, d = 8, 6, 4
        n_floats = h * f + h + h * h + h + d * 2 * h + d + 1 * d  # embedder, then the head
        raw = (b"DCKM" + struct.pack("<I", 1) + struct.pack("<IIII", f, h, d, 1)
               + struct.pack("<II", 1, 0) + struct.pack("<I", 0) + struct.pack("<f", 0.1)
               + np.ones(n_floats, dtype="<f4").tobytes())
        bad = tmp_path / "one_row.dckm"
        bad.write_bytes(raw)
        code, err = self.run(["diagnose", "--checkpoint", str(bad),
                              "--manifest", str(data_dir / "manifest.tsv"),
                              "--n-bootstrap", "2", "--out", str(tmp_path / "diag")], capsys)
        assert code == 3
        assert "head matrix needs at least 2 rows" in err

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("tensor", ["w2", "head matrix"])
    def test_checkpoint_with_non_finite_tensor(self, data_dir, trained_dir, tmp_path, capsys,
                                               tensor, value):
        m = load_checkpoint(trained_dir / "checkpoint.dckm")
        marker = np.float32(1234.5)
        (m.params.w2 if tensor == "w2" else m.head.w)[1, 2] = marker
        bad = tmp_path / "bad.dckm"
        save_checkpoint(m, bad)
        # the writer refuses a non-finite tensor, so the value is put into its bytes
        saved = bad.read_bytes()
        assert saved.count(marker.tobytes()) == 1
        bad.write_bytes(saved.replace(marker.tobytes(), np.float32(value).tobytes()))
        code, err = self.run(["evaluate", "--checkpoint", str(bad),
                              "--manifest", str(data_dir / "manifest.tsv"),
                              "--trials", str(data_dir / "trials.tsv"),
                              "--out", str(tmp_path / "eval")], capsys)
        assert code == 3
        assert err.count("\n") == 1 and f"non-finite value in {tensor}" in err
        offset = int(err.rsplit("byte offset ", 1)[1].rstrip(")\n"))
        raw = bad.read_bytes()
        assert not np.isfinite(np.frombuffer(raw, dtype="<f4", count=1, offset=offset)[0])
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command", ["evaluate", "diagnose", "adapt", "adapt-dropadapt_combine",
                                         "adapt-drop_only_data"])
    def test_checkpoint_with_huge_finite_weight(self, data_dir, trained_dir, tmp_path, capsys,
                                                command):
        # 3e38 is finite, so the checkpoint loads; the first embedding
        # overflows, and the finite checks downstream abort the run
        m = load_checkpoint(trained_dir / "checkpoint.dckm")
        m.params.w2[1, 2] = 3e38
        bad = tmp_path / "huge.dckm"
        save_checkpoint(m, bad)
        out = tmp_path / "out"
        command, _, mode = command.partition("-")
        if command == "adapt":
            argv = self.adapt_argv(bad, data_dir, out, mode or "dropadapt")
        else:
            argv = [command, "--checkpoint", str(bad), "--manifest", str(data_dir / "manifest.tsv"),
                    "--out", str(out)]
            argv += (["--trials", str(data_dir / "trials.tsv")] if command == "evaluate"
                     else ["--n-bootstrap", "2"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = self.run(argv, capsys)
        assert code == 4
        assert err.count("\n") == 1 and err.startswith("numeric abort: ")
        # a console run prints each numpy warning to stderr as two more lines
        assert [str(w.message) for w in caught] == []
        if command == "adapt":
            # the abort keeps the last-good checkpoint: its weights were never
            # stepped, and the first refresh dropped no class
            kept = load_checkpoint(out / "checkpoint.dckm")
            for got, want in zip(kept.params.tensors() + [kept.head.w],
                                 m.params.tensors() + [m.head.w]):
                assert got.tobytes() == want.tobytes()
            assert np.array_equal(kept.active, m.active)
            assert kept.merged_row is None
        else:
            assert not out.exists()

    def test_manifest_with_non_integer_class_id(self, pipeline, tmp_path):
        check_row(Row("", _TRAIN, 3, r"io error: manifest line 3 has non-integer class id 'spk7'\n",
                      _edit("manifest.tsv", _class_id_spk7)), pipeline, tmp_path)

    @pytest.mark.parametrize("row", _params(MANIFEST_WITHOUT_TRAIN_SPLIT))
    def test_manifest_without_train_split(self, pipeline, tmp_path, row):
        check_row(row, pipeline, tmp_path)

    def test_corpus_with_non_utf8_utterance_id(self, pipeline, tmp_path):
        # byte 20 is the first byte of the first utterance id
        check_row(Row("", _TRAIN, 3, r"io error: utt id is not valid UTF-8 \(byte offset 20\)\n",
                      _edit("corpus.dck", lambda raw: raw[:20] + b"\xff" + raw[21:])), pipeline, tmp_path)

    def test_corpus_with_nan_feature_fails_diagnose(self, data_dir, trained_dir, tmp_path,
                                                    capsys):
        full = corpus_mod.read_corpus(data_dir / "corpus.dck")
        entries = corpus_mod.read_manifest(data_dir / "manifest.tsv")
        target = next(u for u in full.ids if entries[u][1] == "test")
        full.features[full.ids.index(target)][3, 5] = np.nan
        bad = _copy_corpus_dir(data_dir, tmp_path / "d")
        corpus_mod.write_corpus(full, bad / "corpus.dck")
        raw = (bad / "corpus.dck").read_bytes()
        offset = raw.index(target.encode()) + len(target) + 8 + 4 * (3 * 8 + 5)
        assert np.isnan(np.frombuffer(raw, dtype="<f4", count=1, offset=offset)[0])
        code, err = self.run(["diagnose", "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                              "--manifest", str(bad / "manifest.tsv"), "--n-bootstrap", "2",
                              "--out", str(tmp_path / "diag")], capsys)
        assert code == 3
        assert "non-finite feature" in err and f"byte offset {offset}" in err
        assert not (tmp_path / "diag" / "kl.json").exists()

    @pytest.mark.parametrize("row", _params(NON_UTF8_TEXT_INPUTS))
    def test_non_utf8_text_input_is_io_error(self, pipeline, tmp_path, row):
        check_row(row, pipeline, tmp_path)

    @pytest.mark.parametrize("row", _params(CONFIG_ERRORS))
    def test_config_file_error_exits_2(self, pipeline, tmp_path, row):
        check_row(row, pipeline, tmp_path)

    def test_non_utf8_config_is_validation_error(self, pipeline, tmp_path):
        check_row(_bad_config("", _GEN_DATA, b"\xff[corpus]\nn_speakers = 10\n",
                              r"cannot parse config file (\S+): \1 is not valid UTF-8: .*"), pipeline, tmp_path)

    def test_diagnose_rejects_unknown_manifest_utterance(self, pipeline, tmp_path):
        check_row(Row("", _DIAGNOSE, 3, r"io error: manifest references unknown utterance 'ghost_utt'\n",
                      _edit("manifest.tsv", lambda raw: raw + b"ghost_utt\t0\ttest\n")), pipeline, tmp_path)

    def evaluate_argv(self, trained_dir, d, out, corpus_file=None):
        argv = ["evaluate", "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                "--manifest", str(d / "manifest.tsv"), "--trials", str(d / "trials.tsv"),
                "--out", str(out)]
        return argv + (["--corpus-file", str(corpus_file)] if corpus_file else [])

    def test_evaluate_checks_utterances_no_trial_names(self, data_dir, trained_dir, tmp_path,
                                                       capsys):
        full = corpus_mod.read_corpus(data_dir / "corpus.dck")
        named = set(corpus_mod.read_trials(data_dir / "trials.tsv").ids)
        target = next(u for u in full.ids if u not in named)
        full.features[full.ids.index(target)][1, 2] = np.inf
        bad = _copy_corpus_dir(data_dir, tmp_path / "d")
        (bad / "trials.tsv").write_bytes((data_dir / "trials.tsv").read_bytes())
        corpus_mod.write_corpus(full, bad / "corpus.dck")
        raw = (bad / "corpus.dck").read_bytes()
        offset = raw.index(target.encode()) + len(target) + 8 + 4 * (1 * 8 + 2)
        code, err = self.run(self.evaluate_argv(trained_dir, bad, tmp_path / "e"), capsys)
        assert code == 3
        assert f"non-finite feature value in {target}" in err
        assert f"byte offset {offset}" in err
        assert not (tmp_path / "e").exists()

    def test_evaluate_names_trial_ids_missing_from_the_manifest(self, pipeline, tmp_path):
        ghosts = b"ghost_d\tghost_b\t1\nghost_c\tghost_a\t0\n"
        check_row(Row("", _EVALUATE, 2, r"error: trials reference utterances missing from the manifest: "
                      r"\['ghost_a', 'ghost_b', 'ghost_c'\]\.\.\.\n", _edit("trials.tsv", lambda raw: raw + ghosts)),
                  pipeline, tmp_path)

    def test_evaluate_reports_trial_errors_before_corpus_errors(self, data_dir, trained_dir,
                                                               tmp_path, capsys):
        d = _copy_corpus_dir(data_dir, tmp_path / "d", corpus_bytes=b"JUNK")
        lines = (data_dir / "trials.tsv").read_text().splitlines(keepends=True)
        lines[4] = "only\ttwo_fields\n"
        (d / "trials.tsv").write_text("".join(lines))
        code, err = self.run(self.evaluate_argv(trained_dir, d, tmp_path / "e"), capsys)
        assert code == 3
        assert "trial line 5 malformed: 'only\\ttwo_fields'" in err
        (d / "trials.tsv").write_bytes((data_dir / "trials.tsv").read_bytes())
        code, err = self.run(self.evaluate_argv(trained_dir, d, tmp_path / "e"), capsys)
        assert code == 3 and "wrong magic bytes" in err

    def test_evaluate_reports_missing_utterances_before_zero_embeddings(
            self, data_dir, trained_dir, tmp_path, capsys):
        m = load_checkpoint(trained_dir / "checkpoint.dckm")
        m.params.wp[...] = 0.0
        m.params.bp[...] = 0.0  # every embedding is zero
        (tmp_path / "zero").mkdir()
        save_checkpoint(m, tmp_path / "zero" / "checkpoint.dckm")
        full = corpus_mod.read_corpus(data_dir / "corpus.dck")
        gone = corpus_mod.read_trials(data_dir / "trials.tsv").ids[-1]
        short = tmp_path / "short.dck"
        corpus_mod.write_corpus(full.take([i for i, u in enumerate(full.ids) if u != gone]), short)
        code, err = self.run(self.evaluate_argv(tmp_path / "zero", data_dir, tmp_path / "e",
                                                corpus_file=short), capsys)
        assert code == 2
        assert f"missing from the corpus: [{gone!r}]..." in err
        code, err = self.run(self.evaluate_argv(tmp_path / "zero", data_dir, tmp_path / "e"),
                             capsys)
        assert code == 4 and "zero embedding" in err
        assert not (tmp_path / "e").exists()

    def test_evaluate_names_trial_ids_a_corpus_wholly_lacks(self, data_dir, trained_dir,
                                                           tmp_path, capsys):
        full = corpus_mod.read_corpus(data_dir / "corpus.dck")
        named = corpus_mod.read_trials(data_dir / "trials.tsv").ids
        other = tmp_path / "other.dck"
        corpus_mod.write_corpus(full.take([i for i, u in enumerate(full.ids)
                                           if u not in set(named)]), other)
        code, err = self.run(self.evaluate_argv(trained_dir, data_dir, tmp_path / "e",
                                                corpus_file=other), capsys)
        assert code == 2
        assert f"missing from the corpus: {named[:3]}..." in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("row", _params(ZERO_FEATURE_DIM))
    def test_corpus_with_zero_feature_dim_is_io_error(self, pipeline, tmp_path, row):
        check_row(row, pipeline, tmp_path)

    @pytest.mark.parametrize("override", [("model.hidden_dim", "0"), ("model.hidden_dim", "-3"),
                                          ("model.embed_dim", "0")])
    def test_non_positive_model_size_is_validation_error(self, data_dir, tmp_path, capsys,
                                                         override):
        code, err = self.run(["train", "--corpus", str(data_dir), "--out", str(tmp_path / "o")]
                             + flat(SMALL_CORPUS + SMALL_TRAIN + [override]), capsys)
        assert code == 2
        assert f"error: [model] {override[0][6:]}: must be >= 1, got {override[1]}\n" == err
        assert not (tmp_path / "o").exists()

    def test_manifest_is_read_before_the_corpus(self, data_dir, tmp_path, capsys):
        def corrupt(lines):
            utt, _, tag = lines[2].split("\t")
            lines[2] = f"{utt}\tspk7\t{tag}"
            return lines
        bad = _copy_corpus_dir(data_dir, tmp_path / "d", manifest_lines=corrupt,
                               corpus_bytes=b"JUNK")
        code, err = self.run(["train", "--corpus", str(bad), "--out", str(tmp_path / "o")]
                             + flat(SMALL_CORPUS + SMALL_TRAIN), capsys)
        assert code == 3
        assert "manifest line 3" in err and "magic" not in err

    @pytest.mark.parametrize("command", ["train", "diagnose"])
    def test_only_the_splits_a_command_uses_are_copied(self, data_dir, trained_dir, tmp_path,
                                                       monkeypatch, capsys, command):
        # a manifest entry the corpus lacks, in a split the command does not use
        unused = "test" if command == "train" else "train"
        bad = _copy_corpus_dir(data_dir, tmp_path / "d",
                               manifest_lines=lambda lines: lines + [f"ghost\t0\t{unused}\n"])
        copied = []
        original = corpus_mod.read_corpus

        def recording(*args, **kwargs):
            c = original(*args, **kwargs)
            copied.extend(c.ids)
            return c

        monkeypatch.setattr(corpus_mod, "read_corpus", recording)
        if command == "train":
            argv = (["train", "--corpus", str(bad), "--out", str(tmp_path / "o")]
                    + flat(SMALL_CORPUS + SMALL_TRAIN))
            used = ("train", "enrol")
        else:
            argv = ["diagnose", "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                    "--manifest", str(bad / "manifest.tsv"), "--n-bootstrap", "2",
                    "--out", str(tmp_path / "o")]
            used = ("test",)
        code, _ = self.run(argv, capsys)
        assert code == 0
        entries = corpus_mod.read_manifest(data_dir / "manifest.tsv")
        assert sorted(copied) == sorted(u for u, (_, tag) in entries.items() if tag in used)

    @pytest.mark.parametrize("row", _params(FAILED_RUNS))
    def test_failed_run_leaves_no_output_directory(self, pipeline, tmp_path, row):
        check_row(row, pipeline, tmp_path)


class TestSeedRange:
    """Seeds outside [0, 2**64) exit 2 at every entry point that takes one."""

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--corpus.seed", "-1"],
        ["train", "--corpus", "unused", "--train.seed", "-3"],
        ["adapt", "--checkpoint", "unused", "--corpus", "unused",
         "--train.seed", str(2 ** 64)],
        ["train", "--corpus", "unused", "--corpus.seed", "-2"],
    ])
    def test_config_seed_out_of_range(self, tmp_path, capsys, argv):
        code = cli.main(argv + ["--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "] seed: must be an integer in [0, 2**64), got " in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_diagnose_seed_out_of_range(self, data_dir, trained_dir, tmp_path, capsys, seed):
        code = cli.main(["diagnose", "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                         "--manifest", str(data_dir / "manifest.tsv"), "--seed", seed,
                         "--out", str(tmp_path / "diag")])
        err = capsys.readouterr().err
        assert code == 2
        assert "--seed must be an integer in [0, 2**64)" in err and "Traceback" not in err

    def test_largest_seed_accepted(self):
        cfg = RunConfig.load(None, [("corpus.seed", str(2 ** 64 - 1)), ("train.seed", "0")])
        assert cfg.corpus.seed == 2 ** 64 - 1 and cfg.train_seed() == 0


# neither input exists: reading either first would exit 3
@pytest.mark.parametrize("row", _params(
    Row(n, "diagnose --checkpoint {inputs}/missing.dckm --manifest {inputs}/missing.tsv --n-bootstrap " + n,
        2, f"error: --n-bootstrap must be >= 1, got {n}\n") for n in ["0", "-4"]))
def test_diagnose_checks_n_bootstrap_before_reading(pipeline, tmp_path, row):
    check_row(row, pipeline, tmp_path)


def test_interrupted_train_leaves_no_output_directory(pipeline, tmp_path, monkeypatch):
    steps = []
    original = trainer.step

    def interrupting(*args, **kwargs):
        steps.append(1)
        if len(steps) == 2:
            raise KeyboardInterrupt
        return original(*args, **kwargs)

    monkeypatch.setattr(trainer, "step", interrupting)
    out = tmp_path / "a" / "out"
    with pytest.raises(KeyboardInterrupt):
        run_cli(_argv(_TRAIN, dict(pipeline, inputs=pipeline["data"], out=out)))
    assert len(steps) == 2
    assert list(tmp_path.iterdir()) == []


def test_adapt_run_record_names_the_source_by_digest_only(pipeline, tmp_path):
    # two byte-identical sources in different directories give equal records
    source = (Path(pipeline["train"]) / "checkpoint.dckm").read_bytes()
    records = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "checkpoint.dckm").write_bytes(source)
        out = tmp_path / name / "out"
        paths = dict(pipeline, train=tmp_path / name, inputs=pipeline["data"], out=out)
        code, _, err = run_cli(_argv(_ADAPT, paths))
        assert code == 0, err
        records.append((out / "run.json").read_bytes())
    assert records[0] == records[1]
    assert json.loads(records[0])["source_checkpoint"] == {
        "sha256": hashlib.sha256(source).hexdigest()}


# acceptance-sized training: at these shapes the weight-gradient products
# sum in another order on two BLAS threads
_THREAD_SIZES = ["--corpus.n_speakers", "50", "--corpus.frames_per_utt", "50",
                 "--train.batch_size", "20", "--train.frames_per_example", "50",
                 "--model.hidden_dim", "64", "--train.total_iterations", "20",
                 "--drop.period", "5", "--drop.count", "20"]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
def test_training_bits_do_not_depend_on_the_thread_count(tmp_path):
    data = tmp_path / "data"
    code, _, err = run_cli(["gen-data", "--out", str(data), *_THREAD_SIZES])
    assert code == 0, err
    argv = ["train", "--corpus", str(data), "--drop.mode", "dropclass", *_THREAD_SIZES]
    # in-process at the session's one thread, then a console process at two
    code, _, err = run_cli(argv + ["--out", str(tmp_path / "one")])
    assert code == 0, err
    code, _, err = run_console(argv + ["--out", str(tmp_path / "two")], threads=2)
    assert code == 0, err
    for name in ("checkpoint.dckm", "metrics.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes(), name


def test_out_that_is_a_file_is_io_error(pipeline, tmp_path):
    out = tmp_path / "out"
    out.write_bytes(b"not a directory\n")
    code, _, err = run_cli(_argv(_TRAIN, dict(pipeline, inputs=pipeline["data"], out=out)))
    assert code == 3
    assert re.fullmatch(rf"io error: \[Errno 17\] File exists: '{re.escape(str(out))}'\n", err), err
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"not a directory\n"


def test_cmd_diagnose_defaults_to_the_command_line_seed(pipeline, tmp_path):
    # the pipeline's diagnose ran without --seed
    data = Path(pipeline["data"])
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.cmd_diagnose(Path(pipeline["adapt"]) / "checkpoint.dckm", data / "manifest.tsv",
                                data / "corpus.dck", tmp_path / "diag", n_bootstrap=20)
    assert code == 0
    want = Path(pipeline["diag"]) / "ranked_probs.csv"
    assert (tmp_path / "diag" / "ranked_probs.csv").read_bytes() == want.read_bytes()


def test_diagnose_embeds_the_split_once(data_dir, trained_dir, tmp_path, monkeypatch):
    from dropclass import embedder
    frames = []
    original = embedder.embed_by_length

    def counting(params, feats):
        frames.append(sum(f.shape[0] for f in feats))
        return original(params, feats)

    monkeypatch.setattr(embedder, "embed_by_length", counting)
    code = cli.main(["diagnose", "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                     "--manifest", str(data_dir / "manifest.tsv"), "--n-bootstrap", "5",
                     "--out", str(tmp_path / "diag")])
    assert code == 0
    full = corpus_mod.read_corpus(data_dir / "corpus.dck")
    entries = corpus_mod.read_manifest(data_dir / "manifest.tsv")
    test_frames = sum(x.shape[0] for u, x in zip(full.ids, full.features)
                      if entries[u][1] == "test")
    # one inference pass, over the whole split
    assert frames == [test_frames]


# A mutation of one input file: a truncation, or 1-4 bytes overwritten.
# Positions are taken modulo the file size; small ones hit the headers.
_POSITIONS = st.one_of(st.integers(0, 64), st.integers(0, 2 ** 20))
_MUTATIONS = st.one_of(st.tuples(st.just("truncate"), _POSITIONS, st.just(b"")),
                       st.tuples(st.just("overwrite"), _POSITIONS,
                                 st.binary(min_size=1, max_size=4)))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["checkpoint.dckm", "manifest.tsv", "trials.tsv", "corpus.dck"]),
       mutation=_MUTATIONS)
def test_mutated_evaluate_and_diagnose_inputs_exit_with_a_documented_code(
        data_dir, trained_dir, name, mutation):
    kind, pos, new = mutation
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copy(trained_dir / "checkpoint.dckm", work)
        for other in ("manifest.tsv", "trials.tsv", "corpus.dck"):
            shutil.copy(data_dir / other, work)
        raw = bytearray((work / name).read_bytes())
        pos %= len(raw)
        if kind == "truncate":
            del raw[pos:]
        else:
            raw[pos:pos + len(new)] = new[:len(raw) - pos]
        (work / name).write_bytes(bytes(raw))
        common = ["--checkpoint", str(work / "checkpoint.dckm"),
                  "--manifest", str(work / "manifest.tsv"),
                  "--corpus-file", str(work / "corpus.dck")]
        # an exception that escapes main fails the test with its traceback
        for argv in (["evaluate", *common, "--trials", str(work / "trials.tsv"),
                      "--out", str(work / "eval")],
                     ["diagnose", *common, "--n-bootstrap", "3", "--out", str(work / "diag")]):
            code, _, err = run_cli(argv)
            check_invariants(code, err, work, argv[-1])


# ---------------------------------------------------------------------------
# config files of any content load or raise ConfigError

_SECTIONS = [*SCHEMA, "DEFAULT", "Corpus", "extra"]
_KEYS = sorted({key for keys in SCHEMA.values() for key in keys}) + ["momentom"]
_VALUES = st.one_of(st.sampled_from(["1", "0.5", "-3", "auto", "none", "3,6", "", "nan", "1e999",
                                     "50%", "%%", "%(seed)s", "%(", "1" * 5000]),
                    st.text(max_size=8))
_KEY_LINES = st.tuples(st.sampled_from(_KEYS), st.sampled_from([" = ", "=", ":"]),
                       _VALUES).map("".join)
_SECTION_BLOCKS = st.tuples(st.sampled_from(_SECTIONS).map("[{}]".format),
                            st.lists(_KEY_LINES, max_size=4)).map(lambda b: [b[0], *b[1]])


@st.composite
def _config_files(draw):
    """The bytes of a config file: sections and keys drawn from a few names,
    so duplicates are common, values with "%", maybe a line of any text and
    maybe a byte that is not UTF-8."""
    lines = [line for block in draw(st.lists(_SECTION_BLOCKS, max_size=4)) for line in block]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    raw = "\n".join(lines).encode("utf-8")
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(raw)))
        raw = raw[:pos] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + raw[pos:]
    return raw


@settings(max_examples=300, deadline=None)
@given(_config_files())
def test_any_config_file_loads_or_raises_config_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(raw)
        try:
            RunConfig.load(path)
        except ConfigError:
            pass
