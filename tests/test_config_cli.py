import json
import re
import shutil
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropclass import cli, rng
from dropclass import corpus as corpus_mod
from dropclass.config import SCHEMA, RunConfig, schema_help
from dropclass.errors import ConfigError
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
        assert cfg.eval_seed() == rng.derive_seed(99, rng.EVAL_SEED)
        assert cfg.train_seed() != cfg.eval_seed()
        explicit = RunConfig.load(overrides=[("train.seed", "7")])
        assert explicit.train_seed() == 7

    def test_halving_steps_parsing(self):
        auto = RunConfig.load(overrides=[("train.total_iterations", "120")])
        assert auto.train_config().lr_halving_steps == (60, 80, 90, 110)
        none = RunConfig.load(overrides=[("train.lr_halving_steps", "none"),
                                         ("train.total_iterations", "10")])
        assert none.train_config().lr_halving_steps == ()
        manual = RunConfig.load(overrides=[("train.lr_halving_steps", "3,6"),
                                           ("train.total_iterations", "10")])
        assert manual.train_config().lr_halving_steps == (3, 6)
        with pytest.raises(ConfigError):
            RunConfig.load(overrides=[("train.lr_halving_steps", "3;6")]).train_config()

    def test_adapt_config_uses_adapt_budget_and_no_halvings(self):
        cfg = RunConfig.load(overrides=[("train.adapt_iterations", "77")])
        tc = cfg.train_config(adapt=True)
        assert tc.total_iterations == 77
        assert tc.lr_halving_steps == ()

    def test_percent_is_a_character_and_empty_default_section_is_accepted(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[DEFAULT]\n[loss]\nkind = cos%face\n")
        assert RunConfig.load(p).get("loss", "kind") == "cos%face"

    def test_schema_help_lists_every_key(self):
        text = schema_help()
        for section in ("corpus", "model", "loss", "drop", "train", "eval"):
            assert f"[{section}]" in text
        assert "lr_halving_steps" in text


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
        (m.params.w2 if tensor == "w2" else m.head.w)[1, 2] = value
        bad = tmp_path / "bad.dckm"
        save_checkpoint(m, bad)
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

    def test_manifest_with_non_integer_class_id(self, data_dir, tmp_path, capsys):
        def corrupt(lines):
            utt, _, tag = lines[2].split("\t")
            lines[2] = f"{utt}\tspk7\t{tag}"
            return lines
        bad = _copy_corpus_dir(data_dir, tmp_path / "d", manifest_lines=corrupt)
        code, err = self.run(["train", "--corpus", str(bad), "--out", str(tmp_path / "o")]
                             + flat(SMALL_CORPUS + SMALL_TRAIN), capsys)
        assert code == 3
        assert "manifest line 3" in err and "'spk7'" in err

    @pytest.mark.parametrize("command", ["train", "adapt"])
    def test_manifest_without_train_split(self, data_dir, trained_dir, tmp_path, capsys, command):
        def drop_train(lines):
            return [ln for ln in lines if not ln.endswith("\ttrain\n")]
        bad = _copy_corpus_dir(data_dir, tmp_path / "d", manifest_lines=drop_train)
        if command == "train":
            argv = (["train", "--corpus", str(bad), "--out", str(tmp_path / "o")]
                    + flat(SMALL_CORPUS + SMALL_TRAIN))
        else:
            argv = self.adapt_argv(trained_dir / "checkpoint.dckm", bad, tmp_path / "o")
        code, err = self.run(argv, capsys)
        assert code == 2
        assert "manifest has no utterances with split tag 'train'" in err

    def test_corpus_with_non_utf8_utterance_id(self, data_dir, tmp_path, capsys):
        raw = bytearray((data_dir / "corpus.dck").read_bytes())
        raw[20] = 0xFF  # first byte of the first utterance id
        bad = _copy_corpus_dir(data_dir, tmp_path / "d", corpus_bytes=bytes(raw))
        code, err = self.run(["train", "--corpus", str(bad), "--out", str(tmp_path / "o")]
                             + flat(SMALL_CORPUS + SMALL_TRAIN), capsys)
        assert code == 3
        assert "not valid UTF-8" in err and "byte offset 20" in err

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

    @pytest.mark.parametrize("command,bad_file", [("diagnose", "manifest.tsv"),
                                                  ("evaluate", "manifest.tsv"),
                                                  ("evaluate", "trials.tsv")])
    def test_non_utf8_text_input_is_io_error(self, data_dir, trained_dir, tmp_path, capsys,
                                             command, bad_file):
        d = _copy_corpus_dir(data_dir, tmp_path / "d")
        (d / "trials.tsv").write_bytes((data_dir / "trials.tsv").read_bytes())
        (d / bad_file).write_bytes(b"\xff" + (d / bad_file).read_bytes())
        argv = [command, "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                "--manifest", str(d / "manifest.tsv"), "--out", str(tmp_path / "o")]
        argv += ["--trials", str(d / "trials.tsv")] if command == "evaluate" else ["--n-bootstrap", "2"]
        code, err = self.run(argv, capsys)
        assert code == 3
        assert f"{bad_file} is not valid UTF-8" in err

    @pytest.mark.parametrize("command, text, message", [
        ("train", "[train]\nlr_halving_steps = 50%\n",
         r"\[train\] lr_halving_steps: cannot parse '50%'"),
        ("gen-data", "[corpus]\nn_speakers = 50%\n",
         r"\[corpus\] n_speakers: cannot parse '50%' as int"),
        ("gen-data", "[corpus]\nn_speakers = %(seed)s\n", r"cannot parse '%\(seed\)s' as int"),
        # alone, [DEFAULT] keys were dropped; beside a section, they leaked into it
        ("gen-data", "[DEFAULT]\nseed = 7\n", r"unknown config section \[DEFAULT\]"),
        ("gen-data", "[DEFAULT]\nseed = 7\n[corpus]\nn_speakers = 10\n",
         r"unknown config section \[DEFAULT\]"),
    ], ids=["percent-train", "percent-gen-data", "interpolation", "default-alone",
            "default-leaks"])
    def test_config_file_error_exits_2(self, data_dir, tmp_path, capsys, command, text,
                                       message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "train":
            argv += ["--corpus", str(data_dir)]
        code, err = self.run(argv, capsys)
        assert code == 2
        assert len(err.splitlines()) == 1 and re.search(message, err), err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff[corpus]\nn_speakers = 10\n")
        code, err = self.run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")],
                             capsys)
        assert code == 2
        assert "cannot parse config file" in err and "not valid UTF-8" in err
        assert not (tmp_path / "d").exists()

    def test_diagnose_rejects_unknown_manifest_utterance(self, data_dir, trained_dir, tmp_path,
                                                         capsys):
        def add_ghost(lines):
            return lines + ["ghost_utt\t0\ttest\n"]
        bad = _copy_corpus_dir(data_dir, tmp_path / "d", manifest_lines=add_ghost)
        code, err = self.run(["diagnose", "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                              "--manifest", str(bad / "manifest.tsv"), "--n-bootstrap", "2",
                              "--out", str(tmp_path / "diag")], capsys)
        assert code == 3
        assert "manifest references unknown utterance 'ghost_utt'" in err
        assert not (tmp_path / "diag" / "kl.json").exists()


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

    def test_evaluate_names_trial_ids_missing_from_the_manifest(self, data_dir, trained_dir,
                                                                tmp_path, capsys):
        d = _copy_corpus_dir(data_dir, tmp_path / "d")
        ghosts = "ghost_d\tghost_b\t1\nghost_c\tghost_a\t0\n"
        (d / "trials.tsv").write_text((data_dir / "trials.tsv").read_text() + ghosts)
        code, err = self.run(self.evaluate_argv(trained_dir, d, tmp_path / "e"), capsys)
        assert code == 2
        assert "missing from the manifest: ['ghost_a', 'ghost_b', 'ghost_c']..." in err
        assert not (tmp_path / "e").exists()

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

    @pytest.mark.parametrize("command", ["train", "evaluate", "diagnose"])
    def test_corpus_with_zero_feature_dim_is_io_error(self, data_dir, trained_dir, tmp_path,
                                                      capsys, command):
        # the gen-data corpus rewritten with F = 0 in its header and T = 15
        # frames (of no values) per utterance
        full = corpus_mod.read_corpus(data_dir / "corpus.dck")
        raw = [corpus_mod.MAGIC, struct.pack("<III", full.n_classes, len(full), 0)]
        for ident, class_id in zip(full.ids, full.class_ids.tolist()):
            raw += [struct.pack("<I", len(ident)), ident.encode(), struct.pack("<II", class_id, 15)]
        bad = _copy_corpus_dir(data_dir, tmp_path / "d", corpus_bytes=b"".join(raw))
        (bad / "trials.tsv").write_bytes((data_dir / "trials.tsv").read_bytes())
        checkpoint = str(trained_dir / "checkpoint.dckm")
        argv = {"train": ["train", "--corpus", str(bad)] + flat(SMALL_CORPUS + SMALL_TRAIN),
                "evaluate": ["evaluate", "--checkpoint", checkpoint, "--manifest",
                             str(bad / "manifest.tsv"), "--trials", str(bad / "trials.tsv")],
                "diagnose": ["diagnose", "--checkpoint", checkpoint, "--manifest",
                             str(bad / "manifest.tsv"), "--n-bootstrap", "2"]}[command]
        code, err = self.run(argv + ["--out", str(tmp_path / "o")], capsys)
        assert code == 3
        assert "feature dim F=0" in err and "byte offset 12" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [("model.hidden_dim", "0"), ("model.hidden_dim", "-3"),
                                          ("model.embed_dim", "0")])
    def test_non_positive_model_size_is_validation_error(self, data_dir, tmp_path, capsys,
                                                         override):
        code, err = self.run(["train", "--corpus", str(data_dir), "--out", str(tmp_path / "o")]
                             + flat(SMALL_CORPUS + SMALL_TRAIN + [override]), capsys)
        assert code == 2
        assert f"{override[0][6:]} must be >= 1, got {override[1]}" in err
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

    @pytest.mark.parametrize("command", ["train", "adapt", "evaluate", "diagnose",
                                         "train_schedule", "adapt_schedule", "adapt_combine",
                                         "adapt_no_enrol", "adapt_no_final_lr"])
    def test_failed_run_leaves_no_output_directory(self, data_dir, trained_dir, tmp_path,
                                                   capsys, command):
        out = tmp_path / "out"
        if command == "train":  # exit 2: no train split
            d = _copy_corpus_dir(data_dir, tmp_path / "d", manifest_lines=lambda lines: [
                ln for ln in lines if not ln.endswith("\ttrain\n")])
            argv = ["train", "--corpus", str(d), "--out", str(out)] + flat(SMALL_CORPUS + SMALL_TRAIN)
            want = 2
        elif command == "adapt":  # exit 3: the source checkpoint is read last
            (tmp_path / "bad.dckm").write_bytes(b"JUNKJUNKJUNK")
            argv = self.adapt_argv(tmp_path / "bad.dckm", data_dir, out)
            want = 3
        elif command == "train_schedule":  # exit 2: DropClass cannot drop all 8 classes
            argv = (["train", "--corpus", str(data_dir), "--out", str(out), "--drop.mode",
                     "dropclass", "--drop.count", "8"] + flat(SMALL_CORPUS + SMALL_TRAIN))
            want = 2
        elif command == "adapt_schedule":  # exit 2: two refreshes of D = 4 need |R| > 8
            argv = self.adapt_argv(trained_dir / "checkpoint.dckm", data_dir, out) + [
                "--drop.count", "4", "--train.adapt_iterations", "5"]
            want = 2
        elif command == "adapt_combine":  # exit 2: a merged row cannot be trained further
            source = load_checkpoint(trained_dir / "checkpoint.dckm")
            source.merged_row = source.head.w[:2].mean(axis=0)
            save_checkpoint(source, tmp_path / "combine.dckm")
            argv = self.adapt_argv(tmp_path / "combine.dckm", data_dir, out)
            want = 2
        elif command == "adapt_no_enrol":  # exit 2: dropadapt ranks classes on enrolment data
            d = _copy_corpus_dir(data_dir, tmp_path / "d", manifest_lines=lambda lines: [
                ln for ln in lines if not ln.endswith("\tenrol\n")])
            argv = self.adapt_argv(trained_dir / "checkpoint.dckm", d, out)
            want = 2
        elif command == "adapt_no_final_lr":  # exit 2: adapt starts at the source's final rate
            source = load_checkpoint(trained_dir / "checkpoint.dckm")
            source.final_lr = 0.0
            save_checkpoint(source, tmp_path / "no_lr.dckm")
            argv = self.adapt_argv(tmp_path / "no_lr.dckm", data_dir, out)
            want = 2
        elif command == "evaluate":  # exit 3: one malformed trial line
            d = _copy_corpus_dir(data_dir, tmp_path / "d")
            (d / "trials.tsv").write_text((data_dir / "trials.tsv").read_text() + "a\tb\t2\n")
            argv = self.evaluate_argv(trained_dir, d, out)
            want = 3
        else:  # exit 2: no such split
            argv = ["diagnose", "--checkpoint", str(trained_dir / "checkpoint.dckm"),
                    "--manifest", str(data_dir / "manifest.tsv"), "--split", "nope",
                    "--n-bootstrap", "2", "--out", str(out)]
            want = 2
        code, err = self.run(argv, capsys)
        assert code == want and "Traceback" not in err
        assert not out.exists()


class TestSeedRange:
    """Seeds outside [0, 2**64) exit 2 at every entry point that takes one."""

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--corpus.seed", "-1"],
        ["train", "--corpus", "unused", "--train.seed", "-3"],
        ["adapt", "--checkpoint", "unused", "--corpus", "unused",
         "--eval.seed", str(2 ** 64)],
        ["train", "--corpus", "unused", "--corpus.seed", "-2"],
    ])
    def test_config_seed_out_of_range(self, tmp_path, capsys, argv):
        code = cli.main(argv + ["--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "seed must be an integer in [0, 2**64)" in err and "Traceback" not in err
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
        cfg = RunConfig.load(None, [("eval.seed", str(2 ** 64 - 1)), ("train.seed", "0")])
        assert cfg.eval_seed() == 2 ** 64 - 1 and cfg.train_seed() == 0


@pytest.mark.parametrize("n", ["0", "-4"])
def test_diagnose_checks_n_bootstrap_before_reading(tmp_path, capsys, n):
    # neither input exists: reading either first would exit 3
    code = cli.main(["diagnose", "--checkpoint", str(tmp_path / "missing.dckm"),
                     "--manifest", str(tmp_path / "missing.tsv"), "--n-bootstrap", n,
                     "--out", str(tmp_path / "diag")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"--n-bootstrap must be >= 1, got {n}" in err and "Traceback" not in err
    assert not (tmp_path / "diag").exists()


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
        assert cli.main(["evaluate", *common, "--trials", str(work / "trials.tsv"),
                         "--out", str(work / "eval")]) in (0, 2, 3, 4)
        assert cli.main(["diagnose", *common, "--n-bootstrap", "3",
                         "--out", str(work / "diag")]) in (0, 2, 3, 4)


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
