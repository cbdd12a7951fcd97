"""The file boundary: one module opens files, writes are atomic, and
binary readers fail with a byte offset."""

import ast
import builtins
import math
import pathlib
import struct
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropclass import cli, corpus, evaluation, files, model as model_mod, trainer
from dropclass.config import RunConfig
from dropclass.errors import FormatError, NumericError
from dropclass.head import HeadMatrix
import oracles

SRC = pathlib.Path(files.__file__).parent


def _calls_builtin_open(node):
    f = node.func
    if isinstance(f, ast.Name):
        return f.id == "open"
    return (isinstance(f, ast.Attribute) and f.attr == "open"
            and isinstance(f.value, ast.Name) and f.value.id in ("builtins", "io"))


class TestOneModuleOpensFiles:
    def test_only_files_py_calls_open(self):
        offenders = []
        for path in sorted(SRC.glob("*.py")):
            if path.name == "files.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                          if isinstance(n, ast.Call) and _calls_builtin_open(n)]
        assert offenders == []

    def test_no_private_byte_cursor_left(self):
        # read_corpus and load_checkpoint parse through files.ByteReader: no
        # function there has the name of one of its cursor methods, save the
        # row selection LabeledCorpus.take
        cursor = {"take", "unpack", "window", "floats", "expect_end"}
        for name in ("corpus.py", "model.py"):
            tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
            allowed = {id(n) for c in ast.walk(tree)
                       if isinstance(c, ast.ClassDef) and c.name == "LabeledCorpus"
                       for n in c.body if isinstance(n, ast.FunctionDef) and n.name == "take"}
            assert not [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
                        and n.name in cursor and id(n) not in allowed], name

    def test_model_does_not_touch_the_filesystem(self):
        tree = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        assert "os" not in imported


class TestAtomicOpen:
    def test_replaces_target(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("old\n")
        with files.atomic_open(p) as fh:
            fh.write("new\n")
        assert p.read_text() == "new\n"
        assert list(tmp_path.iterdir()) == [p]

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_exception_keeps_target_and_removes_temp(self, tmp_path, exc):
        p = tmp_path / "a.bin"
        p.write_bytes(b"old")
        with pytest.raises(exc):
            with files.atomic_open(p, "wb") as fh:
                fh.write(b"half of the new")
                raise exc()
        assert p.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [p]

    def test_exception_creates_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            with files.atomic_open(tmp_path / "a.txt") as fh:
                fh.write("x")
                raise RuntimeError
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_is_created(self, tmp_path):
        p = tmp_path / "a" / "b" / "c.txt"
        with files.atomic_open(p) as fh:
            fh.write("x")
        assert p.read_text() == "x"
        assert list(p.parent.iterdir()) == [p]
        # a parent that is a regular file stays one, and the write fails
        blocker = tmp_path / "f"
        blocker.write_bytes(b"keep")
        with pytest.raises(FileExistsError):
            with files.atomic_open(blocker / "c.txt"):
                pass
        assert blocker.read_bytes() == b"keep"


class TestReaders:
    def test_byte_reader_offsets(self, tmp_path, monkeypatch):
        p = tmp_path / "x.bin"
        p.write_bytes(struct.pack("<IH", 7, 3) + b"ab")
        # windows of 1 and 3 bytes refill inside fields; 1 MiB never does
        for block in (1, 3, 1 << 20):
            monkeypatch.setattr(files, "READ_BLOCK", block)
            with files.ByteReader(p, "blob") as r:
                assert r.unpack("<I", "count") == (7,)
                assert r.take(2, "short") == struct.pack("<H", 3)
                with pytest.raises(FormatError, match=r"truncated blob while reading tail") as exc:
                    r.take(3, "tail")
                assert exc.value.offset == 6
                with pytest.raises(FormatError, match="trailing bytes after the short") as exc:
                    r.expect_end("the short")
                assert exc.value.offset == 6
                assert r.take(2, "tail") == b"ab"
                r.expect_end("tail")

    def test_open_text_names_the_file(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_bytes(b"ok line\n\xff\xfe\n")
        with pytest.raises(FormatError, match="bad.tsv is not valid UTF-8"):
            with files.open_text(p) as fh:
                list(fh)


    def test_line_blocks_hold_whole_lines(self, tmp_path):
        p = tmp_path / "t.tsv"
        text = "a\nbb\n" + "\u00e9" * 40 + "\n\n" + "x" * 30 + "\nlast"
        p.write_bytes(text.encode("utf-8"))
        blocks = list(files.line_blocks(p, size=7))
        assert "".join(t for _, t in blocks) == text
        assert all(raw.decode("utf-8") == t for raw, t in blocks)
        assert all(raw.endswith(b"\n") for raw, _ in blocks[:-1])
        assert blocks[-1][1] == "last"

    def test_line_blocks_name_a_file_that_is_not_utf8(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_bytes(b"ok line\n\xff\xfe\n")
        with pytest.raises(FormatError, match="bad.tsv is not valid UTF-8: invalid start byte"):
            list(files.line_blocks(p, 4))


# ---------------------------------------------------------------------------
# interrupted writes


class _DiskFull:
    """A file whose first write stores half of its data and then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False


def _tiny_model():
    return model_mod.new_model(3, 4, hidden_dim=2, embed_dim=2, seed=1)


def _tiny_corpus():
    spec = corpus.CorpusSpec(n_speakers=4, utts_per_speaker=2, frames_per_utt=3, feat_dim=3)
    return corpus.generate_corpus(spec)


def _metrics():
    m = trainer.MetricsLog()
    for it in range(1, 6):
        m.append(it, 1.0 / it, 0.1, 4, kl=0.5 if it == 1 else None)
        m.refresh_records.append((it, "dropclass", 4, (it, it + 1)))
    return m


def _trials(n):
    """n trials over ten ids, every other one a target."""
    k = np.arange(n)
    return corpus.TrialList([f"u{i}" for i in range(10)], k % 10, (k + 3) % 10, k % 2 == 0)


WRITERS = {
    "write_scores": lambda p: evaluation.write_scores(
        _trials(5000), np.arange(5000) / 7, p),
    "save_checkpoint": lambda p: model_mod.save_checkpoint(_tiny_model(), p),
    "write_corpus": lambda p: corpus.write_corpus(_tiny_corpus(), p),
    "MetricsLog.to_csv": lambda p: _metrics().to_csv(p),
    "write_refresh_log": lambda p: _metrics().write_refresh_log(p),
    "write_eer_json": lambda p: evaluation.write_eer_json(
        evaluation.EerResult(0.1, 0.2, False), 3, 4, p),
    "write_manifest": lambda p: corpus.write_manifest([_tiny_corpus()], p),
    "write_trials": lambda p: corpus.write_trials(_trials(5000), p),
    "ranked_probs.to_csv": lambda p: evaluation.RankedProbabilityReport(
        np.ones(3), np.zeros(3), np.ones(3)).to_csv(p),
    "run.json": lambda p: cli._write_run_manifest(p, RunConfig.load(), "train"),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_interrupted_write_keeps_the_previous_file(tmp_path, monkeypatch, name):
    target = tmp_path / "artifact"
    previous = b"previous artifact line\n" * 500
    target.write_bytes(previous)
    real_open = builtins.open

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" in mode and pathlib.Path(path).parent == tmp_path:
            return _DiskFull(fh)
        return fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[name](target)
    monkeypatch.undo()
    assert target.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


@pytest.mark.parametrize("name, value", [("w1", np.inf), ("head matrix", np.nan),
                                         ("merged row", 1e39), ("final lr", 1e39),
                                         ("final lr", np.nan)])
def test_save_checkpoint_refuses_a_tensor_its_reader_rejects(tmp_path, name, value):
    m = _tiny_model()
    m.head = HeadMatrix(m.head.w.astype(np.float64))  # 1e39 is finite until the float32 cast
    m.merged = True
    if name == "final lr":
        m.final_lr = value
    else:
        {"w1": m.params.w1, "head matrix": m.head.w, "merged row": m.merged_row}[name][0] = value
    with pytest.raises(NumericError, match=f"non-finite value in {name}; no checkpoint written"):
        model_mod.save_checkpoint(m, tmp_path / "out" / "model.dckm")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field, raw, message", [
    ("merged flag", struct.pack("<I", 2), "merged flag must be 0 or 1, got 2"),
    ("final lr", struct.pack("<f", math.nan), "non-finite final lr nan"),
    ("final lr", struct.pack("<f", -math.inf), "non-finite final lr -inf"),
], ids=["merged flag 2", "final lr nan", "final lr -inf"])
def test_load_checkpoint_rejects_a_header_field_at_its_offset(tmp_path, field, raw, message):
    m = _tiny_model()
    m.final_lr = 0.05
    path = tmp_path / "model.dckm"
    model_mod.save_checkpoint(m, path)
    data = bytearray(path.read_bytes())
    # magic, version, dims, active count and ids, then the merged flag and final lr
    at = 4 + 4 + 16 + 4 + 4 * m.active.size + (4 if field == "final lr" else 0)
    data[at:at + 4] = raw
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=message) as exc:
        model_mod.load_checkpoint(path)
    assert exc.value.offset == at


# ---------------------------------------------------------------------------
# truncated binary files

_ids = st.text(alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
               min_size=1, max_size=4)


@st.composite
def _corpora(draw):
    f = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    ids, class_ids, feats = [], [], []
    for i in range(n):
        ids.append(draw(_ids))
        class_ids.append(draw(st.integers(0, m - 1)))
        feats.append(np.full((draw(st.integers(1, 3)), f), i + 0.5, dtype=np.float32))
    return corpus.LabeledCorpus(ids, class_ids, feats, n_classes=m)


@st.composite
def _models(draw):
    f, h, d = [draw(st.integers(1, 3)) for _ in range(3)]
    m = draw(st.integers(2, 4))
    model = model_mod.new_model(f, m, hidden_dim=h, embed_dim=d, seed=draw(st.integers(0, 9)))
    model.active = np.array(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))),
                            dtype=np.int64)
    if draw(st.booleans()):
        model.merged = True
        model.head.rows[-1] = 0.25
    model.final_lr = 0.05
    return model


def _every_prefix_fails(write, read, obj):
    with tempfile.TemporaryDirectory() as tmp:
        full = pathlib.Path(tmp) / "full"
        write(obj, full)
        data = full.read_bytes()
        read(full)  # the whole file is valid
        cut = pathlib.Path(tmp) / "cut"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(FormatError) as exc:
                read(cut)
            assert exc.value.offset is not None and exc.value.offset <= n


@settings(max_examples=30, deadline=None)
@given(_corpora())
def test_every_truncated_corpus_is_a_format_error(c):
    _every_prefix_fails(corpus.write_corpus, corpus.read_corpus, c)


@settings(max_examples=30, deadline=None)
@given(_models())
def test_every_truncated_checkpoint_is_a_format_error(model):
    _every_prefix_fails(model_mod.save_checkpoint, model_mod.load_checkpoint, model)


# ---------------------------------------------------------------------------
# the windowed corpus reader against the in-memory reference

_values = st.sampled_from([0.5, -1.25, 3.0, math.nan, math.inf, -math.inf])


@st.composite
def _corpus_files(draw):
    """The bytes of a small DCK1 file, maybe damaged, and a keep set."""
    c = draw(_corpora())
    for x in c.features:
        x.flat = draw(st.lists(_values, min_size=x.size, max_size=x.size))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "c.dck"
        corpus.write_corpus(c, path)
        raw = bytearray(path.read_bytes())
    kind = draw(st.sampled_from(["intact", "truncate", "overwrite", "trailing"]))
    pos = draw(st.integers(0, len(raw) - 1))
    if kind == "truncate":
        del raw[pos:]
    elif kind == "overwrite":
        new = draw(st.binary(min_size=1, max_size=4))
        raw[pos:pos + len(new)] = new[:len(raw) - pos]
    elif kind == "trailing":
        raw += draw(st.binary(min_size=1, max_size=3))
    keep = draw(st.one_of(st.none(), st.just(set()),
                          st.sets(st.sampled_from(c.ids + ["absent"]), min_size=1)))
    return bytes(raw), keep


def _outcome(read, path, keep):
    try:
        c = read(path, keep=keep)
    except FormatError as exc:
        return str(exc), exc.offset
    return (c.ids, c.class_ids.tolist(), [(x.shape, x.tobytes()) for x in c.features],
            c.n_classes)


@settings(max_examples=300, deadline=None)
@given(_corpus_files(), st.sampled_from([1, 3, 7, 64]), st.sampled_from([1, 2, 64]))
def test_windowed_read_corpus_matches_the_in_memory_reader(case, block, chunk):
    raw, keep = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "c.dck"
        path.write_bytes(raw)
        want = _outcome(oracles.read_corpus, path, keep)
        with mock.patch.object(files, "READ_BLOCK", block), \
                mock.patch.object(corpus, "_CHECK_CHUNK", chunk):
            assert _outcome(corpus.read_corpus, path, keep) == want


def test_read_corpus_allocates_its_window_once(tmp_path, monkeypatch):
    feats = list(np.random.default_rng(0).normal(size=(200, 10, 20)).astype(np.float32))
    c = corpus.LabeledCorpus([f"u{i:03d}" for i in range(200)], np.arange(200) % 5, feats,
                             n_classes=5)
    path = tmp_path / "c.dck"
    corpus.write_corpus(c, path)
    monkeypatch.setattr(files, "READ_BLOCK", 4096)
    assert path.stat().st_size >= 8 * 4096
    made = []

    def counting_bytearray(*args):
        made.append(bytearray(*args))
        return made[-1]

    # files.py's own name shadows the builtin for the reader's allocations
    monkeypatch.setattr(files, "bytearray", counting_bytearray, raising=False)
    got = corpus.read_corpus(path)
    assert [len(b) for b in made] == [4096]
    assert got.ids == c.ids and all(np.array_equal(a, b) for a, b in zip(got.features, feats))


def test_read_corpus_memory_does_not_grow_with_the_file(tmp_path):
    n, t, f = 1000, 110, 20  # 8.8 MB of features
    feats = list(np.random.default_rng(0).normal(size=(n, t, f)).astype(np.float32))
    path = tmp_path / "big.dck"
    corpus.write_corpus(corpus.LabeledCorpus([f"u{i:04d}" for i in range(n)],
                                             np.arange(n) % 10, feats, n_classes=10), path)
    del feats
    assert path.stat().st_size >= 8 << 20
    tracemalloc.start()
    try:
        assert len(corpus.read_corpus(path, keep=set())) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
