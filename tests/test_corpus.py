import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dropclass import corpus, rng
from dropclass.errors import FormatError, NumericError, SplitError, TrialError, ValidationError


def trial_list(trials):
    """A TrialList of (a, b, is_target) tuples."""
    ids = sorted({u for a, b, _ in trials for u in (a, b)})
    row = {u: r for r, u in enumerate(ids)}
    return corpus.TrialList(ids, np.array([row[a] for a, _, _ in trials], dtype=np.intp),
                            np.array([row[b] for _, b, _ in trials], dtype=np.intp),
                            np.array([t for _, _, t in trials], dtype=bool))


def assert_same_trials(got, want):
    """Field-by-field equality, dtypes included."""
    assert got.ids == want.ids
    for field in ("a", "b", "target"):
        x, y = getattr(got, field), getattr(want, field)
        assert x.dtype == y.dtype and np.array_equal(x, y), field


def by_class(c):
    """{class id: [utt ids]} in corpus order: the per-utterance reference."""
    groups = {}
    for ident, class_id in zip(c.ids, c.class_ids.tolist()):
        groups.setdefault(class_id, []).append(ident)
    return groups


def one_class(feats):
    """A one-class corpus of the feature arrays, ids ``utt-000``, ``utt-001``, ..."""
    return corpus.LabeledCorpus([f"utt-{i:03d}" for i in range(len(feats))],
                                np.zeros(len(feats), np.int64), feats, n_classes=1)


def small_spec(**kw):
    base = dict(n_speakers=3, utts_per_speaker=2, frames_per_utt=50, feat_dim=20, seed=7)
    base.update(kw)
    return corpus.CorpusSpec(**base)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
def test_spec_seed_outside_the_uint64_range_rejected(seed):
    with pytest.raises(ValidationError, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
        small_spec(seed=seed).validate()


class TestGenerate:
    def test_counts_forced_by_spec(self):
        c = corpus.generate_corpus(small_spec())
        assert len(c) == 6
        assert c.n_classes == 3
        assert c.class_ids.tolist() == [0, 0, 1, 1, 2, 2]
        for x in c.features:
            assert x.shape == (50, 20) and x.dtype == np.float32

    def test_determinism_bit_identical(self):
        a = corpus.generate_corpus(small_spec())
        b = corpus.generate_corpus(small_spec())
        assert a.ids == b.ids
        for xa, xb in zip(a.features, b.features):
            assert xa.tobytes() == xb.tobytes()

    def test_different_seed_differs(self):
        a = corpus.generate_corpus(small_spec())
        b = corpus.generate_corpus(small_spec(seed=8))
        assert a.features[0].tobytes() != b.features[0].tobytes()

    def test_frame_mean_matches_generative_formula(self):
        # Monte-Carlo: per-utterance frame mean ~ mu + offset with stderr
        # sigma_frame/sqrt(T); at 3 sigma, >= 99% of components should land.
        spec = small_spec(n_speakers=2, utts_per_speaker=1, frames_per_utt=5000,
                          frame_noise=0.5, seed=13)
        c = corpus.generate_corpus(spec)
        from dropclass import rng
        means_rng = rng.stream(spec.seed, rng.CLASS_MEANS)
        mu = means_rng.normal(0.0, spec.speaker_spread, size=(2, 20))
        hits = total = 0
        for idx, (class_id, x) in enumerate(zip(c.class_ids.tolist(), c.features)):
            u_rng = rng.stream(spec.seed, rng.UTTERANCE, idx)
            offset = u_rng.normal(0.0, spec.speaker_spread / 4.0, size=20)
            expected = mu[class_id] + offset
            err = np.abs(x.mean(axis=0) - expected)
            tol = 3 * spec.frame_noise / np.sqrt(5000)
            hits += int((err <= tol).sum())
            total += 20
        assert hits / total >= 0.99

    def test_within_class_covariance_trace(self):
        # trace of within-class frame covariance ~ F*(sigma_frame^2 + (sigma_spk/4)^2)
        spec = small_spec(n_speakers=2, utts_per_speaker=40, frames_per_utt=300, seed=21)
        c = corpus.generate_corpus(spec)
        frames = np.concatenate([x for x, k in zip(c.features, c.class_ids) if k == 0])
        trace = np.trace(np.cov(frames.T))
        expected = 20 * (spec.frame_noise ** 2 + (spec.speaker_spread / 4.0) ** 2)
        assert abs(trace - expected) / expected < 0.10

    def test_skew_shifts_first_half(self):
        plain = corpus.generate_corpus(small_spec(n_speakers=4))
        skewed = corpus.generate_corpus(small_spec(n_speakers=4, skew_factor=0.5))
        delta = skewed.features[0] - plain.features[0]
        assert np.allclose(delta, 0.5 * corpus.SKEW_SHIFT_PER_DIM, atol=1e-5)
        # classes past ceil(M/2) are untouched
        last = int(np.flatnonzero(plain.class_ids == 3)[0])
        assert plain.features[last].tobytes() == skewed.features[last].tobytes()

    @pytest.mark.parametrize("field,value", [
        ("n_speakers", 0), ("utts_per_speaker", -1), ("frames_per_utt", 0),
        ("speaker_spread", 0.0), ("frame_noise", -0.5), ("skew_factor", 1.5),
        ("speaker_spread", math.inf), ("frame_noise", math.nan),
    ])
    def test_invalid_spec_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            corpus.generate_corpus(small_spec(**{field: value}))

    @pytest.mark.parametrize("field", ["speaker_spread", "frame_noise"])
    def test_features_that_overflow_float32_are_refused(self, field):
        with pytest.raises(NumericError, match=r"features of spk\d{4}_utt\d{4} overflow float32"):
            corpus.generate_corpus(small_spec(**{field: 1e39}))


class TestSplit:
    def test_class_counts(self):
        c = corpus.generate_corpus(small_spec(n_speakers=10, utts_per_speaker=4))
        train, enrol, test = corpus.split_corpus(c, 0.8, seed=1)
        assert np.unique(train.class_ids).size == 8
        assert np.union1d(enrol.class_ids, test.class_ids).size == 2

    def test_enrol_test_fifty_fifty(self):
        c = corpus.generate_corpus(small_spec(n_speakers=10, utts_per_speaker=4))
        train, enrol, test = corpus.split_corpus(c, 0.8, seed=1)
        for cls in np.unique(enrol.class_ids):
            n_e = np.count_nonzero(enrol.class_ids == cls)
            n_t = np.count_nonzero(test.class_ids == cls)
            assert n_e == 2 and n_t == 2

    def test_odd_count_rounds_enrol_down(self):
        c = corpus.generate_corpus(small_spec(n_speakers=10, utts_per_speaker=5))
        _, enrol, test = corpus.split_corpus(c, 0.8, seed=1)
        for cls in np.unique(enrol.class_ids):
            n_e = np.count_nonzero(enrol.class_ids == cls)
            n_t = np.count_nonzero(test.class_ids == cls)
            assert (n_e, n_t) == (2, 3)

    def test_disjoint_classes(self):
        c = corpus.generate_corpus(small_spec(n_speakers=12, utts_per_speaker=4))
        train, enrol, test = corpus.split_corpus(c, 0.75, seed=3)
        assert not np.intersect1d(train.class_ids, test.class_ids).size
        assert not np.intersect1d(train.class_ids, enrol.class_ids).size
        # enrol and test share classes but not utterances
        assert np.array_equal(np.unique(enrol.class_ids), np.unique(test.class_ids))
        assert not (set(enrol.ids) & set(test.ids))

    def test_too_few_classes_rejected(self):
        c = corpus.generate_corpus(small_spec(n_speakers=4, utts_per_speaker=2))
        with pytest.raises(SplitError):
            corpus.split_corpus(c, 0.9, seed=0)  # < 2 held-out
        with pytest.raises(SplitError):
            corpus.split_corpus(c, 0.1, seed=0)  # < 2 train
        with pytest.raises(SplitError, match=r"^train_class_fraction must be in \(0, 1\), got 1.0$"):
            corpus.split_corpus(c, 1.0, seed=0)


class TestTrials:
    def make_test_split(self):
        c = corpus.generate_corpus(small_spec(n_speakers=8, utts_per_speaker=4))
        _, _, test = corpus.split_corpus(c, 0.75, seed=2)
        return test

    def test_labels_consistent_with_classes(self):
        test = self.make_test_split()
        by_id = dict(zip(test.ids, test.class_ids.tolist()))
        trials = corpus.make_trials(test, 2, 2, seed=5)
        assert len(trials.trials) == 4
        for a, b, is_target in trials.trials:
            assert (by_id[a] == by_id[b]) == is_target

    def test_deterministic(self):
        test = self.make_test_split()
        assert (corpus.make_trials(test, 10, 10, seed=5).trials
                == corpus.make_trials(test, 10, 10, seed=5).trials)

    def test_zero_targets_rejected(self):
        with pytest.raises(TrialError, match=r"^n_target_trials must be >= 1, got 0$"):
            corpus.make_trials(self.make_test_split(), 0, 2, seed=1)

    def test_oversampling_falls_back_to_replacement(self):
        test = self.make_test_split()
        trials = corpus.make_trials(test, 500, 500, seed=1)
        assert sum(1 for t in trials.trials if t[2]) == 500

    @staticmethod
    def make_trials_from_lists(test, n_target, n_nontarget, seed):
        """make_trials with every same-class and cross-class pair listed."""
        groups = by_class(test)
        classes = sorted(groups)
        same_pairs = [(us[i], us[j])
                      for us in (groups[c] for c in classes)
                      for i in range(len(us)) for j in range(i + 1, len(us))]
        cross_pairs = [(a, b)
                       for ci in range(len(classes)) for cj in range(ci + 1, len(classes))
                       for a in groups[classes[ci]] for b in groups[classes[cj]]]
        g = rng.stream(seed, rng.TRIALS)

        def sample(pairs, n):
            idx = g.choice(len(pairs), size=n, replace=n > len(pairs))
            return [pairs[int(i)] for i in idx]

        trials = [(a, b, True) for a, b in sample(same_pairs, n_target)]
        trials += [(a, b, False) for a, b in sample(cross_pairs, n_nontarget)]
        return trial_list(trials)

    @pytest.mark.parametrize("n_nontarget", [40, 1000])  # without, with replacement
    def test_nontarget_draw_equals_full_pair_list(self, n_nontarget):
        c = corpus.generate_corpus(small_spec(n_speakers=7, utts_per_speaker=6))
        # ragged, unsorted class sizes 6, 1, 4, 2, 6, 3, 5 (105 cross-class pairs)
        keep = (6, 1, 4, 2, 6, 3, 5)
        rows = [i for i, (ident, k) in enumerate(zip(c.ids, c.class_ids.tolist()))
                if int(ident[-4:]) < keep[k]]
        ragged = c.take(rows[::-1], "test")
        assert np.bincount(ragged.class_ids).tolist() == list(keep)
        for seed in range(3):
            assert_same_trials(corpus.make_trials(ragged, 30, n_nontarget, seed=seed),
                               self.make_trials_from_lists(ragged, 30, n_nontarget, seed=seed))


class TestIO:
    def test_round_trip(self, tmp_path):
        c = corpus.generate_corpus(small_spec())
        path = tmp_path / "c.dck"
        corpus.write_corpus(c, path)
        back = corpus.read_corpus(path, split_tag=c.split_tag)
        assert back.n_classes == c.n_classes
        assert back.ids == c.ids
        assert back.class_ids.dtype == np.int64 and np.array_equal(back.class_ids, c.class_ids)
        for xa, xb in zip(c.features, back.features):
            assert xa.tobytes() == xb.tobytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.dck"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(FormatError, match="magic"):
            corpus.read_corpus(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        c = corpus.generate_corpus(small_spec())
        path = tmp_path / "c.dck"
        corpus.write_corpus(c, path)
        data = path.read_bytes()
        (tmp_path / "t.dck").write_bytes(data[:-10])
        with pytest.raises(FormatError, match="byte offset") as exc:
            corpus.read_corpus(tmp_path / "t.dck")
        assert exc.value.offset is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("utt,frame,dim", [(0, 0, 0), (2, 8, 4), (4, 1, 2),
                                               (64, 0, 3), (129, 1, 0)])
    def test_non_finite_feature_reports_offset(self, tmp_path, bad, utt, frame, dim):
        rs = np.random.default_rng(5)
        feats = [rs.normal(size=(t, 5)).astype(np.float32) for t in [4, 1, 9, 4, 2] * 26]
        feats[utt][frame, dim] = bad
        feats[-1][-1, -1] = bad  # only the first one is reported
        path = tmp_path / "c.dck"
        corpus.write_corpus(one_class(feats), path)
        raw = path.read_bytes()
        ident = f"utt-{utt:03d}".encode()
        want = raw.index(ident) + len(ident) + 8 + 4 * (frame * 5 + dim)
        with pytest.raises(FormatError, match="non-finite feature value in utt-") as exc:
            corpus.read_corpus(path)
        assert exc.value.offset == want

    def test_keep_copies_only_the_named_utterances(self, tmp_path):
        c = corpus.generate_corpus(small_spec(n_speakers=4, utts_per_speaker=3))
        corpus.write_corpus(c, tmp_path / "c.dck")
        keep = {c.ids[i] for i in (1, 5, 6, 11)} | {"not_in_corpus"}
        back = corpus.read_corpus(tmp_path / "c.dck", keep=keep)
        want = c.take([1, 5, 6, 11])
        assert back.ids == want.ids
        assert np.array_equal(back.class_ids, want.class_ids)
        for xa, xb in zip(want.features, back.features):
            assert xa.tobytes() == xb.tobytes()
        assert back.n_classes == c.n_classes
        nothing = corpus.read_corpus(tmp_path / "c.dck", keep=set())
        assert len(nothing) == 0 and nothing.ids == [] and nothing.class_ids.dtype == np.int64

    @pytest.mark.parametrize("utt", [0, 3, 70])
    def test_non_finite_feature_outside_keep_reports_offset(self, tmp_path, utt):
        rs = np.random.default_rng(6)
        feats = [rs.normal(size=(3, 4)).astype(np.float32) for _ in range(80)]
        feats[utt][2, 1] = np.nan
        corpus.write_corpus(one_class(feats), tmp_path / "c.dck")
        raw = (tmp_path / "c.dck").read_bytes()
        ident = f"utt-{utt:03d}".encode()
        with pytest.raises(FormatError, match=f"non-finite feature value in utt-{utt:03d}") as exc:
            corpus.read_corpus(tmp_path / "c.dck", keep={"utt-001"})  # never the bad one
        assert exc.value.offset == raw.index(ident) + len(ident) + 8 + 4 * (2 * 4 + 1)

    def test_largest_finite_features_are_kept(self, tmp_path):
        feats = np.full((3, 5), np.finfo(np.float32).max, dtype=np.float32)
        feats[1] *= -1
        corpus.write_corpus(one_class([feats]), tmp_path / "c.dck")
        back = corpus.read_corpus(tmp_path / "c.dck")
        assert back.features[0].tobytes() == feats.tobytes()

    def test_manifest_round_trip(self, tmp_path):
        c = corpus.generate_corpus(small_spec(n_speakers=10, utts_per_speaker=4))
        train, enrol, test = corpus.split_corpus(c, 0.8, seed=1)
        path = tmp_path / "manifest.tsv"
        corpus.write_manifest([train, enrol, test], path)
        entries = corpus.read_manifest(path)
        assert len(entries) == len(c)
        for ident, class_id in zip(train.ids, train.class_ids.tolist()):
            assert entries[ident] == (class_id, "train")

    def test_trials_round_trip(self, tmp_path):
        c = corpus.generate_corpus(small_spec(n_speakers=8, utts_per_speaker=4))
        _, _, test = corpus.split_corpus(c, 0.75, seed=2)
        trials = corpus.make_trials(test, 5, 5, seed=9)
        path = tmp_path / "trials.tsv"
        corpus.write_trials(trials, path)
        assert_same_trials(corpus.read_trials(path), trials)

    def test_trial_rows_are_sorted_ids_and_row_arrays(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("u3\tu1\t1\n\nu2\tu3\t0\nu1\tu1\t1\n")
        trials = corpus.read_trials(path)
        assert trials.ids == ["u1", "u2", "u3"]
        assert trials.a.tolist() == [2, 1, 0] and trials.b.tolist() == [0, 2, 0]
        assert trials.target.tolist() == [True, False, True]
        assert trials.a.dtype == trials.b.dtype == np.intp and trials.target.dtype == bool
        assert len(trials) == 3
        assert trials.trials == (("u3", "u1", True), ("u2", "u3", False), ("u1", "u1", True))

    def test_empty_trials_file(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("\n\n")
        trials = corpus.read_trials(path)
        assert trials.ids == [] and trials.a.size == trials.b.size == len(trials) == 0
        assert trials.trials == ()


def _read_trials_per_line(path):
    """The per-line trials parser that read_trials replaced: the oracle."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise FormatError(f"trial line {lineno} malformed: {line!r}")
            out.append((parts[0], parts[1], parts[2] == "1"))
    return tuple(out)


# ids: empty, ASCII, non-ASCII; never a line end or a tab
_trial_ids = st.text(alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",),
                                            exclude_characters="\t\n\r"), max_size=4)
_good_lines = st.builds(lambda a, b, t: f"{a}\t{b}\t{t}", _trial_ids, _trial_ids,
                        st.sampled_from("01"))
_bad_lines = st.one_of(
    st.text(alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",),
                                   exclude_characters="\n\r"), min_size=1, max_size=8),
    st.builds(lambda a, b, t: f"{a}\t{b}\t{t}", _trial_ids, _trial_ids,
              st.sampled_from(["", "2", "01", "1 ", " 0", "1\t", "yes", "\u0661"])),
    st.builds(lambda a, b: f"{a}\t{b}", _trial_ids, _trial_ids))


@st.composite
def _trial_files(draw):
    lines = draw(st.lists(st.one_of(_good_lines, _good_lines, _good_lines, st.just("")),
                          max_size=40))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_bad_lines))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    text = ""
    for line in lines:
        text += line + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends)
    if text and draw(st.booleans()):  # no line end after the last line
        text = text.rstrip("\r\n")
    return text


@settings(max_examples=300, deadline=None)
@given(text=_trial_files(), block=st.integers(1, 96))
def test_trials_reader_equals_per_line_parser(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("trials") / "trials.tsv"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = _read_trials_per_line(path)
    except FormatError as exc:
        want = str(exc)
    with mock.patch.object(corpus, "_TRIAL_BLOCK", block):
        try:
            trials = corpus.read_trials(path)
            got = trials.trials
        except FormatError as exc:
            got = str(exc)
    assert got == want
    if not isinstance(want, str):
        assert trials.ids == sorted({u for a, b, _ in want for u in (a, b)})



def _write_trials_per_line(trials):
    """The per-line trials writer that write_trials replaced: the oracle."""
    return "".join(f"{a}\t{b}\t{1 if t else 0}\n" for a, b, t in trials.trials).encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 7), min_size=2, max_size=8),
       n_target=st.integers(1, 60), n_nontarget=st.integers(1, 60),
       seed=st.integers(0, 2 ** 64 - 1))
def test_written_trials_read_back_field_by_field(tmp_path_factory, sizes, n_target,
                                                 n_nontarget, seed):
    assume(max(sizes) > 1)  # a same-class pair exists
    # ragged classes, their utterances interleaved
    layout = [(f"c{c}_u{j}", c) for j in range(max(sizes)) for c, k in enumerate(sizes) if j < k]
    test = corpus.LabeledCorpus([i for i, _ in layout], [c for _, c in layout],
                                [np.zeros((1, 1), np.float32)] * len(layout), len(sizes), "test")
    trials = corpus.make_trials(test, n_target, n_nontarget, seed=seed)
    path = tmp_path_factory.mktemp("trials") / "trials.tsv"
    corpus.write_trials(trials, path)
    assert path.read_bytes() == _write_trials_per_line(trials)
    assert_same_trials(corpus.read_trials(path), trials)


@pytest.mark.parametrize("n", [0, 1, 4096, 4097, 2 * 4096 + 5])
def test_trials_file_equals_per_line_writer(tmp_path, n):
    rs = np.random.default_rng(n)
    ids = sorted(f"utt{i}\u00e9" for i in range(37))
    trials = corpus.TrialList(ids, rs.integers(37, size=n), rs.integers(37, size=n),
                              rs.random(n) < 0.5)
    corpus.write_trials(trials, tmp_path / "trials.tsv")
    assert (tmp_path / "trials.tsv").read_bytes() == _write_trials_per_line(trials)

def test_reindex_classes():
    c = corpus.generate_corpus(small_spec(n_speakers=10, utts_per_speaker=2))
    train, _, _ = corpus.split_corpus(c, 0.8, seed=4)
    re, mapping = corpus.reindex_classes(train)
    assert sorted(mapping.values()) == list(range(8))
    assert np.unique(re.class_ids).tolist() == list(range(8))
    assert [mapping[c] for c in train.class_ids.tolist()] == re.class_ids.tolist()
    assert re.ids == train.ids and all(a is b for a, b in zip(re.features, train.features))


# ---------------------------------------------------------------------------
# the columnar corpus against per-utterance reference loops

@st.composite
def class_layouts(draw):
    """Class ids of a drawn corpus: ragged class sizes, non-contiguous ids,
    utterances of the classes interleaved."""
    classes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=7, unique=True))
    sizes = draw(st.lists(st.integers(1, 5), min_size=len(classes), max_size=len(classes)))
    labels = [c for c, k in zip(classes, sizes) for _ in range(k)]
    return [labels[i] for i in draw(st.permutations(range(len(labels))))]


def layout_corpus(labels, n_classes=None, tag="train"):
    """A corpus of the class ids, with ids ``u0, u1, ...`` and a distinct
    feature array of 1-3 frames per utterance."""
    feats = [np.full((1 + i % 3, 2), i, np.float32) for i in range(len(labels))]
    return corpus.LabeledCorpus([f"u{i}" for i in range(len(labels))], labels, feats,
                                max(labels) + 1 if n_classes is None else n_classes, tag)


def assert_rows(got, c, rows, tag):
    """``got`` holds rows ``rows`` of ``c``, sharing their feature arrays."""
    assert got.ids == [c.ids[i] for i in rows]
    assert got.class_ids.dtype == np.int64
    assert got.class_ids.tolist() == [int(c.class_ids[i]) for i in rows]
    assert len(got.features) == len(rows)
    assert all(x is c.features[i] for x, i in zip(got.features, rows))
    assert got.n_classes == c.n_classes and got.split_tag == tag


def split_by_loop(c, train_class_fraction, seed):
    """Rows of the train, enrol and test splits, built utterance by utterance."""
    m = c.n_classes
    n_train = int(round(train_class_fraction * m))
    train_classes = set(rng.stream(seed, rng.SPLIT).permutation(m)[:n_train].tolist())
    groups = {}
    for i, k in enumerate(c.class_ids.tolist()):
        groups.setdefault(k, []).append(i)
    train, enrol, test = [], [], []
    for k in sorted(groups):
        if k in train_classes:
            train += groups[k]
        else:
            half = len(groups[k]) // 2
            enrol += groups[k][:half]
            test += groups[k][half:]
    return train, enrol, test


@settings(max_examples=150, deadline=None)
@given(labels=class_layouts(), extra=st.integers(0, 3), fraction=st.floats(0.05, 0.95),
       seed=st.integers(0, 2 ** 64 - 1))
def test_split_equals_per_utterance_loop(labels, extra, fraction, seed):
    c = layout_corpus(labels, max(labels) + 1 + extra)
    n_train = int(round(fraction * c.n_classes))
    assume(2 <= n_train <= c.n_classes - 2)
    got = corpus.split_corpus(c, fraction, seed)
    for split, rows, tag in zip(got, split_by_loop(c, fraction, seed), ("train", "enrol", "test")):
        assert_rows(split, c, rows, tag)


@settings(max_examples=150, deadline=None)
@given(labels=class_layouts())
def test_reindex_equals_per_utterance_loop(labels):
    c = layout_corpus(labels, tag="enrol")
    got, mapping = corpus.reindex_classes(c)
    want = {k: i for i, k in enumerate(sorted(set(labels)))}
    assert mapping == want and all(type(k) is int for k in mapping)
    assert got.class_ids.dtype == np.int64
    assert got.class_ids.tolist() == [want[k] for k in labels]
    assert got.ids == c.ids and all(a is b for a, b in zip(got.features, c.features))
    assert got.n_classes == len(want) and got.split_tag == "enrol"


@settings(max_examples=150, deadline=None)
@given(labels=class_layouts(), n_target=st.integers(1, 30), n_nontarget=st.integers(1, 30),
       seed=st.integers(0, 2 ** 64 - 1))
def test_make_trials_equals_pair_lists(labels, n_target, n_nontarget, seed):
    assume(len(set(labels)) >= 2 and max(labels.count(k) for k in labels) >= 2)
    test = layout_corpus(labels, tag="test")
    assert_same_trials(corpus.make_trials(test, n_target, n_nontarget, seed=seed),
                       TestTrials.make_trials_from_lists(test, n_target, n_nontarget, seed))


@settings(max_examples=100, deadline=None)
@given(labels=class_layouts(), data=st.data())
def test_take_selects_rows_and_shares_features(labels, data):
    c = layout_corpus(labels)
    rows = data.draw(st.lists(st.integers(0, len(labels) - 1), max_size=10))
    assert_rows(c.take(rows), c, rows, "train")
    assert_rows(c.take(np.array(rows, np.int64), "test"), c, rows, "test")


def test_corpus_columns_must_agree_in_length():
    x = np.zeros((1, 1), np.float32)
    with pytest.raises(ValidationError, match="differ in length"):
        corpus.LabeledCorpus(["a", "b"], [0], [x, x], n_classes=1)
    with pytest.raises(ValidationError, match="differ in length"):
        corpus.LabeledCorpus(["a"], [0], [x, x], n_classes=1)


def test_negative_class_id_rejected():
    x = np.zeros((1, 1), np.float32)
    with pytest.raises(ValidationError, match="class ids must be >= 0, got -1"):
        corpus.LabeledCorpus(["a", "b"], [0, -1], [x, x], n_classes=2)
    with pytest.raises(ValidationError, match="got -3"):
        corpus.LabeledCorpus(["a", "b", "c"], [-1, 2, -3], [x, x, x], n_classes=3)


def test_take_rejects_negative_class_id():
    x = np.zeros((1, 1), np.float32)
    c = corpus.LabeledCorpus(["a", "b", "c"], [0, 1, 2], [x, x, x], n_classes=3)
    assert len(c.take([])) == 0            # no class ids, nothing to reject
    c.class_ids[1] = -1                    # the column is a mutable array
    assert c.take([2, 0]).class_ids.tolist() == [2, 0]
    with pytest.raises(ValidationError, match="class ids must be >= 0"):
        c.take([0, 1])


# ---------------------------------------------------------------------------
# DCK1 header fuzzing

def test_zero_feature_dim_rejected_at_its_offset(tmp_path):
    # a header with F = 0 and utterances of 15 frames
    body = b"".join(struct.pack("<I", 2) + b"u%d" % i + struct.pack("<II", 0, 15)
                    for i in range(3))
    path = tmp_path / "c.dck"
    path.write_bytes(corpus.MAGIC + struct.pack("<III", 2, 3, 0) + body)
    with pytest.raises(FormatError, match="feature dim F=0") as exc:
        corpus.read_corpus(path)
    assert exc.value.offset == 12


def _pack_dck(fields):
    """DCK1 bytes of two utterances ``id0``, ``id1`` with the given field
    values; each carries T * F float32 values where that is at most 64, as a
    consistent file would, and 6 otherwise."""
    out = [corpus.MAGIC, struct.pack("<III", fields["m"], fields["n_utts"], fields["f"])]
    for i in range(2):
        n = fields["t"][i] * fields["f"]
        out += [struct.pack("<I", fields["id_len"][i]), b"id%d" % i,
                struct.pack("<II", fields["class_id"][i], fields["t"][i]),
                np.arange(n if n <= 64 else 6, dtype="<f4").tobytes()]
    return b"".join(out)


_u32 = st.one_of(st.integers(0, 8), st.sampled_from([2 ** 31, 2 ** 32 - 1]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_dck_header_is_rejected_or_well_formed(tmp_path_factory, data):
    # a valid file, then some of its header and per-utterance fields drawn
    fields = dict(m=3, n_utts=2, f=2, id_len=[3, 3], class_id=[2, 0], t=[3, 1])
    for name in data.draw(st.sets(st.sampled_from(sorted(fields)))):
        if isinstance(fields[name], list):
            fields[name][data.draw(st.integers(0, 1))] = data.draw(_u32)
        else:
            fields[name] = data.draw(_u32)
    path = tmp_path_factory.mktemp("dck") / "c.dck"
    path.write_bytes(_pack_dck(fields))
    try:
        c = corpus.read_corpus(path)
    except FormatError:
        return
    assert len(c) == len(c.ids) == c.class_ids.size
    for x, k in zip(c.features, c.class_ids.tolist()):
        assert x.ndim == 2 and x.shape[0] >= 1 and x.shape[1] >= 1 and x.dtype == np.float32
        assert 0 <= k < c.n_classes
