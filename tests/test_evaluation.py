import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropclass import blas, corpus, embedder, evaluation, files, model as model_mod, rng, schedule
from dropclass.errors import EmptyDataError, FormatError, NumericError, ValidationError
from oracles import cosine_score

FEAT = 8


def tiny_corpus(n_speakers=8, utts=4, frames=15, seed=17):
    spec = corpus.CorpusSpec(n_speakers=n_speakers, utts_per_speaker=utts,
                             frames_per_utt=frames, feat_dim=FEAT, seed=seed)
    return corpus.generate_corpus(spec)


def tiny_model(n_classes, seed=0):
    return model_mod.new_model(FEAT, n_classes, hidden_dim=6, embed_dim=4, seed=seed)


def brute_force_eer(tar, non):
    """Independent oracle: scan every threshold plus interpolation."""
    tar = np.asarray(tar, dtype=float)
    non = np.asarray(non, dtype=float)
    ts = np.unique(np.concatenate([tar, non]))
    pts = [(float((non >= t).mean()), float((tar < t).mean())) for t in ts]
    pts.append((0.0, 1.0))  # all-reject endpoint
    for (f0, r0), (f1, r1) in zip(pts, pts[1:]):
        if f0 - r0 == 0:
            return f0
        if (f0 - r0) > 0 and (f1 - r1) <= 0:
            if f1 - r1 == 0:
                return f1
            a = (f0 - r0) / ((f0 - r0) - (f1 - r1))
            return f0 + a * (f1 - f0)
    return pts[0][0]


class TestCosine:
    def test_properties(self):
        rs = np.random.default_rng(0)
        a, b = rs.normal(size=5), rs.normal(size=5)
        assert cosine_score(a, a) == pytest.approx(1.0)
        assert cosine_score(a, -a) == pytest.approx(-1.0)
        assert cosine_score(a, b) == pytest.approx(cosine_score(b, a))
        assert cosine_score(3 * a, 7 * b) == pytest.approx(
            cosine_score(a, b))
        assert -1.0 <= cosine_score(a, b) <= 1.0

    def test_orthogonal(self):
        assert cosine_score([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(NumericError):
            cosine_score([0, 0], [1, 0])


class TestEer:
    def test_perfect_separation(self):
        r = evaluation.eer([0.9, 0.8, 0.7], [0.1, 0.2, 0.3])
        assert r.eer == 0.0 and not r.degenerate

    def test_fully_inverted(self):
        r = evaluation.eer([0.1, 0.2], [0.8, 0.9])
        assert r.eer == pytest.approx(1.0)

    def test_known_interpolated_example(self):
        # 3 targets, 3 nontargets with one overlap region; hand-computed EER 1/3
        r = evaluation.eer([0.6, 0.7, 0.2], [0.5, 0.3, 0.1])
        assert r.eer == pytest.approx(1.0 / 3.0)

    def test_all_equal_scores_degenerate_half(self):
        r = evaluation.eer([0.5, 0.5], [0.5, 0.5])
        assert r.eer == pytest.approx(0.5)
        assert r.degenerate

    def test_against_brute_force_oracle(self):
        rs = np.random.default_rng(1)
        for _ in range(200):
            nt = int(rs.integers(1, 30))
            nn = int(rs.integers(1, 30))
            sep = rs.uniform(-1.0, 1.5)
            tar = rs.normal(sep, 1.0, size=nt)
            non = rs.normal(0.0, 1.0, size=nn)
            got = evaluation.eer(tar, non).eer
            want = brute_force_eer(tar, non)
            assert got == pytest.approx(want, abs=1e-12), (tar, non)

    def test_eer_bounded(self):
        rs = np.random.default_rng(2)
        for _ in range(50):
            tar = rs.normal(size=int(rs.integers(1, 10)))
            non = rs.normal(size=int(rs.integers(1, 10)))
            assert 0.0 <= evaluation.eer(tar, non).eer <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            evaluation.eer([], [0.1])

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            evaluation.eer([np.nan], [0.1])

    def test_eer_from_scored(self):
        scored = [("a", "b", 0.9, True), ("a", "c", 0.1, False)]
        assert evaluation.eer_from_scored(scored).eer == 0.0


class TestKl:
    def test_uniform_is_zero(self):
        assert evaluation.kl_to_uniform(np.full(8, 0.125)) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_is_log_m(self):
        p = np.zeros(10)
        p[3] = 1.0
        assert evaluation.kl_to_uniform(p) == pytest.approx(math.log(10))

    def test_hand_computed_value(self):
        # 0.5 ln 1.5 + 2 * 0.25 ln 0.75 = 0.058891518...
        p = np.array([0.5, 0.25, 0.25])
        want = 0.5 * math.log(1.5) + 0.5 * math.log(0.75)
        assert evaluation.kl_to_uniform(p) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.05889151782819171)

    def test_invalid_vectors_rejected(self):
        with pytest.raises(ValidationError):
            evaluation.kl_to_uniform([0.5, 0.6])
        with pytest.raises(ValidationError):
            evaluation.kl_to_uniform([-0.1, 1.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_numeric_error(self, bad):
        p = np.full(4, 0.25)
        p[2] = bad
        with pytest.raises(NumericError, match="non-finite"):
            evaluation.kl_to_uniform(p)

    def test_nonnegative(self):
        rs = np.random.default_rng(3)
        for _ in range(50):
            p = rs.dirichlet(np.ones(int(rs.integers(2, 12))))
            assert evaluation.kl_to_uniform(p) >= -1e-12


def trial_list(trials):
    """A TrialList of (a, b, is_target) tuples."""
    ids = sorted({u for a, b, _ in trials for u in (a, b)})
    row = {u: r for r, u in enumerate(ids)}
    return corpus.TrialList(ids, np.array([row[a] for a, _, _ in trials], dtype=np.intp),
                            np.array([row[b] for _, b, _ in trials], dtype=np.intp),
                            np.array([t for _, _, t in trials], dtype=bool))


class TestScoring:
    def test_score_trials_shapes_and_labels(self):
        _, _, test = corpus.split_corpus(
            corpus.generate_corpus(corpus.CorpusSpec(
                n_speakers=10, utts_per_speaker=4, frames_per_utt=15,
                feat_dim=FEAT, seed=18)), 0.8, seed=0)
        m = tiny_model(8)
        trials = corpus.make_trials(test, 5, 5, seed=1)
        scores = evaluation.score_trials(m, test, trials)
        assert scores.dtype == np.float64 and scores.shape == (10,)
        assert np.all((-1.0 <= scores) & (scores <= 1.0))

    def test_unknown_utterance_raises(self):
        c = tiny_corpus(n_speakers=4)
        m = tiny_model(4)
        trials = trial_list([("nope", c.ids[0], True)])
        with pytest.raises(ValidationError, match=r"missing from the corpus: \['nope'\]\.\.\."):
            evaluation.score_trials(m, c, trials)

    def test_missing_utterances_named_in_sorted_order(self):
        c = tiny_corpus(n_speakers=4)
        m = tiny_model(4)
        known = c.ids[0]
        trials = [(known, known, True), (known, "ghost_d", False), ("ghost_c", known, False),
                  ("ghost_b", "ghost_a", False)]
        with pytest.raises(ValidationError,
                           match=r"\['ghost_a', 'ghost_b', 'ghost_c'\]\.\.\.$"):
            evaluation.score_trials(m, c, trial_list(trials))

    def test_no_utterances_raises_before_any_trial(self):
        m = tiny_model(4)
        empty = tiny_corpus(n_speakers=4).take([])
        with pytest.raises(EmptyDataError):
            evaluation.score_trials(m, empty, trial_list([]))
        # trials that name utterances: the ids the corpus lacks are named first
        with pytest.raises(ValidationError, match=r"missing from the corpus: \['ghost'\]"):
            evaluation.score_trials(m, empty, trial_list([("ghost", "ghost", True)]))

    def test_missing_utterance_raises_before_zero_embedding(self):
        c = tiny_corpus(n_speakers=4)
        m = tiny_model(4)
        m.params.wp[...] = 0.0
        m.params.bp[...] = 0.0  # every embedding is zero
        known = c.ids[0]
        with pytest.raises(NumericError, match="zero embedding"):
            evaluation.score_trials(m, c, trial_list([(known, known, True)]))
        for trials in ([(known, known, True), ("ghost", known, False)],
                       [("ghost", known, False), (known, known, True)]):
            with pytest.raises(ValidationError, match="ghost"):
                evaluation.score_trials(m, c, trial_list(trials))

    def test_non_finite_embedding_scores_nan(self):
        c = tiny_corpus(n_speakers=4)
        m = tiny_model(4)
        m.params.bp[0] = np.nan
        a, b = c.ids[0], c.ids[5]
        [score] = evaluation.score_trials(m, c, trial_list([(a, b, False)]))
        assert math.isnan(score)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_ids=st.integers(1, 12),
           n_trials=st.integers(0, 2 * evaluation._SCORE_CHUNK + 5),
           embed_dim=st.integers(1, 9))
    def test_equals_cosine_score_per_pair(self, seed, n_ids, n_trials, embed_dim):
        rs = np.random.default_rng(seed)
        m = model_mod.new_model(FEAT, 3, hidden_dim=5, embed_dim=embed_dim, seed=seed)
        # ids drawn from a small pool repeat; mixed lengths take several forward batches
        utt_ids, feats = [], []
        for _ in range(n_ids + 3):
            utt_ids.append(f"u{int(rs.integers(n_ids))}")
            feats.append(rs.normal(size=(int(rs.integers(1, 6)), FEAT)).astype(np.float32))
        ids = sorted(set(utt_ids))
        pick = rs.integers(len(ids), size=(n_trials, 2))
        trials = [(ids[i], ids[j], bool(t)) for (i, j), t in zip(pick, rs.integers(2, size=n_trials))]
        trials += [(ids[0], ids[0], True)] * 3  # self-pairs, repeated

        # The named utterances are embedded in sorted-id order, the last
        # occurrence of an id winning.  Which rows share a forward batch can
        # change an embedding's last bits, so these are the reference rows.
        last = dict(zip(utt_ids, feats))
        named = sorted({u for a, b, _ in trials for u in (a, b)})
        embs = embedder.embed_by_length(m.params, corpus.Segments.pack([last[i] for i in named]))
        want = [cosine_score(embs[named.index(a)], embs[named.index(b)]).hex()
                for a, b, _ in trials]
        c = corpus.LabeledCorpus(utt_ids, np.zeros(len(utt_ids)), feats, n_classes=1)
        got = evaluation.score_trials(m, c, trial_list(trials))
        assert [s.hex() for s in got.tolist()] == want
        # utterances that no trial names change no bit
        extra = corpus.LabeledCorpus([f"x{i}" for i in range(len(c))] + c.ids,
                                     np.zeros(2 * len(c)), feats + feats, n_classes=1)
        again = evaluation.score_trials(m, extra, trial_list(trials))
        assert again.tobytes() == got.tobytes()

    def test_scores_file_round_trip(self, tmp_path):
        trials = trial_list([("u1", "u2", True), ("u1", "u3", False)])
        p = tmp_path / "scores.tsv"
        evaluation.write_scores(trials, np.array([0.123456789, -0.5]), p)
        back = evaluation.read_scores(p)
        assert back[0][:2] == ("u1", "u2") and back[0][3] is True
        assert back[0][2] == pytest.approx(0.123456789, abs=1e-9)
        assert back[1][3] is False

    @pytest.mark.parametrize("line,message", [
        ("u1\tu2\t0.5", "score line 2 malformed"),
        ("u1\tu2\t0.5\t1\textra", "score line 2 malformed"),
        ("u1\tu2\t0.5\tyes", "score line 2 malformed"),
        ("u1\tu2\thigh\t1", "score line 2 has non-numeric score 'high'"),
    ])
    def test_malformed_scores_line_is_format_error(self, tmp_path, line, message):
        p = tmp_path / "scores.tsv"
        p.write_text(f"u1\tu3\t-0.25\t0\n{line}\n")
        with pytest.raises(FormatError, match=message):
            evaluation.read_scores(p)

    @pytest.mark.parametrize("n", [0, 1, 4096, 4097, 2 * 4096 + 5])
    def test_scores_file_equals_line_by_line_writer(self, tmp_path, n):
        rs = np.random.default_rng(n)
        scores, target = rs.normal(size=n), rs.random(n) < 0.5
        trials = trial_list([(f"a{i}", f"b{i % 7}", t) for i, t in enumerate(target.tolist())])
        want = "".join(f"{a}\t{b}\t{s:.9f}\t{1 if t else 0}\n"
                       for (a, b, t), s in zip(trials.trials, scores.tolist()))
        p = tmp_path / "scores.tsv"
        evaluation.write_scores(trials, scores, p)
        assert p.read_bytes() == want.encode("utf-8")

    def test_score_pairs_equals_score_trials(self):
        c = tiny_corpus(n_speakers=4)
        m = tiny_model(4)
        ids = c.ids
        rs = np.random.default_rng(2)
        ia, ib = rs.integers(len(ids), size=(2, 50))
        embs = embedder.embed_by_length(m.params, c.features)
        got = evaluation.score_pairs(embs, ia, ib)
        trials = trial_list([(ids[i], ids[j], True) for i, j in zip(ia, ib)])
        want = evaluation.score_trials(m, c, trials)
        assert got.dtype == np.float64 and [s.hex() for s in got.tolist()] == \
            [s.hex() for s in want.tolist()]

    def test_score_pairs_rejects_a_zero_row(self):
        embs = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
        assert evaluation.score_pairs(embs, np.array([0, 2]), np.array([2, 0])).size == 2
        with pytest.raises(NumericError, match="zero embedding"):
            evaluation.score_pairs(embs, np.array([0, 2]), np.array([2, 1]))

    def test_eer_from_scored_equals_eer_of_split_scores(self):
        rs = np.random.default_rng(4)
        scores, target = rs.normal(size=300), rs.random(300) < 0.3
        scored = [("a", "b", s, t) for s, t in zip(scores.tolist(), target.tolist())]
        assert evaluation.eer_from_scored(iter(scored)) == evaluation.eer(scores[target],
                                                                         scores[~target])
        assert evaluation.eer_from_scored((s, t) for _, _, s, t in scored) == \
            evaluation.eer_from_scored(scored)

    def test_eer_json(self, tmp_path):
        p = tmp_path / "eer.json"
        evaluation.write_eer_json(evaluation.EerResult(0.25, 0.1, False), 4, 4, p)
        data = json.loads(p.read_text())
        assert data == {"eer": 0.25, "threshold": 0.1, "n_target": 4, "n_nontarget": 4}


def bootstrap(m, c, n_bootstrap, seed):
    """The bands of a corpus under a model, as ``dropclass diagnose`` draws them."""
    probs = schedule.class_probabilities(embedder.embed_by_length(m.params, c.features), m.head.w)
    return evaluation.bootstrap_ranked_probabilities(probs, c.class_ids,
                                                     n_bootstrap=n_bootstrap, seed=seed)


_NAN_AT_1_1 = np.full((4, 3), 1 / 3)
_NAN_AT_1_1[1, 1] = np.nan


class TestBootstrap:
    def test_report_shape_and_ordering(self):
        c = tiny_corpus(n_speakers=6, utts=3)
        m = tiny_model(6, seed=4)
        rep = bootstrap(m, c, n_bootstrap=25, seed=1)
        assert rep.median.size == 6
        assert np.all(np.diff(rep.median) <= 1e-12)          # descending curve
        assert np.all(rep.low <= rep.median + 1e-12)
        assert np.all(rep.median <= rep.high + 1e-12)

    def test_single_replica_zero_width_bands(self):
        c = tiny_corpus(n_speakers=5, utts=2)
        m = tiny_model(5, seed=5)
        rep = bootstrap(m, c, n_bootstrap=1, seed=2)
        assert np.allclose(rep.low, rep.high)

    def test_deterministic(self):
        c = tiny_corpus(n_speakers=5, utts=2)
        m = tiny_model(5, seed=6)
        a = bootstrap(m, c, n_bootstrap=10, seed=3)
        b = bootstrap(m, c, n_bootstrap=10, seed=3)
        assert a.median.tobytes() == b.median.tobytes()

    def test_zero_head_gives_uniform_curve(self):
        c = tiny_corpus(n_speakers=5, utts=2)
        m = tiny_model(5, seed=7)
        m.head.w[...] = 0.0
        rep = bootstrap(m, c, n_bootstrap=5, seed=4)
        assert np.allclose(rep.median, 0.2, atol=1e-12)
        assert np.allclose(rep.low, rep.high)

    def test_csv(self, tmp_path):
        c = tiny_corpus(n_speakers=4, utts=2)
        m = tiny_model(4, seed=8)
        rep = bootstrap(m, c, n_bootstrap=5, seed=5)
        p = tmp_path / "ranked.csv"
        rep.to_csv(p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "rank,p_median,p_low,p_high"
        assert len(lines) == 5

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            evaluation.bootstrap_ranked_probabilities(np.empty((0, 4)), [], n_bootstrap=3)
        with pytest.raises(ValidationError):
            bootstrap(tiny_model(4), tiny_corpus(n_speakers=4), n_bootstrap=0, seed=0)

    @pytest.mark.parametrize("probs, class_ids, match", [
        (np.full(4, 0.25), [0, 0, 1, 1], "must be 2-D"),
        (np.full((2, 2, 2), 0.5), [0, 1], "must be 2-D"),
        (np.full((4, 3), 1 / 3), [0, 0, 1], "3 entries for 4 rows"),
        (np.full((4, 3), 1 / 3), [0, 0, 1, 1, 2], "5 entries for 4 rows"),
        (np.empty((0, 3)), [0], "1 entries for 0 rows"),
        (np.full((4, 3), 1 / 3), [0, 0, 1, 1], r"n_bootstrap must be an integer >= 1, got 5\.0"),
        (_NAN_AT_1_1, [0, 0, 1, 1], "non-finite"),
        (np.array([["0.5", "0.5"]]), [0], "must hold real numbers, got dtype <U3"),
        (np.array([[0.5, None]], dtype=object), [0], "must hold real numbers, got dtype object"),
    ])
    def test_malformed_input_rejected(self, probs, class_ids, match):
        # a float replica count is malformed even when whole; a NaN in probs
        # is a numeric error, where it once turned a band into NaN; strings
        # and objects once ended in a TypeError from np.isfinite
        n_bootstrap = 5.0 if match.startswith("n_bootstrap") else 3
        error = NumericError if match == "non-finite" else ValidationError
        with pytest.raises(error, match=match):
            evaluation.bootstrap_ranked_probabilities(probs, class_ids, n_bootstrap=n_bootstrap)

    @pytest.mark.parametrize("n", [1, 7, 10, 40, 160, 1000])
    def test_integers_draw_like_choice_with_replacement(self, n):
        # the bootstrap picks every replica's classes in one (R, n) call; it
        # must draw like R calls of choice, the leftover half of a 64-bit
        # draw that an odd R·n leaves included
        for seed in range(3):
            by_choice = np.random.Generator(np.random.PCG64(seed))
            by_integers = np.random.Generator(np.random.PCG64(seed))
            at_once = np.random.Generator(np.random.PCG64(seed))
            want = np.stack([by_choice.choice(n, size=n, replace=True) for _ in range(5)])
            each = np.stack([by_integers.integers(0, n, size=n) for _ in range(5)])
            got = at_once.integers(0, n, size=(5, n))
            for drawn in (each, got):
                assert drawn.dtype == want.dtype and np.array_equal(drawn, want)
            assert (by_choice.bit_generator.state == by_integers.bit_generator.state
                    == at_once.bit_generator.state)

    @pytest.mark.parametrize("k", [
        [1, 1, 3, 1, 1, 5, 2, 1, 1],       # ones leading, trailing and in a row
        [1],
        [1, 1, 1],
        [4, 1000, 1, 7, 1000],
    ])
    def test_array_bounded_integers_draw_like_per_class_calls(self, k):
        # the bootstrap draws every chosen class's utterances in one call with
        # bound kk repeated kk times; numpy must make the same draws, in the
        # same order, as one integers(0, kk, size=kk) call per class
        for seed in range(3):
            per_class = np.random.Generator(np.random.PCG64(seed))
            one_call = np.random.Generator(np.random.PCG64(seed))
            for _ in range(3):
                want = np.concatenate([per_class.integers(0, kk, size=kk) for kk in k])
                got = one_call.integers(0, np.repeat(k, k))
                assert got.dtype == want.dtype and np.array_equal(got, want), (
                    "numpy's array-bounded integers no longer draws like one "
                    "integers(0, k, size=k) call per bound: the bootstrap would change")
            assert per_class.bit_generator.state == one_call.bit_generator.state


def draws_by_choice(class_ids, n_bootstrap, seed):
    """Per-pick reference draws: stream 0 picks each replica's classes by
    one g.choice, and stream 1 each chosen class's utterances by one
    g.choice; yields each replica's rows in draw order."""
    groups = {}
    for i, c in enumerate(class_ids):
        groups.setdefault(c, []).append(i)
    classes = sorted(groups)
    pick_classes = rng.stream(seed, rng.BOOTSTRAP, 0)
    pick_rows = rng.stream(seed, rng.BOOTSTRAP, 1)
    for _ in range(n_bootstrap):
        rows = []
        for ci in pick_classes.choice(len(classes), size=len(classes), replace=True):
            members = groups[classes[int(ci)]]
            take = pick_rows.choice(len(members), size=len(members), replace=True)
            rows.extend(members[int(j)] for j in take)
        yield rows


def ranked_bands(curves):
    """(median, low, high) of the descending-sorted replica curves."""
    low, median, high = np.quantile(np.sort(curves, axis=1)[:, ::-1], [0.025, 0.5, 0.975], axis=0)
    return median, low, high


@st.composite
def bootstrap_cases(draw):
    """(probs, class_ids, n_bootstrap, seed): non-contiguous class ids, the
    utterances of the classes interleaved."""
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    id_gaps = draw(st.lists(st.integers(1, 5), min_size=len(sizes), max_size=len(sizes)))
    ids = np.cumsum(id_gaps) - 1
    class_ids = np.repeat(ids, sizes)
    data_rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    class_ids = class_ids[data_rng.permutation(class_ids.size)].tolist()
    logits = data_rng.normal(size=(len(class_ids), int(ids[-1]) + 2))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return probs, class_ids, draw(st.integers(1, 20)), draw(st.integers(0, 2 ** 64 - 1))


@settings(max_examples=60, deadline=None)
@given(case=bootstrap_cases())
def test_bootstrap_bands_equal_per_pick_reference(case):
    # the reference counts its own draws and averages them through the same
    # pinned product, or the same einsum without a setter, so the bands
    # must match to the bit
    probs, class_ids, n_bootstrap, seed = case
    counts = np.zeros((n_bootstrap, len(probs)))
    for rep, rows in enumerate(draws_by_choice(class_ids, n_bootstrap, seed)):
        for r in rows:
            counts[rep, r] += 1
    with blas.one_thread() as pinned:
        curves = counts @ probs if pinned else np.einsum("rn,nm->rm", counts, probs)
    curves /= counts.sum(axis=1, keepdims=True)
    rep = evaluation.bootstrap_ranked_probabilities(probs, class_ids, n_bootstrap, seed)
    for got, expected in zip((rep.median, rep.low, rep.high), ranked_bands(curves)):
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in expected.tolist()]


@settings(max_examples=60, deadline=None)
@given(case=bootstrap_cases())
def test_bootstrap_bands_near_draw_order_mean(case):
    # averaging the drawn rows in draw order sums in another order, so the
    # bands agree to float64 rounding: at most 108 rows, far below 1e-12
    probs, class_ids, n_bootstrap, seed = case
    curves = np.array([probs[rows].mean(axis=0)
                       for rows in draws_by_choice(class_ids, n_bootstrap, seed)])
    rep = evaluation.bootstrap_ranked_probabilities(probs, class_ids, n_bootstrap, seed)
    for got, expected in zip((rep.median, rep.low, rep.high), ranked_bands(curves)):
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(case=bootstrap_cases(), data=st.data())
def test_draw_counts_of_fewer_replicas_are_a_prefix(case, data):
    # each stream is read in order, so replica r draws the same whatever R is
    _, class_ids, n_bootstrap, seed = case
    r = data.draw(st.integers(0, n_bootstrap - 1))
    counts = evaluation._draw_counts(class_ids, n_bootstrap, seed)
    assert counts.shape == (n_bootstrap, len(class_ids))
    assert counts[:r].tobytes() == evaluation._draw_counts(class_ids, r, seed).tobytes()
    # row r draws as many utterances as its chosen classes hold
    sizes = np.unique(class_ids, return_counts=True)[1]
    picked = rng.stream(seed, rng.BOOTSTRAP, 0).integers(0, sizes.size, size=(n_bootstrap, sizes.size))
    assert counts.sum(axis=1).tolist() == sizes[picked].sum(axis=1).tolist()


# prints the bands of a drawn (n, m) probs, R = n_bootstrap, one band a line
_BANDS_CHILD = """
import sys
import numpy as np
from dropclass import evaluation
n, m, r = map(int, sys.argv[1:])
data = np.random.default_rng(n)
logits = data.normal(size=(n, m))
probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
rep = evaluation.bootstrap_ranked_probabilities(probs, data.integers(0, n // 3, size=n), r, seed=m)
for band in (rep.median, rep.low, rep.high):
    print(" ".join(x.hex() for x in band.tolist()))
"""


@pytest.mark.parametrize("n, m, n_bootstrap", [(400, 160, 300), (2500, 1000, 20), (777, 333, 17)])
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
def test_bootstrap_bands_do_not_depend_on_blas_threads(n, m, n_bootstrap):
    src = os.path.dirname(os.path.dirname(evaluation.__file__))
    bands = []
    # CI pins one BLAS thread for the whole suite, so each child sets its own
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _BANDS_CHILD, str(n), str(m), str(n_bootstrap)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        bands.append(done.stdout)
    assert bands[0].count("\n") == 3 and bands[0] == bands[1]


def test_bootstrap_without_a_thread_setter_averages_by_einsum(monkeypatch):
    # a build whose BLAS thread count cannot be set averages without BLAS,
    # to float64 rounding of the pinned product
    data = np.random.default_rng(5)
    probs = data.dirichlet(np.ones(160), size=400)
    class_ids = data.integers(0, 133, size=400)
    pinned = evaluation.bootstrap_ranked_probabilities(probs, class_ids, 30, seed=2)
    einsum, subscripts = np.einsum, []
    monkeypatch.setattr(np, "einsum", lambda s, *a, **k: subscripts.append(s) or einsum(s, *a, **k))
    monkeypatch.setattr(blas, "_THREADS", None)
    fallback = evaluation.bootstrap_ranked_probabilities(probs, class_ids, 30, seed=2)
    assert subscripts == ["rn,nm->rm"]
    for band in ("median", "low", "high"):
        np.testing.assert_allclose(getattr(fallback, band), getattr(pinned, band), rtol=1e-12, atol=0)


def test_bootstrap_copies_no_drawn_rows():
    n, m = 2000, 1000
    data = np.random.default_rng(0)
    probs = data.random((n, m))
    probs /= probs.sum(axis=1, keepdims=True)
    class_ids = data.integers(0, 500, size=n)
    one_copy = n * m * 8  # one (N, M) float64 array, 16 MB
    tracemalloc.start()
    try:
        evaluation.bootstrap_ranked_probabilities(probs, class_ids, n_bootstrap=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_copy / 4


def test_bootstrap_peak_is_a_few_count_matrices():
    # the draws of all replicas are made at once, one int64 per draw: at
    # most two such arrays may live beside the count matrix
    n, m, n_bootstrap = 4800, 160, 300
    data = np.random.default_rng(1)
    probs = data.random((n, m))
    probs /= probs.sum(axis=1, keepdims=True)
    class_ids = data.integers(0, 160, size=n)
    count_matrix = n_bootstrap * n * 8  # the (R, N) float64 count matrix, 11.5 MB
    tracemalloc.start()
    try:
        evaluation.bootstrap_ranked_probabilities(probs, class_ids, n_bootstrap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * count_matrix


# ---------------------------------------------------------------------------
# the score writer against Python's "%.9f"


def _python_score_lines(ids, a, b, scores, target):
    return "".join(f"{ids[i]}\t{ids[j]}\t{s:.9f}\t{1 if t else 0}\n"
                   for i, j, s, t in zip(a, b, scores, target)).encode("utf-8")


def _written(ids, a, b, scores, target):
    """The bytes write_scores writes, or NumericError; a refused write
    leaves no file behind."""
    trials = corpus.TrialList(ids, np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp),
                              np.asarray(target, dtype=bool))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scores.tsv")
        try:
            evaluation.write_scores(trials, np.asarray(scores, dtype=np.float64), path)
        except NumericError:
            assert os.listdir(tmp) == []
            raise
        with open(path, "rb") as fh:
            return fh.read()


_SMALLEST = 5e-324
_boundaries = st.integers(-10 ** 10 + 1, 10 ** 10 - 2).map(lambda k: (k + 0.5) * 1e-9)
_scores = st.one_of(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-1, 1, allow_nan=False, width=32).map(float),
    st.builds(lambda k, n: k / 2.0 ** n, st.integers(-(2 ** 14), 2 ** 14), st.integers(0, 60)),
    st.integers(-10239, 10239).map(lambda k: k / 1024),  # the odd ones are exact ties
    st.sampled_from([0.0, -0.0, 1.0, -1.0, _SMALLEST, -_SMALLEST, 2.2250738585072014e-308,
                     9.999999999, -9.999999999]),
    st.floats(-1e-300, 1e-300, allow_nan=False),
    _boundaries,
    _boundaries.map(lambda v: math.nextafter(v, math.inf)),
    _boundaries.map(lambda v: math.nextafter(v, -math.inf)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_scores, min_size=1, max_size=40))
def test_fixed9_equals_python_format(values):
    text = evaluation._fixed9(np.array(values))
    if text is None:  # only where "%.9f" has two integer digits
        assert any(abs(float(f"{v:.9f}")) >= 10 for v in values)
        return
    assert [bytes(row[row != files.PAD]).decode() for row in text] == [f"{v:.9f}" for v in values]


def test_fixed9_on_every_tie():
    # v * 10**9 ends in exactly one half only for v = k / 1024 with k odd
    for denominator in (1024, 4096):
        values = np.arange(-10 * denominator + 1, 10 * denominator) / denominator
        text = evaluation._fixed9(values)
        assert [bytes(row[row != files.PAD]).decode() for row in text] == \
            [f"{v:.9f}" for v in values.tolist()]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_score_writer_equals_python_format(data):
    ids = data.draw(st.lists(st.text(alphabet=st.characters(codec="utf-8",
                                                            exclude_categories=("Cs",)),
                                     max_size=5), min_size=1, max_size=6, unique=True))
    n = data.draw(st.integers(0, 2 * files.LINE_CHUNK + 3))
    rs = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a, b = rs.integers(len(ids), size=(2, n))
    scores = rs.uniform(-1, 1, n)
    target = rs.random(n) < 0.5
    # a few drawn scores, non-finite and out-of-range ones among them, at drawn places
    special = data.draw(st.lists(st.one_of(_scores, st.sampled_from(
        [math.nan, math.inf, -math.inf, 10.0, -123.5, 9.9999999996])), max_size=3))
    for v in special:
        if n:
            scores[data.draw(st.integers(0, n - 1))] = v
    # "%.9f" of every written score must have one integer digit
    if any(not math.isfinite(s) or abs(float(f"{s:.9f}")) >= 10 for s in scores.tolist()):
        with pytest.raises(NumericError, match="none written"):
            _written(ids, a, b, scores, target)
        return
    assert _written(ids, a, b, scores, target) == _python_score_lines(
        ids, a.tolist(), b.tolist(), scores.tolist(), target.tolist())


def test_score_writer_refuses_a_nan_in_a_later_chunk():
    n = files.LINE_CHUNK + 2
    a = np.zeros(n, dtype=np.intp)
    scores = np.full(n, 0.25)
    scores[-1] = math.nan  # the first chunk renders; the second refuses the file
    with pytest.raises(NumericError, match="not finite"):
        _written(["u"], a, a, scores, np.ones(n, dtype=bool))


@pytest.mark.parametrize("ids", [["a\0b", "c"], ["", "x"], ["\u00e9t\u00e9", "\U0001f600"]])
def test_score_writer_ids(ids):
    a, b = np.array([0, 1, 1]), np.array([1, 0, 1])
    scores, target = np.array([0.5, -0.25, 1.0]), np.array([True, False, True])
    assert _written(ids, a, b, scores, target) == _python_score_lines(ids, a, b, scores, target)
