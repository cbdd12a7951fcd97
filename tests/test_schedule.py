import os
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropclass import corpus, embedder, model as model_mod, schedule, trainer
from dropclass.errors import EmptyDataError, ValidationError

FEAT = 8


def tiny_corpus(n_speakers=10, utts=3, frames=12, seed=5):
    spec = corpus.CorpusSpec(n_speakers=n_speakers, utts_per_speaker=utts,
                             frames_per_utt=frames, feat_dim=FEAT, seed=seed)
    return corpus.generate_corpus(spec)


def tiny_model(n_classes, seed=0):
    return model_mod.new_model(FEAT, n_classes, hidden_dim=6, embed_dim=4, seed=seed)


class TestSampleSubset:
    def test_size_sorted_unique_in_range(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            r = schedule.sample_subset(20, 7, gen)
            assert r.size == 13
            assert np.all(np.diff(r) > 0)
            assert r[0] >= 0 and r[-1] < 20

    def test_inclusion_probability_uniform(self):
        # each class kept with probability (M-D)/M = 0.5; Monte-Carlo check
        gen = np.random.default_rng(1)
        m, d, reps = 10, 5, 4000
        counts = np.zeros(m)
        for _ in range(reps):
            counts[schedule.sample_subset(m, d, gen)] += 1
        freq = counts / reps
        assert np.all(np.abs(freq - 0.5) < 0.03)

    def test_bounds_enforced(self):
        gen = np.random.default_rng(2)
        with pytest.raises(ValidationError):
            schedule.sample_subset(10, 0, gen)
        with pytest.raises(ValidationError):
            schedule.sample_subset(10, 10, gen)


def view_classes(view, c):
    """The class id of each view row, found by where its frames start in the
    corpus's buffer, which the view shares."""
    assert view.features.frames is c.features.frames
    row = {start: i for i, start in enumerate(c.features.starts.tolist())}
    return c.class_ids[[row[start] for start in view.features.starts.tolist()]].tolist()


def subset_view(c, active):
    """Training view of the classes in ``active``, with local labels."""
    m = tiny_model(c.n_classes)
    m.active = np.array(active, dtype=np.int64)
    return schedule.DropState("none").build_view(m, c)


class TestFilterData:
    def test_labels_are_local_and_dense(self):
        c = tiny_corpus()
        m = tiny_model(c.n_classes)
        m.active = np.array([2, 5, 7], dtype=np.int64)
        view = schedule.DropState("none").build_view(m, c)
        assert m.output_rows().size == 3
        assert sorted(set(view.labels.tolist())) == [0, 1, 2]
        for k, lab in zip(view_classes(view, c), view.labels):
            assert k == [2, 5, 7][lab]

    def test_counts(self):
        c = tiny_corpus(n_speakers=6, utts=4)
        view = subset_view(c, [0, 3])
        assert len(view) == 8

    def test_empty_intersection_raises(self):
        c = tiny_corpus(n_speakers=4)
        sub = c.take(np.flatnonzero(c.class_ids == 0))
        with pytest.raises(EmptyDataError):
            subset_view(sub, [1, 2])


# prints the sha256 of the class probabilities of drawn float32 (n, d)
# embeddings under a drawn (m, d) head
_PROBS_CHILD = """
import hashlib, sys
import numpy as np
from dropclass import schedule
n, m, d = map(int, sys.argv[1:])
gen = np.random.default_rng(d)
embs, w = gen.standard_normal((n, d), np.float32), gen.standard_normal((m, d), np.float32)
print(hashlib.sha256(schedule.class_probabilities(embs, w).tobytes()).hexdigest())
"""


class TestAverageProbability:
    def test_matches_naive_oracle(self):
        c = tiny_corpus(n_speakers=5, utts=2)
        m = tiny_model(5, seed=3)
        p = schedule.average_probability(embedder.embed_by_length(m.params, c.features), m.head.w)
        # naive: embed one at a time, softmax in python, average
        total = np.zeros(5)
        for x in c.features:
            h = embedder.embed_by_length(m.params, corpus.Segments.pack([x]))[0]
            z = m.head.w.astype(np.float64) @ h.astype(np.float64)
            e = np.exp(z - z.max())
            total += e / e.sum()
        naive = total / len(c)
        assert np.allclose(p, naive, atol=1e-9)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_empty_utterances_rejected(self):
        m = tiny_model(4)
        with pytest.raises(EmptyDataError):
            schedule.average_probability(np.empty((0, 4), np.float32), m.head.w)
        with pytest.raises(EmptyDataError):
            embs = embedder.embed_by_length(m.params, corpus.Segments.pack([]))
            schedule.average_probability(embs, m.head.w)

    def test_average_is_mean_of_class_probabilities(self):
        c = tiny_corpus(n_speakers=5, utts=2)
        m = tiny_model(5, seed=3)
        embs = embedder.embed_by_length(m.params, c.features)
        probs = schedule.class_probabilities(embs, m.head.w)
        assert probs.shape == (len(c), 5) and probs.dtype == np.float64
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        p = schedule.average_probability(embs, m.head.w)
        assert p.tobytes() == probs.mean(axis=0).tobytes()

    @pytest.mark.parametrize("n, m, d", [(800, 333, 17), (400, 160, 32), (1000, 40, 64)])
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
    def test_class_probabilities_do_not_depend_on_blas_threads(self, n, m, d):
        # a bare float64 embs @ W.T differs between one and two threads at
        # these shapes; each child process sets its own thread count
        src = os.path.dirname(os.path.dirname(schedule.__file__))
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", _PROBS_CHILD, str(n), str(m), str(d)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            hashes.append(done.stdout)
        assert len(hashes[0]) == 65 and hashes[0] == hashes[1]

    def test_softmax_allocates_one_probability_matrix(self):
        n, m, d = 2000, 500, 32
        gen = np.random.default_rng(0)
        embs = gen.standard_normal((n, d)).astype(np.float32)
        w = gen.standard_normal((m, d)).astype(np.float32)
        tracemalloc.start()
        try:
            schedule.average_probability(embs, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * m * 8


class TestRankAndDrop:
    def test_drops_lowest_probability(self):
        p = np.array([0.4, 0.05, 0.3, 0.15, 0.1])
        kept, dropped = schedule.rank_and_drop(p, [0, 1, 2, 3, 4], 2)
        assert dropped.tolist() == [1, 4]
        assert kept.tolist() == [0, 2, 3]

    def test_restricted_to_active(self):
        p = np.array([0.0, 0.5, 0.2, 0.3])
        kept, dropped = schedule.rank_and_drop(p, [1, 2, 3], 1)
        assert dropped.tolist() == [2]  # class 0 not active, cannot drop
        assert kept.tolist() == [1, 3]

    def test_tie_drops_lower_id(self):
        p = np.array([0.25, 0.25, 0.25, 0.25])
        kept, dropped = schedule.rank_and_drop(p, [0, 1, 2, 3], 2)
        assert dropped.tolist() == [0, 1]
        assert kept.tolist() == [2, 3]

    def test_bounds(self):
        with pytest.raises(ValidationError):
            schedule.rank_and_drop(np.ones(3) / 3, [0, 1, 2], 3)
        with pytest.raises(ValidationError):
            schedule.rank_and_drop(np.ones(3) / 3, [0, 1, 2], 0)


class TestApplyCombine:
    """The combine relabel: one dropadapt_combine refresh, then the view and head."""

    @staticmethod
    def combine_state(model, w, active, n_drop):
        model.head.w[...] = w
        model.active = np.array(active, dtype=np.int64)
        return schedule.DropState("dropadapt_combine", n_drop=n_drop)

    def test_merged_row_is_mean_and_labels_relabelled(self):
        c = tiny_corpus(n_speakers=6, utts=2)
        m = tiny_model(6)
        w = np.arange(24, dtype=np.float32).reshape(6, 4)
        w[[1, 5]] *= -1  # the lowest logits on positive embeddings: ranked last
        st = self.combine_state(m, w, [0, 1, 2, 4, 5], n_drop=2)
        assert st.refresh(m, np.full((3, 4), 0.01, dtype=np.float32)) == (1, 5)
        view = st.build_view(m, c)
        w_plus = m.active_weights()
        assert w_plus.shape == (4, 4)
        assert np.allclose(w_plus[:3], w[[0, 2, 4]])
        assert np.allclose(w_plus[3], w[[1, 5]].mean(axis=0))
        assert m.output_rows().tolist() == [0, 2, 4, 6]
        classes = view_classes(view, c)
        for k, lab in zip(classes, view.labels):
            if k in (1, 5):
                assert lab == 3
            else:
                assert [0, 2, 4][lab] == k
        # class 3 (neither active nor dropped) is excluded entirely
        assert 3 not in classes

    def test_empty_dropped_rejected(self):
        m = tiny_model(4)
        st = self.combine_state(m, np.zeros((4, 4), dtype=np.float32), [0, 1], n_drop=0)
        with pytest.raises(ValidationError):
            st.refresh(m, np.ones((2, 4), dtype=np.float32))


class TestDropStateRefresh:
    def test_dropclass_resamples_from_all_classes(self):
        c = tiny_corpus(n_speakers=12)
        m = tiny_model(12)
        st = schedule.DropState("dropclass", n_drop=6, gen=np.random.default_rng(3))
        seen = set()
        for _ in range(30):
            st.refresh(m)
            assert m.active.size == 6
            seen |= set(m.active.tolist())
        # non-permanent: over many refreshes every class reappears
        assert seen == set(range(12))

    def test_drop_random_is_permanent(self):
        m = tiny_model(10)
        st = schedule.DropState("drop_random", n_drop=2, gen=np.random.default_rng(4))
        sets = [set(m.active.tolist())]
        for _ in range(3):
            st.refresh(m)
            cur = set(m.active.tolist())
            assert cur < sets[-1]  # strictly shrinking subset
            sets.append(cur)
        assert m.active.size == 4

    def test_dropadapt_drops_lowest_and_is_permanent(self):
        c = tiny_corpus(n_speakers=8, utts=2)
        m = tiny_model(8, seed=6)
        st = schedule.DropState("dropadapt", n_drop=2)
        enrol = embedder.embed_by_length(m.params, c.features.select(slice(6)))
        p = schedule.average_probability(enrol, m.active_weights())
        expect_kept, expect_drop = schedule.rank_and_drop(p, m.active, 2)
        dropped = st.refresh(m, enrol)
        assert m.active.tolist() == expect_kept.tolist()
        assert list(dropped) == expect_drop.tolist()
        first = set(m.active.tolist())
        st.refresh(m, enrol)
        assert set(m.active.tolist()) < first

    def test_dropadapt_requires_enrolment(self):
        m = tiny_model(6)
        st = schedule.DropState("dropadapt", n_drop=1)
        with pytest.raises(EmptyDataError):
            st.refresh(m, None)

    def test_combine_appends_merged_row(self):
        c = tiny_corpus(n_speakers=8, utts=2)
        m = tiny_model(8, seed=7)
        st = schedule.DropState("dropadapt_combine", n_drop=2)
        enrol = embedder.embed_by_length(m.params, c.features.select(slice(8)))
        st.refresh(m, enrol)
        assert m.merged_row is not None
        assert m.active_weights().shape == (7, m.head.w.shape[1])
        view = st.build_view(m, c)
        # every utterance still present: merged classes share the last label
        assert len(view) == len(c)
        assert m.output_rows().size == 7
        merged_labels = [lab for k, lab in zip(view_classes(view, c), view.labels)
                         if k in st.merged_members]
        assert all(lab == 6 for lab in merged_labels)

    def test_combine_second_refresh_merges_again(self):
        c = tiny_corpus(n_speakers=8, utts=2)
        m = tiny_model(8, seed=8)
        st = schedule.DropState("dropadapt_combine", n_drop=2)
        enrol = embedder.embed_by_length(m.params, c.features.select(slice(8)))
        st.refresh(m, enrol)
        st.refresh(m, enrol)
        assert len(st.merged_members) == 4
        assert m.active.size == 4
        assert m.active_weights().shape == (5, m.head.w.shape[1])

    def test_drop_only_data_keeps_full_head(self):
        c = tiny_corpus(n_speakers=8, utts=2)
        m = tiny_model(8, seed=9)
        st = schedule.DropState("drop_only_data", n_drop=2)
        enrol = embedder.embed_by_length(m.params, c.features.select(slice(8)))
        st.refresh(m, enrol)
        assert m.active.size == 8          # head rows unchanged
        assert m.active_weights().shape == (8, m.head.w.shape[1])
        assert st.data_classes.size == 6    # data shrinks
        view = st.build_view(m, c)
        assert len(view) == 12
        # labels still index the FULL head
        assert view.labels.tolist() == view_classes(view, c)

    def test_none_mode_is_a_no_op(self):
        m = tiny_model(5)
        st = schedule.DropState("none")
        assert st.refresh(m) == ()
        assert m.active.tolist() == list(range(5))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            schedule.DropState("dropout")


def test_refresh_event_record_format(monkeypatch, tmp_path):
    """A run's refresh record: the iteration, the mode, |R| after the
    refresh, and the ids the refresh returned, which refresh.log writes
    ascending and comma-joined."""
    returned = []
    refresh = schedule.DropState.refresh

    def recording(self, model, enrol_embs=None):
        returned.append(refresh(self, model, enrol_embs))
        return returned[-1]
    monkeypatch.setattr(schedule.DropState, "refresh", recording)
    cfg = trainer.TrainConfig(total_iterations=30, batch_size=3, frames_per_example=8,
                              drop_mode="dropclass", drop_period=12, drop_count=4,
                              hidden_dim=6, embed_dim=4)
    _, metrics = trainer.train(cfg, tiny_corpus())
    assert len(returned) == 3 and len(returned[0]) == 4
    assert all(list(d) == sorted(d) for d in returned)
    assert metrics.refresh_records == [(it, "dropclass", 6, d)
                                       for it, d in zip((1, 13, 25), returned)]
    metrics.write_refresh_log(tmp_path / "refresh.log")
    lines = (tmp_path / "refresh.log").read_text().splitlines()
    assert lines == [f"{it}\tdropclass\t6\t{','.join(map(str, d))}"
                     for it, d in zip((1, 13, 25), returned)]
    assert all(re.fullmatch(r"(1|13|25)\tdropclass\t6\t(\d+(,\d+)*)?", line) for line in lines)


PERMANENT_MODES = ("dropadapt", "dropadapt_combine", "drop_random")


@st.composite
def _schedules(draw):
    """(mode, M, D, P, refreshes): a training run whose every refresh is valid."""
    mode = draw(st.sampled_from(schedule.MODES))
    m = draw(st.integers(2, 9))
    d = draw(st.integers(1, m - 1))
    p = draw(st.integers(1, 4))
    # a permanent mode needs D < |R| = M - D * (k - 1) at refresh k
    most = (m - 1) // d if mode in PERMANENT_MODES + ("drop_only_data",) else 4
    return mode, m, d, p, draw(st.integers(1, max(most, 1)))


@settings(max_examples=200, deadline=None)
@given(_schedules())
def test_schedule_invariants_over_a_training_run(sched):
    mode, m, d, p, refreshes = sched
    c = tiny_corpus(n_speakers=m, utts=2, frames=4, seed=m)
    config = trainer.TrainConfig(total_iterations=(refreshes - 1) * p + 1, batch_size=2,
                                 frames_per_example=3, drop_mode=mode, drop_period=p,
                                 drop_count=d, hidden_dim=3, embed_dim=2, seed=d)
    views = []  # (refreshes so far, active, data classes, merged members, outputs, view)
    build = schedule.DropState.build_view

    def recording(state, model, train_corpus):
        view = build(state, model, train_corpus)
        data = model.active if state.data_classes is None else state.data_classes
        views.append((len(views) + (mode != "none"), model.active.copy(),
                      data.copy(), set(state.merged_members), model.output_rows().size, view))
        return view

    enrol = c if mode in schedule.PROBABILITY_MODES else None
    with mock.patch.object(schedule.DropState, "build_view", recording):
        model, metrics = trainer.train(config, c, enrol_data=enrol)
    assert len(views) == (1 if mode == "none" else refreshes)
    for k, active, data_classes, merged, n_outputs, view in views:
        assert np.all((view.labels >= 0) & (view.labels < n_outputs))
        assert merged.isdisjoint(active.tolist())
        if mode in PERMANENT_MODES:
            assert active.size == m - d * k
        elif mode == "drop_only_data":
            assert active.size == m and data_classes.size == m - d * k
        elif mode == "dropclass":
            assert active.size == m - d
            assert np.array_equal(active, np.unique(active)) and active.max() < m
    # DropClass drops classes only while it trains; a permanent drop stays
    final = np.arange(m) if mode == "dropclass" else views[-1][1]
    assert np.array_equal(model.active, final)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_check_refreshes_rejects_exactly_the_schedules_that_run_out(data):
    mode = data.draw(st.sampled_from(schedule.MODES))
    m = data.draw(st.integers(2, 12))
    r = data.draw(st.integers(1, m))  # |R|: the first r classes start active
    d, p, t = data.draw(st.integers(1, m + 1)), data.draw(st.integers(1, 6)), data.draw(st.integers(1, 40))
    model = tiny_model(m, seed=r)
    model.active = np.arange(r)
    state = schedule.DropState(mode, n_drop=d, gen=np.random.default_rng(t))
    embs = np.random.default_rng(d).normal(size=(5, model.head.w.shape[1]))
    ran_out = False
    try:
        for it in range(1, t + 1):  # the refreshes of trainer._run
            if mode != "none" and (it - 1) % p == 0:
                state.refresh(model, embs)
    except ValidationError:
        ran_out = True
    rejected = False
    try:
        schedule.check_refreshes(mode, m, r, d, p, t)
    except ValidationError:
        rejected = True
    assert rejected == ran_out, (mode, m, r, d, p, t)


def test_refresh_error_names_the_drop_count_and_period_that_fit():
    # the default [drop] count and period and [train] adapt_iterations
    # against the 40 train classes of the default corpus
    with pytest.raises(ValidationError, match=r"20 refreshes \(T=500, P=25\) of D=20 classes each "
                       r"need \|R\| > 400, got \|R\|=40; use a drop count of at most 1 or a "
                       r"period of at least 500$"):
        schedule.check_refreshes("dropadapt", 50, 40, 20, 25, 500)


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(PERMANENT_MODES + ("drop_only_data",)), r=st.integers(1, 60),
       d=st.integers(1, 30), p=st.integers(1, 60), t=st.integers(1, 600))
def test_refresh_error_suggests_the_extremes_that_fit(mode, r, d, p, t):
    """The suggested D is the largest that fits at period P and the suggested
    P the smallest that fits at drop count D; a missing one fits at no value."""
    def fits(n_drop, period):
        try:
            schedule.check_refreshes(mode, r, r, n_drop, period, t)
        except ValidationError:
            return False
        return True

    if fits(d, p):
        return
    with pytest.raises(ValidationError) as info:
        schedule.check_refreshes(mode, r, r, d, p, t)
    d_max = re.search(r"a drop count of at most (\d+)", str(info.value))
    p_min = re.search(r"a period of at least (\d+)", str(info.value))
    if d_max:
        assert fits(int(d_max[1]), p) and not fits(int(d_max[1]) + 1, p)
    else:
        assert not fits(1, p)
    if p_min:
        assert fits(d, int(p_min[1])) and not fits(d, int(p_min[1]) - 1)
    else:
        assert not fits(d, t)  # a period of T or more refreshes once


# ---------------------------------------------------------------------------
# refreshes against a set-based reference loop

def refresh_by_sets(mode, n_drop, gen, w, ref, embs):
    """One refresh of ``ref`` (``active`` list, ``data`` and ``merged`` sets,
    ``merged_row``) over head ``w``; returns the dropped ids, or raises
    ValidationError when the refresh cannot drop ``n_drop`` classes."""
    active = ref["active"]
    if mode == "none":
        return ()
    if mode == "dropclass":
        if not 1 <= n_drop < w.shape[0]:
            raise ValidationError("dropclass needs D < M")
        kept = sorted(gen.choice(w.shape[0], size=w.shape[0] - n_drop, replace=False).tolist())
        ref["active"], ref["data"] = kept, set(kept)
        return tuple(sorted(set(active) - set(kept)))
    if mode == "drop_random":
        if not 0 < n_drop < len(active):
            raise ValidationError("drop_random needs D < |R|")
        dropped = sorted(gen.choice(np.array(active), size=n_drop, replace=False).tolist())
    else:
        rows = [w[c] for c in active] + ([] if ref["merged_row"] is None else [ref["merged_row"]])
        probs = schedule.average_probability(embs, np.array(rows))
        p = {c: probs[i] for i, c in enumerate(active)}
        pool = sorted(ref["data"]) if mode == "drop_only_data" else active
        if not 0 < n_drop < len(pool):
            raise ValidationError("a ranked drop needs D < |pool|")
        dropped = sorted(sorted(pool, key=lambda c: (p[c], c))[:n_drop])
        if mode == "drop_only_data":
            ref["data"] -= set(dropped)
            return tuple(dropped)
        if mode == "dropadapt_combine":
            old = [] if ref["merged_row"] is None else [ref["merged_row"]]
            ref["merged_row"] = np.stack([w[c] for c in dropped] + old).mean(axis=0, dtype=w.dtype)
            ref["merged"] |= set(dropped)
    ref["active"] = [c for c in active if c not in dropped]
    ref["data"] = set(ref["active"])
    return tuple(dropped)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_refresh_equals_set_based_reference(data):
    mode = data.draw(st.sampled_from(schedule.MODES))
    m = data.draw(st.integers(2, 10))
    inactive = data.draw(st.sets(st.integers(0, m - 1), max_size=m - 1))
    active = sorted(set(range(m)) - inactive)
    # D up to |R|, so that some refreshes run out of classes to drop
    d, refreshes = data.draw(st.integers(1, len(active))), data.draw(st.integers(1, 4))
    # few distinct values, so that probabilities tie (all-zero rows: uniform)
    embs = np.array(data.draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, -1.0, 2.0]),
                                                min_size=4, max_size=4),
                                       min_size=1, max_size=4)), np.float32)
    seed = data.draw(st.integers(0, 2 ** 32))
    model = tiny_model(m, seed=seed % 4)
    model.active = np.array(active, np.int64)
    w = model.head.w.copy()
    state = schedule.DropState(mode, n_drop=d, gen=np.random.default_rng(seed))
    ref, ref_gen = dict(active=active, data=set(active), merged=set(), merged_row=None), \
        np.random.default_rng(seed)
    for _ in range(refreshes):
        try:
            want = refresh_by_sets(mode, d, ref_gen, w, ref, embs)
        except ValidationError:
            with pytest.raises(ValidationError):
                state.refresh(model, embs)
            return
        dropped = state.refresh(model, embs)
        assert dropped == want and model.active.size == len(ref["active"])
        assert model.active.dtype == np.int64 and model.active.tolist() == ref["active"]
        data_classes = model.active if state.data_classes is None else state.data_classes
        assert data_classes.tolist() == sorted(ref["data"])
        assert state.merged_members == ref["merged"]
        if ref["merged_row"] is None:
            assert model.merged_row is None
        else:
            assert model.merged_row.tobytes() == ref["merged_row"].tobytes()
        assert model.head.w.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# the array view and ranking against per-utterance reference loops

def build_view_by_loop(state, model, c):
    """(rows, labels) of the view, built utterance by utterance."""
    local = {int(k): i for i, k in enumerate(model.active)}
    allowed = set((model.active if state.data_classes is None else state.data_classes).tolist())
    rows, labels = [], []
    for i, k in enumerate(c.class_ids.tolist()):
        if k in local and k in allowed:
            rows.append(i)
            labels.append(local[k])
        elif k in state.merged_members:
            rows.append(i)
            labels.append(model.active.size)
    return rows, labels


@st.composite
def _view_cases(draw):
    """A drawn state (any mode; data-class and merged sets), a model (active
    set, and a merged class when there are merged members) and a corpus whose
    classes are ragged, non-contiguous and interleaved."""
    m = draw(st.integers(2, 12))
    classes = st.sets(st.integers(0, m - 1))
    model = tiny_model(m)
    model.active = np.array(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))), np.int64)
    state = schedule.DropState(draw(st.sampled_from(schedule.MODES)),
                               data_classes=np.array(sorted(draw(classes)), np.int64),
                               merged_members=draw(classes))
    model.merged = bool(state.merged_members)
    present = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6, unique=True))
    sizes = draw(st.lists(st.integers(1, 4), min_size=len(present), max_size=len(present)))
    labels = [k for k, n in zip(present, sizes) for _ in range(n)]
    labels = [labels[i] for i in draw(st.permutations(range(len(labels))))]
    feats = [np.full((1, FEAT), i, np.float32) for i in range(len(labels))]
    return state, model, corpus.LabeledCorpus([f"u{i}" for i in range(len(labels))], labels,
                                              feats, m)


@settings(max_examples=300, deadline=None)
@given(_view_cases())
def test_build_view_equals_per_utterance_loop(case):
    state, model, c = case
    rows, labels = build_view_by_loop(state, model, c)
    if not rows:
        with pytest.raises(EmptyDataError):
            state.build_view(model, c)
        return
    view = state.build_view(model, c)
    assert len(view) == len(rows)
    # the view's rows are the corpus's segments, over the corpus's buffer
    assert view.features.frames is c.features.frames
    assert view.features.starts.tolist() == c.features.starts[rows].tolist()
    assert view.features.lengths.tolist() == c.features.lengths[rows].tolist()
    assert view.labels.dtype == np.int64 and view.labels.tolist() == labels
    n_outputs = model.output_rows().size
    assert n_outputs == model.active.size + (1 if state.merged_members else 0)
    assert view.labels.max() < n_outputs
    # the label index: each present label's rows, in view order
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    assert view.present.tolist() == sorted(groups)
    for lab, lo, k in zip(view.present.tolist(), view.offsets.tolist(), view.sizes.tolist()):
        assert view.order[lo:lo + k].tolist() == groups[lab]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rank_and_drop_equals_sorted_ranking(data):
    m = data.draw(st.integers(2, 15))
    # few distinct values, so that probabilities repeat
    p = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1e-300, 0.5]),
                                    min_size=m, max_size=m)))
    active = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=2)))
    n_drop = data.draw(st.integers(1, len(active) - 1))
    kept, dropped = schedule.rank_and_drop(p, active, n_drop)
    order = sorted(active, key=lambda c: (p[c], c))
    assert dropped.dtype == kept.dtype == np.int64
    assert dropped.tolist() == sorted(order[:n_drop])
    assert kept.tolist() == [c for c in active if c not in order[:n_drop]]
