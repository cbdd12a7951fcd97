import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dropclass import embedder, head, model as model_mod
from dropclass.corpus import Segments
from dropclass.errors import EmptyDataError, ShapeError, ValidationError
from oracles import finite_diff_check, loss_and_grads

F, H, D = 10, 8, 6
pack = Segments.pack


@pytest.fixture
def params():
    return embedder.init_params(F, H, D, seed=3)


def _pre_activations(p, cache):
    """A cache's a1 and a2, recomputed from its x and z1 by the forward's
    products on contiguous weight copies."""
    a1 = cache.x @ np.ascontiguousarray(p.w1.T) + p.b1
    a2 = cache.z1 @ np.ascontiguousarray(p.w2.T) + p.b2
    return a1, a2


def _one_group(params, feats):
    """(embeddings, cache) of equal-length ``feats`` through the caches path."""
    caches = []
    embs = embedder.embed_by_length(params, pack(list(feats)), caches)
    assert len(caches) == 1
    return embs, caches[0]


def test_constant_frames_hit_std_floor(params):
    feats = np.tile(np.linspace(-1, 1, F, dtype=np.float32), (7, 1))
    _, cache = _one_group(params, [feats])
    # mean-of-identical-rows rounding leaves var ~1e-15, so the floor
    # dominates but is not hit bit-exactly
    assert np.allclose(cache.pooled[:, H:], embedder.STD_FLOOR, rtol=1e-3, atol=0)


def test_single_frame(params):
    frame = np.random.default_rng(0).normal(size=(1, F)).astype(np.float32)
    _, cache = _one_group(params, [frame])
    z2 = cache.z2[0]
    assert np.allclose(cache.pooled[0, :H], z2[0])
    assert np.allclose(cache.pooled[:, H:], embedder.STD_FLOOR, rtol=1e-6, atol=0)


def test_forward_is_pure(params):
    feats = np.random.default_rng(1).normal(size=(20, F)).astype(np.float32)
    h1 = embedder.embed_by_length(params, pack([feats]))
    h2 = embedder.embed_by_length(params, pack([feats]))
    assert h1.tobytes() == h2.tobytes()


def test_identical_frame_order_identical_output(params):
    feats = np.random.default_rng(2).normal(size=(15, F)).astype(np.float32)
    h1 = embedder.embed_by_length(params, pack([feats.copy()]))
    h2 = embedder.embed_by_length(params, pack([feats.copy()]))
    assert h1.tobytes() == h2.tobytes()


def test_pooling_permutation_agreement(params):
    # permuting frames changes summation order only; pooled stats agree
    # within float tolerance
    feats = np.random.default_rng(3).normal(size=(30, F)).astype(np.float32)
    perm = np.random.default_rng(4).permutation(30)
    h1 = embedder.embed_by_length(params, pack([feats]))
    h2 = embedder.embed_by_length(params, pack([feats[perm]]))
    assert np.allclose(h1, h2, rtol=1e-6, atol=1e-6)


def test_batched_matches_single(params):
    rs = np.random.default_rng(5)
    feats = rs.normal(size=(4, 12, F)).astype(np.float32)
    hb = embedder.embed_by_length(params, pack(list(feats)))
    for i in range(4):
        hi = embedder.embed_by_length(params, pack([feats[i]]))
        assert np.allclose(hb[i], hi[0], rtol=1e-6, atol=1e-6)


def test_embed_by_length_caches_one_group_per_length_shortest_first(params):
    rs = np.random.default_rng(13)
    lengths = [9, 4, 9, 6, 4, 9]
    feats = [rs.normal(size=(t, F)).astype(np.float32) for t in lengths]
    caches = []
    embs = embedder.embed_by_length(params, pack(feats), caches)
    assert [cache.positions.tolist() for cache in caches] == [[1, 4], [3], [0, 2, 5]]
    for cache in caches:
        idx = cache.positions
        n, t = len(idx), lengths[idx[0]]
        assert cache.x.shape == (n, t, F)
        assert cache.x.tobytes() == np.stack([feats[i] for i in idx]).tobytes()
        a1, a2 = _pre_activations(params, cache)
        for act in (a1, cache.z1, a2, cache.z2):
            assert act.shape == (n, t, H)
        assert cache.pooled.shape == (n, 2 * H)
        # a group's rows are the rows of that group embedded alone
        alone = embedder.embed_by_length(params, pack([feats[i] for i in idx]))
        assert embs[idx].tobytes() == alone.tobytes()


def _by_length_oracle(p, feats):
    """(N, d) embeddings from one caches-path call per length group."""
    out = np.empty((len(feats), p.embed_dim), dtype=p.dtype)
    for t in sorted({f.shape[0] for f in feats}):
        idx = [i for i, f in enumerate(feats) if f.shape[0] == t]
        out[idx] = _one_group(p, [feats[i] for i in idx])[0]
    return out


_ROWS_AROUND_BLOCK = (lambda rows: 1, lambda rows: max(rows - 1, 1), lambda rows: rows,
                      lambda rows: rows + 1, lambda rows: 2 * rows + 1)


@settings(max_examples=40, deadline=None)
@given(hidden=st.integers(1, 96), embed=st.integers(1, 32), feat=st.sampled_from([1, 8, 20]),
       dtype=st.sampled_from([np.float32, np.float64]),
       groups=st.lists(st.tuples(st.sampled_from([1, 3, 10, 50, 80, 300, embedder.BLOCK_FRAMES + 7]),
                                 st.sampled_from(_ROWS_AROUND_BLOCK)),
                       min_size=1, max_size=3, unique_by=lambda g: g[0]),
       nan=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_embed_by_length_caches_and_streaming_paths_bit_identical(hidden, embed, feat, dtype,
                                                                  groups, nan, seed):
    p = embedder.init_params(feat, hidden, embed, seed=seed % 1000, dtype=dtype)
    rs = np.random.default_rng(seed)
    feats = []
    for t, count in groups:
        n = count(max(1, embedder.BLOCK_FRAMES // t))
        feats += [rs.normal(size=(t, feat)).astype(np.float32) for _ in range(n)]
    feats = [feats[i] for i in rs.permutation(len(feats))]
    bad = int(rs.integers(len(feats))) if nan else -1
    if nan:
        feats[bad] = feats[bad].copy()
        feats[bad][int(rs.integers(feats[bad].shape[0])), 0] = np.nan
    streamed = embedder.embed_by_length(p, pack(feats))
    cached = embedder.embed_by_length(p, pack(feats), [])
    want = _by_length_oracle(p, feats)
    keep = np.arange(len(feats)) != bad
    for got in (streamed, cached):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got[keep].tobytes() == want[keep].tobytes()
        if nan:
            assert not np.all(np.isfinite(got[bad]))


@pytest.mark.parametrize("block_frames", [1, 39, 40, 41, 121, 1320])
def test_embed_by_length_bits_do_not_depend_on_block_rows(params, monkeypatch, block_frames):
    # T = 40: blocks of 1, 1, 1, 1, 3 and 33 rows over 70 utterances
    rs = np.random.default_rng(17)
    feats = pack([rs.normal(size=(40, F)).astype(np.float32) for _ in range(70)])
    want = embedder.embed_by_length(params, feats)
    monkeypatch.setattr(embedder, "BLOCK_FRAMES", block_frames)
    assert embedder.embed_by_length(params, feats).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(hidden=st.integers(1, 128), embed=st.integers(1, 39), feat=st.integers(1, 20),
       dtype=st.sampled_from([np.float32, np.float64]),
       lengths=st.lists(st.integers(1, 90), min_size=1, max_size=4, unique=True),
       n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_rows_do_not_depend_on_the_batch(hidden, embed, feat, dtype, lengths, n, seed):
    # an embedding depends only on its utterance and the model, so a subset
    # or permutation of the utterances gets the full call's rows bit for bit
    p = embedder.init_params(feat, hidden, embed, seed=seed % 1000, dtype=dtype)
    rs = np.random.default_rng(seed)
    p.bp[...] = rs.normal(size=embed)
    feats = [rs.normal(size=(rs.choice(lengths), feat)).astype(np.float32) for _ in range(n)]
    pick = rs.permutation(n)[:rs.integers(1, n + 1)]
    for caches in (lambda: [], lambda: None):
        full = embedder.embed_by_length(p, pack(feats), caches())
        part = embedder.embed_by_length(p, pack([feats[i] for i in pick]), caches())
        assert part.tobytes() == full[pick].tobytes()


@settings(max_examples=150, deadline=None)
@given(hidden=st.integers(1, 48), embed=st.integers(1, 16), feat=st.integers(1, 20),
       dtype=st.sampled_from([np.float32, np.float64]), block_frames=st.integers(1, 100),
       lengths=st.lists(st.one_of(st.just(1), st.integers(2, 150)), min_size=1, max_size=4,
                        unique=True),
       n=st.integers(0, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_segments_embed_as_their_views(hidden, embed, feat, dtype, block_frames, lengths, n,
                                       seed):
    # a run embeds its enrolment set straight from the corpus buffer, and a
    # subset of the segments shares that buffer: the same bytes as a buffer
    # packed from the views, in any order and block size
    p = embedder.init_params(feat, hidden, embed, seed=seed % 1000, dtype=dtype)
    rs = np.random.default_rng(seed)
    p.bp[...] = rs.normal(size=embed)
    feats = [rs.normal(size=(rs.choice(lengths), feat)).astype(np.float32) for _ in range(n)]
    perm = rs.permutation(n)
    segments = pack(feats)
    caches = []
    with mock.patch.object(embedder, "BLOCK_FRAMES", block_frames):
        want = embedder.embed_by_length(p, segments)
        for kept in (None, caches):
            assert embedder.embed_by_length(p, segments, kept).tobytes() == want.tobytes()
        permuted = segments.select(perm)
        assert embedder.embed_by_length(p, permuted).tobytes() == want[perm].tobytes()
        repacked = pack([feats[i] for i in perm])
        assert embedder.embed_by_length(p, repacked).tobytes() == want[perm].tobytes()
    assert len(segments) == len(permuted) == n and permuted.frames is segments.frames
    assert sorted(i for cache in caches for i in cache.positions.tolist()) == list(range(n))
    assert segments.frames.flags.c_contiguous and segments.frames.dtype == np.float32
    for i, row in zip(perm.tolist(), permuted):
        assert row.base is segments.frames and np.array_equal(row, feats[i])


@settings(max_examples=200, deadline=None)
@given(hidden=st.integers(1, 64), feat=st.integers(1, 20),
       dtype=st.sampled_from([np.float32, np.float64]), t=st.sampled_from([1, 2, 3, 17, 80, 301]),
       n=st.integers(1, 5), constant=st.booleans(), offset=st.sampled_from([0.0, 100.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pooled_rows_match_float64_mean_and_std(hidden, feat, dtype, t, n, constant, offset,
                                                seed):
    # the time sums run on BLAS, so the pooled rows match a float64 reference
    # to within the worst-case rounding of a T-term sum; an offset in b2
    # gives std << |mean|, where a one-pass E[z^2] - mean^2 would cancel
    p = embedder.init_params(feat, hidden, 4, seed=seed % 1000, dtype=dtype)
    p.b2 += dtype(offset)
    rs = np.random.default_rng(seed)
    if constant:
        feats = [np.tile(rs.normal(size=(1, feat)), (t, 1)).astype(np.float32) for _ in range(n)]
    else:
        feats = [rs.normal(size=(t, feat)).astype(np.float32) for _ in range(n)]
    _, cache = _one_group(p, feats)
    z = cache.z2.astype(np.float64)
    mean = z.mean(axis=1)
    std = np.sqrt(z.std(axis=1) ** 2 + embedder.STD_FLOOR ** 2)
    tol = 2 * t * np.finfo(dtype).eps * np.abs(z).max(axis=1)
    assert cache.pooled.dtype == dtype
    assert np.all(np.abs(cache.pooled[:, :hidden] - mean) <= tol)
    assert np.all(np.abs(cache.pooled[:, hidden:] - std) <= tol + np.finfo(dtype).eps * std)


@settings(max_examples=200, deadline=None)
@given(hidden=st.integers(1, 128), feat=st.integers(1, 20),
       dtype=st.sampled_from([np.float32, np.float64]),
       lengths=st.lists(st.integers(1, 90), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_frame_products_are_per_utterance_products_with_contiguous_weights(hidden, feat, dtype,
                                                                         lengths, seed):
    # each utterance's frame products are its own 2-D product with a
    # C-contiguous copy of the weights, bit for bit: that pins both which
    # BLAS layout the forward uses and that no other utterance of its length
    # group changes its frames
    p = embedder.init_params(feat, hidden, 4, seed=seed % 1000, dtype=dtype)
    rs = np.random.default_rng(seed)
    feats = [rs.normal(size=(t, feat)).astype(np.float32) for t in lengths]
    caches = []
    embedder.embed_by_length(p, pack(feats), caches)
    w1, w2 = np.ascontiguousarray(p.w1.T), np.ascontiguousarray(p.w2.T)
    for cache in caches:
        for i in range(len(cache.positions)):
            assert cache.z1[i].tobytes() == _lrelu_where(cache.x[i] @ w1 + p.b1).tobytes()
            assert cache.z2[i].tobytes() == _lrelu_where(cache.z1[i] @ w2 + p.b2).tobytes()


def test_embed_by_length_peak_memory_below_one_activation():
    n, t, feat, hidden = 400, 80, 20, 64
    p = embedder.init_params(feat, hidden, 32, seed=0)
    rs = np.random.default_rng(0)
    feats = pack([rs.normal(size=(t, feat)).astype(np.float32) for _ in range(n)])
    one_activation = n * t * hidden * 4  # one (N, T, H) float32 array, 8.2 MB
    tracemalloc.start()
    try:
        embedder.embed_by_length(p, feats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_activation


@pytest.mark.parametrize("source", ["init_params", "load_checkpoint", "copy_float64"])
def test_params_and_grads_are_views_of_one_flat_buffer(tmp_path, source):
    made = embedder.init_params(F, H, D, seed=5)
    rs = np.random.default_rng(5)
    for bias in (made.b1, made.b2, made.bp):
        bias[...] = rs.normal(size=bias.shape)
    path = tmp_path / "model.dckm"
    model_mod.save_checkpoint(model_mod.Model(made, head.init_head(4, D), np.arange(4)), path)
    header = 4 + 4 + 16 + 4 + 4 * 4 + 4 + 4  # magic .. final lr, with 4 active ids
    payload = path.read_bytes()[header:header + 4 * made.flat.size]
    p = {"init_params": made, "load_checkpoint": model_mod.load_checkpoint(path).params,
         "copy_float64": made.copy(np.float64)}[source]
    shapes = [(H, F), (H,), (H, H), (H,), (D, 2 * H), (D,)]
    for flat, arrays in ((p.flat, p.tensors()), (p.g_flat, p.grads())):
        assert flat.ndim == 1 and flat.flags.c_contiguous and flat.dtype == p.dtype
        at = flat.__array_interface__["data"][0]
        for a, shape in zip(arrays, shapes):
            assert a.shape == shape and a.base is flat
            assert a.__array_interface__["data"][0] == at
            at += a.nbytes
        assert at == flat.__array_interface__["data"][0] + flat.nbytes
    assert p.flat.astype("<f4").tobytes() == payload
    for i, g in enumerate(p.grads()):
        g[...] = i + 1
    p.zero_grads()
    assert all(np.all(g == 0) for g in p.grads())


def test_params_of_mixed_dtypes_raise(params):
    tensors = params.tensors()
    tensors[3] = tensors[3].astype(np.float64)
    with pytest.raises(ShapeError, match="one dtype"):
        embedder.EmbedderParams(*tensors)


def test_embed_by_length_shape_errors(params, monkeypatch):
    # packing checks the arrays once; embed_by_length checks only F, and
    # before any group is embedded
    ok = np.zeros((5, F), dtype=np.float32)
    frame_layers = mock.Mock(side_effect=embedder._frames_and_pool)
    monkeypatch.setattr(embedder, "_frames_and_pool", frame_layers)
    for caches in (None, []):
        assert embedder.embed_by_length(params, pack([]), caches).shape == (0, D)
        with pytest.raises(ShapeError):
            pack([ok, np.zeros((5, F + 1), dtype=np.float32)])
        with pytest.raises(ShapeError):
            embedder.embed_by_length(params, pack([np.zeros((5, F + 1), dtype=np.float32)]),
                                     caches)
        with pytest.raises(ShapeError):
            pack([np.zeros(5, dtype=np.float32)])
        with pytest.raises(ShapeError):
            pack([np.zeros((3, F), dtype=np.float32), np.zeros((5, F + 1), dtype=np.float32)])
        with pytest.raises(EmptyDataError):
            pack([ok, np.zeros((0, F), dtype=np.float32)])
        # every check runs before any group is embedded
        assert caches in (None, [])
    assert not frame_layers.called


def test_no_nonfinite_for_bounded_inputs(params):
    rs = np.random.default_rng(6)
    feats = rs.uniform(-100, 100, size=(25, F)).astype(np.float32)
    h = embedder.embed_by_length(params, pack([feats]))
    assert np.all(np.isfinite(h))


class TestBackward:
    def test_zero_grad_embedding_accumulates_nothing(self, params):
        feats = np.random.default_rng(7).normal(size=(9, F)).astype(np.float32)
        caches = []
        embedder.embed_by_length(params, pack([feats]), caches)
        params.zero_grads()
        embedder.backward(params, caches, np.zeros(D, dtype=np.float32)[None])
        assert all(np.all(g == 0) for g in params.grads())

    def test_additivity_cancels(self, params):
        feats = np.random.default_rng(8).normal(size=(9, F)).astype(np.float32)
        caches = []
        embedder.embed_by_length(params, pack([feats]), caches)
        g = np.random.default_rng(9).normal(size=D).astype(np.float32)
        params.zero_grads()
        embedder.backward(params, caches, g[None])
        embedder.backward(params, caches, -g[None])
        assert all(np.allclose(gr, 0, atol=1e-5) for gr in params.grads())

    def test_two_calls_accumulate_exactly_twice(self, params):
        # backward overwrites its temporaries, never the cached activations;
        # one length group, so each call adds one term to each gradient
        rs = np.random.default_rng(14)
        feats = [rs.normal(size=(9, F)).astype(np.float32) for _ in range(3)]
        g = rs.normal(size=(3, D)).astype(np.float32)
        caches = []
        embedder.embed_by_length(params, pack(feats), caches)
        params.zero_grads()
        embedder.backward(params, caches, g)
        once = [gr.copy() for gr in params.grads()]
        embedder.backward(params, caches, g)
        for got, want in zip(params.grads(), once):
            assert got.tobytes() == (2 * want).tobytes()

    def test_mismatched_grad_shape(self, params):
        feats = np.random.default_rng(10).normal(size=(9, F)).astype(np.float32)
        caches = []
        embedder.embed_by_length(params, pack([feats]), caches)
        with pytest.raises(ShapeError):
            embedder.backward(params, caches, np.zeros(D + 1)[None])
        with pytest.raises(ShapeError):
            embedder.backward(params, caches, np.zeros((2, D)))


class TestFiniteDiff:
    def test_linear_probe_nearly_exact(self, params):
        # a linear functional of the embedding; gradient of the affine
        # projection params is exact up to rounding
        feats = np.random.default_rng(11).normal(size=(4, F))
        v = np.random.default_rng(12).normal(size=D)

        def closure(emb):
            return float(v @ emb), v

        err = finite_diff_check(params, feats, closure, epsilon=1e-5, seed=0)
        assert err <= 1e-4

    def test_standard_config(self, params):
        rs = np.random.default_rng(13)
        feats = rs.normal(size=(12, F))
        w = rs.normal(size=(5, D))
        spec = head.LossSpec.for_kind("cosface")

        def closure(emb):
            loss, gh, _ = loss_and_grads(emb, w, 2, spec)
            return loss, gh

        err = finite_diff_check(params, feats, closure, epsilon=1e-5, seed=1)
        assert err <= 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_of_mixed_lengths(self, params, dtype):
        # backward must send each gradient row to its utterance's group and
        # position; distinct labels and lengths make a misrouted row show
        rs = np.random.default_rng(15)
        lengths = [7, 3, 12, 7, 3, 1]
        feats = [rs.normal(size=(t, F)).astype(dtype) for t in lengths]
        w = rs.normal(size=(5, D))
        labels = [0, 3, 1, 4, 2, 3]
        spec = head.LossSpec.for_kind("cosface")

        def closure(emb):
            losses, gh, _ = head.batch_loss_and_grads(emb, w, labels, spec)
            return float(losses.sum()), gh

        err = finite_diff_check(params, feats, closure, epsilon=1e-5, n_coords=200, seed=3)
        assert err <= 1e-4

    def test_epsilon_zero_rejected(self, params):
        feats = np.zeros((3, F))
        with pytest.raises(ValidationError):
            finite_diff_check(params, feats, lambda e: (0.0, np.zeros(D)), epsilon=0.0)


def test_every_loss_kind_gradient_correct(params):
    # composition check across the whole loss family
    rs = np.random.default_rng(14)
    feats = rs.normal(size=(10, F))
    w = rs.normal(size=(5, D))
    for kind in head.KINDS:
        spec = head.LossSpec.for_kind(kind)

        def closure(emb, spec=spec):
            loss, gh, _ = loss_and_grads(emb, w, 1, spec)
            return loss, gh

        err = finite_diff_check(params, feats, closure, epsilon=1e-5, n_coords=60, seed=2)
        assert err <= 1e-4, kind


# ---------------------------------------------------------------------------
# kernels against the masked-select and einsum forms they replace

def _lrelu_where(a):
    return np.where(a > 0, a, embedder.LEAKY_SLOPE * a)


def _lrelu_grad_where(a):
    return np.where(a > 0, np.asarray(1.0, dtype=a.dtype),
                    np.asarray(embedder.LEAKY_SLOPE, dtype=a.dtype))


_BITS = {np.float32: np.uint32, np.float64: np.uint64}
_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0]


def _float_arrays():
    """Float arrays from raw bit patterns (every NaN payload, subnormal and
    infinity is reachable) mixed with the named special values."""
    def build(dtype):
        uint = _BITS[dtype]
        info = np.finfo(dtype)
        raw = hnp.arrays(uint, hnp.array_shapes(max_dims=3, max_side=6),
                         elements=st.integers(0, int(np.iinfo(uint).max)))
        specials = st.lists(st.sampled_from(_SPECIALS + [info.smallest_subnormal,
                                                         -info.smallest_subnormal,
                                                         info.tiny / 2]), max_size=8)
        return st.tuples(raw, specials).map(
            lambda rs: np.concatenate([rs[0].view(dtype).ravel(),
                                       np.asarray(rs[1], dtype=dtype)]))
    return st.sampled_from([np.float32, np.float64]).flatmap(build)


@settings(max_examples=300, deadline=None)
@given(_float_arrays())
def test_lrelu_kernels_bit_identical_to_masked_select(a):
    bits = _BITS[a.dtype.type]
    with np.errstate(invalid="ignore"):
        for new, old in ((embedder._lrelu, _lrelu_where),
                         (lambda a: embedder._lrelu_grad(a, np.empty_like(a)), _lrelu_grad_where)):
            got, want = new(a), old(a)
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(bits), want.view(bits))


_SIGNALLING_NAN = {np.float32: 0x7FA00001, np.float64: 0x7FF4000000000001}


def test_lrelu_keeps_signalling_nan_bits():
    for dtype, pattern in _SIGNALLING_NAN.items():
        a = np.array([pattern], dtype=_BITS[dtype]).view(dtype)
        with np.errstate(invalid="ignore"):
            assert embedder._lrelu(a).view(_BITS[dtype]) == _lrelu_where(a).view(_BITS[dtype])


@settings(max_examples=200, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
def test_lrelu_grad_of_output_is_grad_of_input(dtype, data):
    # backward builds both rectifier masks from the cached outputs z1 and z2,
    # which gives the bytes of masks built from a1 and a2 only if z > 0
    # exactly where a > 0
    info = np.finfo(dtype)
    named = np.array([0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal, info.max,
                      -info.max, np.inf, -np.inf, np.nan, -np.nan], dtype=dtype)
    snan = np.array([_SIGNALLING_NAN[dtype]], dtype=_BITS[dtype]).view(dtype)
    finite = data.draw(hnp.arrays(dtype, st.integers(0, 64), elements=st.floats(
        width=info.bits, allow_nan=False, allow_infinity=False)), label="finite")
    a = np.concatenate([named, snan, -snan, finite])
    with np.errstate(invalid="ignore"):
        got = embedder._lrelu_grad(embedder._lrelu(a), np.empty_like(a))
        want = embedder._lrelu_grad(a, np.empty_like(a))
    assert got.tobytes() == want.tobytes()


def _einsum_weight_grads(p, cache, g):
    """g_w1 and g_w2 of one backward call, by the per-element einsum form."""
    h, t = p.hidden_dim, cache.x.shape[1]
    g_pooled = g @ p.wp
    centered = cache.z2 - cache.pooled[:, None, :h]
    g_z2 = g_pooled[:, None, :h] / t + (g_pooled[:, h:] / cache.pooled[:, h:])[:, None, :] * centered / t
    a1, a2 = _pre_activations(p, cache)
    g_a2 = g_z2 * _lrelu_grad_where(a2)
    g_a1 = (g_a2 @ p.w2) * _lrelu_grad_where(a1)
    return (np.einsum("bth,btf->hf", g_a1, cache.x),
            np.einsum("bth,btk->hk", g_a2, cache.z1))


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_matmul_weight_grads_match_einsum(dtype, tol):
    p = embedder.init_params(F, H, D, seed=4, dtype=dtype)
    rs = np.random.default_rng(11)
    feats = rs.normal(size=(5, 13, F)).astype(dtype)
    g = rs.normal(size=(5, D)).astype(dtype)
    _, cache = _one_group(p, feats)
    p.zero_grads()
    embedder.backward(p, [cache], g)
    want_w1, want_w2 = _einsum_weight_grads(p, cache, g)
    for got, want in ((p.g_w1, want_w1), (p.g_w2, want_w2)):
        assert got.dtype == dtype
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= tol * scale
