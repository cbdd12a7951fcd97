import math

import numpy as np
import pytest

from dropclass import head
from dropclass.errors import MaskError, NumericError, ShapeError, ValidationError
from oracles import logits, loss_and_grads, masked_logits

D = 6
M = 5


@pytest.fixture
def hm():
    return head.init_head(M, D, seed=1, dtype=np.float64)


def rand_instance(rs, spread=0.15):
    """Angularly non-degenerate (h, W) pair so no softmax entry saturates."""
    base = rs.normal(size=D)
    base /= np.linalg.norm(base)
    w = base + spread * rs.normal(size=(M, D))
    h = base + spread * rs.normal(size=D)
    return h, w


class TestLogits:
    def test_zero_matrix(self, hm):
        hm.w[...] = 0
        assert np.all(logits(np.ones(D), hm) == 0)

    def test_basis_vector_reads_column(self, hm):
        e1 = np.zeros(D)
        e1[0] = 1.0
        assert np.allclose(logits(e1, hm), hm.w[:, 0])

    def test_matches_naive_double_loop(self, hm):
        h = np.random.default_rng(2).normal(size=D)
        y = logits(h, hm)
        naive = [sum(hm.w[j, i] * h[i] for i in range(D)) for j in range(M)]
        assert np.allclose(y, naive, atol=1e-6)

    def test_shape_mismatch(self, hm):
        with pytest.raises(ShapeError):
            logits(np.zeros(D + 1), hm)


class TestMaskedLogits:
    def test_full_mask_is_identity(self, hm):
        h = np.random.default_rng(3).normal(size=D)
        assert np.array_equal(masked_logits(h, hm, range(M)), logits(h, hm))

    def test_row_selection(self, hm):
        h = np.random.default_rng(4).normal(size=D)
        y = logits(h, hm)
        y_star = masked_logits(h, hm, [0, 2, 4])
        assert y_star.shape == (3,)
        assert np.array_equal(y_star, y[[0, 2, 4]])

    def test_bad_subsets_rejected(self):
        with pytest.raises(MaskError):
            head.check_subset([], M)
        with pytest.raises(MaskError):
            head.check_subset([0, 0, 1], M)
        with pytest.raises(MaskError):
            head.check_subset([3, M], M)

    def test_single_class_loss_is_zero(self, hm):
        h = np.random.default_rng(5).normal(size=D)
        for kind in head.KINDS:
            spec = head.LossSpec.for_kind(kind)
            loss, gh, gw = loss_and_grads(h, hm.w[2:3], 0, spec)
            assert loss == 0.0
            assert np.allclose(gh, 0) and np.allclose(gw, 0)


class TestLossValues:
    def test_cosface_margin_free_equals_cosine_softmax(self):
        rs = np.random.default_rng(6)
        h, w = rand_instance(rs)
        spec = head.LossSpec("cosface", scale=1.0, margin=0.0)
        loss, _, _ = loss_and_grads(h, w, 1, spec)
        hn = h / np.linalg.norm(h)
        wn = w / np.linalg.norm(w, axis=1, keepdims=True)
        z = wn @ hn
        expected = -z[1] + np.log(np.exp(z).sum())
        assert abs(loss - expected) <= 1e-9

    def test_cosface_fixed_example(self):
        # target row aligned with h, the other orthogonal: loss is
        # log(1 + exp(-s*(1-m)))
        h = np.array([2.0, 0.0, 0.0])
        w = np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 0.0]])
        spec = head.LossSpec.for_kind("cosface")  # s=30, m=0.35
        loss, _, _ = loss_and_grads(h, w, 0, spec)
        assert abs(loss - math.log(1 + math.exp(-19.5))) < 1e-12

    def test_softmax_probabilities_sum_to_one(self):
        rs = np.random.default_rng(7)
        for kind in head.KINDS:
            spec = head.LossSpec.for_kind(kind)
            h, w = rand_instance(rs)
            # rebuild the modified logits via loss at each label and check
            # exp(-loss_y) sums to 1 over y  (softmax normalization)
            probs = [math.exp(-loss_and_grads(h, w, y, spec)[0]) for y in range(M)]
            if kind in ("cosface", "arcface", "sphereface"):
                continue  # margins change the distribution per label
            assert abs(sum(probs) - 1.0) < 1e-12

    def test_margin_monotonicity(self):
        rs = np.random.default_rng(8)
        for kind in ("cosface", "arcface"):
            for _ in range(20):
                h, w = rand_instance(rs, spread=0.4)
                losses = []
                for m in (0.0, 0.2, 0.4, 0.6):
                    spec = head.LossSpec(kind, scale=10.0, margin=m)
                    losses.append(loss_and_grads(h, w, 0, spec)[0])
                assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:])), kind

    def test_angular_kinds_scale_invariant(self):
        rs = np.random.default_rng(9)
        h, w = rand_instance(rs)
        for kind in ("cosface", "arcface", "sphereface", "adacos"):
            spec = head.LossSpec.for_kind(kind)
            l1 = loss_and_grads(h, w, 1, spec)[0]
            l2 = loss_and_grads(7.3 * h, w, 1, spec)[0]
            assert abs(l1 - l2) <= 1e-6 * max(abs(l1), 1.0), kind
        spec = head.LossSpec.for_kind("softmax")
        l1 = loss_and_grads(h, w, 1, spec)[0]
        l2 = loss_and_grads(7.3 * h, w, 1, spec)[0]
        assert abs(l1 - l2) > 1e-3

    def test_masking_equivalence_bit_identical(self, hm):
        # computing on masked rows equals building the reduced problem
        h = np.random.default_rng(10).normal(size=D)
        active = np.array([0, 2, 3])
        spec = head.LossSpec.for_kind("cosface")
        loss_a, gh_a, gw_a = loss_and_grads(h, hm.w[active], 1, spec)
        reduced = hm.w[active].copy()
        loss_b, gh_b, gw_b = loss_and_grads(h, reduced, 1, spec)
        assert loss_a == loss_b
        assert gh_a.tobytes() == gh_b.tobytes()
        assert gw_a.tobytes() == gw_b.tobytes()

    def test_label_out_of_range(self, hm):
        with pytest.raises(ValidationError):
            loss_and_grads(np.ones(D), hm.w, M, head.LossSpec.for_kind("softmax"))

    def test_zero_embedding_rejected_for_angular(self, hm):
        with pytest.raises(NumericError):
            loss_and_grads(np.zeros(D), hm.w, 0, head.LossSpec.for_kind("cosface"))


class TestGradients:
    @pytest.mark.parametrize("kind", head.KINDS)
    def test_finite_difference(self, kind):
        rs = np.random.default_rng(11)
        eps = 1e-5
        for _ in range(10):
            h, w = rand_instance(rs)
            lab = int(rs.integers(0, M))
            spec = head.LossSpec.for_kind(kind)
            _, gh, gw = loss_and_grads(h, w, lab, spec)

            def loss_at(hh, ww):
                return loss_and_grads(hh, ww, lab, spec)[0]

            for i in range(D):
                hp, hm_ = h.copy(), h.copy()
                hp[i] += eps
                hm_[i] -= eps
                num = (loss_at(hp, w) - loss_at(hm_, w)) / (2 * eps)
                assert abs(num - gh[i]) / max(abs(num), abs(gh[i]), 1e-8) <= 1e-4
            for j in range(M):
                for i in range(D):
                    wp, wm = w.copy(), w.copy()
                    wp[j, i] += eps
                    wm[j, i] -= eps
                    num = (loss_at(h, wp) - loss_at(h, wm)) / (2 * eps)
                    assert abs(num - gw[j, i]) / max(abs(num), abs(gw[j, i]), 1e-8) <= 1e-4

    @pytest.mark.parametrize("kind", head.KINDS)
    def test_gradient_step_decreases_loss(self, kind):
        rs = np.random.default_rng(12)
        for _ in range(10):
            h, w = rand_instance(rs, spread=0.5)
            lab = int(rs.integers(0, M))
            spec = head.LossSpec.for_kind(kind)
            loss, gh, gw = loss_and_grads(h, w, lab, spec)
            if loss < 1e-12:
                continue
            step = 1e-3
            loss2, _, _ = loss_and_grads(h - step * gh, w - step * gw, lab, spec)
            assert loss2 < loss


class TestAdaCos:
    def test_initial_scale(self):
        spec = head.LossSpec.for_kind("adacos")
        spec.reset_adacos(40)
        assert abs(spec.adacos_scale - math.sqrt(2) * math.log(39)) < 1e-12

    def test_batch_update_moves_scale(self):
        rs = np.random.default_rng(13)
        spec = head.LossSpec.for_kind("adacos")
        spec.reset_adacos(M)
        before = spec.adacos_scale
        hb = rs.normal(size=(8, D))
        w = rs.normal(size=(M, D))
        labels = rs.integers(0, M, size=8)
        head.batch_loss_and_grads(hb, w, labels, spec)
        assert spec.adacos_scale != before
        assert head.ADACOS_MIN_SCALE <= spec.adacos_scale <= head.ADACOS_MAX_SCALE

    def test_update_at_the_largest_scale_with_cosines_near_one(self):
        # exp(100 * 0.99) overflows float32, and inf - inf made the scale NaN
        rs = np.random.default_rng(15)
        spec = head.LossSpec.for_kind("adacos")
        spec.adacos_scale = head.ADACOS_MAX_SCALE
        base = rs.normal(size=D)
        base /= np.linalg.norm(base)
        w = (base + 0.03 * rs.normal(size=(M, D))).astype(np.float32)
        hb = (base + 0.03 * rs.normal(size=(8, D))).astype(np.float32)
        cos = (hb / np.linalg.norm(hb, axis=1)[:, None]) @ (w / np.linalg.norm(w, axis=1)[:, None]).T
        assert cos.dtype == np.float32 and 0.98 < cos.min() and cos.max() < 1.0
        head.batch_loss_and_grads(hb, w, rs.integers(0, M, size=8), spec)
        assert head.ADACOS_MIN_SCALE <= spec.adacos_scale <= head.ADACOS_MAX_SCALE

    def test_single_example_api_does_not_update(self):
        rs = np.random.default_rng(14)
        spec = head.LossSpec.for_kind("adacos")
        spec.reset_adacos(M)
        before = spec.adacos_scale
        h, w = rand_instance(rs)
        loss_and_grads(h, w, 0, spec)
        assert spec.adacos_scale == before


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            head.LossSpec.for_kind("triplet")

    def test_margin_ranges(self):
        with pytest.raises(ValidationError):
            head.LossSpec("cosface", scale=30, margin=1.0).validate()
        with pytest.raises(ValidationError):
            head.LossSpec("sphereface", scale=30, margin=5).validate()
        with pytest.raises(ValidationError):
            head.LossSpec("arcface", scale=0.0, margin=0.2).validate()
        with pytest.raises(ValidationError, match="scale must be a finite number > 0, got inf"):
            head.LossSpec("arcface", scale=math.inf, margin=0.2).validate()
        for kind in ("softmax", "adacos"):
            with pytest.raises(ValidationError, match="margin must be a finite number, got nan"):
                head.LossSpec(kind, scale=1.0, margin=math.nan).validate()
