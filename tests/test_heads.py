import itertools
import math
import platform
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovabench import heads
from ovabench.heads import (DISTANCE_BLOCK_ENTRIES, DISTANCE_TILE_CLASSES,
                            DISTANCE_TILE_ENTRIES, PROB_CLAMP, HeadKind,
                            _loss_and_logit_gradient, _row_max, logits, loss, loss_and_grads,
                            loss_and_predicted, predict, probabilities)
from ovabench.nncore import ModelParams, backward, forward, init_params

from gradcheck import gradient_check, params_from_arrays

ALL_HEADS = list(HeadKind)
DISTANCE_HEADS = [HeadKind.SOFTMAX_DISTANCE, HeadKind.OVA_DISTANCE]
BLOCK_ROWS = DISTANCE_TILE_ENTRIES // 10  # rows per distance tile at K=10
LOOP_ROWS = DISTANCE_BLOCK_ENTRIES // (10 * 16)  # rows per block-loop block at K=10, embed=16


def head_only_params(weights, biases=None):
    """Identity body so the embedding equals the input."""
    dim = weights.shape[0]
    return params_from_arrays(
        [np.eye(dim)], [np.zeros(dim)], head_weights=np.asarray(weights, dtype=np.float64),
        head_biases=None if biases is None else np.asarray(biases, float))


def random_params(head, seed, dims=(2, 16, 16), k=10):
    return init_params(list(dims), k, head_biases=head.uses_biases,
                       head_init="glorot", seed=seed)


class TestLogits:
    def test_distance_zero_at_center_column(self):
        w = np.array([[1.0, 0.5], [-2.0, 3.0]])  # embed_dim 2, K 2
        params = head_only_params(w)
        for head in DISTANCE_HEADS:
            z = logits(head, params, w.T[:1])  # embedding equals column 0
            assert z[0, 0] == 0.0
            assert z[0, 1] < 0.0

    def test_affine_bias_only(self):
        params = head_only_params(np.zeros((2, 3)), biases=[1.0, 2.0, 3.0])
        z = logits(HeadKind.SOFTMAX_AFFINE, params, np.random.default_rng(0).standard_normal((4, 2)))
        assert np.array_equal(z, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_distance_matches_elementwise_loop(self):
        rng = np.random.default_rng(42)
        emb = rng.standard_normal((6, 16))
        w = rng.standard_normal((16, 10))
        params = params_from_arrays([np.eye(16)], [np.zeros(16)], head_weights=w)
        z = logits(HeadKind.OVA_DISTANCE, params, emb)
        for b in range(6):
            for j in range(10):
                acc = 0.0
                for e in range(16):
                    acc += (emb[b, e] - w[e, j]) ** 2
                assert abs(z[b, j] - (-math.sqrt(acc))) < 1e-12

    @pytest.mark.parametrize("k, embed, rows", [
        *[(10, 16, n) for n in (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                3 * BLOCK_ROWS + 7)],
        (DISTANCE_BLOCK_ENTRIES // 16 + 1, 16, 3),  # 683 class chunks (one row per loop block)
    ])
    def test_blocked_distance_equals_one_shot(self, k, embed, rows):
        rng = np.random.default_rng(rows)
        emb = rng.standard_normal((rows, embed)) * 3.0
        w = rng.standard_normal((embed, k))
        params = head_only_params(w)
        diff = emb[:, None, :] - w.T[None, :, :]
        expected = -np.sqrt(np.einsum("bke,bke->bk", diff, diff))
        for head in DISTANCE_HEADS:
            assert np.array_equal(logits(head, params, emb), expected)

    @pytest.mark.parametrize("k, embed, rows", [
        *[(10, 16, n) for n in (1, LOOP_ROWS - 1, LOOP_ROWS, LOOP_ROWS + 1, 3 * LOOP_ROWS + 7)],
        (DISTANCE_BLOCK_ENTRIES // 16 + 1, 16, 3),  # one row per block
    ])
    def test_the_block_loop_equals_one_shot(self, k, embed, rows, monkeypatch):
        """The block loop, which scores wherever the probe fails, keeps the same bits."""
        monkeypatch.setattr(heads, "_embedding_order_exact", lambda: False)
        self.test_blocked_distance_equals_one_shot(k, embed, rows)

    def test_distance_memory_is_bounded(self):
        emb = np.random.default_rng(3).standard_normal((90000, 16))
        params = head_only_params(np.random.default_rng(4).standard_normal((16, 10)))
        tracemalloc.start()
        try:
            z = logits(HeadKind.SOFTMAX_DISTANCE, params, emb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * z.nbytes  # the unblocked difference tensor alone is 115 MB

    def test_the_block_loop_memory_is_bounded(self, monkeypatch):
        monkeypatch.setattr(heads, "_embedding_order_exact", lambda: False)
        self.test_distance_memory_is_bounded()

    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    def test_embedding_width_must_match_the_head(self, head):
        params = random_params(head, seed=0)
        with pytest.raises(ValueError, match="embedding width 3 does not match head fan_in 16"):
            logits(head, params, np.zeros((2, 3)))

    def test_bias_consistency_enforced(self):
        with_bias = head_only_params(np.zeros((2, 3)), biases=np.zeros(3))
        without = head_only_params(np.zeros((2, 3)))
        emb = np.zeros((1, 2))
        with pytest.raises(ValueError, match="head_biases"):
            logits(HeadKind.OVA_DISTANCE, with_bias, emb)
        with pytest.raises(ValueError, match="head_biases"):
            logits(HeadKind.SOFTMAX_AFFINE, without, emb)

    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    def test_loss_and_grads_refuses_the_other_bias_layout(self, head):
        # the layout the head does not use: biases on a distance head, none on an affine one
        params = init_params([2, 4, 3], 3, head_biases=not head.uses_biases, seed=0)
        need = "must not carry" if head.is_distance else "requires"
        with pytest.raises(ValueError, match=f"head '{head.value}' {need} head_biases"):
            loss_and_grads(head, params, np.zeros((2, 2)), np.array([0, 1]),
                           ModelParams.zeros(params.layout))


def masked_sigmoid(z):
    """The one-vs-all sigmoid as first written, one formula per sign through
    boolean masks: the oracle for the bits of the in-place form."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


EDGE_LOGITS = np.array([0.0, 1e-300, 36.7, 709.0, 745.0, 800.0])


class TestProbabilities:
    def test_softmax_uniform_on_zero_logits(self):
        p = probabilities(HeadKind.SOFTMAX_AFFINE, np.zeros((3, 10)))
        assert np.allclose(p, 0.1, atol=1e-15)

    def test_ova_distance_zero_distance_gives_exactly_one(self):
        p = probabilities(HeadKind.OVA_DISTANCE, np.array([[0.0, -5.0]]))
        assert p[0, 0] == 1.0

    def test_ova_distance_ln3_gives_half(self):
        p = probabilities(HeadKind.OVA_DISTANCE, np.array([[-math.log(3.0)]]))
        assert p[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_ova_affine_midpoint(self):
        p = probabilities(HeadKind.OVA_AFFINE, np.zeros((1, 4)))
        assert np.allclose(p, 0.5, atol=0)

    def test_ova_distance_rejects_positive_logit(self):
        with pytest.raises(ValueError, match="positive logit"):
            probabilities(HeadKind.OVA_DISTANCE, np.array([[0.1, -1.0]]))

    @pytest.mark.parametrize("head", [HeadKind.OVA_AFFINE, HeadKind.OVA_DISTANCE])
    def test_ova_equals_the_masked_sigmoid_bitwise(self, head):
        wide = np.random.default_rng(11).uniform(-50.0, 50.0, (300, 40))
        edges = np.concatenate((EDGE_LOGITS, -EDGE_LOGITS))
        scale = 1.0
        if head is HeadKind.OVA_DISTANCE:  # distance logits are <= 0, and 0 gives 2 * 0.5
            wide, edges, scale = -np.abs(wide), np.concatenate(([0.0], -EDGE_LOGITS)), 2.0
        strided = wide[3::2, 1::3]
        assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
        for z in (edges[None, :], edges[:, None], wide, strided):
            assert np.array_equal(probabilities(head, z), scale * masked_sigmoid(z))

    @pytest.mark.parametrize("head", [HeadKind.SOFTMAX_AFFINE, HeadKind.SOFTMAX_DISTANCE])
    def test_softmax_equals_the_out_of_place_formula_bitwise(self, head):
        wide = -np.abs(np.random.default_rng(12).uniform(-50.0, 50.0, (300, 40)))
        for z in (wide, wide[3::2, 1::3], np.concatenate((-EDGE_LOGITS, [0.0]))[None, :]):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            assert np.array_equal(probabilities(head, z), e / e.sum(axis=1, keepdims=True))

    def test_softmax_of_finite_logits_wider_than_the_double_range_does_not_warn(self):
        z = np.array([[1e308, -1e308, 0.0]])  # z - max overflows to -inf, whose exp is 0
        assert probabilities(HeadKind.SOFTMAX_AFFINE, z).tolist() == [[1.0, 0.0, 0.0]]

    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_memory_is_bounded_by_the_logits(self, head):
        z = -np.abs(np.random.default_rng(13).standard_normal((100000, 10)))
        tracemalloc.start()
        try:
            probabilities(head, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output itself is 1x; the boolean sign mask of a sigmoid is 1/8
        assert peak <= (2.5 if head.is_ova else 1.5) * z.nbytes

    def test_softmax_rows_sum_to_one(self):
        z = np.random.default_rng(1).standard_normal((20, 7)) * 5
        p = probabilities(HeadKind.SOFTMAX_AFFINE, z)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9
        assert (p > 0).all() and (p < 1).all()

    @settings(max_examples=60)
    @given(st.floats(-200, 200),
           st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_softmax_translation_invariance(self, c, row):
        z = np.array([row])
        shifted = probabilities(HeadKind.SOFTMAX_DISTANCE, z - np.max(row))  # keep <= 0
        base = probabilities(HeadKind.SOFTMAX_AFFINE, z)
        translated = probabilities(HeadKind.SOFTMAX_AFFINE, z + c)
        assert np.abs(base - translated).max() < 1e-12
        assert shifted.shape == base.shape

    @settings(max_examples=60)
    @given(st.lists(st.floats(0.01, 30), min_size=2, max_size=8))
    def test_ova_distance_monotone_in_distance(self, distances):
        d = np.sort(np.array(distances))
        p = probabilities(HeadKind.OVA_DISTANCE, -d[None, :])[0]
        diffs = np.diff(p)
        assert (diffs <= 0).all()
        doubled = probabilities(HeadKind.OVA_DISTANCE, -2.0 * d[None, :])[0]
        assert (doubled <= p + 1e-15).all()

    def test_ova_distance_vanishing_confidence(self):
        # conf(d) = 2 / (1 + e^d); below 1e-4 from d = 10 on
        for d in (10.0, 12.0, 50.0, 500.0):
            p = probabilities(HeadKind.OVA_DISTANCE, np.array([[-d]]))
            assert p[0, 0] < 1e-4

    def test_softmax_affine_ray_amplification(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((16, 10))
        params = head_only_params(w)  # zero-bias equivalent below
        params = params_from_arrays([np.eye(16)], [np.zeros(16)],
                                    head_weights=w, head_biases=np.zeros(10))
        f = rng.standard_normal((1, 16))
        base = logits(HeadKind.SOFTMAX_AFFINE, params, f)
        assert np.sum(base[0] == base[0].max()) == 1  # strict dominance
        prev = 0.0
        for t in (1.0, 2.0, 5.0, 10.0, 50.0, 1e3, 1e4):
            p = probabilities(HeadKind.SOFTMAX_AFFINE,
                              logits(HeadKind.SOFTMAX_AFFINE, params, t * f))
            conf = p.max()
            assert conf >= prev - 1e-15
            prev = conf
        assert prev > 0.99  # far along the ray the max probability saturates


LN10 = 2.302585092994046
TWO_LN2 = 1.3862943611198906
# -log(2/(1+e^0.5)) - log(1 - 2/(1+e^2)) - log(1 - 2/(1+e^3)), mpmath at 50 digits
OVA_DM_LOSS_05_2_3 = 0.6529278050484366


class TestLoss:
    def test_softmax_uniform_loss_is_ln_k(self):
        for head in (HeadKind.SOFTMAX_AFFINE, HeadKind.SOFTMAX_DISTANCE):
            value = loss(head, np.zeros((4, 10)), [0, 3, 9, 5])
            assert value == pytest.approx(LN10, abs=1e-12)

    def test_ova_affine_midpoint_two_classes(self):
        value = loss(HeadKind.OVA_AFFINE, np.zeros((1, 2)), [0])
        assert value == pytest.approx(TWO_LN2, abs=1e-12)

    def test_ova_distance_frozen_oracle_value(self):
        value = loss(HeadKind.OVA_DISTANCE, -np.array([[0.5, 2.0, 3.0]]), [0])
        assert value == pytest.approx(OVA_DM_LOSS_05_2_3, abs=1e-12)

    def test_ova_distance_wrong_class_at_distance_zero_is_clamped(self):
        # 1 - p is 0 for the wrong class, so its term -log(1 - p) is clamped
        # at -log(1e-12); a literal, so that a changed PROB_CLAMP shows
        z = np.array([[-1.0, 0.0]])
        want = math.log1p(math.exp(1.0)) - math.log(2.0) - math.log(1e-12)
        assert loss(HeadKind.OVA_DISTANCE, z, [0]) == pytest.approx(want, rel=1e-14)
        assert _loss_and_logit_gradient(HeadKind.OVA_DISTANCE, z, [0])[1][0, 1] == 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            loss(HeadKind.SOFTMAX_AFFINE, np.zeros((2, 3)), [0, 3])

    @pytest.mark.parametrize("labels, shown", [
        ([0, -1, 1], -1),
        ([0, 4, 1], 4),
        ([0, 2 ** 63 - 1, 1], 2 ** 63 - 1),
        (np.array([0, -2 ** 63, 1], dtype=np.int64), -2 ** 63),
        (np.array([0, 4, 1], dtype=np.uint64), 4),
    ], ids=["minus-one", "k", "int64-max", "int64-min", "uint64-k"])
    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    def test_out_of_range_label_is_named_with_its_index(self, head, labels, shown):
        z = -np.ones((3, 4))
        for fn in (loss, _loss_and_logit_gradient):
            with pytest.raises(ValueError) as info:
                fn(head, z, labels)
            assert str(info.value) == f"label {shown} at index 1 outside [0, 4)"

    @pytest.mark.parametrize("value", [2 ** 63, 2 ** 63 + 5, 2 ** 64 - 1])
    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    def test_unsigned_labels_above_the_int64_range_are_refused_as_given(self, head, value):
        """Once wrapped: 2^64 - 1 was refused as label -1, which the caller never passed."""
        z = -np.ones((3, 4))
        for fn in (loss, _loss_and_logit_gradient):
            with pytest.raises(ValueError) as info:
                fn(head, z, np.array([0, value, 1], dtype=np.uint64))
            assert str(info.value) == f"labels value {value} does not fit int64"

    @pytest.mark.parametrize("labels", [[1.7], ["1"], [True], np.array([1.0])],
                             ids=["float", "str", "bool", "integral-float"])
    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    def test_labels_that_are_not_integers_are_refused(self, head, labels):
        """Once truncated or parsed: a label of 1.7 or "1" scored label 1."""
        z = -np.array([[1.0, 2.0]])
        params = head_only_params(np.eye(2), np.zeros(2) if head.uses_biases else None)
        message = f"labels must be integers, got dtype {np.asarray(labels).dtype}"
        for call in (lambda: loss(head, z, labels), lambda: loss_and_predicted(head, z, labels),
                     lambda: _loss_and_logit_gradient(head, z, labels),
                     lambda: loss_and_grads(head, params, -z, labels,
                                            ModelParams.zeros(params.layout))):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    def test_nonfinite_loss_carries_batch_index(self, head, value):
        z = np.array([[-1.0, -2.0], [value, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused without a warning first
            with pytest.raises(ValueError, match="batch index 1"):
                loss(head, z, [0, 0])

    @pytest.mark.parametrize("z", [[[-0.5, -1.0], [-2.0, 0.5]], [[-0.5, -1.0], [np.inf, -0.1]]],
                             ids=["positive", "inf"])
    def test_positive_distance_logits_are_refused_by_loss_as_by_probabilities(self, z):
        message = ("positive logit for distance head at batch index 1; "
                   "distance logits must be <= 0")
        for call in (lambda: probabilities(HeadKind.OVA_DISTANCE, z),
                     lambda: loss(HeadKind.OVA_DISTANCE, z, [0, 1])):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("value", [-np.inf, np.nan], ids=["inf-term", "nan-term"])
    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    def test_a_non_finite_term_is_named_by_loss_and_by_a_step(self, head, value):
        """Row 2 of 4: a label logit of -inf gives an inf term and NaN a NaN one; in a
        step, an embedding of 1e300 overflows the logits or distances and NaN spreads."""
        y = [0, 1, 1, 0]
        z = -np.ones((4, 2))
        z[2, 1] = value
        x = np.ones((4, 2))
        x[2] = 1e300 if value == -np.inf else np.nan
        params = head_only_params(np.array([[0.0, -1e10], [0.0, 0.0]]),
                                  np.zeros(2) if head.uses_biases else None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: loss(head, z, y),
                         lambda: loss_and_grads(head, params, x, y,
                                                ModelParams.zeros(params.layout))):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == "non-finite loss for batch index 2"

    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    def test_finite_losses_with_a_non_finite_mean_refused(self, head):
        """Also by a step of the affine heads: a distance is the root of a finite sum of
        squares, below 1.4e154, so a distance step cannot reach a mean that overflows."""
        z = np.tile([0.0, -1e306], (200, 1))  # each example's loss is about 1e306
        y = np.ones(200, dtype=int)
        params = head_only_params(np.array([[0.0, -1e306], [0.0, 0.0]]), np.zeros(2))
        calls = [lambda: loss(head, z, y)]
        if not head.is_distance:
            calls.append(lambda: loss_and_grads(head, params, np.ones((200, 2)), y,
                                                ModelParams.zeros(params.layout)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused without a warning first
            for call in calls:
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == "non-finite mean loss"
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite mean loss"):
            _loss_and_logit_gradient(head, z, y)

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(5)
        z_affine = rng.standard_normal((30, 6)) * 4
        z_dist = -np.abs(rng.standard_normal((30, 6))) * 4
        y = rng.integers(0, 6, 30)
        for head in ALL_HEADS:
            z = z_dist if head.is_distance else z_affine
            assert loss(head, z, y) >= 0.0

    def test_stable_equals_naive_composition(self):
        rng = np.random.default_rng(8)
        y = rng.integers(0, 5, 50)
        for head in ALL_HEADS:
            z = rng.standard_normal((50, 5)) * 3
            if head.is_distance:
                z = -np.abs(z)
            p = probabilities(head, z)
            rows = np.arange(50)
            if head.is_ova:
                naive = (-np.log(p[rows, y])
                         - np.log(1.0 - p).sum(axis=1)
                         + np.log(1.0 - p[rows, y])).mean()
            else:
                naive = -np.log(p[rows, y]).mean()
            assert np.isfinite(naive)
            assert loss(head, z, y) == pytest.approx(float(naive), abs=1e-9)

    def test_ova_decomposition_matches_per_term_loop(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((12, 4)) * 2
        y = rng.integers(0, 4, 12)
        for head, transform in ((HeadKind.OVA_AFFINE, lambda a: a),
                                (HeadKind.OVA_DISTANCE, lambda a: -np.abs(a))):
            zt = transform(z)
            p = probabilities(head, zt)
            total = 0.0
            for b in range(12):
                for j in range(4):
                    if j == y[b]:
                        total += -math.log(p[b, j])
                    else:
                        total += -math.log(1.0 - p[b, j])
            assert loss(head, zt, y) == pytest.approx(total / 12, abs=1e-9)


class TestGradients:
    def test_softmax_logit_gradient_identity(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((6, 5))
        y = rng.integers(0, 5, 6)
        g = _loss_and_logit_gradient(HeadKind.SOFTMAX_AFFINE, z, y)[1]
        p = probabilities(HeadKind.SOFTMAX_AFFINE, z)
        onehot = np.zeros_like(p)
        onehot[np.arange(6), y] = 1.0
        assert np.allclose(g, (p - onehot) / 6, atol=1e-15)

    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    def test_finite_differences_all_heads(self, head):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((8, 2)) * 3
        y = rng.integers(0, 10, 8)
        params = random_params(head, seed=7)
        err = gradient_check(  # at step 1e-5, dm's rounding alone nears the bound
            lambda p: loss_and_grads(head, p, x, y, ModelParams.zeros(p.layout)), params,
            step=1e-4)
        assert err < 1e-4

    @pytest.mark.parametrize("head", DISTANCE_HEADS, ids=[h.value for h in DISTANCE_HEADS])
    def test_zero_center_initialization_gradients(self, head):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((8, 2)) * 3
        y = rng.integers(0, 10, 8)
        params = init_params([2, 16, 16], 10, head_biases=False, head_init="zeros", seed=7)
        err = gradient_check(
            lambda p: loss_and_grads(head, p, x, y, ModelParams.zeros(p.layout)), params,
            step=1e-5)
        assert err < 1e-4

    def test_embedding_exactly_at_center_stays_finite(self):
        w = np.array([[1.0, -1.0], [2.0, 0.5]])  # embed_dim 2, K 2
        params = head_only_params(w)
        x = w.T[:1]  # embedding == center 0
        _, grads = loss_and_grads(HeadKind.OVA_DISTANCE, params, x, [0],
                                  ModelParams.zeros(params.layout))
        # identity body and batch 1: the body bias gradient is the embedding gradient
        assert np.isfinite(grads.head_weights).all()
        assert np.isfinite(grads.biases[0]).all()

    def test_loss_gradient_affine_matches_chain(self):
        rng = np.random.default_rng(11)
        params = random_params(HeadKind.OVA_AFFINE, seed=3)
        x = rng.standard_normal((5, 2))
        y = rng.integers(0, 10, 5)
        trace = forward(params, x)
        _, grads = loss_and_grads(HeadKind.OVA_AFFINE, params, x, y,
                                  ModelParams.zeros(params.layout))
        z = logits(HeadKind.OVA_AFFINE, params, trace[-1])
        g = _loss_and_logit_gradient(HeadKind.OVA_AFFINE, z, y)[1]
        assert np.allclose(grads.head_weights, trace[-1].T @ g, atol=1e-15)
        assert np.allclose(grads.head_biases, g.sum(axis=0), atol=1e-15)
        # every body layer's gradient is backward() of the per-row embedding
        # gradient, so a wrong row would show in some layer's weights
        chain = backward(params, trace, g @ params.head_weights.T,
                         ModelParams.zeros(params.layout))
        for got_w, got_b, want_w, want_b in zip(grads.weights, grads.biases, chain.weights,
                                                chain.biases, strict=True):
            assert np.allclose(got_w, want_w, atol=1e-15)
            assert np.allclose(got_b, want_b, atol=1e-15)

    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    @pytest.mark.parametrize("batch", [1, 128])
    def test_step_equals_the_composition_bitwise(self, head, batch):
        rng = np.random.default_rng(batch)
        params = random_params(head, seed=12)
        x = rng.standard_normal((batch, 2)) * 20
        y = rng.integers(0, 10, batch)
        if head.is_distance:
            # embedding component 0 is 0 for every row; row 0 sits exactly on
            # center 3, and row 1 is 1e-170 from center 4, so its distance
            # underflows to 0 while its difference does not
            params.weights[-1][:, 0] = 0.0
            params.biases[-1][0] = 0.0
            emb = forward(params, x)[-1]
            params.head_weights[:, 3] = emb[0]
            if batch > 1:
                params.head_weights[:, 4] = emb[1]
                params.head_weights[0, 4] = 1e-170
        # a buffer full of NaN: the step must overwrite every entry
        nan_filled = ModelParams(np.full(params.layout.size, np.nan), params.layout)
        value, grads = loss_and_grads(head, params, x, y, nan_filled)

        activations = forward(params, x)
        emb = activations[-1]
        z = logits(head, params, emb)
        want = ModelParams.zeros(params.layout)
        g = _loss_and_logit_gradient(head, z, y)[1]
        if head.is_distance:
            d = -z
            diff = emb[:, None, :] - params.head_weights.T[None, :, :]
            assert d[0, 3] == 0.0
            assert batch == 1 or (d[1, 4] == 0.0 and diff[1, 4, 0] != 0.0)
            unit = np.divide(diff, d[:, :, None], out=np.zeros_like(diff),
                             where=d[:, :, None] > 0.0)
            want.head_weights[...] = np.einsum("bk,bke->ek", g, unit)
            emb_grad = -np.einsum("bk,bke->be", g, unit)
        else:
            np.matmul(emb.T, g, out=want.head_weights)
            g.sum(axis=0, out=want.head_biases)
            emb_grad = g @ params.head_weights.T
        backward(params, activations, emb_grad, want)
        assert value == loss(head, z, y)
        for name, got, expected in zip(params.layout.names, grads.tensors, want.tensors,
                                       strict=True):
            assert np.array_equal(got, expected), name

    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    @pytest.mark.parametrize("rows, labels, message", [
        (3, [0, 1], "labels length does not match batch size"),
        (3, [0, 1, 2, 0], "labels length does not match batch size"),
        (0, [], "batch must contain at least one row"),
        (3, [[0], [1], [2]], "labels must be a vector"),
    ], ids=["short", "long", "empty", "matrix"])
    def test_label_count_must_match_batch(self, head, rows, labels, message):
        z = -np.ones((rows, 4))  # valid logits for every head, distance heads included
        for fn in (loss, _loss_and_logit_gradient):
            with pytest.raises(ValueError, match=message):
                fn(head, z, labels)

    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    def test_an_overflowing_step_is_refused_without_a_warning(self, head):
        params = init_params([2, 4, 4], 3, head_biases=head.uses_biases, seed=0)
        params.flat *= 1e120  # row 0's embedding overflows the matmul
        x = np.array([[1e100, -1e100], [3.0, 4.0]])
        grads = ModelParams.zeros(params.layout)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite loss for batch index 1"):
                loss_and_grads(head, params, x, [0, 1], grads)

    @pytest.mark.parametrize("rows, embed, k, scale", [
        *[(rows, 16, 10, 1.0) for rows in (1, 7, 128, BLOCK_ROWS, BLOCK_ROWS + 1, 5000)],
        *[(128, embed, k, scale) for embed in (1, 2) for k in (2, 1000)
          for scale in (1e-150, 1e-20, 1.0, 1e5)],
    ])
    @pytest.mark.parametrize("head", DISTANCE_HEADS, ids=[h.value for h in DISTANCE_HEADS])
    def test_distance_step_equals_the_broadcast_oracle_bitwise(self, head, rows, embed, k,
                                                               scale):
        rng = np.random.default_rng(rows * embed + k)
        params = random_params(head, seed=rows, dims=(2, 16, embed), k=k)
        x = rng.standard_normal((rows, 2)) * scale
        y = rng.integers(0, k, rows)
        params.head_weights[...] *= scale
        if rows > 1:
            # with zero body biases, input 0 embeds at 0; 1e-170 from it, the
            # distance underflows to 0 while the difference does not
            x[1] = 0.0
            params.head_weights[:, 1] = 0.0
            params.head_weights[0, 1] = 1e-170
        emb = forward(params, x)[-1]
        params.head_weights[:, 0] = emb[0]  # row 0 sits exactly on center 0
        nan_filled = ModelParams(np.full(params.layout.size, np.nan), params.layout)
        value, grads = loss_and_grads(head, params, x, y, nan_filled)

        # the oracle: one [rows x K x embed] broadcast difference, read by einsum
        activations = forward(params, x)
        diff = activations[-1][:, None, :] - params.head_weights.T[None, :, :]
        d = np.sqrt(np.einsum("bke,bke->bk", diff, diff))
        assert d[0, 0] == 0.0 and (rows == 1 or (d[1, 1] == 0.0 and diff[1, 1, 0] != 0.0))
        want_value, g = _loss_and_logit_gradient(head, -d, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = np.divide(diff, d[:, :, None], out=diff)
        unit[d == 0.0] = 0.0
        want = ModelParams.zeros(params.layout)
        want.head_weights[...] = np.einsum("bk,bke->ek", g, unit)
        backward(params, activations, -np.einsum("bk,bke->be", g, unit), want)

        assert np.array_equal(logits(head, params, activations[-1]), -d)
        assert value == want_value
        for name, got, expected in zip(params.layout.names, grads.tensors, want.tensors,
                                       strict=True):
            assert np.array_equal(got, expected), name


class TestPredict:
    def test_argmax_and_confidence(self):
        labels, conf = predict(np.array([[0.1, 0.7, 0.2]]))
        assert labels[0] == 1
        assert conf[0] == 0.7

    def test_exact_tie_breaks_low(self):
        labels, _ = predict(np.array([[0.5, 0.5]]))
        assert labels[0] == 0

    def test_ova_confidence_not_renormalized(self):
        labels, conf = predict(np.array([[0.9, 0.9, 0.1]]))
        assert labels[0] == 0
        assert conf[0] == 0.9


# The forms these heads had before each head's e^-|z| was shared between its loss, its
# gradient and its predictions: frozen here as the oracle for their bits.
LN2 = math.log(2.0)


def parent_sigmoid(z):
    t = np.abs(z)
    np.exp(np.negative(t, out=t), out=t)
    out = t.copy()
    np.copyto(out, 1.0, where=z >= 0)
    t += 1.0
    return np.divide(out, t, out=out)


def parent_softplus(z):
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def parent_probabilities(head, z):
    if head.is_ova:
        p = parent_sigmoid(z)
        return np.multiply(p, 2.0, out=p) if head is HeadKind.OVA_DISTANCE else p
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=1, keepdims=True), out=e)


def parent_loss_and_logit_gradient(head, z, y):
    rows = np.arange(z.shape[0])
    if head is HeadKind.OVA_DISTANCE:
        d = -z
        d_own = d[rows, y]
        one_minus_p = np.tanh(0.5 * d)
        neg_all = -np.log(np.maximum(one_minus_p, PROB_CLAMP))
        per_example = parent_softplus(d_own) - LN2 + neg_all.sum(axis=1) - neg_all[rows, y]
    elif head.is_ova:
        sp_pos = parent_softplus(z)
        per_example = parent_softplus(-z[rows, y]) + sp_pos.sum(axis=1) - sp_pos[rows, y]
    else:
        m = z.max(axis=1, keepdims=True)
        e = np.exp(z - m)
        e_sum = e.sum(axis=1, keepdims=True)
        per_example = (m + np.log(e_sum))[:, 0] - z[rows, y]
    value = float(np.add.reduce(per_example) / z.shape[0])
    if head is HeadKind.OVA_DISTANCE:
        clamped = one_minus_p <= PROB_CLAMP
        grad_d = np.where(clamped, 0.0, -1.0 / np.sinh(np.where(clamped, 1.0, d)))
        grad_d[rows, y] = parent_sigmoid(d_own)
        grad_d /= -z.shape[0]
        return value, grad_d
    p = parent_sigmoid(z) if head.is_ova else e / e_sum
    p[rows, y] -= 1.0
    p /= z.shape[0]
    return value, p


def parent_step(head, params, x, y):
    """``loss_and_grads`` as the broadcast composition with the mask product in backward."""
    activations = forward(params, x)
    emb = activations[-1]
    want = ModelParams.zeros(params.layout)
    if head.is_distance:
        diff = emb[:, None, :] - params.head_weights.T[None, :, :]
        d = np.sqrt(np.einsum("bke,bke->bk", diff, diff))
        value, g = parent_loss_and_logit_gradient(head, -d, y)
        unit = np.divide(diff, d[:, :, None], out=np.zeros_like(diff), where=d[:, :, None] > 0)
        want.head_weights[...] = np.einsum("bk,bke->ek", g, unit)
        g = -np.einsum("bk,bke->be", g, unit)
    else:
        value, g = parent_loss_and_logit_gradient(head, emb @ params.head_weights
                                                  + params.head_biases, y)
        np.matmul(emb.T, g, out=want.head_weights)
        g.sum(axis=0, out=want.head_biases)
        g = g @ params.head_weights.T
    for i in range(params.layout.num_layers - 1, -1, -1):
        np.matmul(activations[i].T, g, out=want.weights[i])
        g.sum(axis=0, out=want.biases[i])
        if i > 0:
            g = (g @ params.weights[i].T) * (activations[i] > 0.0)
    return value, want


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


# saturating logits (|z| > 40, and past exp's range), signed zeros, and distances
# below 2e-12, where the one-vs-all distance loss clamps 1 - p
EDGE_VALUES = [0.0, -0.0, 1e-300, 1e-13, 1.9e-12, 2.1e-12, 1e-6, 0.5, 36.7, 40.5, 60.0,
               709.0, 745.0, 800.0]
logit_entries = st.one_of(st.sampled_from(EDGE_VALUES + [-v for v in EDGE_VALUES]),
                          st.floats(-80.0, 80.0))


class TestBitsOfTheSharedForms:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 5))
    def test_loss_gradient_and_predictions_equal_the_parent_forms(self, data, rows, k):
        entries = data.draw(st.lists(logit_entries, min_size=rows * k, max_size=rows * k))
        y = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=rows, max_size=rows)))
        z = np.array(entries).reshape(rows, k)
        for head, layout in itertools.product(ALL_HEADS, ("C", "F", "strided")):
            zh = np.where(z > 0.0, -z, z) if head.is_distance else z  # keeps +0.0
            # the label entries are read and written by flat index, whatever the layout
            zh = {"C": zh, "F": np.asfortranarray(zh),
                  "strided": np.repeat(zh, 2, axis=1)[:, ::2]}[layout]
            with np.errstate(over="ignore"):
                want_value, want_grad = parent_loss_and_logit_gradient(head, zh, y)
                want_pred = predict(parent_probabilities(head, zh))[0]
            value, grad = _loss_and_logit_gradient(head, zh, y)
            assert bits([value]) == bits([want_value]), (head, layout)
            assert np.array_equal(bits(grad), bits(want_grad)), (head, layout)
            got_value, pred = loss_and_predicted(head, zh, y)
            assert bits([got_value]) == bits([want_value]), (head, layout)
            assert bits([loss(head, zh, y)]) == bits([want_value]), (head, layout)
            assert np.array_equal(pred, want_pred), (head, layout)
            assert np.array_equal(bits(probabilities(head, zh)),
                                  bits(parent_probabilities(head, zh))), (head, layout)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
           st.sampled_from([1e-3, 1.0, 20.0, 1e3]), st.sampled_from(ALL_HEADS))
    def test_step_equals_the_parent_composition(self, seed, batch, scale, head):
        """Scales of 20 and 1e3 saturate the affine logits; the zero-initialized distance
        heads start with every center at the origin, and the ReLUs leave dead units."""
        rng = np.random.default_rng(seed)
        params = init_params([2, 8, 4], 3, head_biases=head.uses_biases, seed=seed,
                             head_init="zeros" if seed % 2 and head.is_distance else "glorot")
        x = rng.standard_normal((batch, 2)) * scale
        y = rng.integers(0, 3, batch)
        value, grads = loss_and_grads(head, params, x, y, ModelParams.zeros(params.layout))
        with np.errstate(over="ignore"):
            want_value, want = parent_step(head, params, x, y)
        assert bits([value]) == bits([want_value])
        for name, got, expected in zip(params.layout.names, grads.tensors, want.tensors,
                                       strict=True):
            assert np.array_equal(bits(got), bits(expected)), name


def one_shot_distance_logits(emb, w):
    """Distance logits as one einsum over the whole broadcast difference, whose strides a
    training step's differences share: the bits scoring must keep."""
    diff = emb[:, None, :] - w.T[None, :, :]
    return -np.sqrt(np.einsum("bke,bke->bk", diff, diff))


# signed zeros, an offset whose square underflows, values whose squares overflow to inf,
# and NaN (one payload: a sum of two different NaNs may keep either, in numpy's add too)
SCORE_EDGES = [0.0, -0.0, 1e-170, -1e-170, 1e-200, 1e150, 1e200, -1e200, np.nan]


class TestBitsOfTheScoringPath:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 64), st.integers(1, 40), st.sampled_from([24, 96, 400]),
           st.integers(0, 2 ** 32 - 1), st.integers(-200, 150))
    def test_scored_logits_equal_the_one_shot_einsum_bitwise(self, data, embed, k, tile, seed,
                                                             exponent):
        """Across tile boundaries (1 row up to 3 tiles + 7) and class chunks, with the tile and
        the block loop's blocks shrunk so that Hypothesis can afford them; no bit depends on
        their sizes."""
        tile_rows = tile // min(k, DISTANCE_TILE_CLASSES)
        rows = data.draw(st.integers(1, 3 * tile_rows + 7), label="rows")
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((rows, embed)) * 10.0 ** exponent
        w = rng.standard_normal((embed, k)) * 10.0 ** exponent
        emb[0] = w[:, 0]  # an exact center hit
        if rows > 1 and k > 1:  # 1e-170 from a center at the origin: the distance underflows
            emb[1], w[:, 1] = 0.0, 0.0
            w[0, 1] = 1e-170
        edits = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, 2 ** 20),
                                             st.sampled_from(SCORE_EDGES)), max_size=12))
        for on_emb, at, value in edits:
            target = emb if on_emb else w
            target.reshape(-1)[at % target.size] = value
        params = head_only_params(w)
        with np.errstate(all="ignore"):
            want = one_shot_distance_logits(emb, w)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(heads, "DISTANCE_TILE_ENTRIES", tile)
                patch.setattr(heads, "DISTANCE_BLOCK_ENTRIES", tile * embed)  # as many rows
                scored = logits(HeadKind.OVA_DISTANCE, params, emb)
                patch.setattr(heads, "_embedding_order_exact", lambda: False)
                fallback = logits(HeadKind.OVA_DISTANCE, params, emb)
        assert np.array_equal(bits(scored), bits(want))
        assert np.array_equal(bits(fallback), bits(want))

    def test_the_probe_selects_the_path_whose_bits_it_compared(self):
        """Where the probe holds, logits take the embedding-order sums; it is cached once."""
        exact = heads._embedding_order_exact()
        assert heads._embedding_order_exact.cache_info().currsize == 1
        w, emb = map(np.random.default_rng(1).standard_normal, [(16, 10), (300, 16)])
        with np.errstate(all="ignore"):
            assert (heads._distance_logits(w, emb).tobytes()
                    == one_shot_distance_logits(emb, w).tobytes()) == exact


    @pytest.mark.parametrize("k, rows", [(2, 1), (10, BLOCK_ROWS + 1), (37, 300)])
    def test_the_tiles_give_the_distances_wherever_they_run(self, k, rows):
        """To rounding, also where einsum fuses and the probe keeps the block loop: so a
        broken tile loop fails here instead of only turning the probe off."""
        w, emb = map(np.random.default_rng(k).standard_normal, [(16, k), (rows, 16)])
        emb[0] = w[:, 0]
        got = heads._distance_logits(w, emb)
        assert got[0, 0] == 0.0
        np.testing.assert_allclose(got, one_shot_distance_logits(emb, w), rtol=1e-12, atol=0)

    def test_the_probe_holds_where_einsum_cannot_fuse(self):
        """numpy's x86-64 baseline has no fused multiply-add, and einsum's kernel is built
        at the baseline: there, scoring must take the tiles."""
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath
        fusing = {"FMA3", "AVX2", "X86_V3", "X86_V4"} & set(umath.__cpu_baseline__)
        if platform.machine().lower() not in ("x86_64", "amd64") or fusing:
            pytest.skip("this numpy's einsum may fuse multiply and add")
        assert heads._embedding_order_exact()

    @pytest.mark.parametrize("exact", [True, False])
    def test_logits_take_the_tiles_exactly_where_the_probe_holds(self, exact, monkeypatch):
        """From two classes up: one class's einsum sums along the embedding."""
        taken = []
        monkeypatch.setattr(heads, "_embedding_order_exact", lambda: exact)
        monkeypatch.setattr(heads, "_distance_logits",
                            lambda w, emb: taken.append(w.shape[1]) or np.zeros((3, w.shape[1])))
        for k in (1, 2, 10):
            logits(HeadKind.SOFTMAX_DISTANCE, head_only_params(np.ones((4, k))), np.ones((3, 4)))
        assert taken == ([2, 10] if exact else [])


class CountingNumpy:
    """``numpy`` for a module under test, counting the calls that return a fresh array: one
    that owns its data and is none of the call's arguments (so no ``out=`` result)."""

    def __init__(self):
        self.fresh = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counted(*args, **kwargs):
            result = attr(*args, **kwargs)
            if (isinstance(result, np.ndarray) and result.base is None
                    and all(result is not a for a in (*args, *kwargs.values()))):
                self.fresh += 1
            return result
        return counted


class TestScoringBuffers:
    def test_the_tiles_allocate_one_buffer_set_per_call(self, monkeypatch):
        """However many row tiles and class chunks (here 4 at K = 37, the last of one class)
        a call takes, the last row tile partial or not, it allocates the same arrays."""
        monkeypatch.setattr(heads, "DISTANCE_TILE_ENTRIES", 120)  # 10 rows per tile
        w = np.random.default_rng(0).standard_normal((16, 37))
        counts = []
        for rows in (10, 30, 34):  # 1, 3, and 3 + a partial row tile
            emb = np.random.default_rng(rows).standard_normal((rows, 16))
            want = heads._distance_logits(w, emb)
            counting = CountingNumpy()
            monkeypatch.setattr(heads, "np", counting)
            got = heads._distance_logits(w, emb)
            monkeypatch.setattr(heads, "np", np)
            assert np.array_equal(bits(got), bits(want))
            counts.append(counting.fresh)
        assert counts == [counts[0]] * 3, counts


def max_axis1_probabilities(z):
    """The softmax heads' ``probabilities`` with the row maxima of ``z.max(axis=1)``, as
    they were before ``_row_max``: the oracle for its bits."""
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=1, keepdims=True), out=e)


def max_axis1_loss_and_logit_gradient(z, y, gradient):
    """The softmax heads' ``_loss_and_logit_gradient`` with ``z.max(axis=1)``, in both of its
    modes, and the per-example terms that name a refused batch index."""
    own = np.arange(0, z.size, z.shape[1]) + y
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    e_sum = e.sum(axis=1, keepdims=True)
    per_example = (m + np.log(e_sum))[:, 0] - z.take(own)
    value = float(np.add.reduce(per_example) / z.shape[0])
    p = np.divide(e, e_sum, out=e)
    if not gradient:
        return value, p.argmax(axis=1), per_example
    p.put(own, p.take(own) - 1.0)
    p /= z.shape[0]
    return value, p, per_example


SOFTMAX_HEADS = [HeadKind.SOFTMAX_AFFINE, HeadKind.SOFTMAX_DISTANCE]


def assert_row_maxima_keep_the_bits(z, y):
    z = np.array(z, dtype=np.float64)
    want_max = z.max(axis=1, keepdims=True)
    got_max = _row_max(z)
    assert got_max.shape == want_max.shape
    assert ((got_max == want_max) | (np.isnan(got_max) & np.isnan(want_max))).all()
    for head in SOFTMAX_HEADS:
        with np.errstate(all="ignore"):
            assert np.array_equal(bits(probabilities(head, z)), bits(max_axis1_probabilities(z)))
            for gradient in (True, False):
                want_value, want_out, per_example = max_axis1_loss_and_logit_gradient(
                    z.copy(), y, gradient)
                if not math.isfinite(want_value):
                    bad = ~np.isfinite(per_example)
                    message = (f"non-finite loss for batch index {int(np.argmax(bad))}"
                               if bad.any() else "non-finite mean loss")
                    with pytest.raises(ValueError) as info:
                        _loss_and_logit_gradient(head, z, y, gradient)
                    assert str(info.value) == message
                    continue
                value, out = _loss_and_logit_gradient(head, z, y, gradient)
                assert bits([value]) == bits([want_value]), (head, gradient)
                if gradient:
                    assert np.array_equal(bits(out), bits(want_out)), head
                else:
                    assert np.array_equal(out, want_out), head


# numpy's NaN only: z.max(axis=1) returns numpy's NaN for a -NaN too, where the long pass
# keeps the input's sign (see test_a_negative_nan_logit_gives_nan_where_it_did)
ROW_MAX_EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1.0, -1.0, 709.0, -745.0, 1e300]


class TestBitsOfTheRowMaxima:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 9), st.integers(1, 12), st.booleans())
    def test_softmax_heads_equal_the_max_axis1_forms_bitwise(self, data, rows, k, equal_rows):
        entries = st.one_of(st.sampled_from(ROW_MAX_EDGES + [-v for v in ROW_MAX_EDGES
                                                             if not math.isnan(v)]),
                            st.floats(-50.0, 50.0))
        size = k if equal_rows else rows * k
        z = np.array(data.draw(st.lists(entries, min_size=size, max_size=size)))
        z = np.tile(z, (rows, 1)) if equal_rows else z.reshape(rows, k)
        y = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=rows, max_size=rows)))
        assert_row_maxima_keep_the_bits(z, y)

    @pytest.mark.parametrize("z", [
        [[0.0, -0.0]], [[-0.0, 0.0]], [[-0.0, -1.0], [0.0, -3.0], [-0.0, -0.0]],
        [[-0.0] * 9 + [0.0]] * 3, [[0.0] * 9 + [-0.0, -2.0]] * 3,
        [[2.5]], [[-0.0]], [[0.0]], [[np.inf]], [[np.nan]], [[-np.inf]],
        [[1.0, np.nan, 2.0]], [[np.inf, 1.0]], [[-np.inf, -0.0]], [[-np.inf, -np.inf]],
        [[0.5, -0.0, 0.5]] * 4,
    ], ids=["+0-0", "-0+0", "zero-maxima", "long-rows-of-zeros-a", "long-rows-of-zeros-b",
            "k1", "k1-minus-zero", "k1-zero", "k1-inf", "k1-nan", "k1-minus-inf", "nan",
            "inf", "minus-inf", "all-minus-inf", "equal-rows"])
    def test_edge_rows_equal_the_max_axis1_forms_bitwise(self, z):
        assert_row_maxima_keep_the_bits(z, np.zeros(len(z), dtype=np.int64))

    @pytest.mark.parametrize("rows", [1, 128, 5001])
    def test_long_batches_of_edge_values_equal_the_max_axis1_forms_bitwise(self, rows):
        rng = np.random.default_rng(rows)
        z = rng.choice([0.0, -0.0, -1.0, 3.0, -np.inf], size=(rows, 10))
        assert_row_maxima_keep_the_bits(z, rng.integers(0, 10, rows))

    def test_a_negative_nan_logit_gives_nan_where_it_did(self):
        """Only a NaN's sign differs: the row's other probabilities take the -NaN's sign."""
        z = np.array([[0.0, -np.nan, 1.0], [0.0, -1.0, 2.0]])
        want = max_axis1_probabilities(z)
        for head in SOFTMAX_HEADS:
            got = probabilities(head, z)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.array_equal(bits(got[1]), bits(want[1]))
            for gradient in (True, False):
                with pytest.raises(ValueError) as info:
                    _loss_and_logit_gradient(head, z, [0, 0], gradient)
                assert str(info.value) == "non-finite loss for batch index 0"
