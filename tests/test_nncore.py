import json

import numpy as np
import pytest

from ovabench.nncore import (ModelParams, ModelStack, _backward, _forward, _update, backward,
                             forward, init_params, load_checkpoint, save_checkpoint, sgd_step)

from gradcheck import gradient_check, params_from_arrays


def small_params(seed=0, head_biases=True):
    return init_params([2, 16, 16], 10, head_biases=head_biases, seed=seed)


def naive_forward(params, x):
    """Straight-line reimplementation: explicit loops, no shared code."""
    out = np.zeros((x.shape[0], params.weights[-1].shape[1]))
    for r in range(x.shape[0]):
        a = x[r]
        for i, (weights, biases) in enumerate(zip(params.weights, params.biases)):
            z = np.zeros(weights.shape[1])
            for j in range(weights.shape[1]):
                s = biases[j]
                for k in range(weights.shape[0]):
                    s += a[k] * weights[k, j]
                z[j] = s
            if i < len(params.weights) - 1:
                z = np.array([v if v > 0 else 0.0 for v in z])
            a = z
        out[r] = a
    return out


class TestForward:
    def test_zero_params_give_zero_embedding(self):
        params = params_from_arrays(
            [np.zeros((2, 4)), np.zeros((4, 3))], [np.zeros(4), np.zeros(3)],
            head_weights=np.zeros((3, 5)), head_biases=np.zeros(5))
        trace = forward(params, np.random.default_rng(0).standard_normal((6, 2)))
        assert np.array_equal(trace[-1], np.zeros((6, 3)))

    def test_identity_single_layer(self):
        # a single layer has no nonlinearity (the last layer output is the embedding)
        params = params_from_arrays([np.eye(2)], [np.zeros(2)],
                                    head_weights=np.zeros((2, 3)), head_biases=np.zeros(3))
        trace = forward(params, [[1.0, 2.0]])
        assert np.array_equal(trace[-1], [[1.0, 2.0]])

    def test_matches_naive_reimplementation(self):
        params = small_params(seed=11)
        x = np.random.default_rng(12).standard_normal((5, 2)) * 10
        got = forward(params, x)[-1]
        want = naive_forward(params, x)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("inputs, message", [
        (np.zeros(2), r"inputs must be 2-dimensional, got shape \(2,\)"),
        (np.zeros((1, 1, 2)), r"inputs must be 2-dimensional, got shape \(1, 1, 2\)"),
        (np.zeros((0, 2)), "batch must contain at least one row"),
    ], ids=["vector", "3-d", "no-rows"])
    def test_malformed_batch_refused(self, inputs, message):
        with pytest.raises(ValueError, match=message):
            forward(small_params(), inputs)

    def test_shape_error_names_layer(self):
        params = small_params()
        with pytest.raises(ValueError, match="layer 0"):
            forward(params, np.zeros((3, 5)))

    def test_deterministic_bitwise(self):
        params = small_params(seed=3)
        x = np.random.default_rng(4).standard_normal((32, 2))
        assert np.array_equal(forward(params, x)[-1], forward(params, x)[-1])

    def test_batch_equals_rows(self):
        params = small_params(seed=5)
        x = np.random.default_rng(6).standard_normal((40, 2)) * 20
        full = forward(params, x)[-1]
        rows = np.vstack([forward(params, x[i:i + 1])[-1] for i in range(len(x))])
        # BLAS uses different kernels for 1-row and batched matmul: last-ulp slack
        assert np.abs(full - rows).max() < 1e-12

    def test_embedding_has_no_trailing_relu(self):
        params = params_from_arrays([-np.eye(2)], [np.zeros(2)],
                                    head_weights=np.zeros((2, 3)), head_biases=np.zeros(3))
        trace = forward(params, [[1.0, 2.0]])
        assert np.array_equal(trace[-1], [[-1.0, -2.0]])


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = small_params(seed=7)
        x = np.random.default_rng(8).standard_normal((4, 2))
        trace = forward(params, x)
        grads = backward(params, trace, np.zeros_like(trace[-1]),
                         ModelParams.zeros(params.layout))
        for weights, biases in zip(grads.weights, grads.biases):
            assert not weights.any()
            assert not biases.any()

    def test_single_linear_layer_analytic(self):
        params = params_from_arrays([np.eye(2)], [np.zeros(2)],
                                    head_weights=np.zeros((2, 2)), head_biases=np.zeros(2))
        x = np.array([[3.0, -1.0]])
        g = np.array([[0.5, 2.0]])
        grads = backward(params, forward(params, x), g, ModelParams.zeros(params.layout))
        assert np.allclose(grads.weights[0], x.T @ g)
        assert np.allclose(grads.biases[0], g.sum(axis=0))

    def test_matches_finite_differences(self):
        # scalar objective on the embedding alone, independent of any head
        x = np.random.default_rng(21).standard_normal((6, 2)) * 2

        def loss_fn(p):
            trace = forward(p, x)
            value = 0.5 * float((trace[-1] ** 2).sum()) / len(x)
            grads = backward(p, trace, trace[-1] / len(x),  # head entries stay zero
                             ModelParams.zeros(p.layout))
            return value, grads

        assert gradient_check(loss_fn, small_params(seed=20), step=1e-5) < 1e-4

    def test_shape_mismatch_rejected(self):
        params = small_params()
        trace = forward(params, np.zeros((4, 2)))
        with pytest.raises(ValueError, match="embedding_grad"):
            backward(params, trace, np.zeros((4, 3)), ModelParams.zeros(params.layout))


class TestGradientCheck:
    def test_quadratic_loss(self):
        def quadratic(p):
            value = sum(0.5 * float((t ** 2).sum()) for t in p.tensors)
            return value, ModelParams(p.flat.copy(), p.layout)

        assert gradient_check(quadratic, small_params(seed=1), step=1e-5) < 1e-7

    def test_detects_corrupted_gradient(self):
        def corrupted(p):
            value = sum(0.5 * float((t ** 2).sum()) for t in p.tensors)
            grads = ModelParams(p.flat.copy(), p.layout)
            grads.weights[0][0, 0] *= 2.0  # wrong on purpose
            return value, grads

        params = small_params(seed=2)
        params.weights[0][0, 0] = 1.0  # make the corrupted entry visible
        assert gradient_check(corrupted, params, step=1e-5) > 0.1

    def test_nonfinite_loss_raises(self):
        def bad(p):
            return float("nan"), ModelParams.zeros(p.layout)

        with pytest.raises(ValueError, match="non-finite"):
            gradient_check(bad, small_params(), step=1e-5)


def scalar_param(value=0.0):
    return params_from_arrays([np.array([[value]])], [np.zeros(1)],
                              head_weights=np.zeros((1, 1)), head_biases=None)


class TestSgd:
    def test_plain_step(self):
        new = scalar_param(0.0)  # updated in place
        grads = scalar_param(1.0)
        grads.head_weights[...] = np.zeros((1, 1))
        sgd_step(new, grads, ModelParams.zeros(new.layout), learning_rate=0.1, momentum=0.0)
        assert new.weights[0][0, 0] == pytest.approx(-0.1, abs=0)

    def test_momentum_two_step_unroll(self):
        # v1 = -0.1 -> p1 = -0.1 ; v2 = 0.9*(-0.1) - 0.1 = -0.19 -> p2 = -0.29
        params = scalar_param(0.0)
        velocity = ModelParams.zeros(params.layout)
        grads = scalar_param(1.0)
        sgd_step(params, grads, velocity, learning_rate=0.1, momentum=0.9)
        assert params.weights[0][0, 0] == pytest.approx(-0.1, abs=1e-15)
        sgd_step(params, grads, velocity, learning_rate=0.1, momentum=0.9)
        assert params.weights[0][0, 0] == pytest.approx(-0.29, abs=1e-15)

    def test_zero_grads_decay_velocity(self):
        params = small_params(seed=9)
        velocity = ModelParams.zeros(params.layout)
        velocity.weights[0][:] = 1.0
        new_params = ModelParams(params.flat.copy(), params.layout)  # updated in place
        sgd_step(new_params, ModelParams.zeros(params.layout), velocity, 0.1, 0.8)
        # params move by the decayed velocity; velocity itself decays by the factor
        assert np.allclose(velocity.weights[0], 0.8)
        assert np.allclose(new_params.weights[0],
                           params.weights[0] + 0.8)

    def test_refuses_nonfinite_grads(self):
        # refused before anything changes, not caught later as a non-finite parameter
        params = small_params(seed=10)
        grads = ModelParams.zeros(params.layout)
        grads.weights[1][0, 0] = np.nan
        velocity = ModelParams.zeros(params.layout)
        velocity.flat[:] = np.random.default_rng(10).standard_normal(params.layout.size)
        before = params.flat.copy(), velocity.flat.copy()
        with pytest.raises(ValueError) as refused:
            sgd_step(params, grads, velocity, 0.1, 0.9)
        assert str(refused.value) == "non-finite gradient for layers.1.weights; update refused"
        assert params.flat.tobytes() == before[0].tobytes()
        assert velocity.flat.tobytes() == before[1].tobytes()

    def test_an_update_that_overflows_a_finite_parameter_is_refused(self):
        params = small_params(seed=11)
        params.head_weights[0, 0] = 1.7e308
        velocity = ModelParams.zeros(params.layout)
        velocity.head_weights[0, 0] = 1e308
        grads = ModelParams.zeros(params.layout)
        with pytest.raises(ValueError) as refused:  # and no RuntimeWarning first
            sgd_step(params, grads, velocity, 0.1, 1.0)  # 1.7e308 + 1e308 overflows
        assert str(refused.value) == "non-finite parameter head_weights after update"

    def test_params_stay_finite_over_many_steps(self):
        rng = np.random.default_rng(13)
        params = small_params(seed=13)
        velocity = ModelParams.zeros(params.layout)
        for _ in range(50):
            grads = ModelParams.zeros(params.layout)
            for t in grads.tensors:  # same draws, in the same order, as before
                t[...] = rng.standard_normal(t.shape)
            sgd_step(params, grads, velocity, 0.05, 0.9)
        params.validate()


class TestModelStack:
    """Models with one body as rows of one array, for training in lockstep."""

    def stack(self):
        models = [small_params(seed, biases) for seed, biases in ((0, True), (1, False), (2, True))]
        return models, ModelStack.of(models)

    def test_rows_hold_the_models_and_zero_padding(self):
        models, stack = self.stack()
        assert stack.flat.shape == (3, models[0].layout.size)
        for m, row, flat in zip(models, stack.models, stack.flat):
            assert row.layout is m.layout and row.flat.tobytes() == m.flat.tobytes()
            assert not flat[m.layout.size:].any()  # the distance head's K missing biases

    def test_body_views_and_model_views_share_the_rows(self):
        _, stack = self.stack()
        for layer in range(2):
            stack.weights[layer][1][0, 2] = 7.0
            stack.biases[layer][2][3] = 8.0
            assert stack.models[1].weights[layer][0, 2] == 7.0
            assert stack.models[2].biases[layer][3] == 8.0

    def test_models_with_other_bodies_are_refused(self):
        with pytest.raises(ValueError, match="share their body"):
            ModelStack.of([small_params(), init_params([2, 16, 8], 10, head_biases=True)])

    def test_body_pass_and_update_over_a_stack_equal_each_model_bitwise(self):
        models, stack = self.stack()
        rng = np.random.default_rng(3)
        x, g = rng.standard_normal((3, 32, 2)) * 20, rng.standard_normal((3, 32, 16))
        acts = _forward(stack, x)
        grads, velocity = stack.zeros_like(), stack.zeros_like()
        velocity.flat[...] = rng.standard_normal(velocity.flat.shape)
        _backward(stack, acts, g, grads)
        want = [(_forward(m, x[i]), ModelParams.zeros(m.layout), ModelParams(
            velocity.flat[i, :m.layout.size].copy(), m.layout)) for i, m in enumerate(models)]
        _update(stack, grads, velocity, 0.01, 0.9)
        for i, (m, (m_acts, m_grads, m_velocity)) in enumerate(zip(models, want)):
            assert all(a[i].tobytes() == b.tobytes() for a, b in zip(acts, m_acts))
            _backward(m, m_acts, g[i], m_grads)
            body = slice(0, m.layout.offsets[2 * m.layout.num_layers])
            assert grads.models[i].flat[body].tobytes() == m_grads.flat[body].tobytes()
            _update(m, m_grads, m_velocity, 0.01, 0.9)
            assert stack.models[i].flat[body].tobytes() == m.flat[body].tobytes()
            assert velocity.models[i].flat.tobytes() == m_velocity.flat.tobytes()


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        params = init_params([2, 16, 16], 10, head_biases=True, seed=0)
        limit0 = np.sqrt(6.0 / (2 + 16))
        assert np.abs(params.weights[0]).max() <= limit0
        assert not params.biases[0].any()
        assert params.head_biases.shape == (10,)

    @pytest.mark.parametrize("layer_dims, head_init, message", [
        ([2], "glorot", "layer_dims must list the input width and at least one layer"),
        ([2, 4], "bogus", "unknown head_init 'bogus'"),
    ], ids=["no-layer", "unknown-head-init"])
    def test_bad_arguments_refused(self, layer_dims, head_init, message):
        with pytest.raises(ValueError, match=message):
            init_params(layer_dims, 3, head_biases=True, head_init=head_init, seed=0)

    def test_zero_head_init(self):
        params = init_params([2, 8, 8], 5, head_biases=False, head_init="zeros", seed=0)
        assert not params.head_weights.any()
        assert params.head_biases is None


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = small_params(seed=17)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, params, head="softmax", seed=17)
        loaded, head, seed = load_checkpoint(path)
        assert head == "softmax"
        assert seed == 17
        for name_a, a, name_b, b in zip(params.layout.names, params.tensors,
                                        loaded.layout.names, loaded.tensors):
            assert name_a == name_b
            assert np.array_equal(a, b)

    def test_entries_in_any_order_load_to_the_saved_flat_bitwise(self, tmp_path):
        params = init_params([2, 4, 4], 3, head_biases=True, seed=0)
        params.flat[:3] = [-0.0, 5e-324, 1.0 / 3.0]  # a signed zero and a subnormal too
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, params, head="ova", seed=0)
        doc = json.loads(path.read_text())
        doc["tensors"].reverse()  # entries are found by name, not by position
        path.write_text(json.dumps(doc))
        loaded, _, _ = load_checkpoint(path)
        assert loaded.layout.names == params.layout.names
        assert loaded.flat.tobytes() == params.flat.tobytes()

    @pytest.mark.parametrize("doc", [[], {}, {"format": "ovabench-checkpoint-v0"}],
                             ids=["list", "no-format", "other-format"])
    def test_unrecognized_format_names_the_file(self, tmp_path, doc):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"unrecognized checkpoint format in {path}"):
            load_checkpoint(path)

    def test_resave_identical_bytes(self, tmp_path):
        params = init_params([2, 4, 4], 3, head_biases=False, head_init="zeros", seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, params, head="ova_dm", seed=1)
        loaded, head, seed = load_checkpoint(p1)
        save_checkpoint(p2, loaded, head=head, seed=seed)
        assert p1.read_bytes() == p2.read_bytes()


def _drop_tensors(doc):
    del doc["tensors"]


def _drop_head_weights(doc):
    doc["tensors"] = [t for t in doc["tensors"] if t["name"] != "head_weights"]


def _drop_last_weights(doc):
    doc["tensors"] = [t for t in doc["tensors"] if t["name"] != "layers.1.weights"]


def _entry(doc, name):
    return next(t for t in doc["tensors"] if t["name"] == name)


def _short_data(doc):
    _entry(doc, "layers.0.biases")["data"].pop()


def _unchained(doc):
    entry = _entry(doc, "layers.1.weights")
    entry["shape"] = [3, 4]
    entry["data"] = entry["data"][:12]


def _not_a_matrix(doc):
    _entry(doc, "head_weights")["shape"] = [12]


def _extra_entry(doc):
    doc["tensors"].append({"name": "foo", "shape": [1], "data": [0.0]})


def _duplicate_entry(doc):
    doc["tensors"].append(dict(_entry(doc, "layers.0.biases")))


def _nonfinite(doc):
    _entry(doc, "head_weights")["data"][0] = float("nan")


def _beyond_float(doc):
    _entry(doc, "layers.0.weights")["data"][0] = 10 ** 400


def _nameless_entry(doc):
    del _entry(doc, "layers.0.biases")["name"]


def _fractional_shape(doc):
    _entry(doc, "layers.0.biases")["shape"] = [1.5]


def _string_data(doc):
    _entry(doc, "layers.0.biases")["data"][0] = "x"


NEEDS = "needs a name, shape (sizes) and data (numbers)"


@pytest.mark.parametrize("corrupt, entry", [
    (_drop_tensors, "tensors"),
    (_drop_head_weights, "head_weights"),
    (_drop_last_weights, "'layers.1.weights'"),
    (_short_data, "layers.0.biases"),
    (_unchained, "layers.1.weights"),
    (_not_a_matrix, "head_weights"),
    (_extra_entry, "'foo'"),
    (_duplicate_entry, "'layers.0.biases'"),
    (_nonfinite, "head_weights"),
    (_beyond_float, "layers.0.weights"),
    (_nameless_entry, NEEDS),
    (_fractional_shape, NEEDS),
    (_string_data, NEEDS),
], ids=["no-tensors", "no-head-weights", "no-last-weights", "short-data", "unchained",
        "not-a-matrix", "extra-entry", "duplicate-entry", "non-finite", "beyond-float",
        "no-name", "fractional-shape", "string-data"])
def test_malformed_checkpoint_names_file_and_entry(tmp_path, corrupt, entry):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, init_params([2, 4, 4], 3, head_biases=True, seed=0), "ova", 0)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert entry in str(info.value)
