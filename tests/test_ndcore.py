import math

import numpy as np
import pytest
from clbench import ndcore
from clbench.ndcore import (
    AdamState,
    ModelSpec,
    adam_step,
    backward,
    ce_dlogits,
    ce_loss,
    forward,
    grad_check,
    init_params,
)


def make_params(spec, fill=0.0):
    return np.full(spec.n_params, fill)


def weights(spec, params, i):
    return spec.layers(params)[i][0]


def bias(spec, params, i):
    return spec.layers(params)[i][1]


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        spec = ModelSpec(input_dim=3, hidden_dims=(4,), output_dim=2)
        logits = forward(make_params(spec), spec, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.array_equal(logits, np.zeros((5, 2)))

    def test_identity_single_layer(self):
        spec = ModelSpec(input_dim=3, hidden_dims=(), output_dim=3)
        params = make_params(spec)
        weights(spec, params, 0)[...] = np.eye(3)
        x = np.array([[0.5, -1.5, 2.0]])
        assert np.array_equal(forward(params, spec, x), x)

    def test_two_layer_hand_computed(self):
        # x=[1, 0.5]; pre1 = [1*1+0.5*2+0.1, -1+0.25-0.2] = [2.1, -0.95]
        # relu -> [2.1, 0]; logits = [2.1*0.5+0.05, 2.1*-0.25-0.05] = [1.1, -0.575]
        spec = ModelSpec(input_dim=2, hidden_dims=(2,), output_dim=2)
        params = make_params(spec)
        weights(spec, params, 0)[...] = [[1.0, -1.0], [2.0, 0.5]]
        bias(spec, params, 0)[...] = [0.1, -0.2]
        weights(spec, params, 1)[...] = [[0.5, -0.25], [1.5, 1.0]]
        bias(spec, params, 1)[...] = [0.05, -0.05]
        logits = forward(params, spec, np.array([[1.0, 0.5]]))
        np.testing.assert_allclose(logits, [[1.1, -0.575]], atol=1e-15)

    def test_dimension_mismatch(self):
        spec = ModelSpec(input_dim=3, hidden_dims=(), output_dim=2)
        with pytest.raises(ValueError, match="columns"):
            forward(make_params(spec), spec, np.zeros((2, 4)))

    def test_non_finite_output_is_an_error(self):
        spec = ModelSpec(input_dim=2, hidden_dims=(), output_dim=2)
        params = make_params(spec, fill=np.inf)
        with pytest.raises(FloatingPointError):
            forward(params, spec, np.ones((1, 2)))

    def test_deterministic(self):
        spec = ModelSpec(input_dim=4, hidden_dims=(5,), output_dim=3)
        params = init_params(spec, np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(6, 4))
        assert np.array_equal(forward(params, spec, x), forward(params, spec, x))


class TestCeLoss:
    def test_uniform_logits_give_ln_k(self):
        assert ce_loss(np.zeros((3, 4)), [0, 1, 3]) == math.log(4.0)

    def test_scalar_softmax_value(self):
        assert ce_loss(np.array([[1.0, 0.0]]), [0]) == pytest.approx(
            0.31326168751822286, abs=1e-15
        )

    def test_saturated_logit_vanishes(self):
        assert ce_loss(np.array([[50.0, 0.0]]), [0]) < 1e-9

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ce_loss(np.zeros((1, 3)), [3])

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.normal(size=(4, 5)) * 3
            labels = rng.integers(0, 5, size=4)
            assert ce_loss(logits, labels) >= 0.0


class TestBackward:
    def test_gradient_vanishes_at_saturation(self):
        spec = ModelSpec(input_dim=2, hidden_dims=(), output_dim=2)
        params = make_params(spec)
        weights(spec, params, 0)[...] = [[60.0, -60.0], [0.0, 0.0]]
        grad = backward(params, spec, np.array([[1.0, 0.0]]), [0])
        assert np.linalg.norm(grad) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_central_differences(self, seed):
        spec = ModelSpec(input_dim=3, hidden_dims=(4, 3), output_dim=3)
        rng = np.random.default_rng(seed)
        params = init_params(spec, rng)
        # the loss is non-differentiable at ReLU kinks; redraw batches whose
        # preactivations sit inside the finite-difference window
        while True:
            x = rng.normal(size=(4, 3))
            if ndcore.min_abs_preactivation(params, spec, x) > 1e-4:
                break
        y = rng.integers(0, 3, size=4)
        analytic = backward(params, spec, x, y)
        h = 1e-5
        numeric = np.empty_like(analytic)
        for i in range(len(analytic)):
            orig = params[i]
            params[i] = orig + h
            up = ce_loss(forward(params, spec, x), y)
            params[i] = orig - h
            down = ce_loss(forward(params, spec, x), y)
            params[i] = orig
            numeric[i] = (up - down) / (2 * h)
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_duplicated_batch_keeps_mean_gradient(self):
        spec = ModelSpec(input_dim=3, hidden_dims=(4,), output_dim=2)
        rng = np.random.default_rng(1)
        params = init_params(spec, rng)
        x = rng.normal(size=(3, 3))
        y = np.array([0, 1, 0])
        single = backward(params, spec, x, y)
        doubled = backward(params, spec, np.vstack([x, x]), np.concatenate([y, y]))
        assert doubled == pytest.approx(single, abs=1e-15)


class TestStacks:
    """A (K, M, d) stack of batches gives what K separate 2-D calls give."""

    @pytest.mark.parametrize("rows", [1, 8])
    @pytest.mark.parametrize("hidden", [(), (1,), (32, 16), (128, 64)])
    @pytest.mark.parametrize("classes", [2, 13])
    def test_stack_equals_separate_batches(self, rows, hidden, classes):
        spec = ModelSpec(input_dim=6, hidden_dims=hidden, output_dim=classes)
        rng = np.random.default_rng(len(hidden) * 100 + rows * 10 + classes)
        params = init_params(spec, rng)
        params += rng.normal(scale=0.3, size=params.size)
        x = rng.normal(scale=2.0, size=(5, rows, 6))
        y = rng.integers(0, classes, size=(5, rows))
        logits = forward(params, spec, x)
        grads = backward(params, spec, x, y)
        assert logits.shape == (5, rows, classes)
        assert grads.shape == (5, spec.n_params)
        for k in range(5):
            assert np.array_equal(logits[k], forward(params, spec, x[k]))
            assert np.array_equal(grads[k], backward(params, spec, x[k], y[k]))

    def test_labels_must_match_the_batch_shape(self):
        logits = np.zeros((3, 2, 4))
        for labels in (np.zeros(6, dtype=int), np.zeros((3, 1), dtype=int), np.zeros(3, dtype=int)):
            with pytest.raises(ValueError, match="shape"):
                ce_dlogits(logits, labels)
            with pytest.raises(ValueError, match="shape"):
                ce_loss(logits, labels)
        with pytest.raises(ValueError, match="shape"):
            ce_dlogits(np.zeros((4, 2)), [0, 1, 1])
        with pytest.raises(ValueError, match="shape"):
            ce_loss(np.zeros((4, 2)), [0, 1, 1])

    def test_one_dimensional_batch_rejected(self):
        spec = ModelSpec(input_dim=3, hidden_dims=(), output_dim=2)
        with pytest.raises(ValueError, match="2-D"):
            forward(make_params(spec), spec, np.zeros(3))

    def test_stacked_layer_views_write_through(self):
        spec = ModelSpec(input_dim=2, hidden_dims=(3,), output_dim=2)
        flat = np.zeros((4, spec.n_params))
        (W0, b0), (W1, b1) = spec.layers(flat)
        assert W0.shape == (4, 2, 3) and b0.shape == (4, 3)
        assert W1.shape == (4, 3, 2) and b1.shape == (4, 2)
        W0[2, 1, 0] = 5.0
        b1[3, 1] = -2.0
        assert flat[2, 3] == 5.0 and flat[3, spec.n_params - 1] == -2.0
        assert np.count_nonzero(flat) == 2


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        spec = ModelSpec(input_dim=2, hidden_dims=(), output_dim=2)
        params = init_params(spec, np.random.default_rng(0))
        before = params.copy()
        state = AdamState.fresh(params.size, learning_rate=0.1)
        new_params, new_state = adam_step(state, params, np.zeros_like(params))
        assert new_params is params  # updated in place
        assert np.array_equal(params, before)
        assert new_state.step == 1

    def test_first_step_closed_form(self):
        # m_hat/(sqrt(v_hat)+eps) = g/|g| on step 1, so update = -lr/(1+eps/|g|)
        state = AdamState.fresh(1, learning_rate=0.1)
        new_params, _ = adam_step(state, np.array([0.3]), np.array([2.0]))
        assert new_params[0] - 0.3 == pytest.approx(-0.0999999995, abs=1e-12)

    def test_first_step_sign_symmetry(self):
        g = np.array([0.5, -2.0, 1.25])
        up, _ = adam_step(AdamState.fresh(3, learning_rate=0.01), np.zeros(3), g)
        down, _ = adam_step(AdamState.fresh(3, learning_rate=0.01), np.zeros(3), -g)
        assert np.all(up != 0.0)
        assert np.array_equal(up, -down)

    def test_length_mismatch(self):
        params = np.zeros(2)
        state = AdamState.fresh(3, learning_rate=0.01)
        with pytest.raises(ValueError):
            adam_step(state, params, np.zeros_like(params))


class TestGradCheck:
    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            grad_check(ModelSpec(input_dim=2, hidden_dims=(), output_dim=2), seed=0, h=0.0)

    def test_linear_model_tight(self):
        spec = ModelSpec(input_dim=3, hidden_dims=(), output_dim=2)
        assert grad_check(spec, seed=0, h=1e-5) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_small_nets(self, seed):
        spec = ModelSpec(input_dim=4, hidden_dims=(6, 4), output_dim=3)
        assert grad_check(spec, seed=seed, h=1e-5) < 1e-4


class TestInitParams:
    def test_init_is_seeded_glorot_with_zero_bias(self):
        spec = ModelSpec(input_dim=10, hidden_dims=(20,), output_dim=5)
        a = init_params(spec, np.random.default_rng(42))
        b = init_params(spec, np.random.default_rng(42))
        assert np.array_equal(a, b)
        assert np.array_equal(bias(spec, a, 0), np.zeros(20))
        bound = math.sqrt(6.0 / (10 + 20))
        w = weights(spec, a, 0)
        assert np.abs(w).max() <= bound


class TestModelSpec:
    def test_layer_views_tile_the_vector_in_order(self):
        spec = ModelSpec(input_dim=3, hidden_dims=(4, 2), output_dim=5)
        flat = np.arange(spec.n_params, dtype=np.float64)
        pieces = [part.ravel() for layer in spec.layers(flat) for part in layer]
        assert [p.shape for p in pieces] == [(12,), (4,), (8,), (2,), (10,), (5,)]
        assert np.array_equal(np.concatenate(pieces), flat)

    def test_views_write_through(self):
        spec = ModelSpec(input_dim=2, hidden_dims=(), output_dim=2)
        flat = np.zeros(spec.n_params)
        W, b = spec.layers(flat)[0]
        W[1, 0] = 3.0
        b[1] = -1.0
        assert flat.tolist() == [0.0, 0.0, 3.0, 0.0, 0.0, -1.0]
