"""AdamW: closed-form single-step oracle plus the decoupled-decay invariants."""

import numpy as np
import pytest

from zeromode.model import OperatorConfig, init_model
from zeromode.optim import adamw_step, init_optimizer

CFG = OperatorConfig(channels=1, width=3, n_layers=1, modes_kept=2, ndim=1, seed=2)


def fresh():
    model = init_model(CFG)
    model.params[:] = np.random.default_rng(7).normal(size=model.params.size)
    return model


class TestSingleStep:
    def test_first_step_closed_form(self):
        model = fresh()
        grads = np.random.default_rng(8).normal(size=model.params.size)
        state = init_optimizer(model, lr=1e-3, weight_decay=1e-4)
        new, new_state = adamw_step(model, grads, state)
        # bias correction makes mhat = g and vhat = g^2 exactly at t = 1
        expected = (model.params
                    - state.lr * grads / (np.abs(grads) + state.eps)
                    - state.lr * state.weight_decay * model.params)
        np.testing.assert_allclose(new.params, expected, rtol=1e-14)
        assert new_state.step == 1
        np.testing.assert_allclose(new_state.m, (1 - state.beta1) * grads, rtol=1e-15)
        np.testing.assert_allclose(new_state.v, (1 - state.beta2) * grads**2, rtol=1e-15)

    def test_two_steps_match_hand_recursion(self):
        model = fresh()
        rng = np.random.default_rng(9)
        g1 = rng.normal(size=model.params.size)
        g2 = rng.normal(size=model.params.size)
        state = init_optimizer(model, lr=2e-3, weight_decay=1e-3)
        m1, s1 = adamw_step(model, g1, state)
        m2, _ = adamw_step(m1, g2, s1)

        b1, b2, lr, wd, eps = state.beta1, state.beta2, state.lr, state.weight_decay, state.eps
        m = np.zeros_like(g1)
        v = np.zeros_like(g1)
        theta = model.params.copy()
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps) - lr * wd * theta
        np.testing.assert_allclose(m2.params, theta, rtol=1e-14)

    def test_matches_update_formula_bit_for_bit(self):
        model = fresh()
        rng = np.random.default_rng(11)
        state = init_optimizer(model, lr=3e-3, weight_decay=1e-2)
        b1, b2, lr, wd, eps = state.beta1, state.beta2, state.lr, state.weight_decay, state.eps
        m = np.zeros_like(model.params)
        v = np.zeros_like(model.params)
        theta = model.params.copy()
        for t in range(1, 4):
            g = rng.normal(size=model.params.size) * 10.0 ** rng.uniform(-6, 2, size=model.params.size)
            model, state = adamw_step(model, g, state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps) - lr * wd * theta
            assert model.params.tobytes() == theta.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    def test_zero_gradient_is_pure_decay(self):
        model = fresh()
        state = init_optimizer(model, lr=1e-2, weight_decay=1e-3)
        new, _ = adamw_step(model, np.zeros_like(model.params), state)
        expected = model.params - state.lr * state.weight_decay * model.params
        np.testing.assert_array_equal(new.params, expected)

    def test_zero_lr_is_identity(self):
        model = fresh()
        grads = np.random.default_rng(10).normal(size=model.params.size)
        state = init_optimizer(model, lr=0.0, weight_decay=1e-4)
        new, new_state = adamw_step(model, grads, state)
        assert new.params.tobytes() == model.params.tobytes()
        assert new_state.step == 1  # bookkeeping still advances


class TestGuards:
    def test_inputs_left_untouched(self):
        model = fresh()
        before = model.params.copy()
        state = init_optimizer(model, lr=1e-3, weight_decay=1e-4)
        m_before = state.m.copy()
        adamw_step(model, np.ones_like(before), state)
        np.testing.assert_array_equal(model.params, before)
        np.testing.assert_array_equal(state.m, m_before)
        assert state.step == 0

    def test_shape_mismatch_rejected(self):
        model = fresh()
        with pytest.raises(ValueError, match="shape"):
            adamw_step(model, np.zeros(model.params.size - 1), init_optimizer(model, lr=1e-3, weight_decay=1e-4))
