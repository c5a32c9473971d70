"""AdamW: closed-form single-step oracle, the decoupled-decay invariants and the in-place contract."""

import tracemalloc

import numpy as np
import pytest

from zeromode.model import OperatorConfig, init_model, n_params
from zeromode.optim import _TILE, adamw_step, init_optimizer

CFG = OperatorConfig(channels=1, width=3, n_layers=1, modes_kept=2, ndim=1, seed=2)


def fresh():
    params = init_model(CFG).params
    params[:] = np.random.default_rng(7).normal(size=params.size)
    return params


class TestSingleStep:
    def test_first_step_closed_form(self):
        params = fresh()
        before = params.copy()
        grads = np.random.default_rng(8).normal(size=params.size)
        state = init_optimizer(params, lr=1e-3, weight_decay=1e-4)
        adamw_step(params, grads, state)
        # bias correction makes mhat = g and vhat = g^2 exactly at t = 1
        expected = (before
                    - state.lr * grads / (np.abs(grads) + state.eps)
                    - state.lr * state.weight_decay * before)
        np.testing.assert_allclose(params, expected, rtol=1e-14)
        assert state.step == 1
        np.testing.assert_allclose(state.m, (1 - state.beta1) * grads, rtol=1e-15)
        np.testing.assert_allclose(state.v, (1 - state.beta2) * grads**2, rtol=1e-15)

    def test_two_steps_match_hand_recursion(self):
        params = fresh()
        theta = params.copy()
        rng = np.random.default_rng(9)
        g1 = rng.normal(size=params.size)
        g2 = rng.normal(size=params.size)
        state = init_optimizer(params, lr=2e-3, weight_decay=1e-3)
        adamw_step(params, g1, state)
        adamw_step(params, g2, state)

        b1, b2, lr, wd, eps = state.beta1, state.beta2, state.lr, state.weight_decay, state.eps
        m = np.zeros_like(g1)
        v = np.zeros_like(g1)
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps) - lr * wd * theta
        np.testing.assert_allclose(params, theta, rtol=1e-14)

    @pytest.mark.parametrize("size", [None, 2 * _TILE + 5])  # one tile, and three with a short last one
    def test_matches_update_formula_bit_for_bit(self, size):
        rng = np.random.default_rng(11)
        params = fresh() if size is None else rng.normal(size=size)
        assert params.size <= _TILE if size is None else -(-params.size // _TILE) == 3
        state = init_optimizer(params, lr=3e-3, weight_decay=1e-2)
        b1, b2, lr, wd, eps = state.beta1, state.beta2, state.lr, state.weight_decay, state.eps
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        theta = params.copy()
        for t in range(1, 4):
            g = rng.normal(size=params.size) * 10.0 ** rng.uniform(-6, 2, size=params.size)
            adamw_step(params, g, state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            # the computed form of the module docstring: the bias corrections as two scalars, one divide
            s = np.sqrt(v) * (1 / np.sqrt(1 - b2**t)) + eps
            theta = theta * (1 - lr * wd) - (lr / (1 - b1**t)) * (m / s)
            assert params.tobytes() == theta.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    def test_zero_gradient_is_pure_decay(self):
        params = fresh()
        before = params.copy()
        state = init_optimizer(params, lr=1e-2, weight_decay=1e-3)
        adamw_step(params, np.zeros_like(params), state)
        np.testing.assert_array_equal(params, before * (1 - state.lr * state.weight_decay))

    def test_zero_lr_is_identity(self):
        params = fresh()
        before = params.copy()
        grads = np.random.default_rng(10).normal(size=params.size)
        state = init_optimizer(params, lr=0.0, weight_decay=1e-4)
        adamw_step(params, grads, state)
        assert params.tobytes() == before.tobytes()
        assert state.step == 1  # bookkeeping still advances


class TestInPlace:
    def test_updates_the_given_buffers_and_leaves_the_gradient(self):
        params = fresh()
        before = params.copy()
        grads = np.random.default_rng(12).normal(size=params.size)
        grads_before = grads.copy()
        state = init_optimizer(params, lr=1e-3, weight_decay=1e-4)
        m, v = state.m, state.v
        assert adamw_step(params, grads, state) is None
        assert state.m is m and state.v is v
        assert not np.array_equal(params, before)
        assert m.any() and v.any()
        assert grads.tobytes() == grads_before.tobytes()

    def test_shape_mismatch_rejected_before_any_write(self):
        params = fresh()
        before = params.copy()
        state = init_optimizer(params, lr=1e-3, weight_decay=1e-4)
        with pytest.raises(ValueError, match="shape"):
            adamw_step(params, np.zeros(params.size - 1), state)
        assert params.tobytes() == before.tobytes()
        assert state.step == 0 and not state.m.any() and not state.v.any()

    def test_a_step_allocates_no_array(self):
        # the default operator's 231k parameters span several tiles; the scratch tiles live in the state
        rng = np.random.default_rng(13)
        params = rng.normal(size=n_params(OperatorConfig()))
        grads = rng.normal(size=params.size)
        state = init_optimizer(params, lr=1e-3, weight_decay=1e-4)
        adamw_step(params, grads, state)
        tracemalloc.start()
        try:
            adamw_step(params, grads, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params.size > 2 * _TILE and state.step == 2
        assert peak < 1024
