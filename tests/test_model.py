"""Spectral operator: layout, forward fixtures, hand adjoints vs finite differences."""

import hashlib
import itertools
import json
import struct
import tracemalloc
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import zeromode.model
from zeromode.model import (
    OperatorConfig,
    OperatorModel,
    fold_weights,
    forward_values,
    gelu,
    gelu_grad,
    init_model,
    layout,
    load_checkpoint,
    n_params,
    save_checkpoint,
    vjp,
)
from zeromode.model import (
    _CHUNK_BYTES,
    _TILE,
    _band,
    _band_inner,
    _dft,
    _fold,
    _forward_batch,
    _from_band,
    _mix_modes,
    _mixing_backward,
    _pointwise_forward,
    _to_band,
    _views,
    _workspace,
)
from zeromode.correction import Variant
from zeromode.training import loss_and_grad, rollout

from operator_fixtures import constant_identity_model, in_version_1_order

CFG_1D = OperatorConfig(channels=1, width=3, n_layers=1, modes_kept=2, ndim=1, seed=11)
CFG_2D = OperatorConfig(channels=2, width=3, n_layers=2, modes_kept=2, ndim=2, seed=12)
# first, middle and last blocks all distinct, with three data channels (the matmul branches)
CFG_2D_THREE_ROLES = OperatorConfig(channels=3, width=3, n_layers=3, modes_kept=2, ndim=2, seed=15)
# one block, both the first and the last
CFG_1D_ONE_BLOCK = OperatorConfig(channels=2, width=3, n_layers=1, modes_kept=2, ndim=1, seed=16)

# grids for the spectral-layer oracles, each with modes_kept at its Nyquist bound
SPECTRAL_GRIDS = [((8,), 4), ((9,), 4), ((6, 6), 3), ((7, 10), 3), ((9, 9), 4)]


def predict(model, x):
    """The operator's next states of ``x`` at the model's current parameters."""
    return forward_values(model, fold_weights(model), x)


def gelu_and_slope(x):
    """GELU of ``x`` and its slope, each in a fresh buffer: the slope is ``gelu_grad`` of a unit upstream."""
    denom, y = np.empty_like(x), np.empty_like(x)
    gelu(x, denom, y)
    return y, gelu_grad(x, denom, np.ones_like(x))


def traced_peak(call) -> int:
    """Peak bytes that ``tracemalloc`` sees allocated during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fd_gradient(model, inputs, targets, h=1e-6, **kw):
    """Central finite differences of the loss value, one parameter at a time."""
    grad = np.zeros_like(model.params)
    for k in range(grad.size):
        plus = model.params.copy()
        plus[k] += h
        minus = model.params.copy()
        minus[k] -= h
        lp, _ = loss_and_grad(OperatorModel(model.config, plus), inputs, targets, **kw)
        lm, _ = loss_and_grad(OperatorModel(model.config, minus), inputs, targets, **kw)
        grad[k] = (lp - lm) / (2.0 * h)
    return grad


class TestLayout:
    def test_slot_order_and_offsets(self):
        slots = layout(CFG_1D)
        assert [s.name for s in slots] == [
            "lift.weight", "lift.bias",
            "block0.spectral", "block0.weight", "block0.bias",
            "proj.weight", "proj.bias",
        ]
        assert slots[0].offset == 0
        for prev, cur in zip(slots, slots[1:]):
            assert cur.offset == prev.offset + prev.n_floats

    def test_param_count_formula(self):
        for cfg in (CFG_1D, CFG_2D):
            w, c, m, L = cfg.width, cfg.channels, cfg.n_modes, cfg.n_layers
            expected = (w * c + w) + L * (2 * w * w * m + w * w + w) + (c * w + c)
            assert n_params(cfg) == expected
        assert n_params(CFG_2D) <= 500  # keeps the finite-difference oracle cheap

    def test_views_round_trip(self):
        model = OperatorModel(CFG_2D, np.zeros(n_params(CFG_2D)))
        views = _views(model.params, model.config)
        rng = np.random.default_rng(0)
        w = rng.normal(size=(9, 3, 3)) + 1j * rng.normal(size=(9, 3, 3))  # mode-major
        b = rng.normal(size=(2,))
        views["block1.spectral"][...] = w
        views["proj.bias"][...] = b
        again = _views(model.params, model.config)
        np.testing.assert_array_equal(again["block1.spectral"], w)
        np.testing.assert_array_equal(again["proj.bias"], b)
        # each write lands at its slot's offset, a complex one as interleaved (re, im) floats
        offsets = {slot.name: slot.offset for slot in layout(CFG_2D)}
        expected = np.zeros(n_params(CFG_2D))
        start = offsets["block1.spectral"]
        expected[start : start + 2 * w.size : 2] = w.real.ravel()
        expected[start + 1 : start + 2 * w.size : 2] = w.imag.ravel()
        expected[offsets["proj.bias"] : offsets["proj.bias"] + b.size] = b
        np.testing.assert_array_equal(model.params, expected)

    def test_wrong_vector_length(self):
        with pytest.raises(ValueError, match="layout needs"):
            OperatorModel(CFG_1D, np.zeros(n_params(CFG_1D) + 1))

    def test_init_deterministic_and_bias_free(self):
        a = init_model(CFG_2D)
        b = init_model(CFG_2D)
        np.testing.assert_array_equal(a.params, b.params)
        views = _views(a.params, a.config)
        assert np.all(views["lift.bias"] == 0.0)
        assert np.all(views["block0.bias"] == 0.0)
        spectral = views["block0.spectral"]
        bound = 1.0 / CFG_2D.width**2
        assert spectral.real.min() >= 0.0 and spectral.real.max() < bound
        assert spectral.imag.min() >= 0.0 and spectral.imag.max() < bound


class TestActivation:
    def test_endpoint_behaviour(self):
        y, _ = gelu_and_slope(np.array([0.0, 10.0, -10.0]))
        assert y[0] == 0.0
        assert np.isclose(y[1], 10.0)
        assert abs(y[2]) < 1e-8

    def test_grad_matches_finite_differences(self):
        x = np.linspace(-4.0, 4.0, 41)
        h = 1e-5
        fd = (gelu_and_slope(x + h)[0] - gelu_and_slope(x - h)[0]) / (2.0 * h)
        np.testing.assert_allclose(gelu_and_slope(x)[1], fd, rtol=1e-6, atol=1e-8)

    def test_value_and_slope_match_extended_precision_reference(self):
        x = np.linspace(-30.0, 30.0, 60001)
        y, slope = gelu_and_slope(x)
        ref, ref_slope, bound, slope_bound = reference_gelu(x)
        assert np.all(np.abs(y - ref) <= bound)
        assert np.all(np.abs(slope - ref_slope) <= slope_bound)

    def test_edge_inputs(self):
        # -20 is deep in the tail, where the value is ~1e-261 and float64 still holds it
        x = np.array([-1e3, -50.0, -20.0, -0.0, 0.0, 50.0, 1e3])
        y, slope = gelu_and_slope(x)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(slope))
        assert y.tolist() == [0.0, 0.0, y[2], 0.0, 0.0, 50.0, 1e3]
        assert slope[[0, 1, 3, 4, 5, 6]].tolist() == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
        ref, ref_slope, bound, slope_bound = reference_gelu(x)
        assert np.all(np.abs(y - ref) <= bound) and np.all(np.abs(slope - ref_slope) <= slope_bound)
        assert all(a.shape == (0,) for a in gelu_and_slope(np.empty(0)))

    def test_forward_tape_holds_each_blocks_denominator(self):
        model = init_model(CFG_2D)
        tape = {}
        _forward_batch(model, fold_weights(model), np.random.default_rng(3).normal(size=(2, 2, 7, 10)), tape)
        for i in range(CFG_2D.n_layers):
            _, _, z, s = tape[f"block{i}"]
            assert s.tobytes() == whole_array_gelu(z)[0].tobytes()


# ulps of headroom over exp's and the passes' rounding; the worst measured was 1.5
GELU_ULPS = 4.0


def reference_gelu(x):
    """GELU and its slope in np.longdouble, with the bounds float64 can meet.

    The reference takes the logistic form x p, p = 1 / (1 + exp(-2u)), with p and 1 - p each from
    e = exp(-|2u|) as 1 / (1 + e) or e / (1 + e), so it cancels and overflows nowhere.  exp is
    conditioned by its argument: a rounding of -2u moves exp(-2u) by |2u| ulps, so value and slope
    are held to GELU_ULPS * eps * (1 + |2u|) of their terms' magnitudes.
    Where float64's s overflows (x below ~-21) the value is -0.0, off by at most |x| / max_float, and
    the slope is off by at most its bracket over max_float.
    """
    a, b = np.sqrt(2 / np.longdouble(np.pi)), np.longdouble(0.044715)
    xl = x.astype(np.longdouble)
    u = a * (xl + b * xl**3)
    e = np.exp(-np.abs(2 * u))
    near, far = 1 / (1 + e), e / (1 + e)
    p, q = np.where(u >= 0, near, far), np.where(u >= 0, far, near)
    term = 2 * a * xl * q * (1 + 3 * b * xl * xl)
    rel = GELU_ULPS * np.finfo(float).eps * (1 + np.abs(2 * u))
    huge = np.finfo(float).max
    bound = rel * np.abs(xl * p) + np.abs(xl) / huge
    slope_bound = rel * p * (1 + np.abs(term)) + (1 + np.abs(term)) / huge
    return xl * p, p * (1 + term), bound, slope_bound


def whole_array_gelu(x):
    """Denominator s, GELU and its slope by whole-array passes, in the kernels' operation order."""
    a, b = np.sqrt(2.0 / np.pi), 0.044715
    c0, c1 = -2.0 * a, -2.0 * a * b
    with np.errstate(over="ignore"):
        s = np.exp(np.maximum((x * x * c1 + c0) * x, -700.0)) + 1.0
    gate = 1.0 / s
    slope = ((gate - 1.0) * x * (x * x * (3.0 * c1) + c0) + 1.0) * gate
    return s, x / s, slope


class TestTiledKernels:
    """The tiled elementwise kernels give the whole-array bits on every tiling."""

    @pytest.mark.parametrize("shape", [
        (3, 5, 7),            # below one tile
        (2, _TILE // 2),      # exactly one tile
        (3, 16, 37, 29),      # ragged last tile
    ])
    def test_gelu_and_gelu_grad_match_whole_array_formula(self, shape):
        x, upstream = np.random.default_rng(sum(shape)).normal(0.0, 3.0, size=(2, *shape))
        x.flat[:2] = -30.0, 30.0  # past |x| ~ 21, where exp overflows and where its exponent is floored
        s_ref, y_ref, slope_ref = whole_array_gelu(x)

        denom_out = np.empty_like(x)
        out = np.empty_like(x)
        y = gelu(x, denom_out=denom_out, out=out)
        assert y is out
        assert denom_out.tobytes() == s_ref.tobytes()
        assert out.tobytes() == y_ref.tobytes()
        # out may be the denominator's buffer itself, as in a forward-only block
        shared = np.empty_like(x)
        assert gelu(x, denom_out=shared, out=shared).tobytes() == y_ref.tobytes()

        assert gelu_grad(x, denom=denom_out, upstream=np.ones_like(x)).tobytes() == slope_ref.tobytes()
        into = upstream.copy()
        chained = gelu_grad(x, denom=denom_out, upstream=into)
        assert chained is into
        assert chained.tobytes() == (upstream * slope_ref).tobytes()

    def test_gelu_and_gelu_grad_refuse_a_strided_operand(self):
        # a flat reshape of a strided view copies it, and writes into the copy would be lost
        x = np.random.default_rng(4).normal(size=(16, 37, 29))
        strided = np.ascontiguousarray(x.T).T
        assert not strided.flags.c_contiguous
        buffers = [np.empty_like(x) for _ in range(2)]
        with pytest.raises(ValueError, match="C-contiguous"):
            gelu(strided, *buffers)
        with pytest.raises(ValueError, match="C-contiguous"):
            gelu(x, buffers[0], np.zeros_like(strided))
        gelu(x, *buffers)
        with pytest.raises(ValueError, match="C-contiguous"):
            gelu_grad(x, buffers[0], strided)


class TestForward:
    def test_zero_params_zero_output(self):
        model = OperatorModel(CFG_2D, np.zeros(n_params(CFG_2D)))
        x = np.random.default_rng(1).normal(size=(2, 8, 8))
        assert np.all(predict(model, x) == 0.0)

    def test_identity_fixture_exact_on_constants(self):
        model = constant_identity_model(OperatorConfig(channels=2, width=4, n_layers=2, modes_kept=3, ndim=2))
        x = np.empty((2, 16, 16))
        x[0] = 0.37
        x[1] = -1.25
        y = predict(model, x)
        # power-of-two FFT keeps the zero mode of a constant exact
        np.testing.assert_array_equal(y, x)

    @pytest.mark.parametrize("n", [16, 32, 128])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_identity_fixture_exact_at_every_depth(self, n_layers, n):
        # the DFT matmuls see only exact zeros and zero-mode-only bands, so their sums add exact zeros
        model = constant_identity_model(OperatorConfig(channels=2, n_layers=n_layers))  # width 16, 8 modes
        x = np.empty((3, 2, n, n))
        x[:, 0] = np.array([0.37, -2.5e3, 1.0 / 3.0])[:, None, None]
        x[:, 1] = np.array([-1.25, 7.0e-5, np.pi])[:, None, None]
        assert predict(model, x).tobytes() == x.tobytes()

    def test_identity_band_blocks_reduce_to_affine_map(self):
        # spectral weight = identity on the band, pointwise path silenced:
        # a band-limited signal rides through every block unchanged, so the
        # whole network collapses to proj(lift(x))
        model = init_model(CFG_2D)
        views = _views(model.params, model.config)
        rng = np.random.default_rng(5)
        views["lift.bias"][...] = rng.normal(size=3)
        views["proj.bias"][...] = rng.normal(size=2)
        band_identity = np.zeros((9, 3, 3), dtype=np.complex128)
        for i in range(3):
            band_identity[:, i, i] = 1.0
        for i in range(CFG_2D.n_layers):
            views[f"block{i}.spectral"][...] = band_identity
            views[f"block{i}.weight"][...] = np.zeros((3, 3))
            views[f"block{i}.bias"][...] = np.zeros(3)

        grid_x, grid_y = np.meshgrid(np.arange(6) / 6.0, np.arange(6) / 6.0, indexing="ij")

        def band_limited():
            a = rng.normal(size=6)
            return (a[0] + a[1] * np.cos(2 * np.pi * grid_x) + a[2] * np.sin(2 * np.pi * grid_x)
                    + a[3] * np.cos(2 * np.pi * grid_y) + a[4] * np.sin(2 * np.pi * grid_y)
                    + a[5] * np.cos(2 * np.pi * (grid_x + grid_y)))

        x = np.stack([band_limited(), band_limited()])
        h = np.einsum("wc,cij->wij", views["lift.weight"], x) + views["lift.bias"][:, None, None]
        expected = np.einsum("ow,wij->oij", views["proj.weight"], h) + views["proj.bias"][:, None, None]
        np.testing.assert_allclose(predict(model, x), expected, atol=1e-12)

    def test_band_is_resolution_independent(self):
        cfg = OperatorConfig(channels=1, width=2, n_layers=1, modes_kept=3, ndim=1, seed=7)
        model = init_model(cfg)
        # silence the pointwise path: gelu aliases across resolutions, the band does not
        _views(model.params, cfg)["block0.weight"][...] = np.zeros((2, 2))

        def signal(x):
            return 0.3 + np.cos(2 * np.pi * x) - 0.5 * np.sin(4 * np.pi * x)

        coarse = predict(model, signal(np.arange(16) / 16.0)[None])
        fine = predict(model, signal(np.arange(32) / 32.0)[None])
        np.testing.assert_allclose(coarse[0], fine[0, ::2], atol=1e-10)

    @pytest.mark.parametrize("cfg, shape", [
        (CFG_2D_THREE_ROLES, (2, 3, 7, 10)),
        (CFG_1D_ONE_BLOCK, (2, 2, 8)),
        (OperatorConfig(channels=1, seed=17), (2, 1, 32, 32)),
        (OperatorConfig(channels=1, seed=18), (1, 1, 128, 128)),
    ])
    def test_matches_unfolded_composition(self, cfg, shape):
        model = init_model(cfg)
        rng = np.random.default_rng(cfg.seed)
        model.params[:] += rng.normal(0.0, 0.1, model.params.size)  # nonzero biases too
        x = rng.normal(size=shape)
        reference = unfolded_forward(model, x)
        prediction = _forward_batch(model, fold_weights(model), x)
        assert np.abs(prediction - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_modes_beyond_nyquist_rejected(self):
        model = init_model(OperatorConfig(channels=1, width=2, n_layers=1, modes_kept=5, ndim=1))
        with pytest.raises(ValueError, match="Nyquist"):
            predict(model, np.zeros((1, 8)))

    def test_bad_input_shape(self):
        model = OperatorModel(CFG_2D, np.zeros(n_params(CFG_2D)))
        with pytest.raises(ValueError, match="spatial"):
            predict(model, np.zeros((3, 8, 8)))  # wrong channel count


def unfolded_forward(model, x):
    """The operator as the module docstring writes it: lift, blocks with the GELU residual, projection."""
    p = _views(model.params, model.config)
    h = _pointwise_forward(x, p["lift.weight"], p["lift.bias"], None)
    for i in range(model.config.n_layers):
        s = fftn_spectral_layer(h, p[f"block{i}.spectral"], model.config.modes_kept)
        h = gelu_and_slope(_pointwise_forward(h, p[f"block{i}.weight"], p[f"block{i}.bias"], None))[0] + s
    return _pointwise_forward(h, p["proj.weight"], p["proj.bias"], None)


class TestWorkspace:
    """Forward activations go into per-shape buffers that every call reuses."""

    def test_steady_state_forward_allocates_less_than_one_activation(self):
        model = init_model(OperatorConfig(channels=1, seed=5))  # width 16
        x = np.random.default_rng(5).normal(size=(1, 128, 128))
        predict(model, x)  # the first call of a shape makes its buffers
        tracemalloc.start()
        try:
            predict(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 128 * 128 * 8

    def test_first_forward_of_a_shape_peaks_below_two_and_a_half_activations(self):
        # forward-only, every block runs in two buffers; the rest is band-size and data-width
        model = init_model(OperatorConfig(channels=1, seed=5))  # width 16
        x = np.random.default_rng(5).normal(size=(1, 1, 128, 128))
        folded = fold_weights(model)
        _band.cache_clear()
        _workspace.cache_clear()  # the buffers and tables are made as in a fresh process
        assert traced_peak(lambda: forward_values(model, folded, x)) < 2.5 * 16 * 128 * 128 * 8

    def test_steady_state_step_allocates_less_than_gradient_and_one_activation(self):
        # the backward writes into the tape's spent buffers: past the flat gradient, only band-size and
        # data-width arrays are fresh
        model = init_model(OperatorConfig(channels=1, seed=5))  # width 16
        x, t = np.random.default_rng(5).normal(size=(2, 5, 1, 128, 128))
        step = lambda: loss_and_grad(model, x, t, loss="mae", mask=(True,))
        step()  # the first call of a shape makes its buffers
        assert traced_peak(step) < model.params.nbytes + 5 * 16 * 128 * 128 * 8

    def test_pullback_runs_once(self):
        model = init_model(CFG_2D)
        pred, pullback = vjp(model, np.random.default_rng(9).normal(size=(2, 2, 8, 8)))
        assert np.isfinite(pullback(np.ones_like(pred))).all()
        with pytest.raises(RuntimeError, match="runs once"):
            pullback(np.ones_like(pred))  # its gradients now fill the tape's buffers

    def test_next_call_leaves_returned_array_alone(self):
        model = init_model(CFG_2D)
        first, second = np.random.default_rng(6).normal(size=(2, 2, 8, 8))
        y = predict(model, first)
        kept = y.copy()
        predict(model, second)
        np.testing.assert_array_equal(y, kept)

    @pytest.mark.parametrize("cfg, sizes", [
        (OperatorConfig(channels=1, width=4, n_layers=2, modes_kept=4, seed=7), (32, 64, 32)),
        (CFG_1D, (8, 16, 8)),
    ])
    def test_interleaved_shapes_repeat_bit_for_bit(self, cfg, sizes):
        model = init_model(cfg)
        rng = np.random.default_rng(7)
        inputs = {n: rng.normal(size=(cfg.channels, *(n,) * cfg.ndim)) for n in set(sizes)}
        seen = {}
        for n in sizes:
            y = predict(model, inputs[n])
            assert seen.setdefault(n, y).tobytes() == y.tobytes()

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_forward_values_equals_taped_prediction(self, n_layers):
        model = init_model(OperatorConfig(channels=2, width=5, n_layers=n_layers, modes_kept=3, seed=8))
        x = np.random.default_rng(8).normal(size=(1, 2, 12, 10))
        taped = _forward_batch(model, fold_weights(model), x, {})
        assert predict(model, x[0]).tobytes() == taped[0].tobytes()


def count_folds(monkeypatch) -> list:
    """A list that grows by one at every ``_fold`` call from now on."""
    calls, fold = [], zeromode.model._fold
    monkeypatch.setattr(zeromode.model, "_fold", lambda weight, band: calls.append(1) or fold(weight, band))
    return calls


class TestFoldOnce:
    """Each block's spectral weight is folded once per call at one parameter state."""

    def test_forward_values_folds_once_across_chunks(self, monkeypatch):
        cfg = OperatorConfig(channels=1, seed=19)  # width 16: eight samples per chunk at 32^2
        model = init_model(cfg)
        x = np.random.default_rng(19).normal(size=(10, 1, 32, 32))
        assert len(x) > _CHUNK_BYTES // (cfg.width * 32 * 32 * 8)
        calls = count_folds(monkeypatch)
        predict(model, x)
        assert len(calls) == cfg.n_layers

    @pytest.mark.parametrize("n_frames", [2, 7])
    def test_rollout_folds_once(self, monkeypatch, n_frames):
        calls = count_folds(monkeypatch)
        rollout(init_model(CFG_2D), np.random.default_rng(21).normal(size=(3, n_frames, 2, 8, 8)), Variant.BASE,
                (True, True))
        assert len(calls) == CFG_2D.n_layers

    def test_loss_and_grad_folds_once(self, monkeypatch):
        model = init_model(CFG_2D_THREE_ROLES)
        x, t = np.random.default_rng(20).normal(size=(2, 4, 3, 7, 10))
        calls = count_folds(monkeypatch)
        loss_and_grad(model, x, t, loss="mae", mask=(True, False, True))
        assert len(calls) == CFG_2D_THREE_ROLES.n_layers


class TestBatchInvariance:
    """A state's prediction is the same bits whatever batch it rides in."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("channels, width, modes_kept, spatial", [
        (2, 5, 3, (21,)),
        (1, 8, 4, (64, 64)),
    ])
    def test_batched_rows_equal_single_states(self, n_layers, channels, width, modes_kept, spatial):
        cfg = OperatorConfig(channels=channels, width=width, n_layers=n_layers,
                             modes_kept=modes_kept, ndim=len(spatial), seed=13)
        model = init_model(cfg)
        chunk = max(1, _CHUNK_BYTES // (width * int(np.prod(spatial)) * 8))
        n = 2 * chunk + 1  # more than one chunk, the last one ragged
        x = np.random.default_rng(13).normal(size=(n, channels, *spatial))
        single = np.stack([predict(model, xi) for xi in x])
        assert _forward_batch(model, fold_weights(model), x).tobytes() == single.tobytes()
        assert predict(model, x).tobytes() == single.tobytes()

    def test_leading_axes_keep_their_shape(self):
        model = init_model(CFG_2D)
        x = np.random.default_rng(14).normal(size=(2, 3, 2, 8, 8))
        y = predict(model, x)
        assert y.shape == x.shape
        assert y[1, 2].tobytes() == predict(model, x[1, 2]).tobytes()


def fftn_spectral_layer(x, weight, modes_kept):
    """The layer as one full fftn, a gather of the band, a scatter and an ifftn."""
    spatial = tuple(range(2, x.ndim))
    band = np.ix_(*[np.concatenate([np.arange(modes_kept), np.arange(n - modes_kept + 1, n)])
                    for n in x.shape[2:]])
    x_modes = np.fft.fftn(x, axes=spatial)[(..., *band)].reshape(*x.shape[:2], -1)
    y_modes = np.einsum("mio,bim->bom", weight, x_modes)
    full = np.zeros((x.shape[0], weight.shape[2], *x.shape[2:]), dtype=np.complex128)
    full[(..., *band)] = y_modes.reshape(*y_modes.shape[:2], *(b.size for b in band))
    return np.fft.ifftn(full, axes=spatial).real


def brute_force_spectral_layer(x, weight, modes_kept):
    """Direct DFT sums over the band k, in canonical order:

    X_i[k] = sum_q x_i(q) exp(-2 pi i k.q/N),  y_o(p) = Re (1/N) sum_k sum_i W[k,i,o] X_i[k] exp(2 pi i k.p/N)
    """
    resolution = x.shape[2:]
    per_axis = list(range(modes_kept)) + list(range(-(modes_kept - 1), 0))
    band = list(itertools.product(per_axis, repeat=len(resolution)))

    def phase(k, q):
        return 2.0 * np.pi * sum(ki * qi / ni for ki, qi, ni in zip(k, q, resolution))

    x_modes = np.zeros((*x.shape[:2], len(band)), dtype=np.complex128)
    for j, k in enumerate(band):
        for q in np.ndindex(resolution):
            x_modes[..., j] += x[(..., *q)] * np.exp(-1j * phase(k, q))
    y_modes = np.einsum("mio,bim->bom", weight, x_modes)
    y = np.zeros((x.shape[0], weight.shape[2], *resolution))
    for p in np.ndindex(resolution):
        acc = sum(y_modes[..., j] * np.exp(1j * phase(k, p)) for j, k in enumerate(band))
        y[(..., *p)] = acc.real / np.prod(resolution)
    return y


def spectral_layer(x, weight, band):
    """The layer _from_band(_fold(W) _dft(x)) and the half band of x."""
    x_modes = _dft(x, band)
    return _from_band(_mix_modes(x_modes, _fold(weight, band)), band), x_modes


def band_dft_tables(resolution, modes_kept):
    """exp(-2 pi i k p / n) per axis, band modes k in canonical order as rows."""
    ks = np.r_[0:modes_kept, -(modes_kept - 1):0]
    return [np.exp(-2j * np.pi * np.outer(ks, np.arange(n)) / n) for n in resolution]


def direct_band(x, modes_kept):
    """Band modes of x (B, C, *spatial) by direct DFT sums, one axis at a time."""
    out = x.astype(np.complex128)
    for axis, table in enumerate(band_dft_tables(x.shape[2:], modes_kept), start=2):
        out = np.moveaxis(np.tensordot(out, table, axes=([axis], [1])), -1, axis)
    return out.reshape(*x.shape[:2], -1)


def direct_field(modes, resolution, modes_kept):
    """Re (1/n) sum_k Y_k exp(2 pi i k.p / n) over the band, by direct sums, one axis at a time."""
    out = modes.reshape(*modes.shape[:2], *(2 * modes_kept - 1,) * len(resolution))
    for axis, table in enumerate(band_dft_tables(resolution, modes_kept), start=2):
        out = np.moveaxis(np.tensordot(out, table.conj(), axes=([axis], [0])), -1, axis)
    return out.real / np.prod(resolution)


def band_rows(resolution, modes_kept):
    """The band's FFT indices along each axis."""
    return np.ix_(*[np.r_[0:modes_kept, n - modes_kept + 1:n] for n in resolution])


class TestSpectralLayer:
    """The band transforms against DFT oracles, and the layer's adjoint."""

    @staticmethod
    def layer(resolution, modes_kept, seed):
        rng = np.random.default_rng(seed)
        n_modes = (2 * modes_kept - 1) ** len(resolution)
        x = rng.normal(size=(2, 3, *resolution))
        weight = rng.normal(size=(n_modes, 3, 2)) + 1j * rng.normal(size=(n_modes, 3, 2))
        return x, weight, _band(resolution, modes_kept)

    @pytest.mark.parametrize("resolution, modes_kept", SPECTRAL_GRIDS)
    def test_forward_matches_brute_force_dft(self, resolution, modes_kept):
        x, weight, band = self.layer(resolution, modes_kept, seed=61)
        y, _ = spectral_layer(x, weight, band)
        reference = brute_force_spectral_layer(x, weight, modes_kept)
        assert np.abs(y - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("resolution, modes_kept", SPECTRAL_GRIDS)
    def test_forward_matches_full_fftn_layer(self, resolution, modes_kept):
        x, weight, band = self.layer(resolution, modes_kept, seed=62)
        y, _ = spectral_layer(x, weight, band)
        reference = fftn_spectral_layer(x, weight, modes_kept)
        assert np.abs(y - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("resolution, modes_kept", SPECTRAL_GRIDS)
    def test_adjoint_dot_product_identity(self, resolution, modes_kept):
        x, weight, band = self.layer(resolution, modes_kept, seed=63)
        g = np.random.default_rng(64).normal(size=(2, 2, *resolution))
        y, x_modes = spectral_layer(x, weight, band)
        grad_weight = np.zeros_like(weight)  # the weight gradient is added into zeroed storage
        q = _mixing_backward(_dft(g, band), _fold(weight, band), x_modes, band, grad_weight)
        grad_x = _from_band(q, band)
        lhs = np.vdot(y, g)
        scale = np.linalg.norm(y) * np.linalg.norm(g)
        # <S x, g> = <x, S^T g>, and the layer is linear in its weight too
        assert abs(lhs - np.vdot(x, grad_x)) <= 1e-12 * scale
        by_weight = np.sum(weight.real * grad_weight.real + weight.imag * grad_weight.imag)
        assert abs(lhs - by_weight) <= 1e-12 * scale


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestBackwardKernels:
    """The backward's band contractions against their literal per-mode formulas."""

    @pytest.mark.parametrize("resolution", [(32, 32), (128, 128)])
    @pytest.mark.parametrize("widths", [(16, 16), (1, 16), (16, 1)])  # block, projection and lift operands
    def test_band_inner_matches_literal_einsum(self, resolution, widths):
        band = _band(resolution, 8)
        rng = np.random.default_rng(67)
        a, b = (complex_normal(rng, 5, width, band.half.size) for width in widths)
        n = np.prod(resolution)
        literal = np.einsum("bik,bjk,k->ij", np.conj(a), b, band.count).real / n
        # a sum's rounding is bounded relative to the sum of its terms' magnitudes, not to its value
        magnitude = np.einsum("bik,bjk,k->ij", np.abs(a), np.abs(b), band.count) / n
        inner = _band_inner(a, b, band)
        assert inner.shape == widths
        assert np.all(np.abs(inner - literal) <= 1e-15 * magnitude)

    @pytest.mark.parametrize("resolution, modes_kept, widths",
                             [((32, 32), 8, (16, 16)), ((9,), 4, (3, 2)), ((7, 10), 3, (3, 2)), ((6, 6), 3, (1, 16))])
    def test_mixing_weight_gradient_matches_per_mode_loop(self, resolution, modes_kept, widths):
        band = _band(resolution, modes_kept)
        rng = np.random.default_rng(68)
        n_half, n_modes = band.half.size, (2 * modes_kept - 1) ** len(resolution)
        x_modes, gy_modes = (complex_normal(rng, 5, width, n_half) for width in widths)
        weight = complex_normal(rng, n_modes, *widths)
        grad_weight = np.zeros_like(weight)
        _mixing_backward(gy_modes, _fold(weight, band), x_modes, band, grad_weight)

        # W_eff's gradient mode by mode, added to W[k] as it is and to W[-k] conjugated
        expected = np.zeros_like(weight)
        scale = band.count / (2 * np.prod(resolution))
        for j, (k, minus_k) in enumerate(zip(band.half, band.mirror)):
            grad_eff = (np.conj(x_modes[:, :, j]).T @ gy_modes[:, :, j]) * scale[j]
            expected[k] += grad_eff
            expected[minus_k] += np.conj(grad_eff)
        assert grad_weight.tobytes() == expected.tobytes()
        # column 0 holds both k and -k of a pair, so each of its modes takes two terms
        both = np.intersect1d(band.half, band.mirror)
        assert both.size == (2 * modes_kept - 1 if len(resolution) == 2 else 1)
        assert np.all(expected[both] != 0)


# every grid with modes_kept at its Nyquist bound
TRANSFORM_GRIDS = [((8,), 4), ((9,), 4), ((21,), 10), ((6, 6), 3), ((7, 10), 3), ((9, 9), 4), ((128, 128), 64)]


class TestBandTransforms:
    """_dft, _to_band and _from_band against direct DFT sums and np.fft of the whole spectrum."""

    @pytest.mark.parametrize("resolution, modes_kept", TRANSFORM_GRIDS)
    def test_forward_transforms_match_direct_sums_and_fftn(self, resolution, modes_kept):
        band = _band(resolution, modes_kept)
        x = np.random.default_rng(65).normal(size=(2, 3, *resolution))
        direct = direct_band(x, modes_kept)
        by_fft = np.fft.fftn(x, axes=tuple(range(2, x.ndim)))[(..., *band_rows(resolution, modes_kept))]
        by_fft = by_fft.reshape(2, 3, -1)
        scale = np.abs(direct).max()
        for transform in (_dft, _to_band):
            modes = transform(x, band)
            assert np.abs(modes - direct[..., band.half]).max() <= 1e-12 * scale
            assert np.abs(modes - by_fft[..., band.half]).max() <= 1e-12 * scale

    @pytest.mark.parametrize("resolution, modes_kept", TRANSFORM_GRIDS)
    def test_inverse_matches_direct_sums_and_zero_padded_ifftn(self, resolution, modes_kept):
        band = _band(resolution, modes_kept)
        rng = np.random.default_rng(66)
        n_half = band.half.size
        modes = rng.normal(size=(2, 3, n_half)) + 1j * rng.normal(size=(2, 3, n_half))
        y = _from_band(modes, band)
        # each half-band mode stands for count band modes: the band spectrum holds count * modes there, 0 elsewhere
        full = np.zeros((2, 3, (2 * modes_kept - 1) ** len(resolution)), dtype=np.complex128)
        full[..., band.half] = band.count * modes
        direct = direct_field(full, resolution, modes_kept)
        padded = np.zeros((2, 3, *resolution), dtype=np.complex128)
        spec = full.reshape(2, 3, *(2 * modes_kept - 1,) * len(resolution))
        padded[(..., *band_rows(resolution, modes_kept))] = spec
        by_fft = np.fft.ifftn(padded, axes=tuple(range(2, padded.ndim))).real
        scale = np.abs(direct).max()
        assert np.abs(y - direct).max() <= 1e-12 * scale
        assert np.abs(y - by_fft).max() <= 1e-12 * scale
        out = np.full_like(y, np.nan)
        _from_band(modes, band, out=out)
        assert out.tobytes() == y.tobytes()


class TestTransformCount:
    def test_loss_and_grad_takes_two_lifted_width_transforms_each_way(self, monkeypatch):
        # the lifted-width band transforms are DFT matmuls, and np.fft sees only the
        # one-channel input, so a lifted-width FFT that comes back fails here
        widths = {"fft": [], "_dft": [], "_from_band": []}
        mixed_modes = []

        def count(module, name, seen, axis=1):
            def counted(a, *args, _real=getattr(module, name), **kw):
                seen.append(np.shape(a)[axis])
                return _real(a, *args, **kw)
            monkeypatch.setattr(module, name, counted)

        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2"):
            count(np.fft, name, widths["fft"])
        for name in ("_dft", "_from_band"):
            count(zeromode.model, name, widths[name])
        count(zeromode.model, "_mix_modes", mixed_modes, axis=-1)
        x, t = np.random.default_rng(19).normal(size=(2, 3, 1, 32, 32))
        loss_and_grad(init_model(OperatorConfig(channels=1, seed=19)), x, t, "mae", None)  # width 16, 2 blocks, 8 modes
        assert widths["fft"] and set(widths["fft"]) == {1}
        # forward _dft(g0) and backward _dft(grad_z1); forward _from_band(W1 mixed0) and backward _from_band(q1)
        assert sorted(widths["_dft"]) == sorted(widths["_from_band"]) == [1, 16, 16]
        # blocks mix the half band, 15 x 8 modes, never the whole band of 15 x 15
        assert mixed_modes == [120, 120]


class TestGradientOracle:
    """Hand-written adjoints held to central finite differences."""

    def check(self, cfg, shape, loss, mask=None, seed=0):
        rng = np.random.default_rng(seed)
        model = init_model(cfg)
        model.params[:] = rng.normal(0.0, 0.2, model.params.size)
        inputs = rng.normal(size=shape)
        targets = rng.normal(size=shape)
        kw = {"loss": loss, "mask": mask}
        if loss == "mae":
            # sign(residual) must be stable under the probe size
            pred = np.stack([predict(model, xi) for xi in inputs])
            assert np.abs(pred - targets).min() > 1e-3
        _, analytic = loss_and_grad(model, inputs, targets, **kw)
        fd = fd_gradient(model, inputs, targets, **kw)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)
        big = np.abs(fd) > 1e-4
        assert big.any()
        rel = np.abs(analytic[big] - fd[big]) / np.abs(fd[big])
        assert rel.max() < 1e-5

    def test_mse_1d(self):
        self.check(CFG_1D, (2, 1, 8), "mse", seed=31)

    def test_mae_1d(self):
        self.check(CFG_1D, (2, 1, 8), "mae", seed=32)

    def test_mse_2d_with_correction(self):
        self.check(CFG_2D, (2, 2, 6, 6), "mse", mask=(True, False), seed=33)

    def test_mae_2d_with_correction(self):
        self.check(CFG_2D, (2, 2, 6, 6), "mae", mask=(True, True), seed=34)

    def test_mse_2d_odd_non_square(self):
        self.check(CFG_2D, (2, 2, 7, 10), "mse", mask=(True, False), seed=35)

    def test_mse_2d_three_block_roles(self):
        self.check(CFG_2D_THREE_ROLES, (2, 3, 6, 6), "mse", mask=(True, False, True), seed=36)

    def test_mse_1d_first_block_is_last(self):
        self.check(CFG_1D_ONE_BLOCK, (2, 2, 8), "mse", seed=37)

    def test_correction_kills_uniform_output_directions(self):
        # a shift in proj.bias moves the prediction uniformly; the pinned
        # mean makes the loss blind to it, so its gradient must vanish
        rng = np.random.default_rng(41)
        model = init_model(CFG_1D)
        model.params[:] = rng.normal(0.0, 0.2, model.params.size)
        x = rng.normal(size=(3, 1, 8))
        t = rng.normal(size=(3, 1, 8))
        _, grads = loss_and_grad(model, x, t, loss="mse", mask=(True,))
        slot = [s for s in layout(CFG_1D) if s.name == "proj.bias"][0]
        assert np.abs(grads[slot.offset : slot.offset + slot.n_floats]).max() < 1e-12


def version_1_bytes(model, activation="gelu_tanh"):
    """The file a version-1 writer made of ``model``: ``activation`` in its config unless None, spectral slots (i, o, m)."""
    fields = {**asdict(model.config), **({} if activation is None else {"activation": activation})}
    config = json.dumps(fields, sort_keys=True).encode()
    params = in_version_1_order(model.params, model.config)
    return (b"ZMCK" + struct.pack("<HI", 1, len(config)) + config
            + struct.pack("<QI", params.size, zlib.crc32(params)) + params.tobytes())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model(CFG_2D)
        path = save_checkpoint(model, tmp_path / "m.ckpt")
        back = load_checkpoint(path)
        assert back.config == model.config
        assert back.params.tobytes() == model.params.tobytes()

    def test_file_bytes_are_pinned(self, tmp_path):
        # version 2: a config with no activation, then the vector with its spectral slots mode-major
        path = save_checkpoint(init_model(CFG_2D), tmp_path / "m.ckpt")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "7bc9848523be7ff08240c217fdbcbc6fcca423c7ec3fc65c63965a77b78b90dd")

    def test_file_holds_spectral_weights_in_canonical_order(self):
        # the bytes version 1 wrote of this model, before spectral slots were stored mode-major: init draws the same
        assert hashlib.sha256(version_1_bytes(init_model(CFG_2D))).hexdigest() == (
            "2ec911f7dc5da3ec78478583ca48276ba0982b0d1b9e07e55a19135a1728aa4a")

    def test_payload_is_the_parameter_vector(self, tmp_path):
        # the file holds the vector as it is in memory, spectral slots mode-major
        model = init_model(CFG_2D)
        path = save_checkpoint(model, tmp_path / "m.ckpt")
        assert path.read_bytes()[-model.params.size * 8 :] == model.params.astype("<f8").tobytes()

    def test_canonical_checkpoint_loads_and_resaves_byte_identically(self, tmp_path):
        # a version-1 file written from the flat vector rng(5).normal(), every spectral slot in (i, o, m) order
        written = Path(__file__).parent / "data" / "canonical_w2.ckpt"
        model = load_checkpoint(written)
        canonical = np.random.default_rng(5).normal(size=n_params(model.config))
        assert in_version_1_order(model.params, model.config).tobytes() == canonical.tobytes()
        assert version_1_bytes(model) == written.read_bytes()
        again = load_checkpoint(save_checkpoint(model, tmp_path / "again.ckpt"))
        assert again.config == model.config and again.params.tobytes() == model.params.tobytes()

    @pytest.mark.parametrize("activation", ["gelu_tanh", None], ids=["gelu_tanh", "no-activation-key"])
    def test_version_1_file_loads_to_the_same_model(self, tmp_path, activation):
        model = init_model(CFG_2D_THREE_ROLES)
        model.params[:] = np.random.default_rng(22).normal(size=model.params.size)
        path = tmp_path / "m.ckpt"
        path.write_bytes(version_1_bytes(model, activation))
        back = load_checkpoint(path)
        assert back.config == model.config
        assert back.params.tobytes() == model.params.tobytes()

    def test_no_temp_files_left(self, tmp_path):
        save_checkpoint(init_model(CFG_1D), tmp_path / "m.ckpt")
        (tmp_path / "blocked.ckpt").mkdir()  # a directory at the target path fails the final rename
        with pytest.raises(OSError):
            save_checkpoint(init_model(CFG_1D), tmp_path / "blocked.ckpt")
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    @pytest.mark.parametrize("save, bound", [(True, 0.1), (False, 1.1)], ids=["save", "load"])
    def test_peak_memory_over_parameter_bytes(self, tmp_path, save, bound):
        # a save holds no copy of the parameters, a load only the vector it returns
        model = init_model(OperatorConfig(channels=1))  # the default operator
        path = save_checkpoint(model, tmp_path / "m.ckpt")
        tracemalloc.start()
        try:
            save_checkpoint(model, path) if save else load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * model.params.nbytes

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"WHAT" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        path = save_checkpoint(init_model(CFG_1D), tmp_path / "m.ckpt")
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_corrupt_payload(self, tmp_path):
        path = save_checkpoint(init_model(CFG_1D), tmp_path / "m.ckpt")
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checksum"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = save_checkpoint(init_model(CFG_1D), tmp_path / "m.ckpt")
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_parameter_count_refusal_quotes_the_exact_count(self, tmp_path):
        # this config needs more than 2**63 parameters, where an int64 product wraps
        path = save_checkpoint(init_model(CFG_1D), tmp_path / "m.ckpt")
        raw = path.read_bytes()
        (config_len,) = struct.unpack("<I", raw[6:10])
        blob = json.dumps(asdict(OperatorConfig(channels=1, width=2**40, modes_kept=2**20))).encode()
        path.write_bytes(raw[:6] + struct.pack("<I", len(blob)) + blob + raw[10 + config_len :])
        count = n_params(CFG_1D)
        with pytest.raises(ValueError, match=f"holds {count} parameters, its config needs "
                                             "21267627650156303869708182289840603137$"):
            load_checkpoint(path)

    def test_oversized_config_length_refused_without_allocating_it(self, tmp_path):
        path = save_checkpoint(init_model(CFG_1D), tmp_path / "m.ckpt")
        raw = bytearray(path.read_bytes())
        (config_len,) = struct.unpack("<I", raw[6:10])
        raw[6:10] = struct.pack("<I", config_len + 100_000_000)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="m.ckpt: header truncated or malformed"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
