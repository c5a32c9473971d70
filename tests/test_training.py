"""Training loss and loop: determinism, mode semantics, and rollout correction behaviour."""

import hashlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import zeromode.training
from zeromode.correction import ConservationMask, Variant, pin_channel_means
from zeromode.datasets import (
    DatasetConfig,
    Problem,
    ProblemParams,
    generate_dataset,
)
from zeromode.metrics import step_metrics
from zeromode.model import (
    OperatorConfig,
    OperatorModel,
    fold_weights,
    forward_values,
    init_model,
    n_params,
)
from zeromode.model import _forward_batch, _views
from zeromode.optim import adamw_step, init_optimizer
from zeromode.training import (
    MODES,
    RolloutResult,
    TrainConfig,
    TrainingDiverged,
    loss_and_grad,
    rollout,
    sample_training_pairs,
    train,
)

from operator_fixtures import constant_identity_model

MODEL_CFG = OperatorConfig(channels=1, width=4, n_layers=1, modes_kept=2, ndim=2, seed=0)


def tiny_sets(n_train=4, n_valid=2, master_seed=5):
    params = ProblemParams(problem=Problem.DIFF, resolution=16, t_final=1.0,
                           n_steps=100, n_snapshots=10)
    train_set = generate_dataset(DatasetConfig(params=params, n_samples=n_train,
                                               master_seed=master_seed, split="train"))
    valid_set = generate_dataset(DatasetConfig(params=params, n_samples=n_valid,
                                               master_seed=master_seed, split="valid"))
    return train_set, valid_set


@pytest.fixture(scope="module")
def sets():
    return tiny_sets()


class TestPairSampling:
    def test_deterministic_in_seed_and_epoch(self, sets):
        train_set, _ = sets
        a = sample_training_pairs(train_set, seed=3, epoch=7, batch_size=5, n_batches=4)
        b = sample_training_pairs(train_set, seed=3, epoch=7, batch_size=5, n_batches=4)
        np.testing.assert_array_equal(a, b)
        c = sample_training_pairs(train_set, seed=3, epoch=8, batch_size=5, n_batches=4)
        assert not np.array_equal(a, c)

    def test_indices_in_range(self, sets):
        train_set, _ = sets
        pairs = sample_training_pairs(train_set, seed=0, epoch=1, batch_size=64, n_batches=50)
        assert pairs.shape == (50, 64, 2)
        assert pairs[..., 0].min() >= 0 and pairs[..., 0].max() < train_set.n_samples
        # t indexes the pair (t, t+1), so it never touches the last frame
        assert pairs[..., 1].min() >= 0 and pairs[..., 1].max() < train_set.n_snapshots - 1

    def test_time_index_histogram_is_flat(self, sets):
        train_set, _ = sets
        pairs = sample_training_pairs(train_set, seed=1, epoch=1, batch_size=1000, n_batches=1000)
        n_bins = train_set.n_snapshots - 1
        counts = np.bincount(pairs[..., 1].ravel(), minlength=n_bins)
        deviation = np.abs(counts / pairs[..., 1].size - 1.0 / n_bins) * n_bins
        assert deviation.max() < 0.02


class TestTrainLoop:
    def test_bit_identical_reruns(self, sets):
        train_set, valid_set = sets
        cfg = TrainConfig(mode="base", epochs=3, eval_every=2)
        a = train(train_set, valid_set, MODEL_CFG, cfg)
        b = train(train_set, valid_set, MODEL_CFG, cfg)
        assert a.model.params.tobytes() == b.model.params.tobytes()
        assert a.log == b.log
        assert a.best_epoch == b.best_epoch

    def test_integrated_training_differs(self, sets):
        train_set, valid_set = sets
        base = train(train_set, valid_set, replace(MODEL_CFG, seed=1),
                     TrainConfig(mode="base", epochs=2, eval_every=2))
        integ = train(train_set, valid_set, replace(MODEL_CFG, seed=1),
                      TrainConfig(mode="integrated", epochs=2, eval_every=2))
        assert base.model.params.tobytes() != integ.model.params.tobytes()

    def test_zero_lr_keeps_init_params(self, sets):
        train_set, valid_set = sets
        cfg = TrainConfig(mode="base", epochs=2, eval_every=1, lr=0.0, weight_decay=0.0)
        result = train(train_set, valid_set, replace(MODEL_CFG, seed=9), cfg)
        reference = init_model(replace(MODEL_CFG, seed=9))
        assert result.model.params.tobytes() == reference.params.tobytes()
        # constant validation score: ties resolve to the earliest epoch
        assert result.best_epoch == 1

    def test_validation_schedule_and_log(self, sets):
        train_set, valid_set = sets
        cfg = TrainConfig(mode="base", epochs=5, eval_every=2)
        result = train(train_set, valid_set, replace(MODEL_CFG, seed=2), cfg)
        assert [r["epoch"] for r in result.log] == [1, 2, 3, 4, 5]
        assert [r["epoch"] for r in result.log if "val_rmse" in r] == [2, 4, 5]
        scored = [r["val_rmse"] for r in result.log if "val_rmse" in r]
        assert result.best_val_rmse == min(scored)

    @pytest.mark.parametrize("mode", MODES)
    def test_validation_rolls_integrated_or_base(self, sets, mode):
        train_set, valid_set = sets
        result = train(train_set, valid_set, MODEL_CFG, TrainConfig(mode=mode, epochs=2, eval_every=2))
        rolled = Variant(mode)
        other = Variant.BASE if rolled is Variant.INTEGRATED else Variant.INTEGRATED
        # one validation, at the last epoch, so the returned model is the one scored
        assert result.log[-1]["val_rmse"] == rollout(result.model, valid_set.data, rolled, valid_set.mask).mean_rmse
        assert result.log[-1]["val_rmse"] != rollout(result.model, valid_set.data, other, valid_set.mask).mean_rmse

    def test_divergence_raises_with_epoch(self, sets):
        train_set, valid_set = sets
        huge = generate_dataset(DatasetConfig(params=train_set_params(), n_samples=2, master_seed=0))
        huge.data = huge.data * 1e160  # mse residuals overflow to inf
        cfg = TrainConfig(mode="base", epochs=2, eval_every=2, loss="mse")
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged) as err:
            train(huge, valid_set, MODEL_CFG, cfg)
        assert (err.value.epoch, err.value.batch, err.value.quantity) == (1, 1, "loss")
        assert "training loss became non-finite at epoch 1, batch 1" in str(err.value)

    def test_non_finite_gradient_raises_with_epoch(self, sets, monkeypatch):
        # a finite loss with a NaN gradient: train's check names the epoch and batch before the optimizer steps
        train_set, valid_set = sets
        calls = []

        def nan_gradient_at_epoch_2_batch_2(model, *args, **kwargs):
            value, grads = loss_and_grad(model, *args, **kwargs)
            calls.append(value)
            if len(calls) == 4:
                grads[0] = np.nan
            return value, grads

        monkeypatch.setattr(zeromode.training, "loss_and_grad", nan_gradient_at_epoch_2_batch_2)
        cfg = TrainConfig(mode="base", epochs=3, eval_every=3, batch_size=train_set.n_samples // 2)  # 2 batches
        with pytest.raises(TrainingDiverged) as err:
            train(train_set, valid_set, MODEL_CFG, cfg)
        assert (err.value.epoch, err.value.batch, err.value.quantity) == (2, 2, "gradient")
        assert "training gradient became non-finite at epoch 2, batch 2" in str(err.value)
        assert len(calls) == 4 and np.isfinite(calls[3])

    @pytest.mark.parametrize("field, value", [("lr", float("nan")), ("lr", -1.0),
                                              ("weight_decay", float("inf")), ("weight_decay", -5.0)])
    def test_config_rejects_bad_step_sizes(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
            TrainConfig(**{field: value})

    def test_config_mode_is_one_of_the_training_modes(self):
        assert TrainConfig(mode="integrated").mode == "integrated"
        # staged is a rollout variant of a base model, not a way to train
        for mode in ("baseline", "staged", Variant.STAGED):
            with pytest.raises(ValueError, match="expected one of \\('base', 'integrated'\\)"):
                TrainConfig(mode=mode)

    def test_channel_mismatch_rejected(self, sets):
        train_set, valid_set = sets
        bad = OperatorConfig(channels=3, width=4, n_layers=1, modes_kept=2, ndim=2)
        with pytest.raises(ValueError, match="channels"):
            train(train_set, valid_set, bad, TrainConfig(epochs=1))


def train_set_params():
    return ProblemParams(problem=Problem.DIFF, resolution=16, t_final=1.0,
                         n_steps=100, n_snapshots=10)


class TestLossValue:
    CFG_1D = OperatorConfig(channels=1, width=3, n_layers=1, modes_kept=2, ndim=1, seed=11)
    CFG_2D = OperatorConfig(channels=2, width=3, n_layers=2, modes_kept=2, ndim=2, seed=12)

    def test_mae_matches_direct_formula(self):
        rng = np.random.default_rng(21)
        model = init_model(self.CFG_2D)
        x = rng.normal(size=(3, 2, 6, 6))
        t = rng.normal(size=(3, 2, 6, 6))
        pred = forward_values(model, fold_weights(model), x)
        value, _ = loss_and_grad(model, x, t, loss="mae", mask=None)
        assert np.isclose(value, np.abs(pred - t).mean(), rtol=1e-14)
        value, _ = loss_and_grad(model, x, t, loss="mse", mask=None)
        assert np.isclose(value, ((pred - t) ** 2).mean(), rtol=1e-14)

    def test_correction_pins_prediction_means(self):
        rng = np.random.default_rng(22)
        model = init_model(self.CFG_2D)
        x = rng.normal(size=(3, 2, 6, 6))
        t = rng.normal(size=(3, 2, 6, 6))
        mask = ConservationMask((True, False))
        pred = forward_values(model, fold_weights(model), x)
        shift = x.mean(axis=(2, 3))[:, 0] - pred.mean(axis=(2, 3))[:, 0]
        pred[:, 0] += shift[:, None, None]
        value, _ = loss_and_grad(model, x, t, loss="mse", mask=mask)
        assert np.isclose(value, ((pred - t) ** 2).mean(), rtol=1e-13)

    def test_unknown_loss_and_mask_mismatch(self):
        model = OperatorModel(self.CFG_1D, np.zeros(n_params(self.CFG_1D)))
        x = np.zeros((1, 1, 8))
        with pytest.raises(ValueError, match="mae"):
            loss_and_grad(model, x, x, loss="huber", mask=None)
        with pytest.raises(ValueError, match="mask covers"):
            loss_and_grad(model, x, x, loss="mae", mask=ConservationMask((True, True)))

    def test_non_finite_prediction_reported_with_index(self):
        model = init_model(self.CFG_1D)
        model.params[0] = np.nan
        x = np.ones((2, 1, 8))
        with pytest.raises(RuntimeError, match="batch index 0"):
            loss_and_grad(model, x, x, loss="mae", mask=None)


class TestPinnedBytes:
    """A refactor of the loss or the loop keeps every bit.

    The sha256 values were re-recorded when the GELU took its logistic form, which moves bits at rounding
    level; ``test_anchor.py`` bounds how far such a move goes.
    """

    # two blocks of width 8 keeping 4 modes per axis at 16^2; two channels, batch 3
    GRAD_CFG = OperatorConfig(channels=2, width=8, n_layers=2, modes_kept=4, ndim=2, seed=21)

    @pytest.mark.parametrize("loss, mask, digest", [
        ("mse", ConservationMask((True, False)), "64f17db58759168d98dc23d4e9179e41f379a5eeaa2b8bfc1510a3142e6bf3c3"),
        ("mae", None, "73de48e30a38478f0d63d4c78b4a01a9f90d2cb0edd5f90b48c7036f8fc1d6c6"),
    ], ids=["mse-masked", "mae"])
    def test_gradient_bytes_are_pinned(self, loss, mask, digest):
        inputs, targets = np.random.default_rng(2025).normal(1.0, 0.5, size=(2, 3, 2, 16, 16))
        _, grads = loss_and_grad(init_model(self.GRAD_CFG), inputs, targets, loss=loss, mask=mask)
        assert hashlib.sha256(grads.tobytes()).hexdigest() == digest

    def test_trained_parameter_bytes_are_pinned(self, sets):
        train_set, valid_set = sets
        result = train(train_set, valid_set, MODEL_CFG, TrainConfig(mode="integrated", epochs=2, eval_every=2))
        assert hashlib.sha256(result.model.params.tobytes()).hexdigest() == (
            "a0d58aeb64d6bd57eccf7f04349f5b15aa38db40939896eb63678de013640083")


class TestIntegratedShiftFixture:
    def test_correction_absorbs_uniform_output_bias(self):
        # identity backbone plus a constant output bias: raw loss equals the
        # bias, while the in-graph correction cancels it outright, with no
        # optimization steps at all
        cfg = OperatorConfig(channels=1, width=4, n_layers=1, modes_kept=2, ndim=2)
        model = constant_identity_model(cfg)
        _views(model.params, cfg)["proj.bias"][...] = np.array([0.25])
        state = np.full((3, 1, 16, 16), 1.3)
        raw, _ = loss_and_grad(model, state, state, loss="mae", mask=None)
        assert np.isclose(raw, 0.25, rtol=1e-12)
        corrected, _ = loss_and_grad(model, state, state, loss="mae",
                                     mask=ConservationMask((True,)))
        assert corrected < 1e-6


def stacked_rollout(step, traj, variant, mask):
    """The whole-split form of a rollout's scores: the predicted frames are
    stored, pinned in one call with broadcast targets after the raw loop, and
    scored in one ``step_metrics`` call over the (samples * steps, ...) stack."""
    n_samples, n_steps = traj.shape[0], traj.shape[1] - 1
    targets = traj[:, 0].mean(axis=tuple(range(2, traj.ndim - 1)))
    frames = np.empty((n_samples, n_steps, *traj.shape[2:]))
    state = traj[:, 0]
    for k in range(n_steps):
        state = step(state)
        if variant is Variant.INTEGRATED:
            state = pin_channel_means(state, targets, mask.flags)
        frames[:, k] = state
    if variant is Variant.STAGED:
        frames = pin_channel_means(frames, np.broadcast_to(targets[:, None], frames.shape[:3]), mask.flags)
    stacked = (n_samples * n_steps, *traj.shape[2:])
    rmse, cons = step_metrics(frames.reshape(stacked), traj[:, 1:].reshape(stacked), mask)
    return rmse.reshape(n_samples, n_steps), cons.reshape(n_samples, n_steps)


def recording(step):
    """``step`` that keeps a copy of every state it is fed in its ``fed`` list."""
    def record(v):
        record.fed.append(np.array(v))
        return step(v)
    record.fed = []
    return record


class TestRollout:
    def test_single_frame_trajectory_is_empty(self):
        result = rollout(lambda v: v, np.ones((1, 1, 1, 8, 8)), Variant.BASE, ConservationMask((True,)))
        assert isinstance(result, RolloutResult)
        assert result.rmse.shape == result.cons_err.shape == (1, 0)
        assert np.isnan(result.mean_rmse)

    def test_perfect_step_oracle_scores_zero(self):
        rng = np.random.default_rng(3)
        traj = rng.normal(size=(6, 1, 8, 8)) + 2.0
        truth_frames = iter(traj[1:, None])
        result = rollout(lambda v: next(truth_frames), traj[None], Variant.BASE, ConservationMask((True,)))
        assert result.rmse.max() == 0.0
        # frames drift in mean relative to frame 0, so cons_err is not zero here
        assert result.rmse.shape == result.cons_err.shape == (1, 5)

    def test_feedback_pins_every_state(self):
        traj = np.full((6, 1, 8, 8), 1.3)
        biased = lambda v: v + 0.01
        mask = ConservationMask((True,))
        off = rollout(biased, traj[None], variant=Variant.BASE, mask=mask)
        expected_drift = 0.01 * np.arange(1, 6) / 1.3
        np.testing.assert_allclose(off.cons_err[0], expected_drift, rtol=1e-12)
        biased = recording(biased)
        fed = rollout(biased, traj[None], variant=Variant.INTEGRATED, mask=mask)
        # the shift-based pin is exact up to one rounding of the mean
        assert fed.cons_err.max() < 1e-13
        # frame 0, then each step's pinned state
        assert len(biased.fed) == 5
        np.testing.assert_allclose(np.concatenate(biased.fed), traj[:-1], atol=1e-14)

    def test_post_hoc_scores_the_pinned_base_states(self):
        rng = np.random.default_rng(4)
        traj = rng.normal(size=(3, 5, 2, 8, 8)) + 1.5
        mask = ConservationMask((True, True))
        step = lambda v: 0.9 * v + 0.01
        off, post = recording(step), recording(step)
        rollout(off, traj, variant=Variant.BASE, mask=mask)
        result = rollout(post, traj, variant=Variant.STAGED, mask=mask)
        # staged feeds the raw states forward, as base does
        assert np.array_equal(np.stack(post.fed), np.stack(off.fed))
        raw = off.fed[1:] + [step(off.fed[-1])]  # each step's prediction
        target = traj[:, 0].mean(axis=(2, 3))
        for k, state in enumerate(raw):
            rmse, cons = step_metrics(pin_channel_means(state, target, mask.flags), traj[:, k + 1], mask)
            assert result.rmse[:, k].tobytes() == rmse.tobytes()
            assert result.cons_err[:, k].tobytes() == cons.tobytes()

    def test_feedback_and_post_hoc_differ_through_nonlinearity(self):
        rng = np.random.default_rng(11)
        traj = rng.normal(1.5, 0.2, size=(4, 1, 8, 8))
        traj += 1.5 - traj.mean(axis=(1, 2, 3), keepdims=True)  # conserving truth
        step = lambda v: v**2 + 0.05
        mask = ConservationMask((True,))
        fed = rollout(step, traj[None], variant=Variant.INTEGRATED, mask=mask)
        post = rollout(step, traj[None], variant=Variant.STAGED, mask=mask)
        assert not np.allclose(fed.rmse, post.rmse)
        # both end pinned to the initial mean, up to rounding of the shift
        assert fed.cons_err.max() < 1e-13
        assert post.cons_err.max() < 1e-13

    def test_variant_value_rolls_as_its_member(self):
        traj = np.random.default_rng(12).normal(1.5, 0.2, size=(1, 4, 1, 8, 8))
        step = lambda v: v**2 + 0.05
        mask = ConservationMask((True,))
        named = rollout(step, traj, "integrated", mask)
        member = rollout(step, traj, Variant.INTEGRATED, mask)
        assert named.rmse.tobytes() == member.rmse.tobytes()
        assert named.cons_err.tobytes() == member.cons_err.tobytes()
        with pytest.raises(ValueError, match="post_hoc"):
            rollout(step, traj, "post_hoc", mask)

    def test_mask_channel_mismatch_rejected(self):
        mask = ConservationMask((True, True))
        for mode in Variant:
            with pytest.raises(ValueError, match="mask covers 2 channels"):
                rollout(lambda v: v + 0.1, np.ones((1, 3, 1, 8, 8)), variant=mode, mask=mask)

    def test_deep_negative_pre_activations_raise_no_warning(self):
        # inputs of amplitude 20 drive the untrained default operator's pre-activations past -25,
        # where the GELU's exp overflows to inf and its value is -0.0
        model = init_model(OperatorConfig())
        traj = np.random.default_rng(0).normal(0.0, 20.0, size=(2, 4, 1, 32, 32))
        tape = {}
        _forward_batch(model, fold_weights(model), traj[:, 0], tape)
        assert all(tape[f"block{i}"][2].min() < -25.0 for i in range(model.config.n_layers))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = rollout(model, traj, Variant.INTEGRATED, ConservationMask((True,)))
        assert np.all(np.isfinite(result.rmse))

    def test_non_finite_state_aborts_with_step(self):
        calls = {"n": 0}

        def step(v):
            calls["n"] += 1
            return np.full_like(v, np.nan) if calls["n"] == 2 else v

        with pytest.raises(RuntimeError, match="step 2"):
            rollout(step, np.ones((1, 5, 1, 8, 8)), Variant.BASE, ConservationMask((True,)))

    def test_non_finite_state_names_the_sample(self):
        def step(v):
            v = v + 0.0
            if step.calls == 2:
                v[2] = np.inf
            step.calls += 1
            return v
        step.calls = 0

        with pytest.raises(RuntimeError, match="sample 2 at step 3"):
            rollout(step, np.ones((3, 5, 1, 8, 8)), Variant.BASE, ConservationMask((True,)))

    @pytest.mark.parametrize("mode", list(Variant))
    def test_batched_rows_equal_single_sample_rollouts(self, sets, mode):
        _, valid_set = sets
        trajectories = np.concatenate([valid_set.data, valid_set.data[::-1] * 1.5])
        model = init_model(MODEL_CFG)
        batched = rollout(model, trajectories, variant=mode, mask=valid_set.mask)
        for i, traj in enumerate(trajectories):
            single = rollout(model, traj[None], variant=mode, mask=valid_set.mask)
            assert batched.rmse[i].tobytes() == single.rmse[0].tobytes()
            assert batched.cons_err[i].tobytes() == single.cons_err[0].tobytes()

    def test_zero_integral_channel_reports_nan(self):
        traj = np.zeros((1, 3, 1, 8, 8))
        result = rollout(lambda v: v, traj, Variant.BASE, ConservationMask((True,)))
        assert np.isnan(result.cons_err).all()
        assert result.rmse.max() == 0.0

    @pytest.mark.parametrize("mode", list(Variant))
    @pytest.mark.parametrize("shape, flags", [((6, 12, 2, 16, 16), (True, False)),
                                              ((5, 21, 3, 21), (True, False, True))])
    def test_equals_stacked_reference_bit_for_bit(self, mode, shape, flags):
        rng = np.random.default_rng(8)
        traj = rng.normal(1.0, 0.3, size=shape)
        traj[1][:, np.flatnonzero(flags)] = 0.0  # a zero conserved integral: NaN rows
        mask = ConservationMask(flags)
        step = lambda v: 0.9 * v + 0.05 * np.tanh(np.roll(v, 1, axis=-1)) + 0.01
        rmse, cons = stacked_rollout(step, traj, mode, mask)
        result = rollout(step, traj, variant=mode, mask=mask)
        assert np.isnan(cons[1]).all() and not np.isnan(cons[0]).any()
        assert result.rmse.tobytes() == rmse.tobytes()
        assert result.cons_err.tobytes() == cons.tobytes()

    @pytest.mark.parametrize("mode", list(Variant))
    def test_peak_memory_holds_one_step_whatever_the_frame_count(self, mode):
        rng = np.random.default_rng(9)
        peaks = {}
        for n_frames in (5, 17):
            traj = rng.normal(1.0, 0.2, size=(8, n_frames, 1, 32, 32))
            tracemalloc.start()
            try:
                rollout(lambda v: 0.9 * v + 0.1, traj, variant=mode, mask=ConservationMask((True,)))
                peaks[n_frames] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        state = traj[:, 0].nbytes
        # a prediction, its pin and the metrics' temporaries; stored predictions would add 16 states at 17 frames
        assert peaks[17] < 6 * state
        assert peaks[17] < peaks[5] + state / 4


class TestFoldPerRollout:
    """A rollout reads the fold of the parameters the model holds when it starts."""

    def test_rollout_after_in_place_step_reads_the_new_parameters(self, sets):
        train_set, valid_set = sets
        model = init_model(MODEL_CFG)
        before = rollout(model, valid_set.data, Variant.BASE, valid_set.mask)
        _, grads = loss_and_grad(model, train_set.data[:, 0], train_set.data[:, 1], loss="mae", mask=None)
        adamw_step(model.params, grads, init_optimizer(model.params, lr=1e-2, weight_decay=1e-4))
        after = rollout(model, valid_set.data, Variant.BASE, valid_set.mask)
        fresh = rollout(OperatorModel(MODEL_CFG, model.params.copy()), valid_set.data, Variant.BASE, valid_set.mask)
        assert after.rmse.tobytes() == fresh.rmse.tobytes()
        assert after.rmse.tobytes() != before.rmse.tobytes()

    @pytest.mark.parametrize("mode", list(Variant))
    def test_model_rolls_out_as_its_folded_forward(self, sets, mode):
        _, valid_set = sets
        model = init_model(replace(MODEL_CFG, n_layers=2))
        result = rollout(model, valid_set.data, variant=mode, mask=valid_set.mask)
        step = rollout(lambda v: forward_values(model, fold_weights(model), v), valid_set.data,
                       variant=mode, mask=valid_set.mask)
        assert result.rmse.tobytes() == step.rmse.tobytes()
        assert result.cons_err.tobytes() == step.cons_err.tobytes()
