"""Training loop determinism, mode semantics, and rollout correction behaviour."""

import numpy as np
import pytest

from zeromode.correction import ConservationMask, pin_channel_means
from zeromode.datasets import (
    DatasetConfig,
    Problem,
    ProblemParams,
    generate_dataset,
)
from zeromode.model import (
    OperatorConfig,
    constant_identity_model,
    init_model,
    loss_and_grad,
)
from zeromode.training import (
    CorrectionMode,
    RolloutResult,
    TrainConfig,
    TrainMode,
    TrainingDiverged,
    rollout,
    rollout_correction_for,
    sample_training_pairs,
    train,
)

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
        cfg = TrainConfig(mode=TrainMode.BASELINE, epochs=3, eval_every=2)
        a = train(train_set, valid_set, MODEL_CFG, cfg, seed=0)
        b = train(train_set, valid_set, MODEL_CFG, cfg, seed=0)
        assert a.model.params.tobytes() == b.model.params.tobytes()
        assert a.log == b.log
        assert a.best_epoch == b.best_epoch

    def test_staged_training_is_bit_identical_to_baseline(self, sets):
        train_set, valid_set = sets
        base = train(train_set, valid_set, MODEL_CFG,
                     TrainConfig(mode=TrainMode.BASELINE, epochs=3, eval_every=2), seed=1)
        staged = train(train_set, valid_set, MODEL_CFG,
                       TrainConfig(mode=TrainMode.STAGED, epochs=3, eval_every=2), seed=1)
        assert base.model.params.tobytes() == staged.model.params.tobytes()
        assert base.log == staged.log

    def test_integrated_training_differs(self, sets):
        train_set, valid_set = sets
        base = train(train_set, valid_set, MODEL_CFG,
                     TrainConfig(mode=TrainMode.BASELINE, epochs=2, eval_every=2), seed=1)
        integ = train(train_set, valid_set, MODEL_CFG,
                      TrainConfig(mode=TrainMode.INTEGRATED, epochs=2, eval_every=2), seed=1)
        assert base.model.params.tobytes() != integ.model.params.tobytes()

    def test_zero_lr_keeps_init_params(self, sets):
        train_set, valid_set = sets
        cfg = TrainConfig(mode=TrainMode.BASELINE, epochs=2, eval_every=1, lr=0.0, weight_decay=0.0)
        result = train(train_set, valid_set, MODEL_CFG, cfg, seed=9)
        reference = init_model(OperatorConfig(**{**MODEL_CFG.to_dict(), "seed": 9}))
        assert result.model.params.tobytes() == reference.params.tobytes()
        # constant validation score: ties resolve to the earliest epoch
        assert result.best_epoch == 1

    def test_validation_schedule_and_log(self, sets):
        train_set, valid_set = sets
        cfg = TrainConfig(mode=TrainMode.BASELINE, epochs=5, eval_every=2)
        result = train(train_set, valid_set, MODEL_CFG, cfg, seed=2)
        assert [r["epoch"] for r in result.log] == [1, 2, 3, 4, 5]
        assert [r["epoch"] for r in result.log if "val_rmse" in r] == [2, 4, 5]
        scored = [r["val_rmse"] for r in result.log if "val_rmse" in r]
        assert result.best_val_rmse == min(scored)

    def test_divergence_raises_with_epoch(self, sets):
        train_set, valid_set = sets
        huge = generate_dataset(DatasetConfig(params=train_set_params(), n_samples=2, master_seed=0))
        huge.data = huge.data * 1e160  # mse residuals overflow to inf
        cfg = TrainConfig(mode=TrainMode.BASELINE, epochs=2, eval_every=2, loss="mse")
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged) as err:
            train(huge, valid_set, MODEL_CFG, cfg, seed=0)
        assert err.value.epoch == 1

    def test_channel_mismatch_rejected(self, sets):
        train_set, valid_set = sets
        bad = OperatorConfig(channels=3, width=4, n_layers=1, modes_kept=2, ndim=2)
        with pytest.raises(ValueError, match="channels"):
            train(train_set, valid_set, bad, TrainConfig(epochs=1), seed=0)


def train_set_params():
    return ProblemParams(problem=Problem.DIFF, resolution=16, t_final=1.0,
                         n_steps=100, n_snapshots=10)


class TestIntegratedShiftFixture:
    def test_correction_absorbs_uniform_output_bias(self):
        # identity backbone plus a constant output bias: raw loss equals the
        # bias, while the in-graph correction cancels it outright, with no
        # optimization steps at all
        cfg = OperatorConfig(channels=1, width=4, n_layers=1, modes_kept=2, ndim=2)
        model = constant_identity_model(cfg)
        model.set_param("proj.bias", np.array([0.25]))
        state = np.full((3, 1, 16, 16), 1.3)
        raw, _ = loss_and_grad(model, state, state, loss="mae")
        assert np.isclose(raw, 0.25, rtol=1e-12)
        corrected, _ = loss_and_grad(model, state, state, loss="mae",
                                     mask=ConservationMask((True,)))
        assert corrected < 1e-6


class TestRollout:
    def test_mode_for_training_paradigm(self):
        assert rollout_correction_for(TrainMode.BASELINE) is CorrectionMode.OFF
        assert rollout_correction_for(TrainMode.STAGED) is CorrectionMode.OFF
        assert rollout_correction_for(TrainMode.INTEGRATED) is CorrectionMode.FEEDBACK

    def test_single_frame_trajectory_is_empty(self):
        result = rollout(lambda v: v, np.ones((1, 1, 8, 8)))
        assert isinstance(result, RolloutResult)
        assert result.n_steps == 0
        assert np.isnan(result.mean_rmse)

    def test_perfect_step_oracle_scores_zero(self):
        rng = np.random.default_rng(3)
        traj = rng.normal(size=(6, 1, 8, 8)) + 2.0
        truth_frames = iter(traj[1:])
        result = rollout(lambda v: next(truth_frames), traj)
        assert result.rmse.max() == 0.0
        # frames drift in mean relative to frame 0, so cons_err is not zero here
        assert result.frames.shape == (5, 1, 8, 8)

    def test_feedback_pins_every_state(self):
        traj = np.full((6, 1, 8, 8), 1.3)
        biased = lambda v: v + 0.01
        off = rollout(biased, traj, correction=CorrectionMode.OFF)
        expected_drift = 0.01 * np.arange(1, 6) / 1.3
        np.testing.assert_allclose(off.cons_err, expected_drift, rtol=1e-12)
        fed = rollout(biased, traj, correction=CorrectionMode.FEEDBACK,
                      mask=ConservationMask((True,)))
        # the shift-based pin is exact up to one rounding of the mean
        assert fed.cons_err.max() < 1e-13
        np.testing.assert_allclose(fed.frames, traj[1:], atol=1e-14)

    def test_post_hoc_equals_off_plus_per_frame_pinning(self):
        rng = np.random.default_rng(4)
        traj = rng.normal(size=(5, 2, 8, 8)) + 1.5
        model = init_model(OperatorConfig(channels=2, width=4, n_layers=1, modes_kept=2, ndim=2, seed=6))
        mask = ConservationMask((True, True))
        off = rollout(lambda v: 0.9 * v + 0.01, traj, correction=CorrectionMode.OFF)
        post = rollout(lambda v: 0.9 * v + 0.01, traj, correction=CorrectionMode.POST_HOC, mask=mask)
        target = traj[0].mean(axis=(1, 2))
        for k in range(off.n_steps):
            np.testing.assert_array_equal(post.frames[k],
                                          pin_channel_means(off.frames[k], target, mask.flags))
        del model

    def test_feedback_and_post_hoc_differ_through_nonlinearity(self):
        rng = np.random.default_rng(11)
        traj = rng.normal(1.5, 0.2, size=(4, 1, 8, 8))
        traj += 1.5 - traj.mean(axis=(1, 2, 3), keepdims=True)  # conserving truth
        step = lambda v: v**2 + 0.05
        mask = ConservationMask((True,))
        fed = rollout(step, traj, correction=CorrectionMode.FEEDBACK, mask=mask)
        post = rollout(step, traj, correction=CorrectionMode.POST_HOC, mask=mask)
        assert not np.allclose(fed.frames, post.frames)
        # both end pinned to the initial mean, up to rounding of the shift
        assert fed.cons_err.max() < 1e-13
        assert post.cons_err.max() < 1e-13

    def test_correction_requires_mask(self):
        with pytest.raises(ValueError, match="mask"):
            rollout(lambda v: v, np.ones((3, 1, 8, 8)), correction=CorrectionMode.FEEDBACK)

    def test_mask_channel_mismatch_rejected(self):
        mask = ConservationMask((True, True))
        for mode in CorrectionMode:
            with pytest.raises(ValueError, match="mask covers 2 channels"):
                rollout(lambda v: v + 0.1, np.ones((3, 1, 8, 8)), correction=mode, mask=mask)

    def test_non_finite_state_aborts_with_step(self):
        calls = {"n": 0}

        def step(v):
            calls["n"] += 1
            return np.full_like(v, np.nan) if calls["n"] == 2 else v

        with pytest.raises(RuntimeError, match="step 2"):
            rollout(step, np.ones((5, 1, 8, 8)))

    def test_zero_integral_channel_reports_nan(self):
        traj = np.zeros((3, 1, 8, 8))
        result = rollout(lambda v: v, traj)
        assert np.isnan(result.cons_err).all()
        assert result.rmse.max() == 0.0
