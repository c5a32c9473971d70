"""Training paradigms and autoregressive rollout.

Three training modes share one optimization loop:

* ``baseline``   - plain next-step regression.
* ``integrated`` - the zero-mode correction sits inside the training
  graph (each prediction is pinned to its input's conserved integral
  before the loss) and rollouts feed corrected states forward.
* ``staged``     - training and validation are bit-identical to baseline;
  the correction only acts at test time, applied to each predicted frame
  without feeding back.

Determinism contract: everything downstream of (dataset, configs, seed)
is reproducible, including the training log and the final parameters.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from .correction import ConservationMask, pin_channel_means
from .datasets import TrajectoryDataset
from .metrics import step_metrics
from .model import OperatorConfig, OperatorModel, forward_values, init_model, loss_and_grad
from .optim import adamw_step, init_optimizer

__all__ = [
    "TrainMode",
    "CorrectionMode",
    "TrainConfig",
    "TrainingDiverged",
    "sample_training_pairs",
    "TrainResult",
    "train",
    "RolloutResult",
    "rollout",
]

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


class TrainMode(enum.Enum):
    BASELINE = "baseline"
    INTEGRATED = "integrated"
    STAGED = "staged"


class CorrectionMode(enum.Enum):
    """How rollout handles the zero mode of each predicted frame."""

    OFF = "off"
    #: correct every prediction and feed the corrected state forward
    FEEDBACK = "feedback"
    #: correct every stored frame after the raw rollout, no feedback
    POST_HOC = "post_hoc"


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training loss became non-finite at epoch {epoch}")


@dataclass(frozen=True)
class TrainConfig:
    mode: TrainMode = TrainMode.BASELINE
    epochs: int = 200
    batch_size: int = 5
    lr: float = 1e-3
    weight_decay: float = 1e-4
    loss: str = "mae"
    eval_every: int = 50
    seeds: tuple[int, ...] = DEFAULT_SEEDS

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be positive")


def sample_training_pairs(
    dataset: TrajectoryDataset, seed: int, epoch: int, batch_size: int, n_batches: int
) -> np.ndarray:
    """Uniform random (sample, t) indices of adjacent-frame pairs.

    Deterministic in (seed, epoch).  Returns shape (n_batches, batch_size, 2)
    where the second index t addresses the pair (frame t, frame t+1).
    """
    if dataset.n_snapshots < 2:
        raise ValueError("dataset has no adjacent frame pairs")
    rng = np.random.default_rng([seed, epoch])
    samples = rng.integers(0, dataset.n_samples, size=(n_batches, batch_size))
    times = rng.integers(0, dataset.n_snapshots - 1, size=(n_batches, batch_size))
    return np.stack([samples, times], axis=-1)


def rollout_correction_for(mode: TrainMode) -> CorrectionMode:
    """Validation-time correction implied by a training mode."""
    return CorrectionMode.FEEDBACK if mode is TrainMode.INTEGRATED else CorrectionMode.OFF


@dataclass
class TrainResult:
    model: OperatorModel
    log: list[dict]
    best_epoch: int
    best_val_rmse: float


def train(
    train_set: TrajectoryDataset,
    valid_set: TrajectoryDataset,
    model_config: OperatorConfig,
    config: TrainConfig,
    seed: int,
) -> TrainResult:
    """Optimize one model on next-step pairs; keep the best validation epoch.

    Validation runs every ``eval_every`` epochs (and at the end) as a full
    rollout over the validation split, with the correction mode implied by
    the training mode: integrated models validate with feedback
    correction, baseline and staged models without any.  The checkpoint
    with the lowest mean validation RMSE is returned, earliest epoch
    winning ties, so staged training is bit-identical to baseline.
    """
    if model_config.channels != train_set.channels:
        raise ValueError(f"model expects {model_config.channels} channels, dataset has {train_set.channels}")
    model = init_model(OperatorConfig(**{**model_config.to_dict(), "seed": seed}))
    opt = init_optimizer(model, lr=config.lr, weight_decay=config.weight_decay)
    mask = train_set.mask if config.mode is TrainMode.INTEGRATED else None
    n_batches = max(1, -(-train_set.n_samples // config.batch_size))
    val_mode = rollout_correction_for(config.mode)

    log: list[dict] = []
    best_epoch = 0
    best_val = np.inf
    best_params = model.params.copy()

    for epoch in range(1, config.epochs + 1):
        batches = sample_training_pairs(train_set, seed, epoch, config.batch_size, n_batches)
        epoch_loss = 0.0
        for batch in batches:
            s, t = batch[:, 0], batch[:, 1]
            inputs = train_set.data[s, t]
            targets = train_set.data[s, t + 1]
            try:
                value, grads = loss_and_grad(model, inputs, targets, loss=config.loss, mask=mask)
            except RuntimeError as exc:  # non-finite prediction or loss
                raise TrainingDiverged(epoch) from exc
            if not np.all(np.isfinite(grads)):
                raise TrainingDiverged(epoch)
            model, opt = adamw_step(model, grads, opt)
            epoch_loss += value
        record = {"epoch": epoch, "loss": epoch_loss / n_batches}

        if epoch % config.eval_every == 0 or epoch == config.epochs:
            rmses = [
                rollout(model, valid_set.data[i], correction=val_mode, mask=valid_set.mask).mean_rmse
                for i in range(valid_set.n_samples)
            ]
            val_rmse = float(np.mean(rmses))
            record["val_rmse"] = val_rmse
            if val_rmse < best_val:
                best_val = val_rmse
                best_epoch = epoch
                best_params = model.params.copy()
        log.append(record)

    return TrainResult(
        model=OperatorModel(model.config, best_params),
        log=log,
        best_epoch=best_epoch,
        best_val_rmse=float(best_val),
    )


@dataclass
class RolloutResult:
    """Autoregressive prediction of a trajectory from its first frame.

    ``frames`` holds the n_snapshots - 1 predicted states; the metric
    series run parallel to it and come from :func:`metrics.step_metrics`.
    ``cons_err`` is the relative conservation error max'd over masked
    channels, under the zero-integral policy of the :mod:`metrics` module.
    """

    frames: np.ndarray
    rmse: np.ndarray
    cons_err: np.ndarray
    wall_clock: float

    @property
    def n_steps(self) -> int:
        return self.frames.shape[0]

    @property
    def mean_rmse(self) -> float:
        return float(self.rmse.mean()) if self.n_steps else float("nan")


def rollout(
    model,
    trajectory: np.ndarray,
    correction: CorrectionMode = CorrectionMode.OFF,
    mask: ConservationMask | None = None,
) -> RolloutResult:
    """Roll the operator forward from frame 0 of a reference trajectory.

    ``model`` is an :class:`OperatorModel` or any callable mapping a state
    array (channels, *spatial) to the next state (handy for fixtures).
    The conserved target for both correcting modes is encoded once, from
    the initial frame.  A trajectory with a single frame yields an empty
    result.
    """
    t0 = time.perf_counter()
    traj = np.asarray(trajectory, dtype=np.float64)
    if traj.ndim < 3:
        raise ValueError(f"trajectory must be (frames, channels, *spatial), got {traj.shape}")
    if correction is not CorrectionMode.OFF and mask is None:
        raise ValueError("correcting rollouts need a conservation mask")

    step = model if callable(model) else (lambda v: forward_values(model, v))
    n_steps = traj.shape[0] - 1
    spatial = tuple(range(1, traj.ndim - 1))
    target_means = traj[0].mean(axis=spatial)

    frames = np.empty((n_steps, *traj.shape[1:]))
    state = traj[0]
    for k in range(n_steps):
        state = np.asarray(step(state), dtype=np.float64)
        if not np.all(np.isfinite(state)):
            raise RuntimeError(f"rollout produced a non-finite state at step {k + 1}")
        if correction is CorrectionMode.FEEDBACK:
            state = pin_channel_means(state, target_means, mask.flags)
        frames[k] = state
    if correction is CorrectionMode.POST_HOC:
        frames = pin_channel_means(frames, np.broadcast_to(target_means, frames.shape[:2]), mask.flags)

    rmse, cons = step_metrics(frames, traj[1:], mask)
    return RolloutResult(frames=frames, rmse=rmse, cons_err=cons, wall_clock=time.perf_counter() - t0)
