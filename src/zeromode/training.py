"""Training in two modes and autoregressive rollout in three variants.

Training modes (:data:`MODES`) say whether the zero-mode correction acts in training:

* ``base``       - plain next-step regression, validated by ``base`` rollouts.
* ``integrated`` - each prediction is pinned to its input's conserved integral
  before the loss; validated by ``integrated`` rollouts.

Rollout variants (:class:`Variant`) say where it acts at test time:

* ``base``       - each state is scored and fed forward uncorrected.
* ``integrated`` - each state is pinned, scored and fed forward pinned.
* ``staged``     - each state is pinned and scored, and fed forward raw: the
  variant of a ``base``-trained model.

The correction is exterior to the operator: :mod:`model` knows no
conservation law, and this module alone applies the pin
(:func:`correction.pin_channel_means`) and its adjoint
(:func:`correction.project_out_means`).  :func:`loss_and_grad` encodes
each input's channel means, pins the prediction to them before the loss
and projects the loss gradient before the operator's pullback;
:func:`rollout` pins each step's states.

Determinism contract: everything downstream of (dataset, configs) is
reproducible, including the training log and the final parameters; the
seed is the model config's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .correction import ConservationMask, Variant, pin_channel_means, project_out_means
from .datasets import TrajectoryDataset
from .metrics import step_metrics
from .model import OperatorConfig, OperatorModel, fold_weights, forward_values, init_model, vjp
from .optim import adamw_step, init_optimizer

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "sample_training_pairs",
    "loss_and_grad",
    "TrainResult",
    "train",
    "RolloutResult",
    "rollout",
]

#: training losses :func:`loss_and_grad` accepts
LOSSES = ("mae", "mse")
#: training modes :class:`TrainConfig` accepts, each the value of the :class:`Variant` that validates it
MODES = ("base", "integrated")


def _check_loss(loss: str) -> None:
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}, expected one of {LOSSES}")


class TrainingDiverged(RuntimeError):
    """The loss or the gradient (``quantity``) of one batch (1-based, like ``epoch``) became non-finite."""

    def __init__(self, epoch: int, batch: int, quantity: str):
        self.epoch, self.batch, self.quantity = epoch, batch, quantity
        super().__init__(f"training {quantity} became non-finite at epoch {epoch}, batch {batch}")


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "base"
    epochs: int = 200
    batch_size: int = 5
    lr: float = 1e-3
    weight_decay: float = 1e-4
    loss: str = "mae"
    eval_every: int = 50

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        _check_loss(self.loss)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be positive")
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


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


def loss_and_grad(
    model: OperatorModel,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: str,
    mask: ConservationMask | None,
):
    """Training loss (one of ``LOSSES``) and its exact gradient for one batch (B, channels, *spatial).

    Unless ``mask`` is None, each prediction's masked channels are pinned to its own input's means before the
    loss, and the pin's adjoint (module docstring) acts on the loss gradient before the operator's pullback.
    """
    _check_loss(loss)
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.shape != targets.shape:
        raise ValueError(f"input batch {inputs.shape} and target batch {targets.shape} disagree")

    pred, pullback = vjp(model, inputs)
    spatial = tuple(range(2, pred.ndim))
    finite = np.isfinite(pred).all(axis=(1, *spatial))
    if not finite.all():
        raise RuntimeError(f"non-finite prediction for batch index {int(np.flatnonzero(~finite)[0])}")

    if mask is not None:
        pred = pin_channel_means(pred, inputs.mean(axis=spatial), mask.flags)

    residual = pred - targets
    if loss == "mae":
        value = float(np.abs(residual).mean())
        grad_pred = np.sign(residual) / residual.size
    else:
        value = float((residual**2).mean())
        grad_pred = 2.0 * residual / residual.size
    if not np.isfinite(value):
        raise RuntimeError("loss is non-finite")

    if mask is not None:
        grad_pred = project_out_means(grad_pred, mask.flags, lead_ndim=1)

    return value, pullback(grad_pred)


@dataclass
class TrainResult:
    """The best model and its deterministic log, plus wall clock kept out of the log.

    ``validation_seconds`` sums the validation rollouts.  ``epoch_seconds``
    holds each epoch's training steps, validation excluded, and
    ``pairs_per_s`` the training pairs each epoch took per second of them.
    """

    model: OperatorModel
    log: list[dict]
    best_epoch: int
    best_val_rmse: float
    validation_seconds: float
    epoch_seconds: list[float]
    pairs_per_s: list[float]


def train(
    train_set: TrajectoryDataset,
    valid_set: TrajectoryDataset,
    model_config: OperatorConfig,
    config: TrainConfig,
) -> TrainResult:
    """Optimize one model on next-step pairs; keep the best validation epoch.

    Both splits must fit the operator (:meth:`OperatorConfig.check_fit`).
    ``model_config.seed`` seeds both the initial parameters and the pair
    sampling.  ``config.mode`` names the :class:`Variant` that both pins
    in the loss (``integrated`` only) and validates: every ``eval_every``
    epochs (and at the end), a full rollout over the validation split.  The
    checkpoint with the lowest mean validation RMSE is returned, earliest
    epoch winning ties.
    """
    for split in (train_set, valid_set):
        model_config.check_fit(split.data.shape[2:])
    model = init_model(model_config)
    opt = init_optimizer(model.params, lr=config.lr, weight_decay=config.weight_decay)
    variant = Variant(config.mode)
    mask = train_set.mask if variant is Variant.INTEGRATED else None
    n_batches = max(1, -(-train_set.n_samples // config.batch_size))

    log: list[dict] = []
    best_epoch = 0
    best_val = np.inf
    best_params = model.params.copy()
    validation_seconds = 0.0
    epoch_seconds: list[float] = []

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        batches = sample_training_pairs(train_set, model_config.seed, epoch, config.batch_size, n_batches)
        epoch_loss = 0.0
        for b, batch in enumerate(batches, start=1):
            s, t = batch[:, 0], batch[:, 1]
            inputs = train_set.data[s, t]
            targets = train_set.data[s, t + 1]
            try:
                value, grads = loss_and_grad(model, inputs, targets, loss=config.loss, mask=mask)
            except RuntimeError as exc:  # non-finite prediction or loss
                raise TrainingDiverged(epoch, b, "loss") from exc
            if not np.all(np.isfinite(grads)):
                raise TrainingDiverged(epoch, b, "gradient")
            adamw_step(model.params, grads, opt)
            del grads  # freed before the next backward makes its own
            epoch_loss += value
        epoch_seconds.append(time.perf_counter() - t0)
        record = {"epoch": epoch, "loss": epoch_loss / n_batches}

        if epoch % config.eval_every == 0 or epoch == config.epochs:
            result = rollout(model, valid_set.data, variant, valid_set.mask)
            validation_seconds += result.wall_clock
            record["val_rmse"] = val_rmse = result.mean_rmse
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
        validation_seconds=validation_seconds,
        epoch_seconds=epoch_seconds,
        pairs_per_s=[n_batches * config.batch_size / seconds for seconds in epoch_seconds],
    )


@dataclass
class RolloutResult:
    """Per-step scores of autoregressive predictions from the trajectories' first frames.

    ``rmse`` and ``cons_err`` (samples, steps) score each step's state,
    pinned unless the variant is BASE, with one :func:`metrics.step_metrics`
    call per step.  ``cons_err`` is the relative conservation error max'd
    over masked channels, under the zero-integral policy of the
    :mod:`metrics` module.
    """

    rmse: np.ndarray
    cons_err: np.ndarray
    wall_clock: float

    @property
    def mean_rmse(self) -> float:
        return float(self.rmse.mean(axis=1).mean()) if self.rmse.shape[1] else float("nan")


def rollout(model, trajectories: np.ndarray, variant: Variant, mask: ConservationMask) -> RolloutResult:
    """Roll the operator forward from frame 0 of each trajectory (samples, frames, channels, *spatial).

    ``model`` is an :class:`OperatorModel`, whose weights are folded once
    for the whole rollout, or any callable mapping states (samples,
    channels, *spatial) to the next states (handy for fixtures);
    ``variant`` is a :class:`Variant` or its value, and ``mask`` names
    the conserved channels that are pinned and scored.
    Each sample's conserved target for both correcting variants is encoded
    once, from its initial frame, and its rows equal a rollout of it alone.
    Each step predicts the next states, checks them, pins them once to
    those targets unless the variant is BASE, and scores the pinned states;
    INTEGRATED feeds the pinned states forward and STAGED the raw ones, so
    a rollout holds one step's states.  A single frame yields an empty
    result; a non-finite state raises RuntimeError naming the first sample
    at fault and the step.
    """
    t0 = time.perf_counter()
    variant = Variant(variant)  # a member or its value
    traj = np.asarray(trajectories, dtype=np.float64)
    if traj.ndim < 4:
        raise ValueError(f"trajectories must be (samples, frames, channels, *spatial), got {traj.shape}")

    folded = None if callable(model) else fold_weights(model)
    step = model if folded is None else (lambda v: forward_values(model, folded, v))
    n_samples, n_steps = traj.shape[0], traj.shape[1] - 1
    target_means = traj[:, 0].mean(axis=tuple(range(2, traj.ndim - 1)))

    rmse, cons = np.empty((n_samples, n_steps)), np.empty((n_samples, n_steps))
    state = traj[:, 0]
    for k in range(n_steps):
        state = np.asarray(step(state), dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(state).reshape(n_samples, -1).all(axis=1))
        if bad.size:
            raise RuntimeError(f"rollout produced a non-finite state: sample {bad[0]} at step {k + 1}")
        scored = state if variant is Variant.BASE else pin_channel_means(state, target_means, mask.flags)
        if variant is Variant.INTEGRATED:
            state = scored
        rmse[:, k], cons[:, k] = step_metrics(scored, traj[:, k + 1], mask)
    return RolloutResult(rmse, cons, time.perf_counter() - t0)
