"""AdamW with decoupled weight decay, on flat parameter vectors.

Update rule, applied elementwise at step t:

    m_t = beta1 * m_{t-1} + (1 - beta1) * g
    v_t = beta2 * v_{t-1} + (1 - beta2) * g^2
    mhat = m_t / (1 - beta1^t),   vhat = v_t / (1 - beta2^t)
    theta <- theta - lr * mhat / (sqrt(vhat) + eps) - lr * weight_decay * theta

The decay term multiplies the raw parameters, not the gradient, so with a
zero gradient the parameters shrink by exactly (1 - lr * weight_decay).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .model import OperatorModel

__all__ = ["OptimState", "init_optimizer", "adamw_step"]


@dataclass(frozen=True)
class OptimState:
    m: np.ndarray
    v: np.ndarray
    lr: float
    weight_decay: float
    step: int = 0

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8


def init_optimizer(model: OperatorModel, lr: float, weight_decay: float) -> OptimState:
    n = model.params.size
    return OptimState(m=np.zeros(n), v=np.zeros(n), lr=lr, weight_decay=weight_decay)


def adamw_step(model: OperatorModel, grads: np.ndarray, state: OptimState):
    """One update; returns a fresh (model, state) pair, inputs untouched."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != model.params.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match parameters {model.params.shape}")

    # Each line computes into the three fresh outputs or one scratch vector,
    # in the operation order of the update rule above, so no full-size
    # temporary is made and the result rounds exactly as the formula does.
    t = state.step + 1
    scratch = np.multiply(1.0 - state.beta1, grads)
    m = np.multiply(state.beta1, state.m)
    m += scratch
    np.square(grads, out=scratch)
    scratch *= 1.0 - state.beta2
    v = np.multiply(state.beta2, state.v)
    v += scratch
    denom = np.divide(v, 1.0 - state.beta2**t, out=scratch)  # vhat
    np.sqrt(denom, out=denom)
    denom += state.eps
    params = np.divide(m, 1.0 - state.beta1**t)  # mhat
    params *= state.lr
    params /= denom
    np.subtract(model.params, params, out=params)
    params -= np.multiply(state.lr * state.weight_decay, model.params, out=scratch)
    return OperatorModel(model.config, params), replace(state, m=m, v=v, step=t)
