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

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = ["OptimState", "init_optimizer", "adamw_step"]

# A step runs over tiles of this many float64 elements (64 KiB): its scratch
# tiles stay below the allocator's mmap threshold and in cache, so a step
# faults in no fresh memory.
_TILE = 8192


@dataclass
class OptimState:
    m: np.ndarray
    v: np.ndarray
    lr: float
    weight_decay: float
    step: int = 0

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8


def init_optimizer(params: np.ndarray, lr: float, weight_decay: float) -> OptimState:
    return OptimState(m=np.zeros(params.size), v=np.zeros(params.size), lr=lr, weight_decay=weight_decay)


def adamw_step(params: np.ndarray, grads: np.ndarray, state: OptimState) -> None:
    """One update, written into ``params``, ``state.m`` and ``state.v``; ``grads`` is left untouched."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match parameters {params.shape}")

    # Tile by tile, each line updates in place or computes into one of two
    # scratch tiles, in the operation order of the update rule above, so the
    # result rounds exactly as the formula does.  The decay term reads the
    # parameters before the step, so it is formed before they change.
    t = state.step + 1
    scratch, update = np.empty(_TILE), np.empty(_TILE)
    for start in range(0, params.size, _TILE):
        tile = slice(start, start + _TILE)
        p, g, m, v = params[tile], grads[tile], state.m[tile], state.v[tile]
        s, u = scratch[: p.size], update[: p.size]
        np.multiply(1.0 - state.beta1, g, out=s)
        m *= state.beta1
        m += s
        np.square(g, out=s)
        s *= 1.0 - state.beta2
        v *= state.beta2
        v += s
        np.divide(v, 1.0 - state.beta2**t, out=s)  # vhat
        np.sqrt(s, out=s)
        s += state.eps
        np.divide(m, 1.0 - state.beta1**t, out=u)  # mhat
        u *= state.lr
        u /= s
        np.multiply(state.lr * state.weight_decay, p, out=s)  # decay
        p -= u
        p -= s
    state.step = t
