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

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = ["OptimState", "init_optimizer", "adamw_step"]

# A step runs over tiles of this many float64 elements (256 KiB).  Each tile
# costs 16 numpy calls whatever its size, so the default operator's 231k
# parameters take 8 tiles, not the 29 of 8,192-element tiles; the six
# operands of a tile (four vectors, two scratch tiles) are 1.5 MiB, inside a
# 2 MiB L2.  The scratch tiles are made once per state, so a step allocates
# no array.
_TILE = 32768


@dataclass
class OptimState:
    m: np.ndarray
    v: np.ndarray
    lr: float
    weight_decay: float
    step: int = 0
    #: the step's two scratch tiles of min(_TILE, size) elements; made once, reused by every step
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    def __post_init__(self) -> None:
        size = min(_TILE, self.m.size)
        self.scratch = (np.empty(size), np.empty(size))


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
    # parameters before the step, so it is formed before they change.  A
    # tile's views are dropped before the next tile's are made, so a step
    # allocates no more than one tile's six views.
    t = state.step + 1
    scratch, update = state.scratch
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
        del p, g, m, v, s, u
    state.step = t
