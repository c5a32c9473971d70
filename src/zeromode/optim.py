"""AdamW with decoupled weight decay, on flat parameter vectors.

Update rule, applied elementwise at step t:

    m_t = beta1 * m_{t-1} + (1 - beta1) * g
    v_t = beta2 * v_{t-1} + (1 - beta2) * g^2
    mhat = m_t / (1 - beta1^t),   vhat = v_t / (1 - beta2^t)
    theta <- theta - lr * mhat / (sqrt(vhat) + eps) - lr * weight_decay * theta

It is computed with the bias corrections folded into two scalars, so an
entry costs one divide and one square root:

    s = sqrt(v_t) * (1 / sqrt(1 - beta2^t)) + eps
    theta <- theta * (1 - lr * weight_decay) - (lr / (1 - beta1^t)) * (m_t / s)

This is the rule above with eps in the same place (added to sqrt(vhat), not
to sqrt(v_t) as in Kingma & Ba's eps-hat form); it rounds differently, at
the level of a few ulps.  The decay term multiplies the raw parameters, not
the gradient, so with a zero gradient the parameters are multiplied by
exactly (1 - lr * weight_decay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = ["OptimState", "init_optimizer", "adamw_step"]

# A step runs over tiles of this many float64 elements (256 KiB).  Each tile
# costs 14 numpy calls whatever its size, so the default operator's 231k
# parameters take 8 tiles, not the 29 of 8,192-element tiles; the five
# operands of a tile (four vectors, one scratch tile) are 1.25 MiB, inside a
# 2 MiB L2.  The scratch tile is made once per state, so a step allocates
# no array.
_TILE = 32768


@dataclass
class OptimState:
    m: np.ndarray
    v: np.ndarray
    lr: float
    weight_decay: float
    step: int = 0
    #: the step's scratch tile of min(_TILE, size) elements; made once, reused by every step
    scratch: np.ndarray = field(init=False, repr=False)

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    def __post_init__(self) -> None:
        self.scratch = np.empty(min(_TILE, self.m.size))


def init_optimizer(params: np.ndarray, lr: float, weight_decay: float) -> OptimState:
    return OptimState(m=np.zeros(params.size), v=np.zeros(params.size), lr=lr, weight_decay=weight_decay)


def adamw_step(params: np.ndarray, grads: np.ndarray, state: OptimState) -> None:
    """One update, written into ``params``, ``state.m`` and ``state.v``; ``grads`` is left untouched."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match parameters {params.shape}")

    # Tile by tile, each line updates in place or computes into the scratch
    # tile, in the operation order of the computed form above, so the result
    # rounds exactly as that formula does.  A tile's views are dropped before
    # the next tile's are made, so a step allocates no more than one tile's
    # five views.
    t = state.step + 1
    root_correction = 1.0 / math.sqrt(1.0 - state.beta2**t)
    step_size = state.lr / (1.0 - state.beta1**t)
    decay = 1.0 - state.lr * state.weight_decay
    for start in range(0, params.size, _TILE):
        tile = slice(start, start + _TILE)
        p, g, m, v = params[tile], grads[tile], state.m[tile], state.v[tile]
        s = state.scratch[: p.size]
        np.multiply(1.0 - state.beta1, g, out=s)
        m *= state.beta1
        m += s
        np.square(g, out=s)
        s *= 1.0 - state.beta2
        v *= state.beta2
        v += s
        np.sqrt(v, out=s)
        s *= root_correction
        s += state.eps
        np.divide(m, s, out=s)
        s *= step_size
        p *= decay
        p -= s
        del p, g, m, v, s
    state.step = t
