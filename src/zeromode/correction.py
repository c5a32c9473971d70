"""Zero-mode conservation correction.

For a periodic field the integral of each channel is carried entirely by
the zero-frequency DFT coefficient:

    integral = coeff(0) * domain_volume

Replacing a prediction's zero mode with the value encoded from a reference
state therefore restores the conserved integral exactly while leaving every
other coefficient untouched.  On the field side the same map is a uniform
additive shift, and it is an orthogonal projection in the discrete L2 sense:
it can never increase the distance to any target sharing the reference mean.

In the exterior-embedding framework (ECF) the encoder is the per-channel
mean of the input state (``values.mean(axis=spatial)`` in ``training``,
:meth:`GridField.channel_means` in the audit), and the decoder is
:func:`pin_channel_means`, whose adjoint is :func:`project_out_means`.
:func:`error_decomposition` is the split ECF's accuracy bound rests on: the
decoder removes exactly the zero-mode part of the error.  The pipeline runs
the decoder in one of the ways a :class:`Variant` names; the audit
:func:`check_error_reduction` holds whichever pin it is passed to that bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridField, Spectrum, fft_forward, l2_norm

__all__ = [
    "Variant",
    "ConservationMask",
    "check_mask_width",
    "correct_spectrum",
    "pin_channel_means",
    "project_out_means",
    "ErrorSplit",
    "error_decomposition",
    "ErrorReductionReport",
    "check_error_reduction",
]

# Slack allowed on the "correction never increases the error" inequality;
# covers floating-point noise in the two norm evaluations.
BOUND_TOL = 1e-12
# Two means closer than this count as equal when reporting the equality case.
EQUALITY_TOL = 1e-12

#: A field-side pin: (values, per-channel targets, channel flags) -> values.
CorrectionFn = Callable[[np.ndarray, np.ndarray, tuple[bool, ...]], np.ndarray]


class Variant(enum.Enum):
    """Where the correction acts, from training through rollout to the report.

    The member order is the order of the report's rows.
    """

    #: no correction anywhere
    BASE = "base"
    #: pinned inside the training loss; rollouts score each pinned state and feed it forward
    INTEGRATED = "integrated"
    #: trained as BASE; rollouts score each pinned state and feed the raw one forward
    STAGED = "staged"


@dataclass(frozen=True)
class ConservationMask:
    """Which channels obey a conservation law and receive correction."""

    flags: tuple[bool, ...]

    def __post_init__(self) -> None:
        flags = tuple(bool(f) for f in self.flags)
        if not flags:
            raise ValueError("mask must cover at least one channel")
        if not any(flags):
            raise ValueError("mask must flag at least one conserved channel")
        object.__setattr__(self, "flags", flags)

    @classmethod
    def all_channels(cls, channels: int) -> "ConservationMask":
        return cls((True,) * channels)

    def indices(self) -> list[int]:
        return [i for i, f in enumerate(self.flags) if f]


def check_mask_width(flags: tuple[bool, ...], channels: int) -> None:
    """Refuse channel flags that do not cover exactly a state's ``channels``."""
    if len(flags) != channels:
        raise ValueError(f"mask covers {len(flags)} channels but the state has {channels}")


def correct_spectrum(pred: Spectrum, targets: np.ndarray, mask: ConservationMask) -> Spectrum:
    """Replace the zero mode of each masked channel with its target mean.

    ``targets`` holds one mean per channel of ``pred``, as
    :meth:`GridField.channel_means` reads them off a reference state.
    Every nonzero-mode coefficient is preserved bit for bit, and the new
    zero mode has exactly zero imaginary part.  The map is idempotent.
    """
    check_mask_width(mask.flags, pred.channels)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (pred.channels,):
        raise ValueError(f"targets of shape {targets.shape} are not one mean per channel of {pred.channels}")
    coeffs = pred.coeffs.copy()
    zero = (slice(None),) + (0,) * pred.grid.ndim
    masked = mask.indices()
    coeffs[zero][masked] = targets[masked] + 0.0j
    return Spectrum(pred.grid, coeffs)


def pin_channel_means(values: np.ndarray, targets: np.ndarray, flags: tuple[bool, ...]) -> np.ndarray:
    """Shift flagged channels of a raw array onto target means.

    ``values`` is (*lead, channels, *spatial) and ``targets`` is
    (*lead, channels): leading batch or frame axes are read off
    ``targets``, and every axis after the channel axis is spatial.  On
    each flagged channel the map is v -> v + (t - mean(v)), whose Jacobian
    is the projector I - (1/n) 1 1^T; unflagged channels are copied bit
    for bit.  The adjoint is :func:`project_out_means`.
    """
    out = np.array(values, dtype=np.float64, copy=True)
    targets = np.asarray(targets, dtype=np.float64)
    lead = targets.ndim - 1
    if lead < 0 or out.shape[: lead + 1] != targets.shape:
        raise ValueError(f"targets of shape {targets.shape} do not match the leading axes of values {out.shape}")
    check_mask_width(flags, out.shape[lead])
    picked = (slice(None),) * lead + (np.flatnonzero(flags),)
    spatial = tuple(range(lead + 1, out.ndim))
    shift = targets[picked] - out.mean(axis=spatial)[picked]
    out[picked] += shift.reshape(shift.shape + (1,) * len(spatial))
    return out


def project_out_means(grads: np.ndarray, flags: tuple[bool, ...], lead_ndim: int) -> np.ndarray:
    """Adjoint of :func:`pin_channel_means` with respect to its values.

    ``grads`` is (*lead, channels, *spatial) with ``lead_ndim`` leading
    axes.  Each flagged channel loses its mean, g -> g - mean(g): the
    projector I - (1/n) 1 1^T is symmetric, so the adjoint is the pin
    itself toward zero targets.
    """
    return pin_channel_means(grads, np.zeros(np.shape(grads)[: lead_ndim + 1]), flags)


@dataclass(frozen=True)
class ErrorSplit:
    """Squared discrete L2 error split into zero-mode and nonzero-mode parts.

    All entries are per channel.  ``volume * (zero_mode_sq + nonzero_sq)``
    matches ``l2_norm(pred - truth)**2`` up to rounding (discrete Parseval
    identity), and ``zero_mode_sq`` is the squared gap between the two
    states' channel means.
    """

    zero_mode_sq: np.ndarray
    nonzero_sq: np.ndarray


def error_decomposition(pred: GridField, truth: GridField) -> ErrorSplit:
    if pred.grid != truth.grid:
        raise ValueError("prediction and truth live on different grids")
    if pred.channels != truth.channels:
        raise ValueError(f"channel mismatch: {pred.channels} vs {truth.channels}")
    diff = GridField(pred.grid, pred.values - truth.values)
    spec = fft_forward(diff)
    spatial = tuple(range(1, spec.coeffs.ndim))
    power = np.abs(spec.coeffs) ** 2
    zero = (slice(None),) + (0,) * pred.grid.ndim
    zero_sq = power[zero].copy()
    nonzero_sq = np.maximum(power.sum(axis=spatial) - zero_sq, 0.0)
    return ErrorSplit(zero_sq, nonzero_sq)


@dataclass(frozen=True)
class ErrorReductionReport:
    """Outcome of auditing one corrected prediction against the truth."""

    err_before: np.ndarray
    err_after: np.ndarray
    bound_holds: bool
    equality: bool


def check_error_reduction(
    pred: GridField,
    truth: GridField,
    input_state: GridField,
    mask: ConservationMask,
    correction: CorrectionFn,
) -> ErrorReductionReport:
    """Audit that correcting toward the input state's mean cannot hurt.

    ``correction`` is the field-side pin under audit, called as
    :func:`pin_channel_means` is.  When the input state and the truth share
    their per-channel means (the conserving-data case), the corrected
    prediction is at least as close to the truth as the raw one, channel
    by channel; equality is reported when the prediction already had the
    right mean.
    """
    if not (pred.grid == truth.grid == input_state.grid):
        raise ValueError("prediction, truth and input state must share one grid")
    check_mask_width(mask.flags, input_state.channels)
    corrected = correction(pred.values, input_state.channel_means(), mask.flags)
    err_before = l2_norm(GridField(pred.grid, pred.values - truth.values))
    err_after = l2_norm(GridField(pred.grid, corrected - truth.values))
    masked = mask.indices()
    bound_holds = bool(np.all(err_after[masked] <= err_before[masked] + BOUND_TOL))
    mean_gap = np.abs(pred.channel_means() - truth.channel_means())
    equality = bool(np.all(mean_gap[masked] <= EQUALITY_TOL))
    return ErrorReductionReport(err_before, err_after, bound_holds, equality)
