"""Spectral-convolution surrogate with hand-written reverse-mode gradients.

Architecture: a pointwise lift into ``width`` channels, ``n_layers`` blocks
of y = spectral_conv(x) + gelu(W x + b), and a pointwise projection back to
the data channels.  The spectral convolution multiplies the band of DFT
modes with |n| < modes_kept per axis, enumerated in a resolution-independent
canonical order, by learned complex weights, so one parameter vector runs on
any grid whose Nyquist limit admits the band.  It is bias-free, so the
all-zero parameter vector maps every input to the zero field.

Every band held is the half band, last-axis columns 0..m-1; a real field's
other modes follow from X[-k] = conj(X[k]).  The operator's input enters the
band by FFT (``_to_band``).  Every lifted-width transform is a pruned DFT of
two per-sample matmuls with tables cached per (resolution, modes_kept)
(``_dft``), and ``_from_band`` runs the transposed pair, reading a half band
as sum_k count_k Re(Y_k exp(2 pi i k.p / n)) / n, count 1 on column 0 and 2
above; ``_band_inner`` weights each mode by that count.

A constant's band stays exact.  On a power-of-two grid the FFT of a constant
adds equal terms pairwise, so its zero mode is exact and every other mode
exactly zero, where a dot product with a row of ones would round term by
term.  So the input's band stays an FFT, and the matmuls of an operator that
is the identity on constants see only GELU outputs, exact zeros and bands
zero off the zero mode: a constant passes it bit for bit at every depth.

The pointwise maps commute with the band transform, so a block's output
h = gelu(z) + _from_band(mixed) is never formed: the next layer reads it as
W gelu(z) + b + _from_band(W mixed) and as the band _dft(gelu(z)) + mixed
(:func:`_band_affine`).  Block 0 takes the lift as (W0 L) x + (W0 l + b0) and
as L _to_band(x) + n l on the zero mode; from one data channel, (W0 L) x is
the broadcast product w * x, whose one product per point has no sum to reorder.

Activation-size intermediates go into a workspace cached per (batch shape,
width, n_layers, taped), so a steady-state call allocates none.  A
forward-only call aliases its blocks onto two buffers (:func:`_workspace`);
a taped call keeps each block's ``z``, GELU denominator s and output apart.
Block i + 1's band term waits in ``s[i + 1]``, which forward-only is g's
own buffer, so the band dft(g) + mixed is taken first.  The backward writes
its activation-size gradients into tape buffers it has read for the last
time, so a tape serves one pullback, and only until the next taped call of
the same shape.  The prediction and the flat gradient are always fresh
arrays, never views of the workspace, which is shared process-wide: two
threads must not run forwards of one shape at once.

The GELU 0.5 x (1 + tanh u), u = a (x + b x^3), is taken in its logistic
form x / s, s = 1 + exp(-2u), which keeps the negative tail where 1 + tanh u
cancels; -2u is x (c1 x^2 + c0), since numpy's x**3 calls pow.  Below
x ~ -21 ``exp`` overflows to inf and x / s is -0.0, the right limit, so the
overflow is ignored.  A tile whose exponent falls below -700 is floored
there: 1 + exp(v) rounds to 1 from v ~ -37, so no bit moves, and ``exp``
stays off its slow underflow path on a blown-up rollout.  The backward
reads the taped s as the gate p = 1 / s: gelu' = p (1 + (p - 1) x v'), v'
the slope of v = -2u.  Both kernels run in place over C-contiguous tiles of
``_TILE_BYTES`` per operand, so their live tiles stay in one core's L2 where
a paper-size activation (16 x 128^2 float64, 2 MiB) does not.  An
elementwise operation rounds each element on its own, so the tiles give the
whole-array bits.

On a real field's half band the layer acts as W_eff[k] = (W[k] + conj W[-k])
/ 2, since W[k] and W[-k] are independent and the layer keeps the real part
of its inverse.  W_eff depends on the parameters, not the grid, so
:func:`fold_weights` folds once per parameter state: once per rollout, once
per ``forward_values`` call for all its chunks, and once per :func:`vjp`,
whose tape keeps the folds for the backward.  A fold inside the forward
would read weights its activations had evicted; none is cached, since the
optimizer writes the parameters in place.  W_eff is 1 where W is 1 at the
zero mode, so the operator that is the identity on constants keeps its bits.

A spectral slot is stored mode-major, (n_modes, i, o), so the fold gathers
and the gradient adds move whole contiguous (i, o) rows.  Mixing is one
broadcast ``matmul`` per mode and sample, (B, n_half, 1, i) @ (n_half, i, o),
and its adjoint the same on the conjugated gradient, so a state gets the same
bits alone or in any batch.  W_eff's gradient goes to W[k] as it is and to
W[-k] conjugated, added into the gradient's mode-major slot itself on the half
band and then on the mirrors, since column 0 holds both k and -k and an
assignment would drop a term.

No autodiff framework is used: every layer has its own adjoint.  The operator
knows no conservation law; the training module alone applies the pin and its
adjoint, outside the operator, as the exterior-embedded correction prescribes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .datafile import read_payload, write_atomic

__all__ = [
    "OperatorConfig",
    "ParamSlot",
    "layout",
    "OperatorModel",
    "init_model",
    "gelu",
    "gelu_grad",
    "fold_weights",
    "forward_values",
    "vjp",
    "save_checkpoint",
    "load_checkpoint",
]

_GELU_A = np.sqrt(2.0 / np.pi)
_GELU_B = 0.044715
# -2a(x + b x^3) = x (c1 x^2 + c0), the exponent of the logistic form
_GELU_C0 = -2.0 * _GELU_A
_GELU_C1 = -2.0 * _GELU_A * _GELU_B
# the exponent's floor: exp stays off its slow underflow path, and 1 + exp(-700) is 1 (module docstring)
_GELU_V_MIN = -700.0

CHECKPOINT_MAGIC = b"ZMCK"
CHECKPOINT_VERSION = 2


_TILE_BYTES = 256 * 1024
_TILE = _TILE_BYTES // 8  # float64 elements
_CHUNK_BYTES = 1024 * 1024  # activation per forward_values chunk: 8 samples at 32^2, 1 at 128^2, width 16


def _tiles(*arrays):
    """Matching flat slices of ``arrays``, ``_TILE`` elements each.

    Every array must be C-contiguous and shaped like the first: reshaping a
    strided array to flat copies it, and writes into the copy would be lost.
    """
    if not all(a.flags.c_contiguous and a.shape == arrays[0].shape for a in arrays):
        raise ValueError("the GELU kernels take C-contiguous operands of one shape")
    flat = [a.reshape(-1) for a in arrays]
    for start in range(0, max(arrays[0].size, 1), _TILE):
        yield tuple(f[start : start + _TILE] for f in flat)


def gelu(x: np.ndarray, denom_out: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Smooth gate 0.5*x*(1 + tanh(a*(x + b*x^3))), a=sqrt(2/pi), b=0.044715, written into ``out``.

    Taken as x / s with s = 1 + exp(-2a*(x + b*x^3)), the same function in
    logistic form.  ``denom_out``, a caller buffer shaped like ``x``, receives
    s, which :func:`gelu_grad` takes back as ``denom``.  ``out`` may be
    ``denom_out`` when s is not needed afterwards.
    """
    with np.errstate(over="ignore"):  # s = inf below x ~ -21, where x / s is the limit -0.0
        for xs, ss, ys in _tiles(x, denom_out, out):
            s = np.square(xs, out=ss)
            s *= _GELU_C1
            s += _GELU_C0
            s *= xs
            if s.min(initial=0.0) < _GELU_V_MIN:  # a pass only where an exponent would underflow
                np.maximum(s, _GELU_V_MIN, out=s)
            np.exp(s, out=s)
            s += 1.0
            np.divide(xs, s, out=ys)
    return out


def gelu_grad(x: np.ndarray, denom: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """The chain rule's ``upstream * gelu'(x)``, ``denom`` being the s that :func:`gelu` wrote.

    gelu'(x) = p*(1 + (p - 1)*x*v') with p = 1/s the logistic gate and
    v' = 3*c1*x^2 + c0 the slope of exp's argument v = x*(c1*x^2 + c0), taken
    tile by tile with the product.  Three scratch tiles per call hold the
    intermediates; the product is written into ``upstream``, which is returned.
    """
    scratch = None
    for xs, ss, us in _tiles(x, denom, upstream):
        if scratch is None:
            scratch = np.empty((3, *xs.shape))
        slope, gate, g = scratch[:, : len(xs)]
        np.square(xs, out=slope)
        slope *= 3.0 * _GELU_C1
        slope += _GELU_C0
        np.divide(1.0, ss, out=gate)
        np.subtract(gate, 1.0, out=g)
        g *= xs
        g *= slope
        g += 1.0
        g *= gate
        us *= g
    return upstream


@dataclass(frozen=True)
class OperatorConfig:
    channels: int = 1
    width: int = 16
    n_layers: int = 2
    modes_kept: int = 8
    ndim: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("channels", "width", "n_layers", "modes_kept", "ndim", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.channels < 1 or self.width < 1 or self.n_layers < 1 or self.modes_kept < 1:
            raise ValueError("channels, width, n_layers and modes_kept must all be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.ndim not in (1, 2):
            raise ValueError(f"only 1-D and 2-D operators supported, got ndim={self.ndim}")

    @property
    def n_modes(self) -> int:
        return (2 * self.modes_kept - 1) ** self.ndim

    def check_fit(self, state_shape: tuple[int, ...]) -> None:
        """Refuse states of ``state_shape`` (channels, *spatial) that this operator cannot step.

        Their channels and spatial axes must be the config's, and every axis
        must hold ``modes_kept`` modes below its Nyquist bound.
        """
        if len(state_shape) != self.ndim + 1 or state_shape[0] != self.channels:
            raise ValueError(f"the operator steps states (channels, *spatial) of channels={self.channels}, "
                             f"ndim={self.ndim}; got shape {tuple(state_shape)}")
        for n in state_shape[1:]:
            if self.modes_kept > n // 2:
                raise ValueError(f"modes_kept={self.modes_kept} exceeds the Nyquist bound for resolution {n}")


@dataclass(frozen=True)
class ParamSlot:
    """One named parameter tensor inside the flat vector.

    Complex tensors occupy ``2 * prod(shape)`` float64 entries, stored as
    interleaved (real, imag) pairs, i.e. the memory layout of complex128.
    """

    name: str
    shape: tuple[int, ...]
    is_complex: bool
    offset: int

    @functools.cached_property  # computed once per slot of the cached layout
    def n_floats(self) -> int:
        return math.prod(self.shape) * (2 if self.is_complex else 1)


@functools.lru_cache
def layout(config: OperatorConfig) -> tuple[ParamSlot, ...]:
    """Canonical parameter layout: lift, blocks in order, projection."""
    slots: list[ParamSlot] = []
    offset = 0

    def add(name: str, shape: tuple[int, ...], is_complex: bool = False) -> None:
        nonlocal offset
        slot = ParamSlot(name, shape, is_complex, offset)
        slots.append(slot)
        offset += slot.n_floats

    w, c, m = config.width, config.channels, config.n_modes
    add("lift.weight", (w, c))
    add("lift.bias", (w,))
    for i in range(config.n_layers):
        add(f"block{i}.spectral", (m, w, w), is_complex=True)  # mode-major: (n_modes, i, o)
        add(f"block{i}.weight", (w, w))
        add(f"block{i}.bias", (w,))
    add("proj.weight", (c, w))
    add("proj.bias", (c,))
    return tuple(slots)


def n_params(config: OperatorConfig) -> int:
    slots = layout(config)
    return slots[-1].offset + slots[-1].n_floats


@dataclass
class OperatorModel:
    """A configuration plus one flat float64 parameter vector.

    Its named tensors are the views :func:`_views` makes into ``params``;
    writes through them land in the flat vector.
    """

    config: OperatorConfig
    params: np.ndarray

    def __post_init__(self) -> None:
        expected = n_params(self.config)
        params = np.ascontiguousarray(self.params, dtype=np.float64)
        if params.shape != (expected,):
            raise ValueError(f"parameter vector has shape {params.shape}, layout needs ({expected},)")
        self.params = params


def _views(flat: np.ndarray, config: OperatorConfig) -> dict[str, np.ndarray]:
    """Every named tensor of ``config``'s layout as a view into ``flat``."""
    views = {}
    for slot in layout(config):
        raw = flat[slot.offset : slot.offset + slot.n_floats]
        views[slot.name] = (raw.view(np.complex128) if slot.is_complex else raw).reshape(slot.shape)
    return views


def init_model(config: OperatorConfig) -> OperatorModel:
    """Seeded initialization, drawn slot by slot in layout order.

    Spectral weights: uniform [0,1) real and imaginary parts scaled by
    1/(width*width), drawn as (i, o, n_modes) arrays, all real parts first,
    and stored transposed into the mode-major slot.  Pointwise weights: normal
    with std sqrt(2/(fan_in + fan_out)).  Biases start at zero.
    """
    rng = np.random.default_rng(config.seed)
    params = np.zeros(n_params(config))
    views = _views(params, config)
    spectral_scale = 1.0 / (config.width * config.width)
    for slot in layout(config):
        if slot.is_complex:
            drawn = (*slot.shape[1:], slot.shape[0])  # (i, o, n_modes)
            re = rng.uniform(0.0, 1.0, drawn)
            im = rng.uniform(0.0, 1.0, drawn)
            views[slot.name][...] = (spectral_scale * (re + 1j * im)).transpose(2, 0, 1)
        elif slot.name.endswith(".weight"):
            fan_out, fan_in = slot.shape
            views[slot.name][...] = rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), slot.shape)
        # biases stay zero
    return OperatorModel(config, params)


# -- forward / backward ------------------------------------------------------


@dataclass(frozen=True)
class _Band:
    """Index maps and DFT tables of the retained band on one grid, shared by every layer; all read-only.

    ``half``: the canonical positions of the half band; ``mirror``: those of their negations; ``count``: 1
    on column 0, 2 above.  ``rows``: the band's FFT indices along the first of two axes (None in 1-D, as the
    row tables).  ``to_cols`` (n1, 2m): cos and -sin columns of modes 0..m-1; ``from_cols``: its transpose
    weighted count / n1.  ``to_rows`` (2m-1, n0): the complex DFT of the band rows; ``from_rows``: its inverse.
    """

    modes_kept: int
    resolution: tuple[int, ...]
    half: np.ndarray
    mirror: np.ndarray
    count: np.ndarray
    rows: np.ndarray | None
    to_cols: np.ndarray
    from_cols: np.ndarray
    to_rows: np.ndarray | None
    from_rows: np.ndarray | None


class _HalfBand(NamedTuple):
    """The grid-free tables of :class:`_Band`: ``half``, ``mirror`` and ``count``."""

    half: np.ndarray
    mirror: np.ndarray
    count: np.ndarray


@functools.lru_cache
def _half_band(ndim: int, modes_kept: int) -> _HalfBand:
    """Half-band tables per (ndim, modes_kept), in canonical order.

    Canonical order per axis is n = 0, 1, ..., m-1, -(m-1), ..., -1, so
    flat position 0 is always the zero mode and position p holds the
    negation of position (-p) mod (2m-1).
    """
    m = modes_kept
    per_axis = (2 * m - 1,) * ndim
    position = np.indices(per_axis).reshape(ndim, -1)  # per-axis canonical position of each mode
    half = np.flatnonzero(position[-1] < m)
    mirror = np.ravel_multi_index(-position[:, half] % (2 * m - 1), per_axis)
    count = np.where(position[-1, half] == 0, 1.0, 2.0)
    for table in (half, mirror, count):
        table.setflags(write=False)
    return _HalfBand(half, mirror, count)


@functools.lru_cache
def _band(resolution: tuple[int, ...], modes_kept: int) -> _Band:
    """Band maps per (resolution, modes_kept) that ``check_fit`` passed, in the order of :func:`_half_band`."""
    m = modes_kept
    half = _half_band(len(resolution), m)
    n1 = resolution[-1]
    angle = 2.0 * np.pi * (np.outer(np.arange(n1), np.arange(m)) % n1) / n1  # reduced mod 2 pi first
    to_cols = np.stack([np.cos(angle), -np.sin(angle)], axis=-1).reshape(n1, 2 * m)
    from_cols = to_cols.T * (np.repeat(half.count[:m], 2) / n1)[:, None]
    rows = to_rows = from_rows = None
    if len(resolution) == 2:
        n0 = resolution[0]
        rows = np.concatenate([np.arange(m), np.arange(n0 - m + 1, n0)])
        to_rows = np.exp(-2j * np.pi * (np.outer(rows, np.arange(n0)) % n0) / n0)
        from_rows = np.conj(to_rows.T) / n0
    tables = (rows, to_cols, from_cols, to_rows, from_rows)
    for table in (t for t in tables if t is not None):
        table.setflags(write=False)
    return _Band(m, tuple(resolution), *half, *tables)


def _to_band(x: np.ndarray, band: _Band) -> np.ndarray:
    """Half band of real ``x`` (B, C, *spatial) as (B, C, n_half), by FFT.

    For the operator's input, whose constants must come out exact (module docstring).
    """
    half = np.fft.rfft(x, axis=-1)[..., : band.modes_kept]
    if band.rows is not None:
        half = np.fft.fft(half, axis=-2, out=half)[..., band.rows, :]
    return half.reshape(*x.shape[:2], -1)


def _dft(x: np.ndarray, band: _Band) -> np.ndarray:
    """:func:`_to_band` as a pruned DFT of two matmuls, one per spatial axis, each per sample."""
    m, shape = band.modes_kept, x.shape
    half = (x.reshape(shape[0], -1, shape[-1]) @ band.to_cols).view(np.complex128)
    half = half.reshape(*shape[:-1], m)
    if band.rows is not None:
        half = band.to_rows @ half
    return half.reshape(*shape[:2], -1)


def _from_band(modes: np.ndarray, band: _Band, out: np.ndarray | None = None) -> np.ndarray:
    """The field sum_k count_k Re(modes_k exp(2 pi i k.p / n)) / n_points of a half band (B, C, n_half).

    On a real field's half band, ``Re(ifftn)`` of the band spectrum.  Two matmuls per sample;
    up to n_points the transpose of :func:`_dft`.  ``out``, C-contiguous, receives the field.
    """
    m, res, lead = band.modes_kept, band.resolution, modes.shape[:2]
    half = modes.reshape(*lead, -1, m)
    if band.rows is not None:
        half = band.from_rows @ half
    half = np.ascontiguousarray(half).view(np.float64).reshape(lead[0], -1, 2 * m)
    flat = None if out is None else out.reshape(lead[0], -1, res[-1])
    return np.matmul(half, band.from_cols, out=flat).reshape(*lead, *res)


def _fold(weight: np.ndarray, band: _HalfBand | _Band) -> np.ndarray:
    """W_eff[k] = (W[k] + conj W[-k]) / 2 of a spectral slot (n_modes, i, o) on the half band, as (n_half, i, o)."""
    eff, mirror = weight[band.half], weight[band.mirror]
    eff += np.conj(mirror, out=mirror)
    eff *= 0.5
    return eff


def fold_weights(model: OperatorModel) -> tuple[np.ndarray, ...]:
    """Every block's W_eff as (n_half, i, o), for any grid; valid until ``model.params`` changes."""
    cfg = model.config
    p, band = _views(model.params, cfg), _half_band(cfg.ndim, cfg.modes_kept)
    return tuple(_fold(p[f"block{i}.spectral"], band) for i in range(cfg.n_layers))


def _mix_modes(modes: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """out[b, o, k] = sum_i weight[k, i, o] modes[b, i, k], weight from :func:`_fold`; one product per sample, mode."""
    mixed = modes.transpose(0, 2, 1)[:, :, None, :] @ weight
    return mixed[:, :, 0, :].transpose(0, 2, 1)


def _mixing_backward(
    gy_modes: np.ndarray, weight: np.ndarray, x_modes: np.ndarray, band: _Band, grad_weight: np.ndarray
) -> np.ndarray:
    """Band gradient of the mixing's input given that of its output; ``weight`` is ``_fold(W)``.

    sum_o conj(weight[k, i, o]) gy[b, o, k] is taken as conj(weight @ conj(gy)); W's gradient is added
    into ``grad_weight``, mode-major like W, as the module docstring says.
    """
    grad_eff = np.conj(x_modes).transpose(2, 1, 0) @ gy_modes.transpose(2, 0, 1)
    grad_eff *= (band.count / (2 * np.prod(band.resolution)))[:, None, None]
    grad_weight[band.half] += grad_eff
    grad_weight[band.mirror] += np.conj(grad_eff, out=grad_eff)  # column 0 holds both k and -k: each term is added
    gx = weight @ np.conj(gy_modes).transpose(0, 2, 1)[..., None]
    return np.conj(gx[..., 0]).transpose(0, 2, 1)


def _band_inner(a_modes: np.ndarray, b_modes: np.ndarray, band: _Band) -> np.ndarray:
    """out[i, j] = Re sum count conj(a[:, i]) b[:, j] / n_points; with a = _dft(u), sum_p u_i _from_band(b)_j."""
    inner = np.tensordot(np.conj(a_modes) * band.count, b_modes, axes=([0, 2], [0, 2]))
    return inner.real / np.prod(band.resolution)


def _pointwise_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``W x + b``, written into ``out`` when one is given."""
    flat = None if out is None else out.reshape(*out.shape[:2], -1)
    x_flat = x.reshape(*x.shape[:2], -1)
    # one input channel: the broadcast product, not a matmul with inner dimension 1
    y = (np.multiply if weight.shape[1] == 1 else np.matmul)(weight, x_flat, out=flat)
    y += bias[:, None]
    return y.reshape(x.shape[0], -1, *x.shape[2:])


def _pointwise_backward(grad_y: np.ndarray, x: np.ndarray):
    """Weight and bias gradients of ``W x + b``; the input gradient is :func:`_pointwise_adjoint`."""
    gy_flat = grad_y.reshape(*grad_y.shape[:2], -1)
    x_flat = x.reshape(*x.shape[:2], -1)
    grad_w = (gy_flat @ x_flat.transpose(0, 2, 1)).sum(axis=0)
    grad_b = gy_flat.sum(axis=(0, 2))
    return grad_w, grad_b


def _pointwise_adjoint(grad_y: np.ndarray, weight: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The input gradient ``W^T grad_y`` of ``W x + b``, written into ``out``, shaped like x and C-contiguous."""
    gy_flat = grad_y.reshape(*grad_y.shape[:2], -1)
    np.matmul(weight.T, gy_flat, out=out.reshape(*out.shape[:2], -1))
    return out


def _band_affine(g, mixed, weight, bias, band: _Band, out=None, scratch=None) -> np.ndarray:
    """``weight (g + _from_band(mixed)) + bias`` as ``weight g + bias + _from_band(weight mixed)``.

    The inverse transform runs at the output width; ``scratch`` holds the band term until it is added.
    It is written after ``weight g``, so it may be g's own buffer.
    """
    y = _pointwise_forward(g, weight, bias, out=out)
    y += _from_band(weight @ mixed, band, out=scratch)
    return y


def _band_affine_backward(grad_y: np.ndarray, g: np.ndarray, mixed: np.ndarray, weight: np.ndarray, band: _Band):
    """(gradient of g, band gradient of mixed, weight gradient, bias gradient) of :func:`_band_affine`.

    The gradient of g is written over ``g``, which the weight gradient has read by then.
    """
    gy_modes = _dft(grad_y, band)
    grad_w, grad_b = _pointwise_backward(grad_y, g)
    grad_w += _band_inner(gy_modes, mixed, band)
    return _pointwise_adjoint(grad_y, weight, out=g), weight.T @ gy_modes, grad_w, grad_b


@dataclass(frozen=True)
class _Workspace:
    """Activation buffers of one forward shape, indexed by block.

    Block i writes ``z`` into ``z[i]``, its GELU denominator s into ``s[i]``
    and its GELU output into ``g[i]``.  Past block 0, ``s[i]`` first holds
    the band term ``_from_band(W mixed)`` until it is added to ``z[i]``.
    Which entries share memory is what :func:`_workspace` decides.  The backward
    writes into the taped buffers once it has read them: the gradients of
    block i's GELU output and then of its ``z`` go over ``g[i]``, and the
    field of its band's gradient over ``z[i]``.
    """

    g: tuple[np.ndarray, ...]
    z: tuple[np.ndarray, ...]
    s: tuple[np.ndarray, ...]


@functools.lru_cache(maxsize=8)
def _workspace(shape: tuple[int, ...], n_layers: int, taped: bool) -> _Workspace:
    """Buffers for activations shaped (B, width, *spatial): a block's own when taped, else two.

    Forward-only, one buffer holds every block's band term, then s, then GELU output; the other
    holds every ``z``, which the next block's overwrites once the GELU has read it.
    """
    if taped:
        g, z, s = (tuple(np.empty(shape) for _ in range(n_layers)) for _ in range(3))
        return _Workspace(g, z, s)
    g, z = (np.empty(shape),) * n_layers, (np.empty(shape),) * n_layers
    return _Workspace(g, z, g)


def _forward_batch(model: OperatorModel, folded: tuple[np.ndarray, ...], x: np.ndarray,
                   tape: dict | None = None) -> np.ndarray:
    """Run a batch (B, channels, *spatial) on ``folded`` = :func:`fold_weights`; the prediction is a fresh array.

    With ``tape`` given, what :func:`_backward_batch` reads is recorded in
    it.  The tape holds workspace buffers, valid until the next taped call
    of the same shape.
    """
    cfg = model.config
    cfg.check_fit(x.shape[1:])
    band = _band(x.shape[2:], cfg.modes_kept)
    ws = _workspace((x.shape[0], cfg.width, *x.shape[2:]), cfg.n_layers, tape is not None)
    p = _views(model.params, cfg)
    last = cfg.n_layers - 1

    # block 0 takes the lift L x + l as maps of x: W0 (L x + l) + b0, and L X + n l on the zero mode
    lift_w, lift_b, w0 = p["lift.weight"], p["lift.bias"], p["block0.weight"]
    x_modes = _to_band(x, band)
    modes = lift_w @ x_modes
    modes[..., 0] += np.prod(band.resolution) * lift_b
    z = _pointwise_forward(x, w0 @ lift_w, w0 @ lift_b + p["block0.bias"], out=ws.z[0])
    if tape is not None:
        tape.update(band=band, x=x, x_modes=x_modes, folded=folded)
    for i in range(cfg.n_layers):
        mixed = _mix_modes(modes, folded[i])
        if tape is not None:
            tape[f"block{i}"], tape[f"mixed{i}"] = (ws.g[i], modes, z, ws.s[i]), mixed
        g = gelu(z, denom_out=ws.s[i], out=ws.g[i])
        if i == last:
            break
        # block i's output h = g + _from_band(mixed) reaches block i + 1 as its band dft(g) + mixed and as W h + b,
        # whose band term waits in s[i + 1]: g's own buffer forward-only, so g is read before it is written
        modes = _dft(g, band) + mixed
        z = _band_affine(g, mixed, p[f"block{i + 1}.weight"], p[f"block{i + 1}.bias"], band,
                         out=ws.z[i + 1], scratch=ws.s[i + 1])
    return _band_affine(g, mixed, p["proj.weight"], p["proj.bias"], band)


def _backward_batch(model: OperatorModel, tape: dict, grad_y: np.ndarray) -> np.ndarray:
    cfg = model.config
    p = _views(model.params, cfg)
    band = tape["band"]
    flat = np.zeros(n_params(cfg))
    grads = _views(flat, cfg)  # each gradient is written into its slot of ``flat``

    # the layer after block i reads (g, mixed) through _band_affine: the projection, then block i + 1
    grad_out, after, q = grad_y, "proj", None
    for i in reversed(range(cfg.n_layers)):
        g, modes, z, s = tape[f"block{i}"]
        grad_g, band_grad, grads[f"{after}.weight"][...], grads[f"{after}.bias"][...] = _band_affine_backward(
            grad_out, g, tape[f"mixed{i}"], p[f"{after}.weight"], band)
        if q is not None:  # block i + 1's band dft(g) + mixed, with q its gradient; its field goes over that z
            grad_g += _from_band(q, band, out=tape[f"block{i + 1}"][2])
            band_grad += q
        q = _mixing_backward(band_grad, tape["folded"][i], modes, band, grads[f"block{i}.spectral"])
        grad_out, after = gelu_grad(z, denom=s, upstream=grad_g), f"block{i}"
    # block 0 read x through W0 L and W0 l + b0, and its band as L X + n l on the zero mode, q the gradient
    lift_w, lift_b, w0 = p["lift.weight"], p["lift.bias"], p["block0.weight"]
    grad_w, grad_b = _pointwise_backward(grad_out, tape["x"])
    grads["block0.weight"][...], grads["block0.bias"][...] = grad_w @ lift_w.T + np.outer(grad_b, lift_b), grad_b
    grads["lift.weight"][...] = w0.T @ grad_w + _band_inner(q, tape["x_modes"], band)
    grads["lift.bias"][...] = w0.T @ grad_b + q[..., 0].real.sum(axis=0)
    return flat


def forward_values(model: OperatorModel, folded: tuple[np.ndarray, ...], values: np.ndarray) -> np.ndarray:
    """Next states of ``values`` (*lead, channels, *spatial); the lead axes run as one chunked batch.

    ``folded`` is :func:`fold_weights` of ``model`` at its current parameters, read by every chunk.
    """
    cfg = model.config
    values = np.asarray(values, dtype=np.float64)
    batch = values.reshape(-1, *values.shape[-cfg.ndim - 1 :])
    chunk = max(1, _CHUNK_BYTES // (cfg.width * int(np.prod(batch.shape[2:])) * 8))
    parts = [_forward_batch(model, folded, batch[start : start + chunk]) for start in range(0, len(batch), chunk)]
    return np.concatenate(parts).reshape(values.shape)


def vjp(model: OperatorModel, inputs: np.ndarray):
    """A batch's prediction and its pullback to the flat parameter gradient, valid until the next vjp of its shape.

    The pullback runs once: the backward writes its gradients over the tape's buffers, so a second call
    raises RuntimeError.
    """
    tape: dict = {}
    pred = _forward_batch(model, fold_weights(model), inputs, tape)

    def pullback(grad_pred: np.ndarray) -> np.ndarray:
        if not tape:
            raise RuntimeError("a vjp's pullback runs once: its backward has written over the tape")
        try:
            return _backward_batch(model, tape, grad_pred)
        finally:
            tape.clear()

    return pred, pullback


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(model: OperatorModel, path: str | os.PathLike) -> Path:
    """Versioned binary checkpoint: header, config echo, the flat F64 parameter vector as it is."""
    config_blob = json.dumps(asdict(model.config), sort_keys=True).encode()
    params = model.params.astype("<f8", copy=False)
    return write_atomic(path, CHECKPOINT_MAGIC, struct.pack("<HI", CHECKPOINT_VERSION, len(config_blob)), config_blob,
                        struct.pack("<QI", params.size, zlib.crc32(params)), params)


def load_checkpoint(path: str | os.PathLike) -> OperatorModel:
    """Bit-exact inverse of :func:`save_checkpoint`; a malformed file raises ValueError naming it.

    A version-1 file also loads.  Its config names the one activation there is, ``"gelu_tanh"``, which is
    checked and dropped, and it stores each spectral slot as (i, o, n_modes), which is transposed on load.
    """
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"bad checkpoint magic {magic!r}")
            try:
                version, config_len = struct.unpack("<HI", fh.read(6))
                if version not in (1, CHECKPOINT_VERSION):
                    raise ValueError(f"unsupported checkpoint version {version}, expected 1 or {CHECKPOINT_VERSION}")
                left = os.fstat(fh.fileno()).st_size - fh.tell()
                if config_len > left:  # refused before a buffer of that size is allocated
                    raise struct.error(f"config length {config_len} runs past the {left} bytes left in the file")
                fields = json.loads(fh.read(config_len).decode())
                if version == 1 and isinstance(fields, dict):
                    activation = fields.pop("activation", "gelu_tanh")
                    if activation != "gelu_tanh":
                        raise ValueError(f"unknown activation {activation!r}")
                # TypeError: unknown config key, wrong value type, or not a JSON object
                config = OperatorConfig(**fields)
                count, crc = struct.unpack("<QI", fh.read(12))
            except (struct.error, TypeError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValueError(f"header truncated or malformed: {exc}") from exc
            if count != n_params(config):
                raise ValueError(f"checkpoint holds {count} parameters, its config needs {n_params(config)}")
            params = read_payload(fh, (count,), "<f8", crc)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from exc
    if version == 1:
        views = _views(params, config)
        for slot in layout(config):
            if slot.is_complex:
                stored = views[slot.name].reshape(*slot.shape[1:], slot.shape[0])  # (i, o, n_modes)
                views[slot.name][...] = stored.transpose(2, 0, 1).copy()
    return OperatorModel(config, params)
