"""Spectral-convolution surrogate with hand-written reverse-mode gradients.

Architecture: a pointwise lift into ``width`` channels, ``n_layers``
blocks of

    y = spectral_conv(x) + gelu(W x + b)

and a pointwise projection back to the data channels.  The spectral
convolution multiplies a fixed low-frequency band of DFT modes by
learned complex weights (stored as real pairs) and is bias-free; only
the pointwise paths carry biases, so the all-zero parameter vector maps
every input to the zero field.

The retained band is all integer modes with |n| < modes_kept per axis,
enumerated in a resolution-independent canonical order, which lets one
parameter vector run on any grid whose Nyquist limit admits the band.

Only the band is transformed.  A real FFT along the last axis keeps its
first modes_kept columns; in 2-D a short FFT then runs along the other
axis over those columns.  The negative last-axis modes follow from the
symmetry of a real field's spectrum, X[k0, -k1] = conj(X[-k0, k1]).  The
weights for +n and -n stay independent and the layer keeps the real part
of its inverse transform, so the way back folds the band into its
Hermitian part H = (Y + conj(Y[-k])) / 2 and runs ``ifft`` then ``irfft``.
The ``irfft`` reads the full half-spectrum width n//2 + 1, zero past the
band, from a buffer the forward already has: given only the band's
columns, numpy pads each row with zeros itself, which at 16 x 128^2 took
1.8 ms against 1.3 ms for the same values.
The backward pass reuses both transforms, since each is the other's
transpose up to the number of grid points.  Every step is an FFT, never a
dense DFT-matrix product: on a power-of-two grid the FFT of a constant
adds equal terms pairwise, so its zero mode is exact and every other mode
exactly zero, and a constant passes a zero-mode identity weight bit for
bit.  A BLAS dot product with a row of ones would round its running sum
term by term instead.

The lift L x + l and the projection P h + c are pointwise linear maps, so
they commute with the band transform and act on band modes: block 0 takes
(W0 L) x + (W0 l + b0) and the band L _to_band(x) + n l on the zero mode,
the last block returns P gelu(z) + c + _from_band(P mixed), and a forward
or backward runs 2 lifted-width transforms at the default depth, not 4.
With L and P of ones and zeros and l = 0 (:func:`constant_identity_model`)
L X and P mixed add exact zeros, so a constant still passes bit for bit.

The forward pass writes every activation-size intermediate into a
workspace cached per (batch shape, width, n_layers, taped) and reused by
every later call of that shape, so a steady-state call allocates no
activation.  A forward-only call uses three activation buffers and one
lifted-width half spectrum (the last-axis real FFT): two buffers take turns
as a block's output and its tanh, and the third holds ``W h + b``.  Each
middle block overwrites its input h with its spectral branch once h's FFT
and ``W h`` are taken, and the other buffer with its GELU output plus that
branch, which becomes the next block's h.  A taped call keeps each block's output,
``W h + b`` and tanh in buffers of their own, which stay valid until the
next taped call of the same shape; the spectral branches share one buffer.
The prediction returned is always a fresh array, never a view of the
workspace.  The workspace is shared process-wide, so two threads must not
run forwards of one shape at the same time.

The elementwise work of a block (GELU, its tanh and the residual ``+ s``;
in the backward ``gelu_grad`` and its product with the upstream gradient)
runs over contiguous tiles of ``_TILE_BYTES`` = 256 KiB per operand.  At
the paper size one activation, 16 x 128^2 float64, is 2 MiB, a whole L2 of
one core, so a chain of whole-array passes streams each pass from L3.
``gelu_grad``, the widest kernel, keeps about six operand tiles live,
1.5 MiB, which stays in a 2 MiB L2.  An elementwise operation rounds each
element on its own, so the tiles give the whole-array bits.  FFTs and
matmuls stay whole.  Block 0's ``(W0 L) x`` from one data channel is a
broadcast product ``w * x`` instead of a matmul with inner dimension 1:
0.13 ms against 0.82 ms at 16 x 128^2, with the same bits, since one
product has no sum to reorder.

Channel mixing on the band is one broadcast ``matmul`` per mode, (B, m, 1,
i) @ (m, i, o), in the forward and in the backward's input adjoint.  Each
product belongs to one sample, so a state gets the same bits alone or in
any batch, which lets one batched rollout stand in for per-sample ones (an
``einsum`` over the batch gave bits 2e-16 apart at B=1 and B=10, and took
0.24 against 0.15 ms at B=1).  ``forward_values`` runs its batch in chunks
of ``_CHUNK_BYTES`` = 1 MiB of activation, width x points x 8 bytes per
sample: eight samples at 32^2, two at 64^2 and one at 128^2, each no
slower per sample than B=1 in single-threaded timings at width 16.

No autodiff framework is used: every layer implements its own adjoint,
and the gradient of the training loss (including the optional zero-mode
correction, whose Jacobian kills uniform directions) is assembled by
hand.  Finite differences in the test suite hold this to account.
"""

from __future__ import annotations

import functools
import json
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .correction import ConservationMask, pin_channel_means, project_out_means

__all__ = [
    "OperatorConfig",
    "ParamSlot",
    "layout",
    "OperatorModel",
    "init_model",
    "constant_identity_model",
    "gelu",
    "gelu_grad",
    "forward_values",
    "loss_and_grad",
    "save_checkpoint",
    "load_checkpoint",
]

_GELU_A = np.sqrt(2.0 / np.pi)
_GELU_B = 0.044715

#: training losses :func:`loss_and_grad` accepts
LOSSES = ("mae", "mse")

CHECKPOINT_MAGIC = b"ZMCK"
CHECKPOINT_VERSION = 1


# The GELU kernels work in place and tile by tile (module docstring): at
# activation size a fresh temporary costs more than the arithmetic done on
# it.  The cube is x * x * x because numpy's x**3 calls pow, many times
# slower than two products and most of all on negative bases.

_TILE_BYTES = 256 * 1024
_TILE = _TILE_BYTES // 8  # float64 elements
_CHUNK_BYTES = 1024 * 1024  # activation per forward_values chunk (module docstring)


def _tiles(*arrays):
    """Matching flat slices of ``arrays``, ``_TILE`` elements each; None entries stay None.

    Unless every array is C-contiguous and shaped like the first, the whole
    arrays come back once: reshaping a strided array to flat copies it, and
    writes into the copy would be lost.
    """
    given = [a for a in arrays if a is not None]
    if not all(a.flags.c_contiguous and a.shape == given[0].shape for a in given):
        yield arrays
        return
    flat = [None if a is None else a.reshape(-1) for a in arrays]
    for start in range(0, max(given[0].size, 1), _TILE):
        yield tuple(None if f is None else f[start : start + _TILE] for f in flat)


def _gelu_tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    u = np.multiply(x, x, out=out)
    u *= x
    u *= _GELU_B
    u += x
    u *= _GELU_A
    return np.tanh(u, out=out)


def gelu(
    x: np.ndarray, tanh_out: np.ndarray | None = None, out: np.ndarray | None = None,
    residual: np.ndarray | None = None,
) -> np.ndarray:
    """Smooth gate 0.5*x*(1 + tanh(a*(x + b*x^3))), a=sqrt(2/pi), b=0.044715.

    ``tanh_out``, an array shaped like ``x``, receives the inner tanh, which
    :func:`gelu_grad` takes back as ``tanh`` instead of computing it again.
    ``out`` receives the result; it may be ``tanh_out`` when the tanh is
    not needed afterwards.  ``residual``, shaped like ``x``, is added to the
    result, in the same tile while it is still in cache.
    """
    x = np.asarray(x)
    if out is None:
        out = np.empty(x.shape, dtype=np.result_type(x, 1.0))
    for xs, ts, ys, rs in _tiles(x, tanh_out, out, residual):
        y = np.add(1.0, _gelu_tanh(xs, out=ys if ts is None else ts), out=ys)
        y *= xs
        y *= 0.5
        if rs is not None:
            y += rs
    return out


def gelu_grad(
    x: np.ndarray, tanh: np.ndarray | None = None, upstream: np.ndarray | None = None
) -> np.ndarray:
    """Derivative of :func:`gelu` at ``x``; ``tanh`` is the inner tanh if already known.

    0.5*(1 + t) + 0.5*a*x*(1 - t^2)*(1 + 3b*x^2) with t the inner tanh.
    ``upstream``, shaped like ``x``, multiplies the result: the chain rule's
    ``upstream * gelu'(x)``, taken in the same tile.
    """
    x = np.asarray(x)
    grad = np.empty(x.shape, dtype=np.result_type(x, 1.0))
    for xs, ts, us, gs in _tiles(x, tanh, upstream, grad):
        t = _gelu_tanh(xs) if ts is None else ts
        curve = xs * xs
        curve *= 3.0 * _GELU_B
        curve += 1.0
        g = np.multiply(0.5, xs, out=gs)
        g *= 1.0 - t * t
        g *= _GELU_A
        g *= curve
        g += 0.5 * (1.0 + t)
        if us is not None:
            g *= us
    return grad


@dataclass(frozen=True)
class OperatorConfig:
    channels: int = 1
    width: int = 16
    n_layers: int = 2
    modes_kept: int = 8
    ndim: int = 2
    activation: str = "gelu_tanh"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.channels < 1 or self.width < 1 or self.n_layers < 1 or self.modes_kept < 1:
            raise ValueError("channels, width, n_layers and modes_kept must all be positive")
        if self.ndim not in (1, 2):
            raise ValueError(f"only 1-D and 2-D operators supported, got ndim={self.ndim}")
        if self.activation != "gelu_tanh":
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def modes_per_axis(self) -> int:
        return 2 * self.modes_kept - 1

    @property
    def n_modes(self) -> int:
        return self.modes_per_axis**self.ndim

    def to_dict(self) -> dict:
        return asdict(self)


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
        return int(np.prod(self.shape)) * (2 if self.is_complex else 1)


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
        add(f"block{i}.spectral", (w, w, m), is_complex=True)
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
    """A configuration plus one flat float64 parameter vector."""

    config: OperatorConfig
    params: np.ndarray

    def __post_init__(self) -> None:
        expected = n_params(self.config)
        params = np.ascontiguousarray(self.params, dtype=np.float64)
        if params.shape != (expected,):
            raise ValueError(f"parameter vector has shape {params.shape}, layout needs ({expected},)")
        self.params = params

    @classmethod
    def zeros(cls, config: OperatorConfig) -> "OperatorModel":
        return cls(config, np.zeros(n_params(config)))

    def _view(self, name: str) -> np.ndarray:
        views = _views(self.params, self.config)
        if name not in views:
            raise KeyError(f"no parameter named {name!r}")
        return views[name]

    def get_param(self, name: str) -> np.ndarray:
        """Copy of one named tensor (complex128 for spectral weights)."""
        return self._view(name).copy()

    def set_param(self, name: str, values: np.ndarray) -> None:
        view = self._view(name)
        values = np.asarray(values)
        if values.shape != view.shape:
            raise ValueError(f"{name} expects shape {view.shape}, got {values.shape}")
        view[...] = values


def _views(flat: np.ndarray, config: OperatorConfig) -> dict[str, np.ndarray]:
    """Every named tensor of ``config``'s layout as a view into ``flat``."""
    views = {}
    for slot in layout(config):
        raw = flat[slot.offset : slot.offset + slot.n_floats]
        if slot.is_complex:
            raw = raw.view(np.complex128)
        views[slot.name] = raw.reshape(slot.shape)
    return views


def init_model(config: OperatorConfig) -> OperatorModel:
    """Seeded initialization, drawn slot by slot in layout order.

    Spectral weights: uniform [0,1) real and imaginary parts scaled by
    1/(width*width).  Pointwise weights: normal with std sqrt(2/(fan_in +
    fan_out)).  Biases start at zero.
    """
    rng = np.random.default_rng(config.seed)
    model = OperatorModel.zeros(config)
    spectral_scale = 1.0 / (config.width * config.width)
    for slot in layout(config):
        if slot.is_complex:
            re = rng.uniform(0.0, 1.0, slot.shape)
            im = rng.uniform(0.0, 1.0, slot.shape)
            model.set_param(slot.name, spectral_scale * (re + 1j * im))
        elif slot.name.endswith(".weight"):
            fan_out, fan_in = slot.shape
            model.set_param(slot.name, rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), slot.shape))
        # biases stay zero
    return model


def constant_identity_model(config: OperatorConfig) -> OperatorModel:
    """Diagnostic fixture: hand-set weights acting as identity on constants.

    Channel c rides through lift channel c and each block's zero-frequency
    spectral weight; all pointwise paths are zero, and gelu(0) = 0 keeps
    them silent.  Requires width >= channels.
    """
    if config.width < config.channels:
        raise ValueError("identity fixture needs width >= channels")
    model = OperatorModel.zeros(config)
    lift = np.zeros((config.width, config.channels))
    proj = np.zeros((config.channels, config.width))
    for c in range(config.channels):
        lift[c, c] = 1.0
        proj[c, c] = 1.0
    model.set_param("lift.weight", lift)
    model.set_param("proj.weight", proj)
    spectral = np.zeros((config.width, config.width, config.n_modes), dtype=np.complex128)
    for c in range(config.channels):
        spectral[c, c, 0] = 1.0  # canonical position 0 is the zero mode
    for i in range(config.n_layers):
        model.set_param(f"block{i}.spectral", spectral)
    return model


# -- forward / backward ------------------------------------------------------


@dataclass(frozen=True)
class _Band:
    """Index maps of the retained band on one grid, shared by every layer.

    ``rows`` holds the FFT indices of the band along the first of two
    spatial axes (None in 1-D); ``neg`` maps a canonical per-axis position
    to that of the negated mode.  Both arrays are read-only.
    """

    modes_kept: int
    resolution: tuple[int, ...]
    rows: np.ndarray | None
    neg: np.ndarray


@functools.lru_cache
def _band(resolution: tuple[int, ...], modes_kept: int) -> _Band:
    """Band maps per (resolution, modes_kept), in canonical order.

    Canonical order per axis is n = 0, 1, ..., m-1, -(m-1), ..., -1, so
    flat position 0 is always the zero mode and position p holds the
    negation of position (-p) mod (2m-1).
    """
    m = modes_kept
    for n in resolution:
        if m > n // 2:
            raise ValueError(f"modes_kept={m} exceeds the Nyquist bound for resolution {n}")
    rows = None
    if len(resolution) == 2:
        n = resolution[0]
        rows = np.concatenate([np.arange(m), np.arange(n - m + 1, n)])
        rows.setflags(write=False)
    neg = -np.arange(2 * m - 1) % (2 * m - 1)
    neg.setflags(write=False)
    return _Band(m, tuple(resolution), rows, neg)


def _to_band(x: np.ndarray, band: _Band, spectrum: np.ndarray | None = None) -> np.ndarray:
    """Retained DFT modes of real ``x`` (B, C, *spatial) as (B, C, n_modes).

    Equals gathering the band from ``fftn(x)``: a real FFT along the last
    axis keeps its first m columns, a short FFT runs along the other axis,
    and the negative last-axis modes come from X[k0, -k1] = conj(X[-k0, k1]).
    ``spectrum``, shaped like ``rfft(x, axis=-1)``, receives the real FFT
    and then, in place, the short one.
    """
    m = band.modes_kept
    half = np.fft.rfft(x, axis=-1, out=spectrum)[..., :m]
    mirror = half
    if band.rows is not None:
        half = np.fft.fft(half, axis=-2, out=half)[..., band.rows, :]
        mirror = half[..., band.neg, :]
    modes = np.concatenate([half, np.conj(mirror[..., :0:-1])], axis=-1)
    return modes.reshape(*x.shape[:2], -1)


def _from_band(
    modes: np.ndarray, band: _Band, spectrum: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """``Re(ifftn(spectrum))`` of the spectrum holding ``modes`` on the band, 0 elsewhere.

    The real part sees only the Hermitian part H = (Y + conj(Y[-k])) / 2,
    whose non-negative last-axis columns feed ``ifft`` then ``irfft``.
    Up to a factor n_points this is the transpose of :func:`_to_band`.
    ``spectrum``, shaped like the real FFT of the field (as for
    :func:`_to_band`), receives the zero-padded half spectrum, which
    ``irfft`` takes at its full width; ``out`` receives the field.
    """
    m = band.modes_kept
    spec = modes.reshape(*modes.shape[:2], *(2 * m - 1,) * len(band.resolution))
    mirror = spec[..., band.neg]
    if band.rows is not None:
        mirror = mirror[..., band.neg, :]
    half = 0.5 * (spec[..., :m] + np.conj(mirror[..., :m]))
    if spectrum is None:
        shape = (*modes.shape[:2], *band.resolution[:-1], band.resolution[-1] // 2 + 1)
        spectrum = np.empty(shape, dtype=np.complex128)
    # full width: irfft pads short rows itself, more slowly (module docstring)
    spectrum[..., m:] = 0.0
    full = spectrum[..., :m]
    if band.rows is None:
        full[...] = half
    else:
        full.fill(0.0)
        full[..., band.rows, :] = half
        np.fft.ifft(full, axis=-2, out=full)
    return np.fft.irfft(spectrum, n=band.resolution[-1], axis=-1, out=out)


def _mix_modes(modes: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """out[b, o, k] = sum_i weight[i, o, k] modes[b, i, k], one product per sample and mode."""
    per_mode = np.ascontiguousarray(weight.transpose(2, 0, 1))
    mixed = modes.transpose(0, 2, 1)[:, :, None, :] @ per_mode
    return mixed[:, :, 0, :].transpose(0, 2, 1)


def _spectral_forward(
    x: np.ndarray, weight: np.ndarray, band: _Band, out: np.ndarray | None = None,
    spectrum: np.ndarray | None = None,
):
    """(layer output, retained modes of ``x``); ``out`` may be ``x`` itself, read before it is written."""
    x_modes = _to_band(x, band, spectrum)
    return _from_band(_mix_modes(x_modes, weight), band, spectrum, out), x_modes


def _spectral_backward(grad_y: np.ndarray, weight: np.ndarray, x_modes: np.ndarray, band: _Band):
    # the adjoint of x -> _from_band(W _to_band(x)) is g -> _from_band(W^H _to_band(g)):
    # _to_band and _from_band are each other's transposes up to n_points, which cancels
    gx_modes, grad_weight = _mixing_backward(_to_band(grad_y, band), weight, x_modes, band)
    return _from_band(gx_modes, band), grad_weight


def _mixing_backward(gy_modes: np.ndarray, weight: np.ndarray, x_modes: np.ndarray, band: _Band):
    """(band gradient of the mixing's input, weight gradient) given the band gradient of its output."""
    grad_weight = np.einsum("bim,bom->iom", np.conj(x_modes), gy_modes, optimize=True) / np.prod(band.resolution)
    return _mix_modes(gy_modes, np.conj(weight).transpose(1, 0, 2)), grad_weight


def _band_inner(a_modes: np.ndarray, b_modes: np.ndarray, band: _Band) -> np.ndarray:
    """out[i, j] = Re sum conj(a[:, i]) b[:, j] / n_points; with a = _to_band(u), sum_p u_i _from_band(b)_j."""
    return np.einsum("bik,bjk->ij", np.conj(a_modes), b_modes, optimize=True).real / np.prod(band.resolution)


def _pointwise_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
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


def _pointwise_adjoint(grad_y: np.ndarray, weight: np.ndarray) -> np.ndarray:
    gy_flat = grad_y.reshape(*grad_y.shape[:2], -1)
    return (weight.T @ gy_flat).reshape(grad_y.shape[0], -1, *grad_y.shape[2:])


@dataclass(frozen=True)
class _Workspace:
    """Activation buffers of one forward shape, indexed by block.

    Block i writes ``W h + b`` into ``z[i]``, its spectral branch into
    ``s[i]``, its tanh into ``t[i]`` and its output, for the last block its
    GELU alone, into ``h[i]``; ``spectrum`` holds each real FFT.  Which
    entries share memory is what :func:`_workspace` decides.
    """

    h: tuple[np.ndarray, ...]
    z: tuple[np.ndarray, ...]
    t: tuple[np.ndarray, ...]
    s: tuple[np.ndarray, ...]
    spectrum: np.ndarray


@functools.lru_cache(maxsize=8)
def _workspace(shape: tuple[int, ...], n_layers: int, taped: bool) -> _Workspace:
    """Buffers for activations shaped (B, width, *spatial), aliased as the module docstring says."""
    spectrum = np.empty((*shape[:-1], shape[-1] // 2 + 1), dtype=np.complex128)
    if taped:
        h = tuple(np.empty(shape) for _ in range(n_layers))
        z = tuple(np.empty(shape) for _ in range(n_layers))
        t = tuple(np.empty(shape) for _ in range(n_layers))
        return _Workspace(h, z, t, (np.empty(shape),) * n_layers, spectrum)
    pair = (np.empty(shape), np.empty(shape))
    h = tuple(pair[i % 2] for i in range(n_layers))
    s = tuple(pair[(i + 1) % 2] for i in range(n_layers))  # block i's input, once read
    return _Workspace(h, (np.empty(shape),) * n_layers, h, s, spectrum)


def _forward_batch(model: OperatorModel, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
    """Run a batch (B, channels, *spatial); the prediction returned is a fresh array.

    With ``tape`` given, what :func:`_backward_batch` reads is recorded in
    it.  The tape holds workspace buffers, valid until the next taped call
    of the same shape.
    """
    cfg = model.config
    if x.ndim != cfg.ndim + 2 or x.shape[1] != cfg.channels:
        raise ValueError(
            f"input batch must have shape (B, {cfg.channels}, *spatial) with {cfg.ndim} spatial axes, got {x.shape}"
        )
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
    h = x
    for i in range(last):
        if i == 0:
            s = _from_band(_mix_modes(modes, p["block0.spectral"]), band, ws.spectrum, out=ws.s[0])
        else:
            s, modes = _spectral_forward(h, p[f"block{i}.spectral"], band, out=ws.s[i], spectrum=ws.spectrum)
        if tape is not None:
            tape[f"block{i}"] = (h, modes, z, ws.t[i])
        h = gelu(z, tanh_out=ws.t[i], out=ws.h[i], residual=s)
        z = _pointwise_forward(h, p[f"block{i + 1}.weight"], p[f"block{i + 1}.bias"], out=ws.z[i + 1])
    # the last block and the projection: P (gelu(z) + _from_band(mixed)) + c, with P moved into the band
    if last > 0:
        modes = _to_band(h, band, ws.spectrum)
    mixed = _mix_modes(modes, p[f"block{last}.spectral"])
    g = gelu(z, tanh_out=ws.t[last], out=ws.h[last])
    if tape is not None:
        tape.update({f"block{last}": (h, modes, z, ws.t[last])}, band=band, x_modes=x_modes, mixed=mixed, proj_in=g)
    return _pointwise_forward(g, p["proj.weight"], p["proj.bias"]) + _from_band(p["proj.weight"] @ mixed, band)


def _backward_batch(model: OperatorModel, tape: dict, grad_y: np.ndarray) -> np.ndarray:
    cfg = model.config
    p = _views(model.params, cfg)
    band = tape["band"]
    flat = np.zeros(n_params(cfg))
    grads = _views(flat, cfg)  # each gradient is written into its slot of ``flat``
    last = cfg.n_layers - 1

    # y = P gelu(z) + c + _from_band(P mixed): P^T _to_band(grad_y) is the band gradient of mixed
    gy_modes = _to_band(grad_y, band)
    grad_proj, grads["proj.bias"][...] = _pointwise_backward(grad_y, tape["proj_in"])
    grads["proj.weight"][...] = grad_proj + _band_inner(gy_modes, tape["mixed"], band)
    grad_h = _pointwise_adjoint(grad_y, p["proj.weight"])
    for i in reversed(range(cfg.n_layers)):
        h_in, modes, z, t = tape[f"block{i}"]
        weight, grad_weight = p[f"block{i}.spectral"], grads[f"block{i}.spectral"]
        grad_z = gelu_grad(z, tanh=t, upstream=grad_h)
        if 0 < i < last:
            grad_h, grad_weight[...] = _spectral_backward(grad_h, weight, modes, band)
        else:
            band_grad = p["proj.weight"].T @ gy_modes if i == last else _to_band(grad_h, band)
            q, grad_weight[...] = _mixing_backward(band_grad, weight, modes, band)
            if i == 0:
                break
            grad_h = _from_band(q, band)
        grads[f"block{i}.weight"][...], grads[f"block{i}.bias"][...] = _pointwise_backward(grad_z, h_in)
        grad_h += _pointwise_adjoint(grad_z, p[f"block{i}.weight"])
    # block 0 read x through W0 L and W0 l + b0, and its band as L X + n l on the zero mode, q the gradient
    lift_w, lift_b, w0 = p["lift.weight"], p["lift.bias"], p["block0.weight"]
    grad_w, grad_b = _pointwise_backward(grad_z, h_in)
    grads["block0.weight"][...], grads["block0.bias"][...] = grad_w @ lift_w.T + np.outer(grad_b, lift_b), grad_b
    grads["lift.weight"][...] = w0.T @ grad_w + _band_inner(q, tape["x_modes"], band)
    grads["lift.bias"][...] = w0.T @ grad_b + q[..., 0].real.sum(axis=0)
    return flat


def forward_values(model: OperatorModel, values: np.ndarray) -> np.ndarray:
    """Next states of ``values`` (*lead, channels, *spatial); the lead axes run as one chunked batch."""
    cfg = model.config
    values = np.asarray(values, dtype=np.float64)
    batch = values.reshape(-1, *values.shape[-cfg.ndim - 1 :])
    chunk = max(1, _CHUNK_BYTES // (cfg.width * int(np.prod(batch.shape[2:])) * 8))
    parts = [_forward_batch(model, batch[start : start + chunk]) for start in range(0, len(batch), chunk)]
    return np.concatenate(parts).reshape(values.shape)


# -- loss --------------------------------------------------------------------


def loss_and_grad(
    model: OperatorModel,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: str = "mae",
    mask: ConservationMask | None = None,
):
    """Training loss and its exact gradient for one batch.

    ``inputs`` and ``targets`` are (B, channels, *spatial).  With ``mask``
    given, each prediction's masked channel means are pinned to the
    conserved value of its own input state before the loss; the
    correction's Jacobian is I - (1/n) 1 1^T per masked channel, so the
    backward pass strips the uniform component of the loss gradient.
    """
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}, expected one of {LOSSES}")
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.shape != targets.shape:
        raise ValueError(f"input batch {inputs.shape} and target batch {targets.shape} disagree")

    tape: dict = {}
    pred = _forward_batch(model, inputs, tape)
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

    return value, _backward_batch(model, tape, grad_pred)


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(model: OperatorModel, path: str | os.PathLike) -> Path:
    """Versioned binary checkpoint: header, config echo, flat F64 params."""
    path = Path(path)
    config_blob = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    params_blob = model.params.astype("<f8").tobytes()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HI", CHECKPOINT_VERSION, len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<QI", model.params.size, zlib.crc32(params_blob)))
        fh.write(params_blob)
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str | os.PathLike) -> OperatorModel:
    """Bit-exact inverse of :func:`save_checkpoint`; a malformed file raises ValueError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        try:
            version, config_len = struct.unpack("<HI", fh.read(6))
            if version > CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if config_len > left:  # refused before a buffer of that size is allocated
                raise struct.error(f"config length {config_len} runs past the {left} bytes left in the file")
            # TypeError: unknown config key, wrong value type, or not a JSON object
            config = OperatorConfig(**json.loads(fh.read(config_len).decode()))
            count, crc = struct.unpack("<QI", fh.read(12))
        except (struct.error, TypeError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"checkpoint {path}: header truncated or malformed: {exc}") from exc
        if count != n_params(config):
            raise ValueError(f"checkpoint holds {count} parameters, its config needs {n_params(config)}")
        blob = fh.read(count * 8)
        if len(blob) != count * 8 or fh.read(1):
            raise ValueError("checkpoint payload truncated or padded")
        if zlib.crc32(blob) != crc:
            raise ValueError("checkpoint payload checksum mismatch")
    params = np.frombuffer(blob, dtype="<f8").copy()
    return OperatorModel(config, params)
