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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correction import ConservationMask, pin_channel_means, project_out_means
from .grid import GridField

__all__ = [
    "OperatorConfig",
    "ParamSlot",
    "layout",
    "OperatorModel",
    "init_model",
    "constant_identity_model",
    "gelu",
    "gelu_grad",
    "forward",
    "forward_values",
    "loss_and_grad",
    "save_checkpoint",
    "load_checkpoint",
]

_GELU_A = np.sqrt(2.0 / np.pi)
_GELU_B = 0.044715

CHECKPOINT_MAGIC = b"ZMCK"
CHECKPOINT_VERSION = 1


def gelu(x: np.ndarray) -> np.ndarray:
    """Smooth gate 0.5*x*(1 + tanh(a*(x + b*x^3))), a=sqrt(2/pi), b=0.044715."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_A * (x + _GELU_B * x**3)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(_GELU_A * (x + _GELU_B * x**3))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_A * (1.0 + 3.0 * _GELU_B * x**2)


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
        return {
            "channels": self.channels,
            "width": self.width,
            "n_layers": self.n_layers,
            "modes_kept": self.modes_kept,
            "ndim": self.ndim,
            "activation": self.activation,
            "seed": self.seed,
        }


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

    @property
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


def _pack_grads(config: OperatorConfig, grads: dict[str, np.ndarray]) -> np.ndarray:
    flat = np.zeros(n_params(config))
    for name, view in _views(flat, config).items():
        view[...] = grads[name]
    return flat


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


def _band_indices(config: OperatorConfig, resolution: tuple[int, ...]) -> list[np.ndarray]:
    """Per-axis FFT indices of the retained band, in canonical order.

    Canonical order per axis is n = 0, 1, ..., m-1, -(m-1), ..., -1, so
    flat position 0 is always the zero mode.
    """
    m = config.modes_kept
    out = []
    for n in resolution:
        if m > n // 2:
            raise ValueError(f"modes_kept={m} exceeds the Nyquist bound for resolution {n}")
        idx = np.concatenate([np.arange(m), np.arange(n - m + 1, n)])
        out.append(idx)
    return out


def _gather_band(spec: np.ndarray, band: list[np.ndarray]) -> np.ndarray:
    if len(band) == 1:
        picked = spec[..., band[0]]
    else:
        picked = spec[..., band[0][:, None], band[1][None, :]]
    return picked.reshape(*spec.shape[:2], -1)


def _scatter_band(modes: np.ndarray, band: list[np.ndarray], resolution: tuple[int, ...]) -> np.ndarray:
    full = np.zeros((*modes.shape[:2], *resolution), dtype=np.complex128)
    shaped = modes.reshape(*modes.shape[:2], *(len(b) for b in band))
    if len(band) == 1:
        full[..., band[0]] = shaped
    else:
        full[..., band[0][:, None], band[1][None, :]] = shaped
    return full


def _spectral_forward(x: np.ndarray, weight: np.ndarray, band: list[np.ndarray]):
    spatial = tuple(range(2, x.ndim))
    resolution = x.shape[2:]
    x_hat = np.fft.fftn(x, axes=spatial)
    x_modes = _gather_band(x_hat, band)
    y_modes = np.einsum("iom,bim->bom", weight, x_modes)
    y_hat = _scatter_band(y_modes, band, resolution)
    y = np.fft.ifftn(y_hat, axes=spatial).real
    return y, x_modes


def _spectral_backward(grad_y: np.ndarray, weight: np.ndarray, x_modes: np.ndarray,
                       band: list[np.ndarray]):
    spatial = tuple(range(2, grad_y.ndim))
    resolution = grad_y.shape[2:]
    n_points = int(np.prod(resolution))
    gy_hat = np.fft.fftn(grad_y, axes=spatial) / n_points
    gy_modes = _gather_band(gy_hat, band)
    grad_weight = np.einsum("bim,bom->iom", np.conj(x_modes), gy_modes)
    gx_modes = np.einsum("iom,bom->bim", np.conj(weight), gy_modes)
    gx_hat = _scatter_band(gx_modes, band, resolution)
    grad_x = np.fft.ifftn(gx_hat, axes=spatial).real * n_points
    return grad_x, grad_weight


def _pointwise_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    y = np.einsum("oi,bi...->bo...", weight, x)
    return y + bias.reshape(1, -1, *([1] * (x.ndim - 2)))


def _pointwise_backward(grad_y: np.ndarray, x: np.ndarray, weight: np.ndarray):
    grad_x = np.einsum("oi,bo...->bi...", weight, grad_y)
    gy_flat = grad_y.reshape(*grad_y.shape[:2], -1)
    x_flat = x.reshape(*x.shape[:2], -1)
    grad_w = np.einsum("bop,bip->oi", gy_flat, x_flat)
    grad_b = gy_flat.sum(axis=(0, 2))
    return grad_x, grad_w, grad_b


def _forward_batch(model: OperatorModel, x: np.ndarray):
    """Run a batch (B, channels, *spatial); returns output and tape."""
    cfg = model.config
    if x.ndim != cfg.ndim + 2 or x.shape[1] != cfg.channels:
        raise ValueError(
            f"input batch must have shape (B, {cfg.channels}, *spatial) with {cfg.ndim} spatial axes, got {x.shape}"
        )
    band = _band_indices(cfg, x.shape[2:])
    p = _views(model.params, cfg)
    tape: dict = {"x": x, "band": band}

    h = _pointwise_forward(x, p["lift.weight"], p["lift.bias"])
    tape["lift_out"] = h
    for i in range(cfg.n_layers):
        s, x_modes = _spectral_forward(h, p[f"block{i}.spectral"], band)
        z = _pointwise_forward(h, p[f"block{i}.weight"], p[f"block{i}.bias"])
        tape[f"block{i}"] = (h, x_modes, z)
        h = s + gelu(z)
    tape["proj_in"] = h
    y = _pointwise_forward(h, p["proj.weight"], p["proj.bias"])
    return y, tape


def _backward_batch(model: OperatorModel, tape: dict, grad_y: np.ndarray) -> np.ndarray:
    cfg = model.config
    p = _views(model.params, cfg)
    band = tape["band"]
    grads: dict[str, np.ndarray] = {}

    grad_h, grads["proj.weight"], grads["proj.bias"] = _pointwise_backward(
        grad_y, tape["proj_in"], p["proj.weight"]
    )
    for i in reversed(range(cfg.n_layers)):
        h_in, x_modes, z = tape[f"block{i}"]
        grad_s = grad_h
        grad_z = grad_h * gelu_grad(z)
        gx_spec, grads[f"block{i}.spectral"] = _spectral_backward(
            grad_s, p[f"block{i}.spectral"], x_modes, band
        )
        gx_pw, grads[f"block{i}.weight"], grads[f"block{i}.bias"] = _pointwise_backward(
            grad_z, h_in, p[f"block{i}.weight"]
        )
        grad_h = gx_spec + gx_pw
    _, grads["lift.weight"], grads["lift.bias"] = _pointwise_backward(
        grad_h, tape["x"], p["lift.weight"]
    )
    return _pack_grads(cfg, grads)


def forward_values(model: OperatorModel, values: np.ndarray) -> np.ndarray:
    """Single state in, single state out, both shaped (channels, *spatial)."""
    y, _ = _forward_batch(model, np.asarray(values, dtype=np.float64)[None])
    return y[0]


def forward(model: OperatorModel, state: GridField) -> GridField:
    """Apply the operator to one field; the grid rides along unchanged."""
    return GridField(state.grid, forward_values(model, state.values), state.precision)


# -- loss --------------------------------------------------------------------


def loss_and_grad(
    model: OperatorModel,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: str = "mae",
    mask: ConservationMask | None = None,
    correction_targets: np.ndarray | None = None,
):
    """Training loss and its exact gradient for one batch.

    ``inputs`` and ``targets`` are (B, channels, *spatial).  With ``mask``
    given, each prediction's masked channel means are pinned to the
    conserved value of its own input state (or to explicit per-sample
    ``correction_targets`` of shape (B, channels)) before the loss; the
    correction's Jacobian is I - (1/n) 1 1^T per masked channel, so the
    backward pass strips the uniform component of the loss gradient.
    """
    if loss not in ("mae", "mse"):
        raise ValueError(f"unknown loss {loss!r}, expected 'mae' or 'mse'")
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.shape != targets.shape:
        raise ValueError(f"input batch {inputs.shape} and target batch {targets.shape} disagree")

    pred, tape = _forward_batch(model, inputs)
    spatial = tuple(range(2, pred.ndim))
    finite = np.isfinite(pred).all(axis=(1, *spatial))
    if not finite.all():
        raise RuntimeError(f"non-finite prediction for batch index {int(np.flatnonzero(~finite)[0])}")

    if mask is not None:
        if correction_targets is None:
            correction_targets = inputs.mean(axis=spatial)
        pred = pin_channel_means(pred, correction_targets, mask.flags)

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
            # TypeError: unknown config key, wrong value type, or not a JSON object
            config = OperatorConfig(**json.loads(fh.read(config_len).decode()))
            count, crc = struct.unpack("<QI", fh.read(12))
        except (struct.error, TypeError) as exc:
            raise ValueError(f"checkpoint header truncated or malformed: {exc}") from exc
        if count != n_params(config):
            raise ValueError(f"checkpoint holds {count} parameters, its config needs {n_params(config)}")
        blob = fh.read(count * 8)
        if len(blob) != count * 8 or fh.read(1):
            raise ValueError("checkpoint payload truncated or padded")
        if zlib.crc32(blob) != crc:
            raise ValueError("checkpoint payload checksum mismatch")
    params = np.frombuffer(blob, dtype="<f8").copy()
    return OperatorModel(config, params)
