"""Uniform-grid fields and their discrete Fourier bookkeeping.

Fields live on regular tensor-product grids over rectangular domains.
The Fourier convention used throughout the package is fixed here:

    coeff[n] = (1 / prod(N)) * sum_x  u(x) * exp(-2*pi*i * n.x / N)

so that ``coeff[0, ..., 0]`` is the arithmetic mean of the field and the
discrete Parseval identity reads

    cell_volume * sum_x |u(x)|^2 = domain_volume * sum_n |coeff[n]|^2

exactly (in exact arithmetic).  All internal computation is float64;
:class:`Precision` is only the storage width of a dataset file.

The data path (solvers, datasets, model) passes plain arrays plus a
:class:`GridSpec`; :class:`GridField` and :class:`Spectrum` are the typed
references that the correction theory and its checks work on.  Only
the forward transform lives here: those checks compare spectra, so
nothing in the package transforms a spectrum back into a field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Boundary",
    "Precision",
    "GridSpec",
    "GridField",
    "Spectrum",
    "fft_forward",
    "l2_norm",
    "angular_wavenumbers",
    "squared_wavenumber",
]


class Boundary(enum.Enum):
    PERIODIC = "periodic"
    NEUMANN = "neumann"
    WALL = "wall"


class Precision(enum.Enum):
    F32 = "f32"
    F64 = "f64"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype("<f4") if self is Precision.F32 else np.dtype("<f8")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a uniform grid: per-axis physical lengths and resolutions.

    Periodic grids sample at cell left edges ``j * dx``; Neumann and wall
    grids sample at cell centers ``(j + 1/2) * dx``, which is the natural
    collocation for the cosine basis and for finite volumes.
    """

    lengths: tuple[float, ...]
    resolution: tuple[int, ...]
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self) -> None:
        if len(self.lengths) != len(self.resolution):
            raise ValueError(
                f"lengths {self.lengths} and resolution {self.resolution} "
                "must have the same number of axes"
            )
        if len(self.resolution) not in (1, 2):
            raise ValueError(f"only 1-D and 2-D grids supported, got {len(self.resolution)} axes")
        if any(n < 2 for n in self.resolution):
            raise ValueError(f"all resolutions must be >= 2, got {self.resolution}")
        if not all(0 < length < np.inf for length in self.lengths):  # NaN fails both comparisons
            raise ValueError(f"all lengths must be finite and positive, got {self.lengths}")
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        object.__setattr__(self, "resolution", tuple(int(n) for n in self.resolution))

    @classmethod
    def square(cls, n: int, length: float = 1.0, boundary: Boundary = Boundary.PERIODIC) -> "GridSpec":
        return cls(lengths=(length, length), resolution=(n, n), boundary=boundary)

    @classmethod
    def line(cls, n: int, length: float = 1.0) -> "GridSpec":
        """A periodic 1-D grid."""
        return cls(lengths=(length,), resolution=(n,))

    @property
    def ndim(self) -> int:
        return len(self.resolution)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.resolution))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(length / n for length, n in zip(self.lengths, self.resolution))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def coords(self, axis: int) -> np.ndarray:
        """Sample coordinates along one axis, per the boundary convention."""
        n = self.resolution[axis]
        dx = self.spacing[axis]
        if self.boundary is Boundary.PERIODIC:
            return np.arange(n) * dx
        return (np.arange(n) + 0.5) * dx

    def meshgrid(self) -> list[np.ndarray]:
        axes = [self.coords(i) for i in range(self.ndim)]
        return list(np.meshgrid(*axes, indexing="ij"))


def _first_bad_index(values: np.ndarray) -> tuple[int, ...]:
    bad = np.argwhere(~np.isfinite(values))
    return tuple(int(i) for i in bad[0])


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} contains a non-finite entry, first at index {_first_bad_index(values)}")


def _check_field_shape(grid: GridSpec, values: np.ndarray, what: str) -> None:
    if values.ndim != grid.ndim + 1:
        raise ValueError(
            f"{what} must have shape (channels, *spatial); got {values.shape} "
            f"for a {grid.ndim}-D grid (did you forget the channel axis?)"
        )
    if values.shape[1:] != grid.resolution:
        raise ValueError(f"{what} spatial shape {values.shape[1:]} does not match grid {grid.resolution}")


@dataclass(frozen=True)
class GridField:
    """A multi-channel real field sampled on a :class:`GridSpec`.

    ``values`` has shape ``(channels, *resolution)`` and is always float64.
    Instances are treated as immutable: operations return new fields.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        _check_field_shape(self.grid, values, "field values")
        _check_finite(values, "field values")
        object.__setattr__(self, "values", values)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    def channel_means(self) -> np.ndarray:
        spatial = tuple(range(1, self.values.ndim))
        return self.values.mean(axis=spatial)


@dataclass(frozen=True)
class Spectrum:
    """DFT coefficients of a :class:`GridField`, same layout, complex128.

    Mode ``(0, ..., 0)`` holds the arithmetic mean of each channel.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        _check_field_shape(self.grid, coeffs, "spectrum coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def channels(self) -> int:
        return self.coeffs.shape[0]


def angular_wavenumbers(grid: GridSpec) -> list[np.ndarray]:
    """Angular wavenumbers 2*pi*n/L per axis, broadcastable to the grid shape.

    The modes n are exact integers, 0, 1, ..., -1 in FFT storage order.
    """
    ks = []
    for axis, (n, length) in enumerate(zip(grid.resolution, grid.lengths)):
        k = 2.0 * np.pi * np.rint(np.fft.fftfreq(n, d=1.0 / n)) / length
        shape = [1] * grid.ndim
        shape[axis] = n
        ks.append(k.reshape(shape))
    return ks


def squared_wavenumber(grid: GridSpec) -> np.ndarray:
    """|k|^2 on the full grid, the sum of the squared per-axis wavenumbers."""
    k2 = np.zeros(grid.resolution)
    for k in angular_wavenumbers(grid):
        k2 = k2 + k**2
    return k2


def fft_forward(field: GridField) -> Spectrum:
    """Forward DFT of every channel, normalized so coeff(0) is the mean."""
    _check_finite(field.values, "field values")
    spatial = tuple(range(1, field.values.ndim))
    coeffs = np.fft.fftn(field.values, axes=spatial) / field.grid.n_points
    return Spectrum(field.grid, coeffs)


def l2_norm(field: GridField) -> np.ndarray:
    """Per-channel discrete L2 norm sqrt(cell_volume * sum v^2)."""
    spatial = tuple(range(1, field.values.ndim))
    return np.sqrt(field.grid.cell_volume * np.sum(field.values**2, axis=spatial))
