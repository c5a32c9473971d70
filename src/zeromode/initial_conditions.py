"""Random initial conditions for the dataset generators.

Two families: dense random Chebyshev combinations (smooth, wide amplitude
range) and mean-free Gaussian random fields with a fixed spectral density
(periodic problems).  Both are deterministic functions of their seed and
return a plain array of shape ``grid.resolution``, the scalar state the
solvers take.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev

from .grid import Boundary, GridSpec, squared_wavenumber

__all__ = ["chebyshev_ic", "grf_ic"]


def chebyshev_ic(seed, grid: GridSpec, order: int) -> np.ndarray:
    """Random Chebyshev-series field sum_{i,j<order} c_ij T_i(xi) T_j(eta).

    Coefficients are i.i.d. uniform on [-1, 1].  Each axis is mapped
    affinely from [0, L] onto the polynomials' home interval [-1, 1], so
    the sample points follow the grid's own coordinate convention.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    rng = np.random.default_rng(seed)
    xi = 2.0 * grid.coords(0) / grid.lengths[0] - 1.0
    if grid.ndim == 1:
        return chebyshev.chebval(xi, rng.uniform(-1.0, 1.0, order))
    eta = 2.0 * grid.coords(1) / grid.lengths[1] - 1.0
    return chebyshev.chebgrid2d(xi, eta, rng.uniform(-1.0, 1.0, (order, order)))


def grf_ic(seed, grid: GridSpec, tau: float = 5.0, alpha: float = 2.0) -> np.ndarray:
    """Mean-free Gaussian random field with power-law spectral density.

    Mode n carries variance proportional to (4 pi^2 |n|^2 / L^2 + tau^2)^(-alpha)
    and the zero mode is removed, so the sample mean vanishes; dataset
    configs may add a uniform offset afterwards.  Implemented by filtering
    white noise in Fourier space, which keeps the spectrum exactly
    conjugate-symmetric and the output real to rounding.
    """
    if grid.boundary is not Boundary.PERIODIC:
        raise ValueError("random-field sampling assumes a periodic grid")
    if tau <= 0 or alpha <= grid.ndim / 2.0:
        raise ValueError(f"need tau > 0 and alpha > ndim/2 for a well-defined field, got {tau}, {alpha}")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(grid.resolution)
    sigma = tau ** (0.5 * (2.0 * alpha - grid.ndim))
    amplitude = np.sqrt(2.0) * sigma * (squared_wavenumber(grid) + tau**2) ** (-alpha / 2.0)
    amplitude[(0,) * grid.ndim] = 0.0
    spectrum = np.fft.fftn(white) * amplitude
    return np.fft.ifftn(spectrum).real * np.sqrt(grid.n_points)
