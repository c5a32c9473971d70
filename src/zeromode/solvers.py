"""Reference PDE solvers used to manufacture trajectory data.

Periodic diffusion and convection-diffusion are integrated exactly in
Fourier space; the insulated heat equation exactly in the cosine basis.
The conserved Allen-Cahn variants use a semi-implicit spectral stepper
(implicit stiff Laplacian, explicit nonlinearity) with the spatial mean
re-pinned after every step.  Shallow water uses a first-order finite
volume scheme with Rusanov interface fluxes and reflective walls, which
conserves total water mass to rounding by flux telescoping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .grid import Boundary, GridField, GridSpec, angular_wavenumbers

__all__ = [
    "SolverError",
    "ConservationLawSpec",
    "solve_diffusion_exact",
    "solve_convdiff_exact",
    "solve_heat_neumann",
    "solve_allen_cahn",
    "dam_break_state",
    "cfl_number",
    "solve_shallow_water",
    "verify_flux_balance",
]

# Log evaluations in the Flory-Huggins potential clamp the state to
# [-1 + CLAMP_MARGIN, 1 - CLAMP_MARGIN]; a state actually reaching that
# band means the step size is too large for the trajectory.
CLAMP_MARGIN = 1e-6


class SolverError(RuntimeError):
    """A time stepper aborted; ``step`` is the failing step index."""

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        if step is not None:
            message = f"{message} (step {step})"
        super().__init__(message)


@dataclass(frozen=True)
class ConservationLawSpec:
    """Symbolic statement of the conserved balance for one problem.

    Only laws with zero boundary flux and zero source are shipped; the
    residual checker rejects anything else rather than guessing.
    """

    name: str
    flux: str
    source: str = "zero"
    boundary_flux_zero: bool = True


def _squared_wavenumber(grid: GridSpec) -> np.ndarray:
    k2 = np.zeros(grid.resolution)
    for k in angular_wavenumbers(grid):
        k2 = k2 + k**2
    return k2


def _require_scalar_periodic(ic: GridField, who: str) -> np.ndarray:
    if ic.grid.boundary is not Boundary.PERIODIC:
        raise ValueError(f"{who} needs a periodic grid, got {ic.grid.boundary.value}")
    if ic.channels != 1:
        raise ValueError(f"{who} evolves a single scalar channel, got {ic.channels}")
    return ic.values[0]


def solve_diffusion_exact(ic: GridField, d_coeff: float, t: float) -> GridField:
    """Periodic diffusion u_t = D lap(u), advanced exactly in Fourier space.

    Mode n decays by exp(-D |k_n|^2 t); the zero mode (the mean) is
    untouched, so the integral is conserved to rounding.
    """
    u0 = _require_scalar_periodic(ic, "solve_diffusion_exact")
    if d_coeff < 0:
        raise ValueError(f"diffusivity must be nonnegative, got {d_coeff}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    decay = np.exp(-d_coeff * _squared_wavenumber(ic.grid) * t)
    u = np.fft.ifftn(np.fft.fftn(u0) * decay).real
    return GridField.from_scalar(ic.grid, u)


def solve_convdiff_exact(ic: GridField, d_coeff: float, velocity: tuple[float, ...], t: float) -> GridField:
    """Periodic convection-diffusion u_t + v . grad(u) = D lap(u), exact.

    Each mode is multiplied by exp(-(D |k|^2 + i k . v) t); the advective
    phase leaves |coeff| alone and the zero mode is again fixed.
    """
    u0 = _require_scalar_periodic(ic, "solve_convdiff_exact")
    if len(velocity) != ic.grid.ndim:
        raise ValueError(f"velocity {velocity} has wrong arity for a {ic.grid.ndim}-D grid")
    if d_coeff < 0 or t < 0:
        raise ValueError("diffusivity and time must be nonnegative")
    ks = angular_wavenumbers(ic.grid)
    k_dot_v = np.zeros(ic.grid.resolution)
    for k, v in zip(ks, velocity):
        k_dot_v = k_dot_v + k * v
    factor = np.exp(-(d_coeff * _squared_wavenumber(ic.grid) + 1j * k_dot_v) * t)
    u = np.fft.ifftn(np.fft.fftn(u0) * factor).real
    return GridField.from_scalar(ic.grid, u)


def solve_heat_neumann(ic: GridField, d_coeff: float, t: float) -> GridField:
    """Insulated (zero-flux) heat equation, advanced exactly in cosine modes.

    The grid samples at cell centers, where cos(pi n x / L) is precisely
    the type-II DCT basis, so the propagator is diagonal: mode n decays by
    exp(-D (pi n / L)^2 t) per axis.  Mode zero is the mean.
    """
    if ic.grid.boundary is not Boundary.NEUMANN:
        raise ValueError(f"solve_heat_neumann needs a Neumann grid, got {ic.grid.boundary.value}")
    if ic.channels != 1:
        raise ValueError(f"solve_heat_neumann evolves a single scalar channel, got {ic.channels}")
    if d_coeff < 0 or t < 0:
        raise ValueError("diffusivity and time must be nonnegative")
    coeffs = scipy.fft.dctn(ic.values[0], type=2)
    for axis, (n, length) in enumerate(zip(ic.grid.resolution, ic.grid.lengths)):
        shape = [1] * ic.grid.ndim
        shape[axis] = n
        lam = (np.pi * np.arange(n) / length) ** 2
        coeffs = coeffs * np.exp(-d_coeff * lam * t).reshape(shape)
    u = scipy.fft.idctn(coeffs, type=2)
    return GridField.from_scalar(ic.grid, u)


def _double_well(u: np.ndarray) -> np.ndarray:
    return u - u * u * u  # numpy's u**3 calls pow, many times slower


def _flory_huggins(u: np.ndarray, theta: float, theta_c: float) -> np.ndarray:
    uc = np.clip(u, -1.0 + CLAMP_MARGIN, 1.0 - CLAMP_MARGIN)
    return 0.5 * theta * (np.log1p(uc) - np.log1p(-uc)) - theta_c * u


def solve_allen_cahn(
    ic: GridField,
    epsilon: float,
    potential: str,
    dt: float,
    n_steps: int,
    theta: float = 0.8,
    theta_c: float = 1.6,
    project: bool = True,
    snapshot_stride: int | None = None,
) -> np.ndarray:
    """Conserved Allen-Cahn u_t = eps lap(u) + f(u) - mean(f(u)).

    Potentials: "dw" has f(u) = u - u^3; "fh" has
    f(u) = (theta/2) ln((1+u)/(1-u)) - theta_c u with the state clamped
    away from +-1 before the logarithm.  One step solves the Laplacian
    implicitly in Fourier space and treats the (mean-free) nonlinearity
    explicitly; with ``project`` the spatial mean is re-pinned to its
    initial value after every step, making conservation exact by
    construction instead of resting on accumulated rounding.

    Returns the trajectory including the initial state, one frame every
    ``snapshot_stride`` steps (default: only first and last).
    """
    u = _require_scalar_periodic(ic, "solve_allen_cahn").copy()
    if potential not in ("dw", "fh"):
        raise ValueError(f"unknown potential {potential!r}, expected 'dw' or 'fh'")
    if dt <= 0 or n_steps < 1:
        raise ValueError("need dt > 0 and at least one step")
    if snapshot_stride is None:
        snapshot_stride = n_steps
    if n_steps % snapshot_stride != 0:
        raise ValueError(f"snapshot stride {snapshot_stride} does not divide {n_steps} steps")

    mean0 = u.mean()
    denom = 1.0 + dt * epsilon * _squared_wavenumber(ic.grid)
    frames = np.empty((n_steps // snapshot_stride + 1, *ic.grid.resolution))
    frames[0] = u

    for step in range(1, n_steps + 1):
        if potential == "fh":
            if np.abs(u).max() >= 1.0 - CLAMP_MARGIN:
                raise SolverError("state reached the log clamp band, reduce dt", step=step)
            f = _flory_huggins(u, theta, theta_c)
        else:
            f = _double_well(u)
        g = f - f.mean()
        u = np.fft.ifftn((np.fft.fftn(u) + dt * np.fft.fftn(g)) / denom).real
        if not np.all(np.isfinite(u)):
            raise SolverError("state became non-finite", step=step)
        if project:
            u = u + (mean0 - u.mean())
        if step % snapshot_stride == 0:
            frames[step // snapshot_stride] = u
    return frames


def dam_break_state(
    grid: GridSpec,
    center: tuple[float, float] = (0.5, 0.5),
    radius: float = 0.2,
    h_inner: float = 2.0,
    h_outer: float = 1.0,
) -> np.ndarray:
    """Radial dam-break state (h, hu, hv) at rest: raised disc of water."""
    if grid.ndim != 2:
        raise ValueError("shallow water runs on 2-D grids")
    x, y = grid.meshgrid()
    r = np.sqrt((x - center[0]) ** 2 + (y - center[1]) ** 2)
    state = np.zeros((3, *grid.resolution))
    state[0] = np.where(r <= radius, h_inner, h_outer)
    return state


def _swe_flux_x(h, hu, hv, g_r):
    u = hu / h
    return hu, hu * u + 0.5 * g_r * h * h, hv * u


def _swe_flux_y(h, hu, hv, g_r):
    v = hv / h
    return hv, hu * v, hv * v + 0.5 * g_r * h * h


def cfl_number(state: np.ndarray, grid: GridSpec, g_r: float, dt: float) -> float:
    """Courant number dt * max over cells of per-axis (|vel| + c) / dx."""
    h, hu, hv = state
    c = np.sqrt(g_r * h)
    dx, dy = grid.spacing
    return float(dt * max(((np.abs(hu / h) + c) / dx).max(), ((np.abs(hv / h) + c) / dy).max()))


def _rusanov_diff(state: np.ndarray, grid: GridSpec, g_r: float, axis: int) -> np.ndarray:
    """Flux difference F_{i+1/2} - F_{i-1/2} along one axis with wall ghosts."""
    h, hu, hv = state

    def pad(a, flip):
        first = -a[:1] if flip else a[:1]
        last = -a[-1:] if flip else a[-1:]
        return np.concatenate([first, a, last], axis=0)

    if axis == 1:
        h, hu, hv = h.T, hu.T, hv.T
    hp = pad(h, False)
    # mirror the normal momentum at walls, keep the tangential one
    hup = pad(hu, axis == 0)
    hvp = pad(hv, axis == 1)

    flux = _swe_flux_x if axis == 0 else _swe_flux_y
    normal_p = hup if axis == 0 else hvp
    left = (hp[:-1], hup[:-1], hvp[:-1])
    right = (hp[1:], hup[1:], hvp[1:])
    f_left = flux(*left, g_r)
    f_right = flux(*right, g_r)
    speed_left = np.abs(normal_p[:-1] / hp[:-1]) + np.sqrt(g_r * hp[:-1])
    speed_right = np.abs(normal_p[1:] / hp[1:]) + np.sqrt(g_r * hp[1:])
    a_max = np.maximum(speed_left, speed_right)

    diffs = []
    for fl, fr, ql, qr in zip(f_left, f_right, left, right):
        f_star = 0.5 * (fl + fr) - 0.5 * a_max * (qr - ql)
        diffs.append(np.diff(f_star, axis=0))
    out = np.stack(diffs)
    if axis == 1:
        out = out.transpose(0, 2, 1)
    return out


def solve_shallow_water(
    initial: np.ndarray,
    grid: GridSpec,
    g_r: float,
    dt: float,
    n_steps: int,
    snapshot_stride: int | None = None,
    cfl_max: float = 0.45,
) -> np.ndarray:
    """Shallow water (h, hu, hv) with reflective walls, flat bottom.

    First-order finite volumes with Rusanov (local Lax-Friedrichs)
    interface fluxes.  The mirrored wall states make the boundary mass
    flux exactly zero, so total mass is conserved to rounding.  Returns
    frames of the full state, frame 0 being the initial condition.
    """
    if grid.boundary is not Boundary.WALL:
        raise ValueError(f"solve_shallow_water needs a wall-bounded grid, got {grid.boundary.value}")
    state = np.array(initial, dtype=np.float64, copy=True)
    if state.shape != (3, *grid.resolution):
        raise ValueError(f"state must have shape (3, nx, ny), got {state.shape}")
    if state[0].min() <= 0:
        raise ValueError("water depth must be positive everywhere")
    if dt <= 0 or n_steps < 1:
        raise ValueError("need dt > 0 and at least one step")
    if snapshot_stride is None:
        snapshot_stride = n_steps
    if n_steps % snapshot_stride != 0:
        raise ValueError(f"snapshot stride {snapshot_stride} does not divide {n_steps} steps")
    if cfl_number(state, grid, g_r, dt) > cfl_max:
        raise ValueError(
            f"initial CFL number {cfl_number(state, grid, g_r, dt):.3f} exceeds {cfl_max}; reduce dt"
        )

    dx, dy = grid.spacing
    frames = np.empty((n_steps // snapshot_stride + 1, 3, *grid.resolution))
    frames[0] = state
    for step in range(1, n_steps + 1):
        if cfl_number(state, grid, g_r, dt) > cfl_max:
            raise SolverError(f"CFL number exceeded {cfl_max} mid-run, reduce dt", step=step)
        state = (
            state
            - (dt / dx) * _rusanov_diff(state, grid, g_r, axis=0)
            - (dt / dy) * _rusanov_diff(state, grid, g_r, axis=1)
        )
        if not np.all(np.isfinite(state)):
            raise SolverError("state became non-finite", step=step)
        if state[0].min() <= 0.0:
            raise SolverError("water depth lost positivity", step=step)
        if step % snapshot_stride == 0:
            frames[step // snapshot_stride] = state
    return frames


def verify_flux_balance(
    trajectory: np.ndarray,
    frame_dt: float,
    grid: GridSpec,
    law: ConservationLawSpec,
) -> np.ndarray:
    """Residual of the integral balance dE/dt = -boundary flux + source.

    For the shipped laws both right-hand terms vanish, so the residual is
    just |dE/dt| with dE/dt estimated by centered differences (one-sided
    at the ends).  ``trajectory`` has shape (frames, channels, *spatial);
    the result has shape (frames, channels).
    """
    if law.source != "zero" or not law.boundary_flux_zero:
        raise ValueError(f"law {law.name!r} has nonzero boundary terms, which this checker does not model")
    traj = np.asarray(trajectory, dtype=np.float64)
    if traj.ndim != grid.ndim + 2:
        raise ValueError(f"trajectory must have shape (frames, channels, *spatial), got {traj.shape}")
    if traj.shape[0] < 3:
        raise ValueError(f"need at least 3 frames to estimate dE/dt, got {traj.shape[0]}")
    if frame_dt <= 0:
        raise ValueError(f"frame spacing must be positive, got {frame_dt}")
    spatial = tuple(range(2, traj.ndim))
    energy = grid.cell_volume * traj.sum(axis=spatial)
    dedt = np.empty_like(energy)
    dedt[1:-1] = (energy[2:] - energy[:-2]) / (2.0 * frame_dt)
    dedt[0] = (energy[1] - energy[0]) / frame_dt
    dedt[-1] = (energy[-1] - energy[-2]) / frame_dt
    return np.abs(dedt)
