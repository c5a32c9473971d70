"""Reference PDE solvers used to manufacture trajectory data.

Periodic diffusion and convection-diffusion are integrated exactly in
Fourier space; the insulated heat equation exactly in the cosine basis.
The conserved Allen-Cahn variants use a semi-implicit spectral stepper
(implicit stiff Laplacian, explicit nonlinearity) with the spatial mean
re-pinned after every step.  Shallow water uses a first-order finite
volume scheme with Rusanov interface fluxes and reflective walls, which
conserves total water mass to rounding by flux telescoping.

Every solver takes a batch of initial states, stepped together, and the
grid they live on, and returns an array: ``solve_*(initial, grid, ...)``.
A scalar batch is (samples, *grid.resolution), a water batch (samples, 3,
nx, ny), and one state goes in as a batch of one.  The exact propagators
take a 1-D array of times, transform each sample once and make every frame
in one batched inverse transform: (samples, times, *spatial).  Allen-Cahn
and shallow water return (samples, frames, ...).
The Allen-Cahn step takes one real forward transform of ``u + dt g``
(the update is linear, so this equals the sum of the two transforms) and
one inverse over the whole batch, and builds g and both transforms in
buffers held for the solve; "fh" needs no clip, as its clamp-band abort comes first.  The
shallow-water step forms velocities, wave speeds and fluxes once per
cell, with wall ghosts that sign-flip the edge cells.  Both keep the
plain formulas' operation order, bit for bit.  Every solver checks its
grid's boundary, the state's shape and its finiteness in one shared
helper before it steps; the two time steppers check the step size, the
step count and the snapshot stride, and allocate their frames, in
another.  Means, clamp, CFL (at most ``CFL_MAX``), positivity and
finiteness are checked per sample, and an error names the first failing
sample.

Every transform comes from numpy, so the package's one runtime
dependency is numpy.  numpy's FFT runs lane by lane on a strided axis, so
the Allen-Cahn step transforms the last axis as it lies and the first one
on a transposed, C-contiguous copy.  numpy 2 and scipy share pocketfft:
on power-of-two grids, every preset's, these lanes give the bytes
``scipy.fft.rfftn``/``irfftn`` give; on others the inverse's two 1/n
scalings, one per axis where scipy takes one, may round apart.  numpy has no cosine transform,
so the heat solver's type-II DCT and its inverse are matmuls against a
cosine table cached per resolution, O(n) per point per axis, equal to
``scipy.fft.dctn``/``idctn`` at rounding level.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import Boundary, GridSpec, angular_wavenumbers, squared_wavenumber

__all__ = [
    "SolverError",
    "solve_diffusion_exact",
    "solve_convdiff_exact",
    "solve_heat_neumann",
    "solve_allen_cahn",
    "dam_break_state",
    "solve_shallow_water",
    "verify_flux_balance",
]

# The Flory-Huggins stepper aborts once the state reaches |u| >= 1 - CLAMP_MARGIN,
# which means the step size is too large for the trajectory; its logarithms
# see only states inside that band.
CLAMP_MARGIN = 1e-6
# Largest per-axis Courant number the shallow-water step accepts, at the
# start and at every step.  The unsplit 2-D update is stable while the two
# per-axis numbers sum to at most 1, which 0.5 per axis guarantees.
CFL_MAX = 0.45
# Water depth around a dam-break disc.
DAM_H_OUTER = 1.0


class SolverError(RuntimeError):
    """A time stepper aborted.

    ``step`` is the failing step index; ``sample`` is the index of the
    first failing sample of the batch (None when no sample is named).
    """

    def __init__(self, message: str, step: int | None = None, sample: int | None = None):
        self.step = step
        self.sample = sample
        where = [f"{name} {value}" for name, value in (("sample", sample), ("step", step)) if value is not None]
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


def _abort_if(bad: np.ndarray, message: str, step: int) -> None:
    """Raise a SolverError naming the first sample flagged in ``bad`` (one flag per sample)."""
    if bad.any():
        raise SolverError(message, step=step, sample=int(np.argmax(bad)))


def _state_batch(
    initial: np.ndarray, grid: GridSpec, who: str, boundary: Boundary, sample_shape: tuple[int, ...] | None = None
) -> np.ndarray:
    """The (samples, *sample_shape) batch ``initial`` as a C-contiguous float64 array.

    ``sample_shape`` is one sample's shape, ``grid.resolution`` for a
    scalar state.  The grid's boundary, the batch's shape and its
    finiteness are checked here, for every solver.
    """
    sample_shape = grid.resolution if sample_shape is None else sample_shape
    if grid.boundary is not boundary:
        name = "Neumann" if boundary is Boundary.NEUMANN else boundary.value
        raise ValueError(f"{who} needs a {name} grid, got {grid.boundary.value}")
    u = np.ascontiguousarray(initial, dtype=np.float64)
    if u.shape[1:] != sample_shape:
        batch = ", ".join(map(str, ("samples", *sample_shape)))
        raise ValueError(f"{who}: state shape {u.shape} is not the grid's batch shape ({batch})")
    bad = ~np.isfinite(u).all(axis=tuple(range(1, u.ndim)))
    if bad.any():
        raise ValueError(f"{who}: initial state is not finite in sample {int(np.argmax(bad))}")
    return u


def _frame_buffer(state: np.ndarray, dt: float, n_steps: int, snapshot_stride: int) -> np.ndarray:
    """A time stepper's frames (samples, n_steps // snapshot_stride + 1, ...), frame 0 holding ``state``."""
    if dt <= 0 or n_steps < 1:
        raise ValueError("need dt > 0 and at least one step")
    if snapshot_stride < 1 or n_steps % snapshot_stride != 0:
        raise ValueError(f"snapshot stride {snapshot_stride} does not divide {n_steps} steps")
    frames = np.empty((state.shape[0], n_steps // snapshot_stride + 1, *state.shape[1:]))
    frames[:, 0] = state
    return frames


def _propagate(u0: np.ndarray, times, forward, inverse, advance) -> np.ndarray:
    """Frames (samples, times, *spatial) of a linear propagator that is diagonal in a transform basis.

    ``u0`` is (samples, *spatial) and ``times`` 1-D.  Each sample is
    transformed once; every frame is one batched inverse transform of
    ``advance(coeffs, t)``, written straight into its slot, so the working
    set stays a few batch-sized arrays.
    """
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or (t < 0).any():
        raise ValueError(f"times must be a 1-D array of nonnegative times, got {times}")
    axes = tuple(range(1, u0.ndim))
    coeffs = forward(u0, axes=axes)
    out = np.empty((u0.shape[0], t.size, *u0.shape[1:]))
    for f, time in enumerate(t):
        out[:, f] = inverse(advance(coeffs, time), axes=axes).real
    return out


def solve_diffusion_exact(initial: np.ndarray, grid: GridSpec, d_coeff: float, times: np.ndarray) -> np.ndarray:
    """Periodic diffusion u_t = D lap(u), advanced exactly in Fourier space.

    Mode n decays by exp(-D |k_n|^2 t); the zero mode (the mean) is
    untouched, so the integral is conserved to rounding.  ``initial`` is
    (samples, *spatial) and ``times`` 1-D: the result is (samples, times, *spatial).
    """
    u0 = _state_batch(initial, grid, "solve_diffusion_exact", Boundary.PERIODIC)
    if d_coeff < 0:
        raise ValueError(f"diffusivity must be nonnegative, got {d_coeff}")
    rate = -d_coeff * squared_wavenumber(grid)
    return _propagate(u0, times, np.fft.fftn, np.fft.ifftn, lambda c, t: c * np.exp(rate * t))


def solve_convdiff_exact(
    initial: np.ndarray, grid: GridSpec, d_coeff: float, velocity: tuple[float, ...], times: np.ndarray
) -> np.ndarray:
    """Periodic convection-diffusion u_t + v . grad(u) = D lap(u), exact.

    Each mode is multiplied by exp(-(D |k|^2 + i k . v) t); the advective
    phase leaves |coeff| alone and the zero mode is again fixed.  Shapes
    as in :func:`solve_diffusion_exact`.
    """
    u0 = _state_batch(initial, grid, "solve_convdiff_exact", Boundary.PERIODIC)
    if len(velocity) != grid.ndim:
        raise ValueError(f"velocity {velocity} has wrong arity for a {grid.ndim}-D grid")
    if d_coeff < 0:
        raise ValueError(f"diffusivity must be nonnegative, got {d_coeff}")
    k_dot_v = np.zeros(grid.resolution)
    for k, v in zip(angular_wavenumbers(grid), velocity):
        k_dot_v = k_dot_v + k * v
    rate = -(d_coeff * squared_wavenumber(grid) + 1j * k_dot_v)
    return _propagate(u0, times, np.fft.fftn, np.fft.ifftn, lambda c, t: c * np.exp(rate * t))


@functools.lru_cache
def _cosine_table(n: int) -> np.ndarray:
    """C[k, j] = cos(pi k (2j + 1) / (2n)), the type-II cosine basis on n cell centers, read-only.

    The numerator k (2j + 1) is reduced mod 4n first, so every angle lies in [0, 2 pi).
    """
    table = np.cos(np.pi * (np.outer(np.arange(n), 2 * np.arange(n) + 1) % (4 * n)) / (2 * n))
    table.setflags(write=False)
    return table


def _along(table: np.ndarray, u: np.ndarray, axis: int) -> np.ndarray:
    """sum_j table[k, j] u[..., j, ...] on ``axis`` of ``u``, its last or second-to-last axis."""
    if axis % u.ndim == u.ndim - 1:
        return u @ table.T
    return table @ u


def _cosine_forward(u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Type-II DCT on ``axes``, ``scipy.fft.dctn(u, type=2)``: y_k = 2 sum_j C[k, j] u_j per axis."""
    for axis in axes:
        u = _along(2.0 * _cosine_table(u.shape[axis]), u, axis)
    return u


def _cosine_inverse(y: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_cosine_forward`, ``scipy.fft.idctn(y, type=2)``: the table C^T diag(w) per axis.

    u_j = sum_k C[k, j] w_k y_k with w_0 = 1/(2n) and w_k = 1/n above.
    """
    for axis in axes:
        n = y.shape[axis]
        weight = np.full(n, 1.0 / n)
        weight[0] = 0.5 / n
        y = _along(_cosine_table(n).T * weight, y, axis)
    return y


def solve_heat_neumann(initial: np.ndarray, grid: GridSpec, d_coeff: float, times: np.ndarray) -> np.ndarray:
    """Insulated (zero-flux) heat equation, advanced exactly in cosine modes.

    The grid samples at cell centers, where cos(pi n x / L) is precisely
    the type-II DCT basis, so the propagator is diagonal: mode n decays by
    exp(-D (pi n / L)^2 t) per axis.  Mode zero is the mean.  numpy has no
    DCT, so the transform pair is a matmul per axis against a cosine table
    cached per resolution (module docstring).  Shapes as in
    :func:`solve_diffusion_exact`.
    """
    u0 = _state_batch(initial, grid, "solve_heat_neumann", Boundary.NEUMANN)
    if d_coeff < 0:
        raise ValueError(f"diffusivity must be nonnegative, got {d_coeff}")
    lams = []
    for axis, (n, length) in enumerate(zip(grid.resolution, grid.lengths)):
        shape = [1] * grid.ndim
        shape[axis] = n
        lams.append(((np.pi * np.arange(n) / length) ** 2).reshape(shape))

    def advance(coeffs, t):
        for lam in lams:
            coeffs = coeffs * np.exp(-d_coeff * lam * t)
        return coeffs

    return _propagate(u0, times, _cosine_forward, _cosine_inverse, advance)


def _sample_means(a: np.ndarray) -> np.ndarray:
    """``a.mean`` over all but the first axis, kept: the same sum and divide, less call overhead."""
    return np.add.reduce(a, axis=tuple(range(1, a.ndim)), keepdims=True) / a[0].size


def _double_well(u: np.ndarray, out: np.ndarray) -> None:
    """f(u) = u - u^3 into ``out``, as u - (u u) u; numpy's u**3 calls pow, many times slower."""
    np.multiply(u, u, out=out)
    out *= u
    np.subtract(u, out, out=out)


def _flory_huggins(u: np.ndarray, theta: float, theta_c: float, out: np.ndarray, scratch: np.ndarray) -> None:
    """f(u) = (theta/2) (log1p(u) - log1p(-u)) - theta_c u into ``out``, for |u| inside the clamp band."""
    np.log1p(u, out=out)
    out -= np.log1p(np.negative(u, out=scratch), out=scratch)
    out *= 0.5 * theta
    out -= np.multiply(u, theta_c, out=scratch)


def _real_buffers(u: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Held buffers for :func:`_real_forward` of a real (samples, *spatial) batch: (half, lanes).

    ``half`` holds the last axis's real FFT, (samples, *spatial[:-1], n1 // 2 + 1);
    on a 2-D grid ``lanes`` holds it transposed, (samples, n1 // 2 + 1, n0), and on a 1-D grid is None.
    """
    half = np.empty((*u.shape[:-1], u.shape[-1] // 2 + 1), dtype=complex)
    return half, np.empty(half.transpose(0, 2, 1).shape, dtype=complex) if u.ndim == 3 else None


def _real_forward(u: np.ndarray, half: np.ndarray, lanes: np.ndarray | None) -> np.ndarray:
    """``scipy.fft.rfftn`` of a real (samples, *spatial) batch, every FFT on contiguous lanes.

    Written into :func:`_real_buffers`' buffers.  On a 2-D grid the first axis
    is transformed in ``lanes``, a transposed C-contiguous copy, since numpy's
    FFT runs lane by lane on a strided axis, and ``lanes`` is returned.
    """
    np.fft.rfft(u, out=half)
    if lanes is None:
        return half
    np.copyto(lanes, half.transpose(0, 2, 1))
    return np.fft.fft(lanes, out=lanes)


def _real_inverse(coeffs: np.ndarray, half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``scipy.fft.irfftn`` of :func:`_real_forward`'s coefficients into ``out``, (samples, *spatial).

    On a 2-D grid the first axis is inverted in place in ``coeffs`` and copied back through ``half``.
    """
    if coeffs.ndim == 3:
        np.fft.ifft(coeffs, out=coeffs)
        np.copyto(half, coeffs.transpose(0, 2, 1))
    return np.fft.irfft(half, n=out.shape[-1], out=out)


def solve_allen_cahn(
    initial: np.ndarray,
    grid: GridSpec,
    epsilon: float,
    potential: str,
    dt: float,
    n_steps: int,
    snapshot_stride: int,
    theta: float = 0.8,
    theta_c: float = 1.6,
) -> np.ndarray:
    """Conserved Allen-Cahn u_t = eps lap(u) + f(u) - mean(f(u)).

    Potentials: "dw" has f(u) = u - u^3; "fh" has f(u) = (theta/2)
    ln((1+u)/(1-u)) - theta_c u, and an "fh" step first aborts if a value
    has reached the clamp band |u| >= 1 - CLAMP_MARGIN, so the logarithms
    see only values inside it and need no clip.  A step solves the
    Laplacian implicitly in Fourier space and treats the (mean-free)
    nonlinearity explicitly, with one real forward transform of u + dt g
    and one inverse, all in buffers held for the solve; the spatial mean
    is then re-pinned to its initial value, making conservation exact by
    construction instead of resting on accumulated rounding.

    ``initial`` is (samples, *spatial); the samples are stepped together,
    and every sample keeps its own mean and its own checks.  Returns the
    trajectories including the initial states, one frame every
    ``snapshot_stride`` steps, shape (samples, frames, *spatial).
    """
    u = _state_batch(initial, grid, "solve_allen_cahn", Boundary.PERIODIC)
    if potential not in ("dw", "fh"):
        raise ValueError(f"unknown potential {potential!r}, expected 'dw' or 'fh'")
    frames = _frame_buffer(u, dt, n_steps, snapshot_stride)

    axes = tuple(range(1, u.ndim))
    mean0 = _sample_means(u)
    # the real transform keeps the nonnegative half of the last axis, transposed on a 2-D grid
    implicit = 1.0 / (1.0 + dt * epsilon * squared_wavenumber(grid)[..., : grid.resolution[-1] // 2 + 1])
    implicit = np.ascontiguousarray(implicit.T, dtype=complex)  # the cast numpy's complex-by-real multiply makes, once
    g, scratch = np.empty_like(u), np.empty_like(u)
    half, lanes = _real_buffers(u)
    state = np.empty_like(u)  # the steps' states, never the caller's array
    band = 1.0 - CLAMP_MARGIN

    for step in range(1, n_steps + 1):
        if potential == "fh":
            if u.max() >= band or u.min() <= -band:  # then find the first sample out
                outside = (u.max(axis=axes) >= band) | (u.min(axis=axes) <= -band)
                _abort_if(outside, "state reached the log clamp band, reduce dt", step)
            _flory_huggins(u, theta, theta_c, g, scratch)
        else:
            _double_well(u, g)
        g -= _sample_means(g)
        g *= dt
        g += u
        coeffs = _real_forward(g, half, lanes)
        coeffs *= implicit
        u = _real_inverse(coeffs, half, state)
        mean = _sample_means(u)
        if not np.isfinite(mean).all():  # a non-finite value always spoils its sample's mean
            _abort_if(~np.isfinite(u).all(axis=axes), "state became non-finite", step)
        u += mean0 - mean
        if step % snapshot_stride == 0:
            frames[:, step // snapshot_stride] = u
    return frames


def dam_break_state(
    grid: GridSpec,
    radius: float,
    h_inner: float,
    center: tuple[float, float] = (0.5, 0.5),
) -> np.ndarray:
    """Radial dam-break state (h, hu, hv) at rest: a disc of depth ``h_inner`` in water of depth ``DAM_H_OUTER``."""
    if grid.ndim != 2:
        raise ValueError("shallow water runs on 2-D grids")
    x, y = grid.meshgrid()
    r = np.sqrt((x - center[0]) ** 2 + (y - center[1]) ** 2)
    state = np.zeros((3, *grid.resolution))
    state[0] = np.where(r <= radius, h_inner, DAM_H_OUTER)
    return state


def _courant(speed_x: np.ndarray, speed_y: np.ndarray, grid: GridSpec, dt: float) -> np.ndarray:
    """dt * max over cells of per-axis speed / dx, per sample (monotone rounding: max, then divide)."""
    dx, dy = grid.spacing
    return dt * np.maximum(speed_x.max(axis=(-2, -1)) / dx, speed_y.max(axis=(-2, -1)) / dy)


def _rusanov_terms(state: np.ndarray, g_r: float, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Wave speeds |vel| + c per padded cell and the flux difference F_{i+1/2} - F_{i-1/2} along one axis.

    ``state`` is channel-major, (3, samples, nx, ny); ``axis`` is -2 (x)
    or -1 (y), with the normal and tangential momenta as hu and hv.  A
    wall ghost sign-flips its edge cell's normal momentum, so its speed
    is the edge's and its fluxes the edge's or their exact negatives.
    Each channel is worked on flat, a cell's neighbour ``shift`` entries
    on, so every operation runs on whole contiguous arrays; interfaces
    that straddle two rows or samples are computed and dropped.
    """
    normal = 1 if axis == -2 else 2

    def cut(s):
        return (Ellipsis, s, slice(None)) if axis == -2 else (Ellipsis, s)

    q = np.concatenate([state[cut(slice(None, 1))], state, state[cut(slice(-1, None))]], axis=axis)
    for ghost in (cut(0), cut(-1)):  # mirror the normal momentum at walls, keep the tangential one
        np.negative(q[normal][ghost], out=q[normal][ghost])
    shift = q.shape[-1] if axis == -2 else 1
    h, qn, qt = (q[c].reshape(-1) for c in (0, normal, 3 - normal))
    vel = qn / h
    speed = np.abs(vel) + np.sqrt(g_r * h)
    fluxes = (qn, qn * vel + 0.5 * g_r * h * h, qt * vel)
    half_a = 0.5 * np.maximum(speed[:-shift], speed[shift:])
    out = np.empty(q.shape)
    for channel, f, qc in zip((0, normal, 3 - normal), fluxes, (h, qn, qt)):
        f_star = 0.5 * (f[:-shift] + f[shift:]) - half_a * (qc[shift:] - qc[:-shift])
        np.subtract(f_star[shift:], f_star[:-shift], out=out[channel].reshape(-1)[: f_star.size - shift])
    return speed.reshape(q.shape[1:]), out[cut(slice(None, -2))]


def solve_shallow_water(
    initial: np.ndarray,
    grid: GridSpec,
    g_r: float,
    dt: float,
    n_steps: int,
    snapshot_stride: int,
) -> np.ndarray:
    """Shallow water (h, hu, hv) with reflective walls, flat bottom.

    First-order finite volumes with Rusanov (local Lax-Friedrichs)
    interface fluxes.  The mirrored wall states make the boundary mass
    flux exactly zero, so total mass is conserved to rounding.  A step
    forms velocities, wave speeds |vel| + c and fluxes once per cell,
    sign-flipped wall ghosts included, and reads its CFL number off them.
    ``initial`` is a batch (samples, 3, nx, ny), stepped together with
    per-sample CFL (at most ``CFL_MAX``) and positivity checks.  Returns
    frames of the full state, one every ``snapshot_stride`` steps,
    (samples, frames, 3, nx, ny), frame 0 being the initial condition.  A
    CFL number over the bound in the initial state is bad input
    (ValueError); one reached mid-run aborts the run (SolverError).
    """
    state = _state_batch(initial, grid, "solve_shallow_water", Boundary.WALL, (3, *grid.resolution))
    shallow = state[:, 0].min(axis=(-2, -1)) <= 0
    if shallow.any():
        raise ValueError(f"water depth must be positive everywhere in sample {int(np.argmax(shallow))}")
    frames = _frame_buffer(state, dt, n_steps, snapshot_stride)
    dx, dy = grid.spacing
    state = np.ascontiguousarray(state.swapaxes(0, 1))  # channel-major: each channel's batch is contiguous
    for step in range(1, n_steps + 1):
        speed_x, diff_x = _rusanov_terms(state, g_r, axis=-2)
        speed_y, diff_y = _rusanov_terms(state, g_r, axis=-1)
        cfl = _courant(speed_x, speed_y, grid, dt)
        if step == 1 and (cfl > CFL_MAX).any():  # the initial state is bad input, not a failed run
            at = int(np.argmax(cfl > CFL_MAX))
            raise ValueError(f"initial CFL number {cfl.max():.3f} exceeds {CFL_MAX} in sample {at}; reduce dt")
        _abort_if(cfl > CFL_MAX, f"CFL number exceeded {CFL_MAX} mid-run, reduce dt", step)
        state = state - (dt / dx) * diff_x - (dt / dy) * diff_y
        _abort_if(~np.isfinite(state).all(axis=(0, 2, 3)), "state became non-finite", step)
        _abort_if(state[0].min(axis=(-2, -1)) <= 0.0, "water depth lost positivity", step)
        if step % snapshot_stride == 0:
            frames[:, step // snapshot_stride] = state.swapaxes(0, 1)
    return frames


def verify_flux_balance(trajectory: np.ndarray, frame_dt: float, grid: GridSpec) -> np.ndarray:
    """Residual of the integral balance dE/dt = -boundary flux + source.

    The checker models zero source and zero boundary flux, which holds for
    every shipped problem: periodic, insulated and reflective boundaries
    carry no flux.  The residual is then just |dE/dt|, with dE/dt
    estimated by centered differences (one-sided at the ends).
    ``trajectory`` has shape (frames, channels, *spatial); the result has
    shape (frames, channels).
    """
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
