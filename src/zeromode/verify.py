"""Self-check suites for the guarantees the package leans on.

Three suites, runnable from the CLI: ``theorems`` exercises the exact
algebra of the zero-mode correction, ``solvers`` holds the reference
dynamics to closed-form oracles, ``gradients`` re-derives the hand
adjoints by finite differences and the optimizer update in closed form.
Every check times itself and, on failure, names the first counterexample
(trial seed plus the offending quantity).

The field-side correction entry point is injectable: running the suite
against a deliberately broken pin function must produce failures, and the
test suite checks exactly that, so a silent regression in these checks
would itself be caught.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .correction import (
    ConservationMask,
    check_error_reduction,
    correct_spectrum,
    encode_conserved,
    error_decomposition,
    pin_channel_means,
)
from .grid import Boundary, GridField, GridSpec, fft_forward, l2_norm
from .initial_conditions import grf_ic
from .model import OperatorConfig, OperatorModel, init_model, loss_and_grad
from .optim import adamw_step, init_optimizer
from .solvers import (
    ConservationLawSpec,
    dam_break_state,
    solve_allen_cahn,
    solve_convdiff_exact,
    solve_diffusion_exact,
    solve_heat_neumann,
    solve_shallow_water,
    verify_flux_balance,
)

__all__ = ["CheckResult", "available_suites", "run_checks", "format_results", "all_passed"]

CorrectionFn = Callable[[np.ndarray, np.ndarray, tuple], np.ndarray]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    elapsed: float
    detail: str = ""


_REGISTRY: list[tuple[str, str, Callable]] = []


def _register(suite: str, name: str):
    def deco(fn):
        _REGISTRY.append((suite, name, fn))
        return fn

    return deco


def available_suites() -> tuple[str, ...]:
    return ("theorems", "solvers", "gradients")


# -- theorems ----------------------------------------------------------------


@_register("theorems", "mean_pinning")
def _check_mean_pinning(correction: CorrectionFn):
    for seed in range(25):
        rng = np.random.default_rng(seed)
        channels = int(rng.integers(1, 4))
        flags = tuple(bool(b) for b in rng.integers(0, 2, channels))
        if not any(flags):
            flags = (True,) + flags[1:]
        values = rng.normal(0.8, 1.0, size=(channels, 12, 12))
        targets = rng.normal(1.0, 0.5, size=channels)
        out = correction(values, targets, flags)
        for c in range(channels):
            if flags[c]:
                gap = abs(out[c].mean() - targets[c])
                if gap > 1e-12:
                    return f"seed {seed}: channel {c} mean misses its target by {gap:.2e}"
            elif not np.array_equal(out[c], values[c]):
                return f"seed {seed}: unmasked channel {c} was modified"
    return None


@_register("theorems", "shift_only_action")
def _check_shift_only(correction: CorrectionFn):
    for seed in range(25):
        rng = np.random.default_rng(100 + seed)
        values = rng.normal(0.8, 1.0, size=(2, 10, 10))
        targets = rng.normal(1.0, 0.5, size=2)
        out = correction(values, targets, (True, True))
        diff = out - values
        for c in range(2):
            spread = np.ptp(diff[c])
            if spread > 1e-12 * max(1.0, np.abs(diff[c]).max()):
                return f"seed {seed}: channel {c} correction is not a uniform shift (spread {spread:.2e})"
    return None


@_register("theorems", "spectral_zero_mode_surgery")
def _check_spectrum_path(correction: CorrectionFn):
    grid = GridSpec.square(12)
    mask = ConservationMask((True,))
    for seed in range(15):
        rng = np.random.default_rng(200 + seed)
        pred = GridField(grid, rng.normal(0.5, 1.0, size=(1, 12, 12)))
        ref = GridField(grid, rng.normal(1.0, 1.0, size=(1, 12, 12)))
        target = encode_conserved(ref, mask)
        spec = fft_forward(pred)
        out = correct_spectrum(spec, target, mask)
        if out.coeffs[0][(0,) * grid.ndim] != target.zero_mode[0] + 0.0j:
            return f"seed {seed}: zero mode not exactly replaced"
        a = spec.coeffs.copy()
        b = out.coeffs.copy()
        a[0][0, 0] = 0.0
        b[0][0, 0] = 0.0
        if not np.array_equal(a, b):
            return f"seed {seed}: a nonzero mode changed"
        twice = correct_spectrum(out, target, mask)
        if not np.array_equal(twice.coeffs, out.coeffs):
            return f"seed {seed}: correction is not idempotent"
    return None


@_register("theorems", "error_reduction_bound")
def _check_error_reduction(correction: CorrectionFn):
    grid = GridSpec.square(12)
    mask = ConservationMask((True,))
    for seed in range(200):
        rng = np.random.default_rng(300 + seed)
        truth = rng.normal(1.0, 1.0, size=(1, 12, 12))
        pred = truth + rng.normal(0.0, 0.5, size=(1, 12, 12)) + rng.normal(0.0, 0.3)
        input_state = rng.normal(0.0, 1.0, size=(1, 12, 12))
        input_state += truth.mean() - input_state.mean()  # conserving data
        if seed % 3 == 0:
            pred += truth.mean() - pred.mean()  # force the equality case
        report = check_error_reduction(
            GridField(grid, pred), GridField(grid, truth), GridField(grid, input_state), mask
        )
        if not report.bound_holds:
            return f"seed {seed}: corrected error exceeds the raw error"
        gap = abs(pred.mean() - truth.mean())
        if (gap <= 1e-12) != report.equality:
            return f"seed {seed}: equality flag wrong for mean gap {gap:.2e}"
        if report.equality and abs(report.err_after[0] - report.err_before[0]) > 1e-12:
            return f"seed {seed}: equality case changed the error"
    return None


@_register("theorems", "error_decomposition_totals")
def _check_error_decomposition(correction: CorrectionFn):
    grid = GridSpec.square(10)
    for seed in range(40):
        rng = np.random.default_rng(400 + seed)
        pred = GridField(grid, rng.normal(size=(2, 10, 10)))
        truth = GridField(grid, rng.normal(size=(2, 10, 10)))
        split = error_decomposition(pred, truth)
        direct = l2_norm(GridField(grid, pred.values - truth.values)) ** 2
        recomposed = grid.volume * (split.zero_mode_sq + split.nonzero_sq)
        if not np.allclose(split.total_sq, direct, rtol=1e-12, atol=1e-15):
            return f"seed {seed}: split total disagrees with the quadrature norm"
        if not np.allclose(split.total_sq, recomposed, rtol=1e-12, atol=1e-15):
            return f"seed {seed}: zero + nonzero parts do not add up"
    return None


# -- solvers -----------------------------------------------------------------


@_register("solvers", "diffusion_single_mode_decay")
def _check_diffusion(correction: CorrectionFn):
    grid = GridSpec.line(64, length=2.0)
    x = grid.coords(0)
    d, t, n = 0.05, 0.3, 3
    ic = GridField(grid, (1.0 + np.cos(2 * np.pi * n * x / 2.0))[None])
    out = solve_diffusion_exact(ic, d, t)
    k2 = (2 * np.pi * n / 2.0) ** 2
    expected = 1.0 + np.exp(-d * k2 * t) * np.cos(2 * np.pi * n * x / 2.0)
    gap = np.abs(out.values[0] - expected).max()
    return None if gap < 1e-12 else f"single-mode decay off by {gap:.2e}"


@_register("solvers", "convection_is_transport")
def _check_convection(correction: CorrectionFn):
    grid = GridSpec.line(32)
    rng = np.random.default_rng(7)
    ic = GridField(grid, rng.normal(size=(1, 32)))
    # velocity 1, time 4/32: shift by exactly 4 cells, no diffusion
    out = solve_convdiff_exact(ic, 0.0, (1.0,), 4 / 32)
    gap = np.abs(out.values[0] - np.roll(ic.values[0], 4)).max()
    return None if gap < 1e-10 else f"pure advection differs from a cyclic shift by {gap:.2e}"


@_register("solvers", "heat_eigenmode_decay")
def _check_heat(correction: CorrectionFn):
    grid = GridSpec(lengths=(1.0,), resolution=(48,), boundary=Boundary.NEUMANN)
    x = grid.coords(0)
    d, t = 0.02, 0.4
    ic = GridField(grid, (2.0 + np.cos(np.pi * x))[None])
    out = solve_heat_neumann(ic, d, t)
    expected = 2.0 + np.exp(-d * np.pi**2 * t) * np.cos(np.pi * x)
    gap = np.abs(out.values[0] - expected).max()
    return None if gap < 1e-10 else f"Neumann eigenmode decay off by {gap:.2e}"


@_register("solvers", "allen_cahn_mass_pinned")
def _check_allen_cahn_mass(correction: CorrectionFn):
    grid = GridSpec.square(32)
    ic = grf_ic([5, 0], grid)
    ic = GridField(grid, ic.values + 0.1)
    frames = solve_allen_cahn(ic, epsilon=0.01, potential="dw", dt=1e-4, n_steps=400,
                              snapshot_stride=100)
    drift = np.abs(frames.mean(axis=(1, 2)) - ic.values[0].mean()).max()
    return None if drift < 1e-12 else f"projected mass drifted by {drift:.2e}"


@_register("solvers", "allen_cahn_dt_convergence")
def _check_allen_cahn_order(correction: CorrectionFn):
    grid = GridSpec.square(32)
    x, y = grid.meshgrid()
    ic = GridField(grid, (0.2 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.1)[None])
    t_final = 0.02
    outs = []
    for n in (50, 100, 200):
        frames = solve_allen_cahn(ic, 0.01, "dw", t_final / n, n, project=False)
        outs.append(frames[-1])
    ratio = np.abs(outs[0] - outs[1]).max() / np.abs(outs[1] - outs[2]).max()
    return None if 1.6 < ratio < 2.4 else f"Richardson dt ratio {ratio:.3f} is not first order"


@_register("solvers", "water_rest_and_mass")
def _check_water(correction: CorrectionFn):
    grid = GridSpec.square(32, boundary=Boundary.WALL)
    flat = np.zeros((3, 32, 32))
    flat[0] = 1.0
    frames = solve_shallow_water(flat, grid, g_r=1.0, dt=0.005, n_steps=20, snapshot_stride=20)
    still = np.abs(frames[-1] - flat).max()
    if still > 1e-13:
        return f"a lake at rest moved by {still:.2e}"
    dam = dam_break_state(grid, radius=0.2, h_inner=1.8)
    frames = solve_shallow_water(dam, grid, g_r=1.0, dt=0.005, n_steps=60, snapshot_stride=10)
    mass = frames[:, 0].mean(axis=(1, 2))
    drift = np.abs(mass - mass[0]).max() / abs(mass[0])
    return None if drift < 1e-12 else f"walled dam break lost mass, drift {drift:.2e}"


@_register("solvers", "flux_balance_audit")
def _check_flux_balance(correction: CorrectionFn):
    grid = GridSpec.square(24)
    rng = np.random.default_rng(11)
    ic = GridField(grid, rng.normal(1.0, 0.3, size=(1, 24, 24)))
    times = np.linspace(0.0, 0.5, 9)
    traj = np.stack([solve_diffusion_exact(ic, 0.01, float(t)).values for t in times])
    law = ConservationLawSpec(name="mass", flux="diffusive")
    residual = verify_flux_balance(traj, float(times[1] - times[0]), grid, law)
    if residual.max() > 1e-12:
        return f"exact diffusion shows a spurious source of {residual.max():.2e}"
    leaky = traj * np.exp(-times)[:, None, None, None]
    residual = verify_flux_balance(leaky, float(times[1] - times[0]), grid, law)
    if residual.max() < 1e-3:
        return "an injected exponential leak went undetected"
    return None


# -- gradients -----------------------------------------------------------------

_GRAD_CFG = OperatorConfig(channels=1, width=3, n_layers=1, modes_kept=2, ndim=1, seed=17)


def _fd_check(loss: str, mask: ConservationMask | None, seed: int):
    rng = np.random.default_rng(seed)
    model = init_model(_GRAD_CFG)
    model.params[:] = rng.normal(0.0, 0.2, model.params.size)
    inputs = rng.normal(size=(2, 1, 8))
    targets = rng.normal(size=(2, 1, 8))
    _, analytic = loss_and_grad(model, inputs, targets, loss=loss, mask=mask)
    h = 1e-6
    for k in range(model.params.size):
        probe = model.params.copy()
        probe[k] += h
        lp, _ = loss_and_grad(OperatorModel(_GRAD_CFG, probe), inputs, targets, loss=loss, mask=mask)
        probe[k] -= 2 * h
        lm, _ = loss_and_grad(OperatorModel(_GRAD_CFG, probe), inputs, targets, loss=loss, mask=mask)
        fd = (lp - lm) / (2 * h)
        if abs(analytic[k] - fd) > 1e-5 * max(1e-3, abs(fd)):
            return f"{loss} adjoint disagrees with finite differences at parameter {k}"
    return None


@_register("gradients", "finite_difference_mse")
def _check_fd_mse(correction: CorrectionFn):
    return _fd_check("mse", None, seed=501)


@_register("gradients", "finite_difference_mae")
def _check_fd_mae(correction: CorrectionFn):
    return _fd_check("mae", None, seed=502)


@_register("gradients", "finite_difference_corrected")
def _check_fd_corrected(correction: CorrectionFn):
    return _fd_check("mse", ConservationMask((True,)), seed=503)


@_register("gradients", "uniform_direction_vanishes")
def _check_uniform_direction(correction: CorrectionFn):
    rng = np.random.default_rng(504)
    model = init_model(_GRAD_CFG)
    model.params[:] = rng.normal(0.0, 0.2, model.params.size)
    x = rng.normal(size=(3, 1, 8))
    t = rng.normal(size=(3, 1, 8))
    _, grads = loss_and_grad(model, x, t, loss="mse", mask=ConservationMask((True,)))
    worst = np.abs(OperatorModel(_GRAD_CFG, grads).get_param("proj.bias")).max()
    return None if worst < 1e-12 else f"output bias keeps a gradient of {worst:.2e} under correction"


@_register("gradients", "adamw_closed_form")
def _check_adamw(correction: CorrectionFn):
    rng = np.random.default_rng(505)
    model = init_model(_GRAD_CFG)
    grads = rng.normal(size=model.params.size)
    state = init_optimizer(model, lr=1e-3, weight_decay=1e-4)
    new, _ = adamw_step(model, grads, state)
    expected = (model.params
                - state.lr * grads / (np.abs(grads) + state.eps)
                - state.lr * state.weight_decay * model.params)
    gap = np.abs(new.params - expected).max()
    return None if gap < 1e-14 else f"first step deviates from the closed form by {gap:.2e}"


# -- runner --------------------------------------------------------------------


def run_checks(suite: str = "all", correction: CorrectionFn = pin_channel_means) -> list[CheckResult]:
    """Run one suite (or all of them) and collect timed results.

    ``correction`` swaps the field-side pin implementation seen by the
    correction checks; the default is the shipped one.
    """
    if suite != "all" and suite not in available_suites():
        raise ValueError(f"unknown suite {suite!r}, expected one of {('all',) + available_suites()}")
    wanted = available_suites() if suite == "all" else (suite,)
    results = []
    for s, name, fn in _REGISTRY:
        if s not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            detail = fn(correction)
        except Exception as exc:
            detail = f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(s, name, detail is None, time.perf_counter() - t0, detail or ""))
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.suite}/{r.name}  ({r.elapsed:.3f}s)"
        if r.detail:
            line += f"  {r.detail}"
        lines.append(line)
    n_fail = sum(not r.passed for r in results)
    total = sum(r.elapsed for r in results)
    lines.append(f"{len(results)} checks: {len(results) - n_fail} passed, {n_fail} failed ({total:.2f}s)")
    return "\n".join(lines)
