"""Self-check suites for the guarantees the package leans on.

Three suites, runnable from the CLI: ``theorems`` exercises the exact
algebra of the zero-mode correction, ``solvers`` holds the reference
dynamics to closed-form oracles, ``gradients`` re-derives the hand
adjoints by finite differences and direct sums, the optimizer in closed form.
Every check times itself and, on failure, names the first counterexample
(trial seed plus the offending quantity).

The field-side pin is injectable, and every ``theorems`` check that
applies a correction calls the injected one: ``mean_pinning`` and
``shift_only_action`` directly, ``spectral_zero_mode_surgery`` by
comparing the spectrum of its output with :func:`correct_spectrum`, and
``error_reduction_bound`` through :func:`check_error_reduction`.  Running
the suite against a deliberately broken pin must produce failures, and
the test suite checks exactly that, so a silent regression in these
checks would itself be caught.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .correction import (
    ConservationMask,
    CorrectionFn,
    check_error_reduction,
    correct_spectrum,
    error_decomposition,
    pin_channel_means,
)
from .grid import Boundary, GridField, GridSpec, fft_forward, l2_norm
from .initial_conditions import grf_ic
from .model import (
    OperatorConfig,
    OperatorModel,
    _band,
    _band_inner,
    _dft,
    _fold,
    _from_band,
    _mix_modes,
    _mixing_backward,
    _views,
    init_model,
)
from .optim import adamw_step, init_optimizer
from .solvers import (
    dam_break_state,
    solve_allen_cahn,
    solve_convdiff_exact,
    solve_diffusion_exact,
    solve_heat_neumann,
    solve_shallow_water,
    verify_flux_balance,
)
from .training import loss_and_grad

__all__ = ["CheckResult", "available_suites", "run_checks", "format_results", "all_passed"]


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
    """The suites that registered a check, in registration order."""
    return tuple(dict.fromkeys(suite for suite, _, _ in _REGISTRY))


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
        targets = ref.channel_means()
        spec = fft_forward(pred)
        out = correct_spectrum(spec, targets, mask)
        if out.coeffs[0][(0,) * grid.ndim] != targets[0] + 0.0j:
            return f"seed {seed}: zero mode not exactly replaced"
        a = spec.coeffs.copy()
        b = out.coeffs.copy()
        a[0][0, 0] = 0.0
        b[0][0, 0] = 0.0
        if not np.array_equal(a, b):
            return f"seed {seed}: a nonzero mode changed"
        twice = correct_spectrum(out, targets, mask)
        if not np.array_equal(twice.coeffs, out.coeffs):
            return f"seed {seed}: correction is not idempotent"
        pinned = fft_forward(GridField(grid, correction(pred.values, targets, mask.flags)))
        gap = np.abs(pinned.coeffs - out.coeffs).max()
        if gap > 1e-12:
            return f"seed {seed}: the field-side pin differs from the spectrum path by {gap:.2e}"
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
            GridField(grid, pred), GridField(grid, truth), GridField(grid, input_state), mask, correction
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
        if not np.allclose(recomposed, direct, rtol=1e-12, atol=1e-15):
            return f"seed {seed}: zero + nonzero parts disagree with the quadrature norm"
        mean_gap_sq = (pred.channel_means() - truth.channel_means()) ** 2  # no FFT on this side
        if not np.allclose(split.zero_mode_sq, mean_gap_sq, rtol=1e-12, atol=1e-15):
            return f"seed {seed}: zero-mode part is not the squared gap between the channel means"
    return None


# -- solvers -----------------------------------------------------------------


@_register("solvers", "diffusion_single_mode_decay")
def _check_diffusion(correction: CorrectionFn):
    grid = GridSpec.line(64, length=2.0)
    x = grid.coords(0)
    d, t, n = 0.05, 0.3, 3
    out = solve_diffusion_exact(1.0 + np.cos(2 * np.pi * n * x / 2.0), grid, d, t)
    k2 = (2 * np.pi * n / 2.0) ** 2
    expected = 1.0 + np.exp(-d * k2 * t) * np.cos(2 * np.pi * n * x / 2.0)
    gap = np.abs(out - expected).max()
    return None if gap < 1e-12 else f"single-mode decay off by {gap:.2e}"


@_register("solvers", "convection_is_transport")
def _check_convection(correction: CorrectionFn):
    grid = GridSpec.line(32)
    rng = np.random.default_rng(7)
    ic = rng.normal(size=32)
    # velocity 1, time 4/32: shift by exactly 4 cells, no diffusion
    out = solve_convdiff_exact(ic, grid, 0.0, (1.0,), 4 / 32)
    gap = np.abs(out - np.roll(ic, 4)).max()
    return None if gap < 1e-10 else f"pure advection differs from a cyclic shift by {gap:.2e}"


@_register("solvers", "heat_eigenmode_decay")
def _check_heat(correction: CorrectionFn):
    grid = GridSpec(lengths=(1.0,), resolution=(48,), boundary=Boundary.NEUMANN)
    x = grid.coords(0)
    d, t = 0.02, 0.4
    out = solve_heat_neumann(2.0 + np.cos(np.pi * x), grid, d, t)
    expected = 2.0 + np.exp(-d * np.pi**2 * t) * np.cos(np.pi * x)
    gap = np.abs(out - expected).max()
    return None if gap < 1e-10 else f"Neumann eigenmode decay off by {gap:.2e}"


@_register("solvers", "allen_cahn_mass_pinned")
def _check_allen_cahn_mass(correction: CorrectionFn):
    grid = GridSpec.square(32)
    ic = grf_ic([5, 0], grid) + 0.1
    frames = solve_allen_cahn(ic, grid, epsilon=0.01, potential="dw", dt=1e-4, n_steps=400,
                              snapshot_stride=100)
    drift = np.abs(frames.mean(axis=(1, 2)) - ic.mean()).max()
    return None if drift < 1e-12 else f"projected mass drifted by {drift:.2e}"


@_register("solvers", "allen_cahn_dt_convergence")
def _check_allen_cahn_order(correction: CorrectionFn):
    grid = GridSpec.square(32)
    x, y = grid.meshgrid()
    ic = 0.2 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.1
    t_final = 0.02
    outs = []
    for n in (50, 100, 200):
        frames = solve_allen_cahn(ic, grid, 0.01, "dw", t_final / n, n, snapshot_stride=n)
        outs.append(frames[-1])
    ratio = np.abs(outs[0] - outs[1]).max() / np.abs(outs[1] - outs[2]).max()
    return None if 1.6 < ratio < 2.4 else f"Richardson dt ratio {ratio:.3f} is not first order"


@_register("solvers", "batch_consistency")
def _check_batch_consistency(correction: CorrectionFn):
    grid = GridSpec.square(16)
    states = np.stack([grf_ic([6, i], grid) + 0.1 * (i + 1) for i in range(3)])
    batch = solve_allen_cahn(states, grid, 0.01, "dw", dt=1e-4, n_steps=200, snapshot_stride=50)
    for i, state in enumerate(states):
        alone = solve_allen_cahn(state, grid, 0.01, "dw", dt=1e-4, n_steps=200, snapshot_stride=50)
        if not np.array_equal(batch[i], alone):
            return f"sample {i}: batched frames differ from a single call by {np.abs(batch[i] - alone).max():.2e}"
        drift = np.abs(batch[i].mean(axis=(1, 2)) - state.mean()).max()
        if drift > 1e-12:
            return f"sample {i}: batched frames moved the sample's mean by {drift:.2e}"
    return None


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
    ic = rng.normal(1.0, 0.3, size=(24, 24))
    times = np.linspace(0.0, 0.5, 9)
    traj = solve_diffusion_exact(ic, grid, 0.01, times)[:, None]
    residual = verify_flux_balance(traj, float(times[1] - times[0]), grid)
    if residual.max() > 1e-12:
        return f"exact diffusion shows a spurious source of {residual.max():.2e}"
    leaky = traj * np.exp(-times)[:, None, None, None]
    residual = verify_flux_balance(leaky, float(times[1] - times[0]), grid)
    if residual.max() < 1e-3:
        return "an injected exponential leak went undetected"
    return None


# -- gradients -----------------------------------------------------------------

_GRAD_CFG = OperatorConfig(channels=1, width=3, n_layers=2, modes_kept=2, ndim=1, seed=17)  # first block != last


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
    worst = np.abs(_views(grads, _GRAD_CFG)["proj.bias"]).max()
    return None if worst < 1e-12 else f"output bias keeps a gradient of {worst:.2e} under correction"


@_register("gradients", "spectral_adjoint")
def _check_spectral_adjoint(correction: CorrectionFn):
    # the 2-D layer _from_band(_fold(W) _dft(x)) on an odd, non-square grid: the finite-difference checks run 1-D only
    rng = np.random.default_rng(506)
    resolution, m = (7, 10), 3
    n_modes = (2 * m - 1) ** 2
    x = rng.normal(size=(2, 3, *resolution))
    weight = rng.normal(size=(3, 3, n_modes)) + 1j * rng.normal(size=(3, 3, n_modes))
    band = _band(resolution, m)
    x_modes = _dft(x, band)
    weight_eff = _fold(weight, band)
    y = _from_band(_mix_modes(x_modes, weight_eff), band)

    # direct DFT sums over the whole band, canonical order n = 0..m-1, -(m-1)..-1 per axis
    ks = np.r_[0:m, -(m - 1):0]
    dft = [np.exp(-2j * np.pi * np.outer(ks, np.arange(n)) / n) for n in resolution]
    modes = np.einsum("kp,lq,bipq->bikl", *dft, x).reshape(2, 3, n_modes)
    gap = np.abs(x_modes - modes[..., band.half]).max() / np.abs(modes).max()
    if gap > 1e-12:
        return f"2-D band transform differs from direct DFT sums by {gap:.2e} (relative)"
    mixed = np.einsum("iom,bim->bom", weight, modes).reshape(2, 3, 2 * m - 1, 2 * m - 1)
    expected = np.einsum("kp,lq,bokl->bopq", *(d.conj() for d in dft), mixed).real / np.prod(resolution)
    gap = np.abs(y - expected).max() / np.abs(expected).max()
    if gap > 1e-12:
        return f"2-D spectral layer differs from direct DFT sums by {gap:.2e} (relative)"

    # the adjoint g -> _from_band(W_eff^H _dft(g)), as the backward pass takes it
    g = rng.normal(size=y.shape)
    grad_weight = np.zeros_like(weight)
    q = _mixing_backward(_dft(g, band), weight_eff, x_modes, band, grad_weight)
    grad_x = _from_band(q, band)
    lhs = np.vdot(y, g)
    scale = np.linalg.norm(y) * np.linalg.norm(g)
    gap = abs(lhs - np.vdot(x, grad_x)) / scale
    if gap > 1e-12:
        return f"input adjoint breaks <S x, g> = <x, S^T g> by {gap:.2e} (relative)"
    gap = abs(lhs - np.sum(weight.real * grad_weight.real + weight.imag * grad_weight.imag)) / scale
    if gap > 1e-12:
        return f"weight adjoint breaks <S_W x, g> = <W, grad_W> by {gap:.2e} (relative)"
    return None


@_register("gradients", "band_inner_product")
def _check_band_inner_product(correction: CorrectionFn):
    # the pointwise weight gradients use sum_p u _from_band(Y) = Re sum_k conj(_dft(u)_k) Y_k / n
    rng = np.random.default_rng(507)
    band = _band((7, 10), 3)  # odd and non-square, 15 of 25 modes in the half band
    u, modes = rng.normal(size=(2, 3, 7, 10)), rng.normal(size=(2, 4, 15)) + 1j * rng.normal(size=(2, 4, 15))
    on_grid = np.einsum("bip,bjp->ij", u.reshape(2, 3, -1), _from_band(modes, band).reshape(2, 4, -1))
    gap = np.abs(on_grid - _band_inner(_dft(u, band), modes, band)).max() / np.abs(on_grid).max()
    return None if gap <= 1e-12 else f"grid and band inner products differ by {gap:.2e} (relative)"


@_register("gradients", "adamw_closed_form")
def _check_adamw(correction: CorrectionFn):
    rng = np.random.default_rng(505)
    before = init_model(_GRAD_CFG).params
    grads = rng.normal(size=before.size)
    params = before.copy()
    state = init_optimizer(params, lr=1e-3, weight_decay=1e-4)
    adamw_step(params, grads, state)
    expected = (before
                - state.lr * grads / (np.abs(grads) + state.eps)
                - state.lr * state.weight_decay * before)
    gap = np.abs(params - expected).max()
    return None if gap < 1e-14 else f"first step deviates from the closed form by {gap:.2e}"


# -- runner --------------------------------------------------------------------


def run_checks(suite: str, correction: CorrectionFn = pin_channel_means) -> list[CheckResult]:
    """Run one suite, or all of them for ``"all"``, and collect timed results.

    ``correction`` swaps the field-side pin implementation seen by the
    correction checks; the default is the shipped one.  The pipeline never
    sets it: it is the hook the test suite uses to run the checks against
    a deliberately broken pin.
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
