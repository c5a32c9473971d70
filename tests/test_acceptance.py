"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to watch the verdict lines;
without ``-s`` they surface only on failure.  Budgeted checks assert their
own wall-clock limits.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zeromode.cli import main as cli_main
from zeromode.correction import Variant, check_error_reduction, pin_channel_means
from zeromode.datafile import read_dataset, write_dataset
from zeromode.datasets import Problem, desk_config, generate_dataset
from zeromode.grid import Boundary, GridField, GridSpec, Precision, fft_forward, l2_norm
from zeromode.metrics import SCOPE_NOTE, MetricsRecord, emit_report
from zeromode.model import OperatorConfig, OperatorModel, init_model, layout, n_params
from zeromode.solvers import (
    dam_break_state,
    solve_allen_cahn,
    solve_convdiff_exact,
    solve_diffusion_exact,
    solve_shallow_water,
    verify_flux_balance,
)
from zeromode.training import TrainConfig, loss_and_grad, rollout, train
from zeromode.verify import all_passed, format_results, run_checks


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:2d} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def desk_tests():
    """The ten-sample desk test split for each of the six problems."""
    return {p: generate_dataset(desk_config(p, split="test")) for p in Problem}


def test_criterion_01_spectral_error_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(100):
        length = 1.0 if trial < 60 else 2.0
        grid = GridSpec.square(32, length=length)
        a = GridField(grid, rng.normal(size=(1, 32, 32)))
        b = GridField(grid, rng.normal(size=(1, 32, 32)))
        direct = l2_norm(GridField(grid, a.values - b.values)) ** 2
        ca = fft_forward(a).coeffs
        cb = fft_forward(b).coeffs
        spectral = grid.volume * np.abs(ca - cb).reshape(1, -1) ** 2
        spectral = spectral.sum(axis=1)
        worst = max(worst, float(np.abs(direct - spectral).max() / direct.max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 5.0
    _verdict(1, "spectral error identity", ok,
             f"worst relative residual {worst:.2e} over 100 pairs in {elapsed:.2f}s")


def test_criterion_02_error_reduction_audit():
    t0 = time.perf_counter()
    grid = GridSpec.square(24)
    mask = (True,)
    rng = np.random.default_rng(1)
    bound_failures = 0
    equality_mismatches = 0
    n_matched = 0
    for trial in range(1000):
        truth = rng.normal(1.0, 1.0, size=(1, 24, 24))
        pred = truth + rng.normal(0.0, 0.5, size=(1, 24, 24))
        matched = trial % 4 == 0
        if matched:
            pred += truth.mean() - pred.mean()
            n_matched += 1
        else:
            pred += rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5)
        input_state = rng.normal(size=(1, 24, 24))
        input_state += truth.mean() - input_state.mean()
        report = check_error_reduction(
            GridField(grid, pred), GridField(grid, truth), GridField(grid, input_state), mask, pin_channel_means
        )
        if not report.bound_holds:
            bound_failures += 1
        if report.equality != matched:
            equality_mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = bound_failures == 0 and equality_mismatches == 0 and elapsed < 10.0
    _verdict(2, "error-reduction audit", ok,
             f"1000 trials, {bound_failures} bound failures, {equality_mismatches} equality "
             f"mismatches ({n_matched} constructed), {elapsed:.2f}s")


def test_criterion_03_flux_balance_on_generated_data(desk_tests):
    results = {}
    for problem, bound in ((Problem.HEAT, 1e-10), (Problem.DIFF, 1e-12)):
        ds = desk_tests[problem]
        worst = 0.0
        for i in range(ds.n_samples):
            residual = verify_flux_balance(ds.data[i], ds.frame_times[1] - ds.frame_times[0], ds.grid)
            worst = max(worst, float(residual.max()))
        results[problem.value] = (worst, bound)
    ok = all(worst < bound for worst, bound in results.values())
    detail = ", ".join(f"{name} {worst:.2e} (bound {bound:.0e})"
                       for name, (worst, bound) in results.items())
    _verdict(3, "flux balance on generated data", ok, detail)


def test_criterion_04_conservation_closure(desk_tests, tmp_path):
    biased = lambda v: v + 0.01
    worst64 = worst32 = 0.0
    first_last = []
    for problem, ds in desk_tests.items():
        r = rollout(biased, ds.data, Variant.INTEGRATED, ds.mask)
        worst64 = max(worst64, float(r.cons_err.max()))
        first_last.extend(zip(r.cons_err[:, 0], r.cons_err[:, -1]))
        ds.precision = Precision.F32
        try:
            path = write_dataset(ds, tmp_path / f"{problem.value}.ecfd")
        finally:
            ds.precision = Precision.F64
        back = read_dataset(path)
        r = rollout(biased, back.data, Variant.INTEGRATED, back.mask)
        worst32 = max(worst32, float(r.cons_err.max()))
    growth = max(last - first for first, last in first_last)
    ok = worst64 <= 1e-12 and worst32 <= 2e-6 and growth <= 1e-12
    _verdict(4, "conservation closure", ok,
             f"six desk datasets, biased fixture: F64 worst {worst64:.2e} (<=1e-12), "
             f"F32 round-trip worst {worst32:.2e} (<=2e-6), worst first-to-last growth {growth:.2e}")


TRAIN_MODEL = OperatorConfig(channels=1, width=8, n_layers=2, modes_kept=4, ndim=2)
TRAIN_SEEDS = (0, 1)
N_EVAL_SAMPLES = 3


@pytest.fixture(scope="module")
def trained_study(desk_tests):
    """Trimmed desk study: per problem and seed, base + integrated models,
    then base / integrated / staged rollouts over test samples."""
    records = []
    violations = []
    elapsed = {}
    for problem, test_ds in desk_tests.items():
        t0 = time.perf_counter()
        train_set = generate_dataset(replace(desk_config(problem, split="train"), n_samples=10))
        valid_set = generate_dataset(replace(desk_config(problem, split="valid"), n_samples=2))
        for seed in TRAIN_SEEDS:
            model_config = replace(TRAIN_MODEL, seed=seed)
            base = train(train_set, valid_set, model_config, TrainConfig(mode="base", epochs=8, eval_every=4))
            integ = train(train_set, valid_set, model_config,
                          TrainConfig(mode="integrated", epochs=8, eval_every=4))
            samples = test_ds.data[:N_EVAL_SAMPLES]
            runs = {
                "base": rollout(base.model, samples, Variant.BASE, test_ds.mask),
                "staged": rollout(base.model, samples, Variant.STAGED, test_ds.mask),
                "integrated": rollout(integ.model, samples, Variant.INTEGRATED, test_ds.mask),
            }
            off_rmse, post_rmse = runs["base"].rmse, runs["staged"].rmse
            for i in range(N_EVAL_SAMPLES):
                if not np.all(post_rmse[i] <= off_rmse[i] + 1e-9):
                    gap = float((post_rmse[i] - off_rmse[i]).max())
                    violations.append(f"{problem.value} seed {seed} sample {i}: +{gap:.2e}")
            for variant, result in runs.items():
                records.append(MetricsRecord(
                    dataset=problem.value,
                    variant=variant,
                    seed=seed,
                    rmse_per_step=list(result.rmse.mean(axis=0)),
                    cons_err_per_step=list(result.cons_err.mean(axis=0)),
                ))
        elapsed[problem.value] = time.perf_counter() - t0
    return records, violations, elapsed


def test_criterion_05_staged_monotonicity(trained_study):
    records, violations, elapsed = trained_study
    slowest = max(elapsed.values())
    ok = not violations and slowest < 300.0
    detail = (f"{len(TRAIN_SEEDS)} seeds x 6 datasets x {N_EVAL_SAMPLES} samples, "
              f"corrected-rollout RMSE never above raw + 1e-9 at any step; "
              f"slowest dataset {slowest:.1f}s (< 300s)")
    if violations:
        detail = "violations: " + "; ".join(violations[:4])
    _verdict(5, "staged monotonicity", ok, detail)


def test_criterion_06_solver_oracles():
    checks = []

    grid = GridSpec.line(64)
    x = grid.coords(0)
    out = solve_diffusion_exact((1.0 + np.cos(2 * np.pi * x))[None], grid, 0.05, [0.3])[0, 0]
    expected = 1.0 + np.exp(-0.05 * 4 * np.pi**2 * 0.3) * np.cos(2 * np.pi * x)
    checks.append(("diffusion decay", float(np.abs(out - expected).max()), 1e-10))

    grid = GridSpec.line(32)
    ic = np.random.default_rng(2).normal(size=32)
    out = solve_convdiff_exact(ic[None], grid, 0.0, (1.0,), [4 / 32])[0, 0]
    shift_gap = float(np.abs(out - np.roll(ic, 4)).max())
    checks.append(("advection shift", shift_gap, 1e-12))

    grid = GridSpec.square(32)
    gx, gy = grid.meshgrid()
    ic = 0.2 * np.cos(2 * np.pi * gx) * np.cos(2 * np.pi * gy) + 0.1
    outs = [solve_allen_cahn(ic[None], grid, 0.01, "dw", 0.02 / n, n, n)[0, -1] for n in (50, 100, 200)]
    ratio = float(np.abs(outs[0] - outs[1]).max() / np.abs(outs[1] - outs[2]).max())
    ratio_ok = 1.7 <= ratio <= 2.3

    wgrid = GridSpec.square(32, boundary=Boundary.WALL)
    dam = dam_break_state(wgrid, radius=0.2, h_inner=2.0)
    frames = solve_shallow_water(dam[None], wgrid, g_r=1.0, dt=0.005, n_steps=60, snapshot_stride=10)[0]
    mass = frames[:, 0].mean(axis=(1, 2))
    drift = float(np.abs(mass - mass[0]).max() / abs(mass[0]))
    checks.append(("water mass drift", drift, 1e-12))

    ok = ratio_ok and all(gap < bound for _, gap, bound in checks)
    detail = ", ".join(f"{name} {gap:.2e}" for name, gap, _ in checks)
    detail += f", dt-halving ratio {ratio:.2f} (in [1.7, 2.3])"
    _verdict(6, "solver oracles", ok, detail)


def test_criterion_07_gradient_check():
    cfg = OperatorConfig(channels=1, width=3, n_layers=1, modes_kept=2, ndim=1, seed=23)
    assert n_params(cfg) <= 500
    rng = np.random.default_rng(3)
    worst_rel = 0.0
    for loss, mask in (("mse", None), ("mae", None), ("mse", (True,))):
        model = init_model(cfg)
        model.params[:] = rng.normal(0.0, 0.2, model.params.size)
        inputs = rng.normal(size=(2, 1, 8))
        targets = rng.normal(size=(2, 1, 8))
        _, analytic = loss_and_grad(model, inputs, targets, loss=loss, mask=mask)
        h = 1e-6
        fd = np.zeros_like(analytic)
        for k in range(fd.size):
            probe = model.params.copy()
            probe[k] += h
            lp, _ = loss_and_grad(OperatorModel(cfg, probe), inputs, targets, loss=loss, mask=mask)
            probe[k] -= 2 * h
            lm, _ = loss_and_grad(OperatorModel(cfg, probe), inputs, targets, loss=loss, mask=mask)
            fd[k] = (lp - lm) / (2 * h)
        big = np.abs(fd) > 1e-4
        worst_rel = max(worst_rel, float((np.abs(analytic - fd)[big] / np.abs(fd)[big]).max()))

    # in-graph correction: a uniform output shift must carry no gradient
    model = init_model(cfg)
    model.params[:] = rng.normal(0.0, 0.2, model.params.size)
    _, grads = loss_and_grad(model, rng.normal(size=(3, 1, 8)), rng.normal(size=(3, 1, 8)),
                             loss="mse", mask=(True,))
    slot = [s for s in layout(cfg) if s.name == "proj.bias"][0]
    uniform_grad = float(np.abs(grads[slot.offset : slot.offset + slot.n_floats]).max())

    ok = worst_rel < 1e-5 and uniform_grad <= 1e-10
    _verdict(7, "gradient check", ok,
             f"{n_params(cfg)} params, worst relative gap {worst_rel:.2e} (<1e-5), "
             f"uniform-direction gradient {uniform_grad:.2e} (<=1e-10)")


def test_criterion_08_scope_statement_and_directional_records(trained_study, tmp_path):
    records, _, _ = trained_study
    emit_report(records, tmp_path)
    summary = (tmp_path / "summary.md").read_text()
    note_present = SCOPE_NOTE in summary

    by_key = {(r.dataset, r.variant, r.seed): r for r in records}
    datasets = sorted({r.dataset for r in records})
    complete = all((ds, v, s) in by_key
                   for ds in datasets for v in ("base", "integrated", "staged")
                   for s in TRAIN_SEEDS)
    degradations = [
        f"{ds} seed {s}"
        for ds in datasets for s in TRAIN_SEEDS
        if by_key[(ds, "staged", s)].rmse_mean > by_key[(ds, "base", s)].rmse_mean + 1e-9
    ]
    ok = note_present and complete and not degradations
    detail = (f"scope note present in summary.md; {len(datasets)} datasets x 3 variants x "
              f"{len(TRAIN_SEEDS)} seeds recorded; staged never above base (mean RMSE)")
    if degradations:
        detail = "staged degraded base on: " + ", ".join(degradations)
    _verdict(8, "scope statement and directional records", ok, detail)


def _run_pipeline(root: Path) -> dict[str, bytes]:
    data = root / "data"
    gen_args = ["--samples", "4", "--resolution", "16", "--n-steps", "100", "--n-snapshots", "10"]
    for split, n in (("train", "4"), ("valid", "2"), ("test", "2")):
        args = list(gen_args)
        args[1] = n
        assert cli_main(["gen", "--problem", "diff", "--split", split,
                         "--out", str(data / f"{split}.ecfd"), *args]) == 0
    run = root / "run"
    assert cli_main(["train", "--train", str(data / "train.ecfd"), "--valid", str(data / "valid.ecfd"),
                     "--out", str(run), "--mode", "base", "--seed", "0", "--epochs", "2",
                     "--eval-every", "2", "--width", "4", "--n-layers", "1", "--modes-kept", "2"]) == 0
    evals = root / "evals"
    for variant in ("base", "staged"):
        assert cli_main(["eval", "--model", str(run / "model.ckpt"), "--data", str(data / "test.ecfd"),
                         "--out", str(evals), "--variant", variant]) == 0
    report = root / "report"
    assert cli_main(["report", "--records", str(evals / "records.jsonl"), "--out", str(report)]) == 0

    blobs = {"model.ckpt": (run / "model.ckpt").read_bytes(),
             "records.jsonl": (evals / "records.jsonl").read_bytes()}
    for p in sorted(report.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            blobs[str(p.relative_to(report))] = p.read_bytes()
    return blobs


def test_criterion_09_pipeline_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "a")
    second = _run_pipeline(tmp_path / "b")
    same_names = sorted(first) == sorted(second)
    diffs = [name for name in first if first[name] != second.get(name)]
    ok = same_names and not diffs
    detail = f"{len(first)} artifacts byte-identical across two seeded runs"
    if diffs:
        detail = "artifacts differ: " + ", ".join(diffs)
    _verdict(9, "pipeline determinism", ok, detail)


def test_criterion_10_self_check_budget():
    t0 = time.perf_counter()
    results = run_checks("all")
    elapsed = time.perf_counter() - t0
    ok = all_passed(results) and elapsed < 600.0
    detail = f"{len(results)} checks passed in {elapsed:.2f}s (< 600s)"
    if not all_passed(results):
        detail = format_results(results)
    _verdict(10, "self-check budget", ok, detail)
