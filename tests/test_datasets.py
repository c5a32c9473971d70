"""Dataset generation: determinism, conservation audit, preset sanity."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from zeromode.correction import conservation_error
from zeromode.datafile import read_dataset, sidecar_path, write_dataset
from zeromode.datasets import (
    DRIFT_TOLERANCE,
    DatasetConfig,
    Problem,
    ProblemParams,
    desk_config,
    generate_dataset,
    paper_config,
)
from zeromode.grid import angular_wavenumbers, squared_wavenumber
from zeromode.initial_conditions import chebyshev_ic, grf_ic
from zeromode.metrics import step_metrics
from zeromode.solvers import (
    _cosine_forward,
    _cosine_inverse,
    dam_break_state,
    solve_shallow_water,
    verify_flux_balance,
)


def tiny_config(problem, n_samples=3, seed=0, resolution=16, **overrides):
    base = desk_config(problem, "train").params.to_dict()
    base.update(resolution=resolution, **overrides)
    if problem is Problem.WATER:
        base.update(n_steps=60)
    else:
        base.update(n_steps=200)
    return DatasetConfig(params=ProblemParams.from_dict(base), n_samples=n_samples, master_seed=seed)


class TestProblemParams:
    def test_snapshots_must_divide_steps(self):
        with pytest.raises(ValueError, match="divide"):
            ProblemParams(problem=Problem.DIFF, resolution=16, t_final=1.0, n_steps=999)

    def test_frame_times_cover_start(self):
        p = ProblemParams(problem=Problem.DIFF, resolution=16, t_final=1.0, n_steps=100, n_snapshots=20)
        times = p.frame_times()
        assert times[0] == 0.0
        assert len(times) == 20
        assert times[1] == pytest.approx(0.05)

    def test_round_trips_through_dict(self):
        p = desk_config(Problem.CD, "train").params
        assert ProblemParams.from_dict(p.to_dict()) == p

    @pytest.mark.parametrize("field, value", [("n_steps", 0), ("n_steps", -20), ("epsilon", 0.0), ("g_r", -1.0)])
    def test_refuses_impossible_settings(self, field, value):
        base = dict(problem=Problem.CD, resolution=16, t_final=1.0, n_steps=100)
        with pytest.raises(ValueError, match=field):
            ProblemParams(**{**base, field: value})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["t_final", "length", "epsilon", "theta", "theta_c", "d_coeff", "g_r",
                                       "grf_tau", "grf_alpha", "ic_offset"])
    def test_refuses_non_finite_floats(self, field, value):
        base = dict(problem=Problem.DIFF, resolution=16, t_final=1.0, n_steps=100)
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            ProblemParams(**{**base, field: value})


class TestDatasetConfig:
    @pytest.mark.parametrize("changes", [{"master_seed": -1}, {"master_seed": 2**63}, {"split": "holdout"}])
    def test_refuses_seeds_and_splits_the_file_cannot_hold(self, changes):
        with pytest.raises(ValueError, match=next(iter(changes))):
            DatasetConfig(params=desk_config(Problem.CD, "train").params, n_samples=1, **changes)

    def test_largest_master_seed_round_trips(self, tmp_path):
        ds = generate_dataset(tiny_config(Problem.CD, n_samples=1, seed=2**63 - 1))
        assert read_dataset(write_dataset(ds, tmp_path / "d.ecfd")).master_seed == 2**63 - 1


class TestPresets:
    def test_desk_presets_resolve(self):
        for problem in Problem:
            cfg = desk_config(problem, split="valid")
            assert cfg.n_samples == 10
            assert cfg.params.resolution == 32

    def test_paper_presets_match_protocol_sizes(self):
        sizes = {Problem.AC_DW: 128, Problem.AC_FH: 64, Problem.HEAT: 128,
                 Problem.DIFF: 100, Problem.CD: 128, Problem.WATER: 128}
        for problem, res in sizes.items():
            cfg = paper_config(problem, "train")
            assert cfg.params.resolution == res
            assert cfg.n_samples == 500
            assert cfg.params.n_snapshots == 20


class TestGeneration:
    @pytest.mark.parametrize("problem", list(Problem))
    def test_generate_deterministic_and_conserving(self, problem):
        ds = generate_dataset(tiny_config(problem))
        again = generate_dataset(tiny_config(problem))
        assert (ds.data == again.data).all()
        assert ds.data.shape == (3, 20, 1, 16, 16)
        integral = ds.data.mean(axis=(3, 4))
        assert conservation_error(integral, integral[:, :1], ds.mask).max() < 1e-10
        assert np.isfinite(ds.data).all()

    def test_different_master_seed_changes_data(self):
        a = generate_dataset(tiny_config(Problem.DIFF, seed=0))
        b = generate_dataset(tiny_config(Problem.DIFF, seed=1))
        assert not (a.data == b.data).all()

    def test_splits_are_disjoint_streams(self):
        base = tiny_config(Problem.HEAT)
        train = generate_dataset(base)
        valid = generate_dataset(DatasetConfig(params=base.params, n_samples=3, master_seed=0, split="valid"))
        assert not (train.data[0] == valid.data[0]).all()

    def test_mean_floor_enforced_for_chebyshev_problems(self):
        ds = generate_dataset(tiny_config(Problem.AC_DW, n_samples=8))
        means = np.abs(ds.data[:, 0, 0].mean(axis=(1, 2)))
        assert means.min() >= 0.05

    def test_diff_mean_is_the_configured_offset(self):
        ds = generate_dataset(tiny_config(Problem.DIFF))
        means = ds.data[:, 0, 0].mean(axis=(1, 2))
        np.testing.assert_allclose(means, 1.0, atol=1e-12)

    def test_fh_stays_inside_physical_range(self):
        ds = generate_dataset(tiny_config(Problem.AC_FH))
        assert np.abs(ds.data).max() < 1.0

    def test_flux_balance_below_declared_tolerance(self):
        # the periodic exact propagators sit at rounding level; heat's cosine transform gets a looser bound
        for problem, tol in ((Problem.HEAT, 1e-10), (Problem.DIFF, 1e-12), (Problem.CD, 1e-12)):
            ds = generate_dataset(tiny_config(problem))
            for i in range(ds.n_samples):
                r = verify_flux_balance(ds.data[i], ds.frame_times[1] - ds.frame_times[0], ds.grid)
                assert r.max() < tol, problem

    def test_sample_seeds_recorded(self):
        ds = generate_dataset(tiny_config(Problem.CD))
        assert len(ds.sample_seeds) == 3
        assert all(len(s) == 4 for s in ds.sample_seeds)


class TestSidecarTolerances:
    def test_sidecar_records_the_drift_audit(self, tmp_path):
        for problem in Problem:
            path = write_dataset(generate_dataset(tiny_config(problem, n_samples=1)), tmp_path / f"{problem.value}.ecfd")
            tolerances = json.loads(sidecar_path(path).read_text())["tolerances"]
            assert set(tolerances) == {"conservation_drift", "audit_worst_drift"}, problem
            assert tolerances["conservation_drift"] == DRIFT_TOLERANCE
            assert 0.0 <= tolerances["audit_worst_drift"] <= DRIFT_TOLERANCE, problem

    @pytest.mark.parametrize("problem", list(Problem))
    def test_audit_is_the_worst_cons_err_against_frame_0(self, problem):
        # gen's audit and eval's cons_err are one measure, so they agree bit for bit
        ds = generate_dataset(tiny_config(problem))
        cons = [step_metrics(ds.data[:, k], ds.data[:, 0], ds.mask)[1].max() for k in range(ds.n_snapshots)]
        assert ds.tolerances["audit_worst_drift"] == max(cons)

    def test_sidecar_with_a_flux_balance_key_still_reads(self, tmp_path):
        ds = generate_dataset(tiny_config(Problem.DIFF, n_samples=1))
        path = write_dataset(ds, tmp_path / "d.ecfd")
        side = sidecar_path(path)
        meta = json.loads(side.read_text())
        meta["tolerances"]["flux_balance"] = 1e-12  # the key older sidecars carry
        side.write_text(json.dumps(meta))
        back = read_dataset(path)
        assert back.tolerances == {**ds.tolerances, "flux_balance": 1e-12}
        assert (back.data == ds.data).all()

    def test_sidecar_of_generator_version_1_still_reads(self, tmp_path):
        # version 2 moved heat's payload at rounding level (cosine tables in place of scipy's DCT)
        ds = generate_dataset(tiny_config(Problem.HEAT, n_samples=1))
        assert ds.generator_version == "2"
        path = write_dataset(ds, tmp_path / "h.ecfd")
        side = sidecar_path(path)
        meta = json.loads(side.read_text())
        meta["generator_version"] = "1"
        side.write_text(json.dumps(meta))
        back = read_dataset(path)
        assert back.generator_version == "1"
        assert (back.data == ds.data).all()


# -- references: the per-sample generation the batched path replaced ----------


def reference_ic(params, grid, seed):
    if params.problem is Problem.DIFF:
        u = grf_ic(seed, grid, params.grf_tau, params.grf_alpha)
        return u - u.mean() + params.ic_offset
    u = chebyshev_ic(seed, grid, params.cheb_order)
    return 0.9 * u / np.abs(u).max() if params.problem is Problem.AC_FH else u


def per_frame_exact(params, grid, u0):
    """One forward and one inverse transform per frame, as before batching.

    Heat runs the solver's own cosine transforms, so this pins batched == per frame;
    ``test_solvers.py`` holds those transforms to ``scipy.fft``.
    """
    frames = []
    axes = tuple(range(grid.ndim))
    for t in params.frame_times():
        if params.problem is Problem.HEAT:
            coeffs = _cosine_forward(u0, axes)
            for axis, (n, length) in enumerate(zip(grid.resolution, grid.lengths)):
                shape = [1] * grid.ndim
                shape[axis] = n
                lam = (np.pi * np.arange(n) / length) ** 2
                coeffs = coeffs * np.exp(-params.d_coeff * lam * t).reshape(shape)
            frames.append(_cosine_inverse(coeffs, axes))
            continue
        if params.problem is Problem.DIFF:
            factor = np.exp(-params.d_coeff * squared_wavenumber(grid) * t)
        else:
            k_dot_v = np.zeros(grid.resolution)
            for k, v in zip(angular_wavenumbers(grid), params.velocity):
                k_dot_v = k_dot_v + k * v
            factor = np.exp(-(params.d_coeff * squared_wavenumber(grid) + 1j * k_dot_v) * t)
        frames.append(np.fft.ifftn(np.fft.fftn(u0) * factor).real)
    return np.stack(frames)


def three_fft_allen_cahn(params, grid, u):
    """The Allen-Cahn stepper with three complex transforms per step, as before batching."""
    dt, stride = params.dt, params.snapshot_stride
    mean0 = u.mean()
    denom = 1.0 + dt * params.epsilon * squared_wavenumber(grid)
    frames = [u]
    for step in range(1, (params.n_snapshots - 1) * stride + 1):
        if params.problem is Problem.AC_FH:
            uc = np.clip(u, -1.0 + 1e-6, 1.0 - 1e-6)
            f = 0.5 * params.theta * (np.log1p(uc) - np.log1p(-uc)) - params.theta_c * u
        else:
            f = u - u**3
        g = f - f.mean()
        u = np.fft.ifftn((np.fft.fftn(u) + dt * np.fft.fftn(g)) / denom).real
        u = u + (mean0 - u.mean())
        if step % stride == 0:
            frames.append(u)
    return np.stack(frames)


class TestBatchedGeneration:
    """The split is solved in one call; each sample must match the per-sample path."""

    @pytest.mark.parametrize("problem", [Problem.HEAT, Problem.DIFF, Problem.CD])
    def test_exact_propagators_byte_identical_to_per_frame_path(self, problem):
        ds = generate_dataset(replace(desk_config(problem, split="test"), master_seed=7, n_samples=4))
        params = ProblemParams.from_dict(ds.params)
        expected = np.stack([per_frame_exact(params, ds.grid, reference_ic(params, ds.grid, seed))
                             for seed in ds.sample_seeds])
        assert ds.data[:, :, 0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("problem", [Problem.AC_DW, Problem.AC_FH])
    def test_merged_real_fft_stepper_matches_three_fft_stepper(self, problem):
        ds = generate_dataset(replace(desk_config(problem, split="test"), master_seed=7, n_samples=3))
        params = ProblemParams.from_dict(ds.params)
        expected = np.stack([three_fft_allen_cahn(params, ds.grid, reference_ic(params, ds.grid, seed))
                             for seed in ds.sample_seeds])
        assert np.abs(ds.data[:, :, 0] - expected).max() <= 1e-12

    def test_water_byte_identical_to_per_sample_loop(self):
        ds = generate_dataset(replace(desk_config(Problem.WATER, split="test"), master_seed=7, n_samples=4))
        params = ProblemParams.from_dict(ds.params)
        expected = []
        for seed in ds.sample_seeds:
            rng = np.random.default_rng(seed)
            center = tuple(rng.uniform(0.3, 0.7, 2) * params.length)
            radius = rng.uniform(0.15, 0.25) * params.length
            state = dam_break_state(ds.grid, center=center, radius=radius,
                                    h_inner=rng.uniform(1.5, 2.5))
            frames = solve_shallow_water(state[None], ds.grid, params.g_r, params.dt,
                                         (params.n_snapshots - 1) * params.snapshot_stride,
                                         snapshot_stride=params.snapshot_stride)
            expected.append(frames[0, :, :1])
        assert ds.data.tobytes() == np.stack(expected).tobytes()

    # sha256 of generate_dataset(...).data: desk parameters at resolution 16 with 5 snapshots, 3 samples, master seed 7
    GEN_SHA256 = {
        Problem.AC_DW: "c2630ec5e01fbd1760f0de098aed43d7d9edd3d585996cb1f020c8d24bf79150",
        Problem.AC_FH: "fbd4809e5ec8ef42ac08c2e1b8046c5e5b72e342019b2608824deb1c8dd01084",
        Problem.HEAT: "608393ac22cc98df29e3afe69744761b94a50c68f4f5cfa29de6e85674da7a76",
        Problem.WATER: "283eaa7dc66aede0034a895fe66a8a0b5e55e476ff8bbbdd5795ed034d059907",
        Problem.DIFF: "9249cf94734a2d578c888552299c3424a6a3b9cb8a1d62435c57d710cf2bf23e",
        Problem.CD: "ead91df59e6dc2609f9075a3d44a980519677cc9e9bea938cc4575d67c079ce1",
    }

    @pytest.mark.parametrize("problem", list(Problem))
    def test_generated_bytes_are_pinned(self, problem):
        """A speed-up of a solver must keep every bit that ``gen`` writes."""
        params = {**desk_config(problem, "train").params.to_dict(), "resolution": 16, "n_snapshots": 5}
        ds = generate_dataset(DatasetConfig(params=ProblemParams.from_dict(params), n_samples=3, master_seed=7))
        assert ds.data.shape == (3, 5, 1, 16, 16)
        assert hashlib.sha256(ds.data.tobytes()).hexdigest() == self.GEN_SHA256[problem]

    def test_sample_seeds_unchanged(self):
        # redraws included: samples 1 and 2 fail the mean floor on their first draw
        ds = generate_dataset(replace(desk_config(Problem.AC_FH, split="test"), master_seed=7, n_samples=3))
        assert ds.sample_seeds == [[7, 2, 0, 0], [7, 2, 1, 1], [7, 2, 2, 1]]
        ds = generate_dataset(replace(desk_config(Problem.CD, split="test"), master_seed=7, n_samples=10))
        assert ds.sample_seeds == [[7, 2, i, int(i == 7)] for i in range(10)]
