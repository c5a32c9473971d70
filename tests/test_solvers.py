"""Reference solver tests against closed-form and structural oracles.

Each solver is held to an oracle that does not share code with it:
single-mode exponential decay, circular shifts for pure advection,
semigroup composition, dt-halving Richardson ratios for the stepper,
and telescoping mass sums for the finite-volume scheme.  The solvers'
numpy transforms are held to ``scipy.fft``, which the tests alone need.
"""

import warnings

import numpy as np
import pytest
import scipy.fft

from zeromode.grid import Boundary, GridSpec
from zeromode.initial_conditions import chebyshev_ic, grf_ic
from zeromode.solvers import (
    SolverError,
    _cosine_forward,
    _cosine_inverse,
    _real_buffers,
    _real_forward,
    _real_inverse,
    dam_break_state,
    solve_allen_cahn,
    solve_convdiff_exact,
    solve_diffusion_exact,
    solve_heat_neumann,
    solve_shallow_water,
    verify_flux_balance,
)


class TestInitialConditions:
    def test_chebyshev_deterministic_and_smooth(self):
        grid = GridSpec.square(32)
        a = chebyshev_ic(123, grid, 20)
        b = chebyshev_ic(123, grid, 20)
        assert (a == b).all()
        assert not (a == chebyshev_ic(124, grid, 20)).all()

    def test_chebyshev_matches_polynomial_oracle(self):
        """Evaluate the double sum directly from the recurrence."""
        grid = GridSpec.square(8, length=2.0)
        field = chebyshev_ic(5, grid, order=3)
        coeff = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 3))
        xi = 2.0 * grid.coords(0) / 2.0 - 1.0

        def cheb_t(k, x):
            if k == 0:
                return np.ones_like(x)
            if k == 1:
                return x
            tm2, tm1 = np.ones_like(x), x
            for _ in range(2, k + 1):
                tm2, tm1 = tm1, 2 * x * tm1 - tm2
            return tm1

        expected = np.zeros((8, 8))
        for i in range(3):
            for j in range(3):
                expected += coeff[i, j] * np.outer(cheb_t(i, xi), cheb_t(j, xi))
        np.testing.assert_allclose(field, expected, atol=1e-12)

    def test_grf_real_zero_mean_deterministic(self):
        grid = GridSpec.square(32)
        f = grf_ic(7, grid)
        assert abs(f.mean()) < 1e-12
        assert (f == grf_ic(7, grid)).all()

    def test_grf_mode_variance_ratio(self):
        """Sampled mode variances must follow the declared spectral density.

        Monte-Carlo oracle: the ratio of variances at |n|=1 and |n|=2 equals
        (4 pi^2 + tau^2)^alpha-ratio analytically; 5% tolerance at 10^4 draws.
        """
        grid = GridSpec.square(16)
        tau, alpha = 5.0, 2.0
        c1 = np.empty(10_000, dtype=np.complex128)
        c2 = np.empty(10_000, dtype=np.complex128)
        for s in range(10_000):
            spec = np.fft.fftn(grf_ic(s, grid, tau, alpha)) / grid.n_points
            c1[s] = spec[1, 0]
            c2[s] = spec[2, 0]
        measured = np.mean(np.abs(c1) ** 2) / np.mean(np.abs(c2) ** 2)
        k1 = (2 * np.pi * 1) ** 2
        k2 = (2 * np.pi * 2) ** 2
        expected = ((k2 + tau**2) / (k1 + tau**2)) ** alpha
        assert measured == pytest.approx(expected, rel=0.05)

    def test_grf_needs_periodic_grid(self):
        with pytest.raises(ValueError, match="periodic"):
            grf_ic(0, GridSpec.square(8, boundary=Boundary.WALL))


class TestDiffusionExact:
    def test_single_mode_decay_oracle(self):
        grid = GridSpec.square(32, length=2.0)
        x, y = grid.meshgrid()
        ic = np.cos(2 * np.pi * 3 * x / 2.0)
        d_coeff, t = 0.05, 0.7
        out = solve_diffusion_exact(ic, grid, d_coeff, t)
        factor = np.exp(-d_coeff * (2 * np.pi * 3 / 2.0) ** 2 * t)
        np.testing.assert_allclose(out, ic * factor, atol=1e-12)

    def test_mean_preserved_and_t_zero_identity(self):
        grid = GridSpec.square(16)
        ic = chebyshev_ic(0, grid, 20)
        out = solve_diffusion_exact(ic, grid, 0.01, 2.0)
        assert out.mean() == pytest.approx(ic.mean(), abs=1e-14)
        np.testing.assert_allclose(solve_diffusion_exact(ic, grid, 0.01, 0.0), ic, atol=1e-12)

    def test_semigroup_property(self):
        grid = GridSpec.square(16)
        ic = chebyshev_ic(1, grid, 20)
        a = solve_diffusion_exact(ic, grid, 0.02, 0.9)
        b = solve_diffusion_exact(solve_diffusion_exact(ic, grid, 0.02, 0.4), grid, 0.02, 0.5)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rejects_negative_time(self):
        grid = GridSpec.square(8)
        with pytest.raises(ValueError):
            solve_diffusion_exact(np.ones(grid.resolution), grid, 0.01, -1.0)


class TestConvectionDiffusion:
    def test_pure_advection_is_circular_shift(self):
        """With D=0 and v=(1,0), time dx exactly rotates the samples."""
        grid = GridSpec.square(16)
        ic = chebyshev_ic(3, grid, 20)
        dx = grid.spacing[0]
        out = solve_convdiff_exact(ic, grid, 0.0, (1.0, 0.0), 4 * dx)
        np.testing.assert_allclose(out, np.roll(ic, 4, axis=0), atol=1e-10)

    def test_reduces_to_diffusion_at_zero_velocity(self):
        grid = GridSpec.square(16)
        ic = chebyshev_ic(4, grid, 20)
        a = solve_convdiff_exact(ic, grid, 0.03, (0.0, 0.0), 0.5)
        b = solve_diffusion_exact(ic, grid, 0.03, 0.5)
        np.testing.assert_allclose(a, b, atol=1e-13)

    def test_mean_preserved(self):
        grid = GridSpec.square(16)
        ic = chebyshev_ic(5, grid, 20)
        out = solve_convdiff_exact(ic, grid, 0.01, (1.0, 0.5), 0.1)
        assert out.mean() == pytest.approx(ic.mean(), abs=1e-14)


class TestHeatNeumann:
    def test_cosine_eigenmode_decay(self):
        grid = GridSpec.square(32, boundary=Boundary.NEUMANN)
        x, _ = grid.meshgrid()
        ic = np.cos(np.pi * x / 1.0)
        d_coeff, t = 0.01, 1.0
        out = solve_heat_neumann(ic, grid, d_coeff, t)
        np.testing.assert_allclose(out, ic * np.exp(-d_coeff * np.pi**2 * t), atol=1e-10)

    def test_mean_preserved_on_random_ic(self):
        grid = GridSpec.square(24, boundary=Boundary.NEUMANN)
        ic = chebyshev_ic(6, grid, 20)
        out = solve_heat_neumann(ic, grid, 0.01, 0.8)
        assert out.mean() == pytest.approx(ic.mean(), abs=1e-13)

    def test_long_time_limit_is_uniform_mean(self):
        grid = GridSpec.square(16, boundary=Boundary.NEUMANN)
        ic = chebyshev_ic(7, grid, 20)
        out = solve_heat_neumann(ic, grid, 0.1, 500.0)
        np.testing.assert_allclose(out, ic.mean(), atol=1e-8)

    def test_rejects_periodic_grid(self):
        with pytest.raises(ValueError, match="Neumann"):
            solve_heat_neumann(np.ones((8, 8)), GridSpec.square(8), 0.01, 1.0)


class TestTransformsAgainstScipy:
    """Heat's cosine tables against ``scipy.fft``'s DCT; Allen-Cahn's numpy lanes against its real FFT."""

    @pytest.mark.parametrize("shape, axes", [((7,), (0,)), ((48,), (0,)), ((8, 8), (0, 1)), ((9, 10), (0, 1)),
                                             ((3, 128, 128), (1, 2))], ids=["7", "48", "8x8", "9x10", "3x128x128"])
    def test_cosine_pair_matches_scipy_dct(self, shape, axes):
        rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
        u = rng.standard_normal(shape)
        forward = scipy.fft.dctn(u, type=2, axes=axes)
        assert np.abs(_cosine_forward(u, axes) - forward).max() <= 1e-14 * np.abs(forward).max()
        inverse = scipy.fft.idctn(u, type=2, axes=axes)
        assert np.abs(_cosine_inverse(u, axes) - inverse).max() <= 1e-14 * np.abs(inverse).max()
        assert np.abs(_cosine_inverse(_cosine_forward(u, axes), axes) - u).max() <= 1e-14 * np.abs(u).max()

    @pytest.mark.parametrize("shape", [(1, 32, 32), (10, 32, 32), (3, 64, 64), (2, 128, 128), (4, 32)],
                             ids=["1x32x32", "10x32x32", "3x64x64", "2x128x128", "4x32"])
    def test_real_fft_lanes_give_scipy_bytes(self, shape):
        """Why Allen-Cahn's bytes did not move off ``scipy.fft``: its lanes give the same bytes."""
        u = np.random.default_rng(shape[0] * 1000 + shape[-1]).standard_normal(shape)
        axes = tuple(range(1, u.ndim))
        expected = scipy.fft.rfftn(u, axes=axes)
        half, lanes = _real_buffers(u)
        coeffs = _real_forward(u, half, lanes)
        got = coeffs
        if u.ndim == 3:  # the lanes leave a 2-D grid's coefficients transposed
            assert coeffs.shape == (shape[0], shape[2] // 2 + 1, shape[1])
            got = np.ascontiguousarray(coeffs.transpose(0, 2, 1))
        assert got.tobytes() == expected.tobytes()
        # equal bytes, so the inverse starts from the very coefficients irfftn gets
        back = scipy.fft.irfftn(expected, s=shape[1:], axes=axes)
        assert _real_inverse(coeffs, half, np.empty_like(u)).tobytes() == back.tobytes()


class TestAllenCahn:
    def smooth_ic(self, grid, amplitude=0.4):
        x, y = grid.meshgrid()
        return amplitude * (np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y) + 0.3)

    def test_mass_pinned_over_thousand_steps(self):
        grid = GridSpec.square(32)
        ic = chebyshev_ic(8, grid, 20)
        frames = solve_allen_cahn(ic, grid, 0.01, "dw", dt=1e-4, n_steps=1000, snapshot_stride=1000)
        assert abs(frames[-1].mean() - frames[0].mean()) < 1e-12

    def test_first_order_dt_convergence(self):
        """Richardson oracle: halving dt must halve the final-state change."""
        grid = GridSpec.square(32)
        ic = self.smooth_ic(grid)
        t_final = 0.02
        finals = [
            solve_allen_cahn(ic, grid, 0.01, "dw", dt=t_final / n, n_steps=n, snapshot_stride=n)[-1]
            for n in (50, 100, 200)
        ]
        e1 = np.linalg.norm(finals[0] - finals[1])
        e2 = np.linalg.norm(finals[1] - finals[2])
        assert 1.7 <= e1 / e2 <= 2.3

    def test_fh_matches_dw_where_potentials_agree(self):
        # both potentials are odd and smooth near zero; just check fh runs and conserves
        grid = GridSpec.square(32)
        ic = chebyshev_ic(9, grid, 20)
        scaled = 0.9 * ic / np.abs(ic).max()
        frames = solve_allen_cahn(scaled, grid, 0.01, "fh", dt=1e-4, n_steps=500, snapshot_stride=100)
        assert frames.shape[0] == 6
        assert abs(frames[-1].mean() - frames[0].mean()) < 1e-12
        assert np.abs(frames).max() < 1.0

    @pytest.mark.parametrize("resolution", [(15, 17), (16, 9), (21,)])
    def test_real_transform_step_on_odd_grids(self, resolution):
        """The half spectrum of an odd last axis: one step per complex fftn as the oracle."""
        grid = GridSpec(lengths=(1.0,) * len(resolution), resolution=resolution)
        u = 0.5 * np.tanh(np.random.default_rng(1).normal(size=resolution)) + 0.1
        frames = solve_allen_cahn(u, grid, 0.01, "dw", dt=1e-4, n_steps=100, snapshot_stride=100)
        x = np.meshgrid(*(np.fft.fftfreq(n, d=1.0 / n) for n in resolution), indexing="ij")
        denom = 1.0 + 1e-4 * 0.01 * sum((2 * np.pi * k) ** 2 for k in x)
        v = u
        for _ in range(100):
            f = v - v**3
            v = np.fft.ifftn((np.fft.fftn(v) + 1e-4 * np.fft.fftn(f - f.mean())) / denom).real
            v = v + (u.mean() - v.mean())
        assert np.abs(frames[-1] - v).max() < 1e-12

    def test_fh_rejects_state_in_clamp_band(self):
        grid = GridSpec.square(8)
        ic = np.zeros(grid.resolution)
        ic[0, 0] = 0.9999999  # inside the clamp band
        ic[1, 1] = -0.5
        with pytest.raises(SolverError) as err:
            solve_allen_cahn(ic, grid, 0.01, "fh", dt=1e-4, n_steps=10, snapshot_stride=10)
        assert err.value.step == 1

    def test_unknown_potential_rejected(self):
        grid = GridSpec.square(8)
        with pytest.raises(ValueError, match="potential"):
            solve_allen_cahn(np.full(grid.resolution, 0.1), grid, 0.01, "quartic", dt=1e-4, n_steps=1,
                             snapshot_stride=1)


class TestShallowWater:
    def grid(self, n=32):
        return GridSpec.square(n, boundary=Boundary.WALL)

    def test_lake_at_rest_is_steady(self):
        grid = self.grid(16)
        state = np.zeros((3, 16, 16))
        state[0] = 1.0
        frames = solve_shallow_water(state, grid, g_r=1.0, dt=0.005, n_steps=50, snapshot_stride=50)
        np.testing.assert_allclose(frames[-1], state, atol=1e-14)

    def test_dam_break_mass_conserved(self):
        grid = self.grid()
        state = dam_break_state(grid, radius=0.2, h_inner=2.0)
        frames = solve_shallow_water(state, grid, g_r=1.0, dt=0.005, n_steps=60, snapshot_stride=10)
        masses = frames[:, 0].sum(axis=(1, 2)) * grid.cell_volume
        assert np.abs(masses - masses[0]).max() / masses[0] < 1e-12

    def test_mirror_symmetry(self):
        grid = self.grid()
        state = dam_break_state(grid, radius=0.2, h_inner=2.0, center=(0.3, 0.5))
        mirrored = dam_break_state(grid, radius=0.2, h_inner=2.0, center=(0.7, 0.5))
        a = solve_shallow_water(state, grid, 1.0, 0.005, 40, 40)[-1]
        b = solve_shallow_water(mirrored, grid, 1.0, 0.005, 40, 40)[-1]
        np.testing.assert_allclose(a[0], b[0, ::-1, :], atol=1e-10)
        np.testing.assert_allclose(a[1], -b[1, ::-1, :], atol=1e-10)

    @staticmethod
    def courant(state, grid, g_r, dt):
        """The oracle: the larger over the axes of dt * max(|q_n / h| + sqrt(g h)) / dx."""
        h, hu, hv = state
        c = np.sqrt(g_r * h)
        return max(dt * np.max(np.abs(q / h) + c) / d for q, d in zip((hu, hv), grid.spacing))

    def test_initial_cfl_precondition(self):
        grid = self.grid()
        state = dam_break_state(grid, radius=0.2, h_inner=2.0)
        state[1], state[2] = 0.3 * state[0], -0.1 * state[0]  # both axes' speeds carry a velocity
        per_dt = self.courant(state, grid, 1.0, 1.0)
        assert self.courant(state, grid, 1.0, 0.449 / per_dt) < 0.45
        solve_shallow_water(state, grid, 1.0, dt=0.449 / per_dt, n_steps=1, snapshot_stride=1)
        assert self.courant(state, grid, 1.0, 0.451 / per_dt) > 0.45
        with pytest.raises(ValueError, match=r"^initial CFL number 0\.451 exceeds 0\.45; reduce dt$"):
            solve_shallow_water(state, grid, 1.0, dt=0.451 / per_dt, n_steps=10, snapshot_stride=10)

    def test_initial_cfl_names_the_sample(self):
        grid = self.grid()
        states = np.stack([dam_break_state(grid, radius=0.2, h_inner=h) for h in (1.2, 1.5, 8.0, 1.2)])
        dt = 0.3 / self.courant(states[0], grid, 1.0, 1.0)
        assert [self.courant(s, grid, 1.0, dt) > 0.45 for s in states] == [False, False, True, False]
        with pytest.raises(ValueError, match=r"^initial CFL number \d\.\d{3} exceeds 0\.45 in sample 2; reduce dt$"):
            solve_shallow_water(states, grid, 1.0, dt, n_steps=10, snapshot_stride=10)

    def test_positive_depth_required(self):
        grid = self.grid(8)
        state = np.zeros((3, 8, 8))
        with pytest.raises(ValueError, match="positive"):
            solve_shallow_water(state, grid, 1.0, 0.001, 1, 1)


@pytest.mark.parametrize("solve, state", [
    (lambda u, *steps: solve_allen_cahn(u, GridSpec.square(8), 0.01, "dw", *steps), np.full((8, 8), 0.1)),
    (lambda u, *steps: solve_shallow_water(u, GridSpec.square(8, boundary=Boundary.WALL), 1.0, *steps),
     np.stack([np.ones((8, 8)), np.zeros((8, 8)), np.zeros((8, 8))])),
], ids=["allen_cahn", "water"])
@pytest.mark.parametrize("dt, n_steps, stride, message", [
    (0.0, 10, 10, "dt > 0"), (1e-3, 0, 1, "at least one step"),
    (1e-3, 10, 3, "stride 3 does not divide 10"), (1e-3, 10, 0, "stride 0 does not divide 10"),
])
def test_time_steppers_refuse_bad_step_settings(solve, state, dt, n_steps, stride, message):
    with pytest.raises(ValueError, match=message):
        solve(state, dt, n_steps, stride)


class TestFluxBalance:
    def test_residual_near_zero_for_exact_diffusion(self):
        grid = GridSpec.square(32)
        ic = chebyshev_ic(10, grid, 20)
        times = np.linspace(0.0, 0.5, 11)
        traj = np.stack([solve_diffusion_exact(ic, grid, 0.01, t)[None] for t in times])
        r = verify_flux_balance(traj, float(times[1]), grid)
        assert r.max() < 1e-12

    def test_residual_detects_leak(self):
        """Injected fault oracle: a decaying integral must show up in r(t)."""
        grid = GridSpec.square(16)
        ic = chebyshev_ic(11, grid, 20)
        times = np.linspace(0.0, 0.5, 11)
        traj = np.stack([solve_diffusion_exact(ic, grid, 0.01, t)[None] * np.exp(-t) for t in times])
        r = verify_flux_balance(traj, float(times[1]), grid)
        expected_rate = abs(ic.mean())  # d/dt exp(-t) E0 at t=0
        assert r.max() > 0.1 * expected_rate

    def test_needs_three_frames(self):
        grid = GridSpec.square(8)
        traj = np.zeros((2, 1, 8, 8))
        with pytest.raises(ValueError, match="3 frames"):
            verify_flux_balance(traj, 0.1, grid)


class TestBatching:
    """A batch is stepped together, but each sample must come out as if solved alone."""

    def fh_states(self, grid, seeds):
        states = np.stack([chebyshev_ic(s, grid, 20) for s in seeds])
        return 0.9 * states / np.abs(states).max(axis=(1, 2), keepdims=True)

    @pytest.mark.parametrize("potential", ["dw", "fh"])
    def test_allen_cahn_batch_equals_single_calls(self, potential):
        grid = GridSpec.square(16)
        states = self.fh_states(grid, range(20, 25))
        kwargs = dict(dt=1e-4, n_steps=200, snapshot_stride=50)
        batch = solve_allen_cahn(states, grid, 0.01, potential, **kwargs)
        assert batch.shape == (5, 5, 16, 16)
        for i, state in enumerate(states):
            alone = solve_allen_cahn(state, grid, 0.01, potential, **kwargs)
            assert np.array_equal(batch[i], alone), i
            assert np.abs(batch[i].mean(axis=(1, 2)) - state.mean()).max() < 1e-12

    def test_shallow_water_batch_equals_single_calls(self):
        grid = GridSpec.square(16, boundary=Boundary.WALL)
        states = np.stack([dam_break_state(grid, radius=0.2, h_inner=1.5 + 0.2 * i,
                                           center=(0.3 + 0.1 * i, 0.5 - 0.05 * i)) for i in range(5)])
        batch = solve_shallow_water(states, grid, 1.0, 0.005, 40, snapshot_stride=10)
        assert batch.shape == (5, 5, 3, 16, 16)
        for i, state in enumerate(states):
            assert np.array_equal(batch[i], solve_shallow_water(state, grid, 1.0, 0.005, 40, snapshot_stride=10)), i
        # any number of leading axes
        nested = solve_shallow_water(states[None], grid, 1.0, 0.005, 40, snapshot_stride=10)
        assert np.array_equal(nested, batch[None])

    def test_exact_propagators_batch_over_samples_and_times(self):
        grid = GridSpec.square(16)
        states = np.stack([chebyshev_ic(s, grid, 20) for s in (30, 31, 32)])
        times = np.array([0.0, 0.2, 0.5])
        batch = solve_convdiff_exact(states, grid, 0.01, (1.0, 0.5), times)
        assert batch.shape == (3, 3, 16, 16)
        for i, state in enumerate(states):
            for f, t in enumerate(times):
                single = solve_convdiff_exact(state, grid, 0.01, (1.0, 0.5), float(t))
                assert np.array_equal(batch[i, f], single), (i, f)
        assert solve_diffusion_exact(states[0], grid, 0.01, times).shape == (3, 16, 16)
        with pytest.raises(ValueError, match="grid"):
            solve_diffusion_exact(chebyshev_ic(0, GridSpec.square(8), 20), grid, 0.01, times)

    @pytest.mark.parametrize("solve, boundary, state_shape", [
        (lambda u, grid: solve_diffusion_exact(u, grid, 0.01, 0.1), Boundary.PERIODIC, (8, 8)),
        (lambda u, grid: solve_convdiff_exact(u, grid, 0.01, (1.0, 0.5), 0.1), Boundary.PERIODIC, (8, 8)),
        (lambda u, grid: solve_heat_neumann(u, grid, 0.01, 0.1), Boundary.NEUMANN, (8, 8)),
        (lambda u, grid: solve_allen_cahn(u, grid, 0.01, "dw", 1e-4, 1, 1), Boundary.PERIODIC, (8, 8)),
        (lambda u, grid: solve_shallow_water(u, grid, 1.0, 1e-3, 1, 1), Boundary.WALL, (3, 8, 8)),
    ], ids=["diffusion", "convdiff", "heat", "allen_cahn", "water"])
    def test_non_finite_state_names_the_sample(self, solve, boundary, state_shape):
        grid = GridSpec.square(8, boundary=boundary)
        states = np.full((4, *state_shape), 0.1)
        states[2, ..., 3, 5] = np.nan
        with pytest.raises(ValueError, match="not finite in sample 2"):
            solve(states, grid)
        states[2, ..., 3, 5] = np.inf
        with pytest.raises(ValueError, match="not finite in sample 2"):
            solve(states, grid)

    def test_clamp_abort_names_the_sample(self):
        grid = GridSpec.square(8)
        states = np.zeros((5, 8, 8))
        states[:, 1, 1] = -0.5
        states[2, 0, 0] = 0.9999999  # inside the clamp band
        with pytest.raises(SolverError) as err:
            solve_allen_cahn(states, grid, 0.01, "fh", dt=1e-4, n_steps=10, snapshot_stride=10)
        assert err.value.sample == 2
        assert err.value.step == 1
        assert "sample 2" in str(err.value) and "step 1" in str(err.value)

    def test_blow_up_names_the_sample_and_step(self):
        grid = GridSpec.square(8)
        states = np.full((4, 8, 8), 0.1)
        states[2, 3, 5] = 100.0  # the explicit cubic overshoots further at every step
        kwargs = dict(dt=1e-3, n_steps=50, snapshot_stride=50)
        with np.errstate(all="ignore"):
            with pytest.raises(SolverError) as alone:
                solve_allen_cahn(states[2], grid, 0.01, "dw", **kwargs)
            with pytest.raises(SolverError) as err:
                solve_allen_cahn(states, grid, 0.01, "dw", **kwargs)
        assert alone.value.sample is None and alone.value.step > 1
        assert (err.value.sample, err.value.step) == (2, alone.value.step)
        assert f"state became non-finite (sample 2, step {alone.value.step})" in str(err.value)

    def test_fh_band_abort_comes_before_the_logarithms(self):
        """Step 1 pushes a state into the clamp band; step 2 aborts before log1p could warn, so it needs no clip."""
        grid = GridSpec.square(8)
        states = np.stack([np.full((8, 8), 0.1), np.full((8, 8), -0.9999)])
        states[1, :4] = 0.9999  # each plateau's potential drives it outward
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="clamp band") as err:
                solve_allen_cahn(states, grid, 0.01, "fh", dt=1e-3, n_steps=10, snapshot_stride=10)
        assert (err.value.sample, err.value.step) == (1, 2)

    def test_cfl_abort_names_the_sample(self):
        grid = GridSpec.square(16, boundary=Boundary.WALL)
        dt = 0.4 / 16 / np.sqrt(2.0)  # initial CFL 0.4 for the deepest column
        states = np.stack([dam_break_state(grid, radius=0.2, h_inner=1.2) for _ in range(5)])
        states[3] = 0.0
        states[3, 0] = 0.05
        states[3, 0, :8] = 2.0  # a one-sided step speeds up past the initial wave speed
        with pytest.raises(SolverError) as alone:
            solve_shallow_water(states[3], grid, 1.0, dt, 60, 60)
        assert alone.value.sample is None and alone.value.step > 1
        with pytest.raises(SolverError) as err:
            solve_shallow_water(states, grid, 1.0, dt, 60, 60)
        assert "CFL" in str(err.value)
        assert err.value.sample == 3
        assert err.value.step == alone.value.step
