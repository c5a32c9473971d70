"""Field container and DFT convention tests.

The independent oracle here is a literal O(N^2 * N^2) DFT sum, written
against the definition and nothing else; the fast transform must agree
with it entrywise on every small grid.
"""

import numpy as np
import pytest

from zeromode.grid import (
    Boundary,
    GridField,
    GridSpec,
    angular_wavenumbers,
    fft_forward,
    l2_norm,
    squared_wavenumber,
)


def brute_force_dft(values: np.ndarray) -> np.ndarray:
    """Direct evaluation of coeff[n] = (1/N) sum_x u(x) exp(-2 pi i n.x/N)."""
    shape = values.shape
    out = np.zeros(shape, dtype=np.complex128)
    for n in np.ndindex(shape):
        acc = 0.0 + 0.0j
        for x in np.ndindex(shape):
            phase = sum(ni * xi / si for ni, xi, si in zip(n, x, shape))
            acc += values[x] * np.exp(-2j * np.pi * phase)
        out[n] = acc / values.size
    return out


class TestGridSpec:
    def test_basic_geometry(self):
        grid = GridSpec(lengths=(2.0, 1.0), resolution=(8, 4))
        assert grid.ndim == 2
        assert grid.n_points == 32
        assert grid.spacing == (0.25, 0.25)
        assert grid.cell_volume == pytest.approx(0.0625)
        assert grid.volume == pytest.approx(2.0)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            GridSpec(lengths=(1.0,), resolution=(8, 8))
        with pytest.raises(ValueError):
            GridSpec(lengths=(1.0, 1.0), resolution=(1, 8))
        with pytest.raises(ValueError):
            GridSpec(lengths=(-1.0, 1.0), resolution=(8, 8))
        with pytest.raises(ValueError):
            GridSpec(lengths=(1.0, 1.0, 1.0), resolution=(4, 4, 4))

    def test_coords_follow_boundary_convention(self):
        periodic = GridSpec.line(4, 1.0)
        np.testing.assert_allclose(periodic.coords(0), [0.0, 0.25, 0.5, 0.75])
        centered = GridSpec(lengths=(1.0,), resolution=(4,), boundary=Boundary.NEUMANN)
        np.testing.assert_allclose(centered.coords(0), [0.125, 0.375, 0.625, 0.875])


class TestGridField:
    def test_rejects_non_finite_with_location(self):
        grid = GridSpec.square(4)
        values = np.zeros((1, 4, 4))
        values[0, 2, 3] = np.nan
        with pytest.raises(ValueError, match=r"\(0, 2, 3\)"):
            GridField(grid, values)

    def test_rejects_shape_mismatch(self):
        grid = GridSpec.square(4)
        with pytest.raises(ValueError, match="channel axis"):
            GridField(grid, np.zeros((4, 4)))
        with pytest.raises(ValueError, match="does not match grid"):
            GridField(grid, np.zeros((1, 4, 5)))

    def test_values_are_float64(self):
        grid = GridSpec.square(4)
        f = GridField(grid, np.zeros((1, 4, 4), dtype=np.float32))
        assert f.values.dtype == np.float64


class TestForwardTransform:
    def test_constant_field_zero_mode(self):
        grid = GridSpec.square(4)
        spec = fft_forward(GridField(grid, np.full((1, *grid.resolution), 0.7)))
        assert spec.coeffs[0, 0, 0] == pytest.approx(0.7, abs=1e-15)
        others = spec.coeffs.copy()
        others[0, 0, 0] = 0.0
        assert np.abs(others).max() < 1e-15

    def test_single_cosine_splits_into_conjugate_pair(self):
        grid = GridSpec.line(8, 1.0)
        x = grid.coords(0)
        spec = fft_forward(GridField(grid, np.cos(2 * np.pi * x)[None]))
        assert spec.coeffs[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert spec.coeffs[0, -1] == pytest.approx(0.5, abs=1e-12)
        assert spec.coeffs[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_on_small_grids(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 5, 8, 13, 16):
            grid = GridSpec.line(n, 1.5)
            values = rng.standard_normal(n)
            spec = fft_forward(GridField(grid, values[None]))
            np.testing.assert_allclose(spec.coeffs[0], brute_force_dft(values), atol=1e-12)
        for nx, ny in [(2, 2), (3, 5), (4, 4), (6, 3), (8, 8), (16, 16), (16, 12)]:
            grid = GridSpec(lengths=(1.0, 2.0), resolution=(nx, ny))
            values = rng.standard_normal((nx, ny))
            spec = fft_forward(GridField(grid, values[None]))
            np.testing.assert_allclose(spec.coeffs[0], brute_force_dft(values), atol=1e-12)

    def test_zero_mode_is_mean_on_random_fields(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            grid = GridSpec.square(int(rng.integers(2, 33)))
            values = rng.standard_normal((2, *grid.resolution))
            spec = fft_forward(GridField(grid, values))
            for c in range(2):
                assert spec.coeffs[c, 0, 0] == pytest.approx(values[c].mean(), abs=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        grid = GridSpec.square(16)
        a, b = rng.standard_normal((2, 1, 16, 16))
        alpha, beta = 1.7, -0.3
        lhs = fft_forward(GridField(grid, alpha * a + beta * b)).coeffs
        rhs = alpha * fft_forward(GridField(grid, a)).coeffs + beta * fft_forward(GridField(grid, b)).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_non_finite(self):
        grid = GridSpec.square(4)
        f = GridField(grid, np.full((1, *grid.resolution), 1.0))
        f.values[0, 1, 1] = np.inf  # mutate after construction
        with pytest.raises(ValueError, match=r"\(0, 1, 1\)"):
            fft_forward(f)


class TestRoundTripAndInverse:
    def test_round_trip_many_random_fields(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = int(rng.integers(2, 40))
            grid = GridSpec.square(n, length=float(rng.uniform(0.5, 3.0)))
            values = rng.standard_normal((1, n, n)) * 10
            back = np.fft.ifftn(fft_forward(GridField(grid, values)).coeffs, axes=(1, 2)) * grid.n_points
            scale = np.abs(values).max()
            assert np.abs(back - values).max() < 1e-12 * scale


class TestNormsAndParseval:
    def test_constant_norm(self):
        grid = GridSpec.square(8, length=1.0)
        assert l2_norm(GridField(grid, np.full((1, *grid.resolution), -3.0)))[0] == pytest.approx(3.0, rel=1e-14)

    def test_norm_matches_quadrature_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(2, 20))
            grid = GridSpec(lengths=(2.0, 0.5), resolution=(n, n + 1))
            values = rng.standard_normal((1, n, n + 1))
            expected = np.sqrt(grid.cell_volume * (values**2).sum())
            assert l2_norm(GridField(grid, values))[0] == pytest.approx(expected, rel=1e-13)

    def test_parseval_identity(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            n = int(rng.integers(2, 33))
            length = float(rng.uniform(0.5, 4.0))
            grid = GridSpec.square(n, length=length)
            values = rng.standard_normal((1, n, n))
            field = GridField(grid, values)
            lhs = l2_norm(field)[0] ** 2
            rhs = grid.volume * (np.abs(fft_forward(field).coeffs[0]) ** 2).sum()
            assert abs(lhs - rhs) / lhs < 1e-12


class TestModeBookkeeping:
    def test_mode_layout(self):
        k = angular_wavenumbers(GridSpec.line(8))[0]
        np.testing.assert_array_equal(k, 2.0 * np.pi * np.array([0, 1, 2, 3, -4, -3, -2, -1]))

    def test_zero_mode_always_representable(self):
        for n in (2, 3, 5, 16):
            grid = GridSpec.square(n)
            assert all(0.0 in k for k in angular_wavenumbers(grid))

    def test_modes_exact_where_fftfreq_is_not(self):
        # fftfreq(49, 1/49) misses most integer modes by an ulp
        assert not np.array_equal(np.fft.fftfreq(49, d=1.0 / 49), np.rint(np.fft.fftfreq(49, d=1.0 / 49)))
        modes = np.concatenate([np.arange(25), np.arange(-24, 0)])
        k = angular_wavenumbers(GridSpec.line(49, 2.0))[0]
        assert k.tobytes() == (2.0 * np.pi * modes / 2.0).tobytes()

    def test_angular_wavenumbers(self):
        grid = GridSpec.line(8, length=2.0)
        k = angular_wavenumbers(grid)[0]
        assert k[1] == pytest.approx(np.pi)  # 2*pi*1/L
        assert k[0] == 0.0

    def test_squared_wavenumber_sums_the_axes(self):
        grid = GridSpec((1.0, 3.0), (6, 5))
        kx, ky = angular_wavenumbers(grid)
        k2 = squared_wavenumber(grid)
        assert k2.shape == (6, 5)
        assert k2.tobytes() == (kx**2 + ky**2).tobytes()
