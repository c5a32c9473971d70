"""Zero-mode correction: encoding, the two correction paths, error algebra.

Oracles: the uniform-shift formula pred + (target_mean - pred_mean) for
the field path, and direct norm computations for the error-reduction
inequality, exercised over large randomized batches.
"""

import warnings

import numpy as np
import pytest

from zeromode.correction import (
    check_error_reduction,
    conservation_error,
    correct_spectrum,
    error_decomposition,
    pin_channel_means,
    project_out_means,
)
from zeromode.grid import GridField, GridSpec, fft_forward, l2_norm


def random_field(rng, grid, channels=1, scale=1.0):
    return GridField(grid, scale * rng.standard_normal((channels, *grid.resolution)))


class TestMaskAndEncode:
    def test_encode_matches_spectrum_zero_mode(self):
        rng = np.random.default_rng(1)
        grid = GridSpec.square(12)
        field = random_field(rng, grid)
        assert field.channel_means()[0] == pytest.approx(fft_forward(field).coeffs[0, 0, 0].real, abs=1e-13)

    def test_channel_mismatch_rejected(self):
        grid = GridSpec.square(4)
        field = GridField(grid, np.full((2, *grid.resolution), 1.0))
        noop = lambda values, targets, flags: values  # the audit refuses the mask, not the pin
        with pytest.raises(ValueError, match="mask covers 1 channels but the state has 2"):
            check_error_reduction(field, field, field, (True,), noop)


class TestConservationError:
    def test_unflagged_drift_is_ignored(self):
        reference = np.array([2.0, 1.0])
        means = np.array([[2.0, 1.0], [2.02, 1.5], [1.95, 9.0]])
        np.testing.assert_allclose(conservation_error(means, reference, (True, False)), [0.0, 0.01, 0.025],
                                   atol=1e-15)

    def test_reference_broadcasts_over_frames(self):
        # the drift audit's shape: (samples, frames, channels) against each sample's frame 0
        integral = np.array([[[1.0], [1.1], [0.9]], [[2.0], [2.0], [2.5]]])
        err = conservation_error(integral, integral[:, :1], (True,))
        np.testing.assert_allclose(err, [[0.0, 0.1, 0.1], [0.0, 0.0, 0.25]], rtol=1e-12)

    def test_zero_reference_is_skipped_without_a_warning(self):
        reference = np.array([[0.0, 4.0], [1.0, 0.0]])
        means = np.array([[0.5, 5.0], [1.5, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            err = conservation_error(means, reference, (True, True))
        np.testing.assert_allclose(err, [0.25, 0.5], rtol=1e-15)

    def test_entry_with_no_usable_channel_is_nan(self):
        reference = np.array([[0.0, 7.0], [1.0, 7.0]])  # channel 1 is unflagged
        err = conservation_error(reference + 0.5, reference, (True, False))
        assert np.isnan(err[0])
        assert err[1] == 0.5

    def test_wrong_mask_width_refused(self):
        with pytest.raises(ValueError, match="mask covers 2 channels but the state has 3"):
            conservation_error(np.ones((4, 3)), np.ones((4, 3)), (True, False))


class TestSpectrumPath:
    def test_nonzero_modes_bit_identical(self):
        rng = np.random.default_rng(2)
        grid = GridSpec.square(16)
        for trial in range(25):
            spec = fft_forward(random_field(rng, grid, channels=2))
            targets = rng.standard_normal(2)
            out = correct_spectrum(spec, targets, (True, True))
            before = spec.coeffs.copy()
            before[:, 0, 0] = out.coeffs[:, 0, 0]
            assert (out.coeffs == before).all()  # bit-for-bit outside mode 0
            assert out.coeffs[0, 0, 0] == targets[0] + 0.0j
            assert out.coeffs[0, 0, 0].imag == 0.0

    def test_idempotent_bit_exact(self):
        rng = np.random.default_rng(3)
        grid = GridSpec.square(8)
        spec = fft_forward(random_field(rng, grid))
        targets = np.array([0.37])
        mask = (True,)
        once = correct_spectrum(spec, targets, mask)
        twice = correct_spectrum(once, targets, mask)
        assert (once.coeffs == twice.coeffs).all()

    def test_unmasked_channels_untouched(self):
        rng = np.random.default_rng(4)
        grid = GridSpec.square(8)
        spec = fft_forward(random_field(rng, grid, channels=2))
        out = correct_spectrum(spec, np.array([5.0, 5.0]), (True, False))
        assert (out.coeffs[1] == spec.coeffs[1]).all()
        assert out.coeffs[0, 0, 0] == 5.0 + 0.0j

    def test_targets_must_be_one_mean_per_channel(self):
        rng = np.random.default_rng(5)
        spec = fft_forward(random_field(rng, GridSpec.square(8), channels=2))
        mask = (True, True)
        for targets in (np.array([1.0]), np.ones(3), np.ones((2, 1)), np.float64(1.0)):
            with pytest.raises(ValueError, match="one mean per channel"):
                correct_spectrum(spec, targets, mask)
        with pytest.raises(ValueError, match="mask covers 1 channels"):
            correct_spectrum(spec, np.ones(2), (True,))


class TestFieldPath:
    def test_matches_shift_oracle(self):
        rng = np.random.default_rng(6)
        grid = GridSpec.square(24, length=1.7)
        mask = (True,)
        for trial in range(25):
            pred = random_field(rng, grid, scale=3.0)
            targets = rng.standard_normal(1)
            out = pin_channel_means(pred.values, targets, mask)
            oracle = pred.values + (targets[0] - pred.values.mean())
            assert np.abs(out - oracle).max() < 1e-12
            assert out.mean() == pytest.approx(targets[0], abs=1e-12)

    def test_agrees_with_spectrum_path(self):
        rng = np.random.default_rng(7)
        grid = GridSpec.square(16)
        mask = (True,)
        pred = random_field(rng, grid)
        targets = np.array([2.5])
        via_field = pin_channel_means(pred.values, targets, mask)
        via_spec = np.fft.ifftn(correct_spectrum(fft_forward(pred), targets, mask).coeffs, axes=(1, 2)) * grid.n_points
        np.testing.assert_allclose(via_field, via_spec, atol=1e-12)

    def test_pin_channel_means_leaves_unmasked_alone(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((3, 8, 8))
        out = pin_channel_means(values, np.array([1.0, 2.0, 3.0]), (True, False, True))
        assert (out[1] == values[1]).all()
        assert out[0].mean() == pytest.approx(1.0, abs=1e-13)
        assert out[2].mean() == pytest.approx(3.0, abs=1e-13)


class TestBatchedPin:
    FLAGS = (True, False, True)

    def jacobian(self, fn, shape):
        """Columns fn(e_k) - fn(0) over the basis fields of ``shape``."""
        n = int(np.prod(shape))
        base = fn(np.zeros(shape)).ravel()
        cols = [fn(np.eye(n)[k].reshape(shape)).ravel() - base for k in range(n)]
        return np.stack(cols, axis=1)

    def test_jacobian_is_mean_projector_on_flagged_channels(self):
        rng = np.random.default_rng(20)
        shape = (2, 3, 3, 2)  # (batch, channels, *spatial)
        targets = rng.standard_normal(shape[:2])
        jac = self.jacobian(lambda v: pin_channel_means(v, targets, self.FLAGS), shape)
        n = 6
        projector = np.eye(n) - np.ones((n, n)) / n
        blocks = [projector if self.FLAGS[c] else np.eye(n) for _ in range(shape[0]) for c in range(3)]
        expected = np.zeros_like(jac)
        for i, block in enumerate(blocks):
            expected[i * n:(i + 1) * n, i * n:(i + 1) * n] = block
        np.testing.assert_allclose(jac, expected, rtol=0.0, atol=1e-14)

    def test_adjoint_is_the_transpose(self):
        rng = np.random.default_rng(21)
        shape = (2, 3, 4)
        targets = rng.standard_normal(shape[:2])
        jac = self.jacobian(lambda v: pin_channel_means(v, targets, self.FLAGS), shape)
        adj = self.jacobian(lambda g: project_out_means(g, self.FLAGS, lead_ndim=1), shape)
        np.testing.assert_allclose(adj, jac.T, rtol=0.0, atol=1e-14)

    def test_batched_equals_per_sample_bit_for_bit(self):
        rng = np.random.default_rng(22)
        values = rng.normal(0.5, 2.0, size=(4, 3, 6, 5))
        targets = rng.standard_normal((4, 3))
        batched = pin_channel_means(values, targets, self.FLAGS)
        looped = np.stack([pin_channel_means(v, t, self.FLAGS) for v, t in zip(values, targets)])
        assert batched.tobytes() == looped.tobytes()
        adj = project_out_means(values, self.FLAGS, lead_ndim=1)
        adj_looped = np.stack([project_out_means(v, self.FLAGS, lead_ndim=0) for v in values])
        assert adj.tobytes() == adj_looped.tobytes()

    def test_two_leading_axes(self):
        rng = np.random.default_rng(23)
        values = rng.standard_normal((2, 3, 3, 8))
        targets = rng.standard_normal((2, 3, 3))
        out = pin_channel_means(values, targets, self.FLAGS)
        np.testing.assert_allclose(out[..., 0, :].mean(axis=-1), targets[..., 0], atol=1e-14)
        assert (out[..., 1, :] == values[..., 1, :]).all()

    def test_too_many_flags_rejected(self):
        with pytest.raises(ValueError, match="mask covers 2 channels"):
            pin_channel_means(np.ones((1, 4, 4)), np.ones(1), (True, True))

    def test_too_few_flags_rejected(self):
        with pytest.raises(ValueError, match="mask covers 1 channels"):
            pin_channel_means(np.ones((2, 4, 4)), np.ones(2), (True,))
        with pytest.raises(ValueError, match="mask covers 1 channels"):
            project_out_means(np.ones((3, 2, 4)), (True,), lead_ndim=1)

    def test_targets_must_match_leading_axes(self):
        with pytest.raises(ValueError, match="leading axes"):
            pin_channel_means(np.ones((3, 2, 4, 4)), np.ones((2, 2)), (True, True))
        with pytest.raises(ValueError, match="leading axes"):
            pin_channel_means(np.ones((2, 4, 4)), np.float64(1.0), (True, True))


class TestErrorDecomposition:
    def test_splits_match_total_norm(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            n = int(rng.integers(4, 33))
            grid = GridSpec.square(n, length=float(rng.uniform(0.5, 2.0)))
            pred = random_field(rng, grid)
            truth = random_field(rng, grid)
            split = error_decomposition(pred, truth)
            total = l2_norm(GridField(grid, pred.values - truth.values))[0] ** 2
            recomposed = grid.volume * (split.zero_mode_sq[0] + split.nonzero_sq[0])
            assert abs(recomposed - total) / total < 1e-12
            gap = pred.values.mean() - truth.values.mean()
            assert split.zero_mode_sq[0] == pytest.approx(gap**2, rel=1e-12, abs=1e-15)

    def test_pure_shift_error_is_all_zero_mode(self):
        grid = GridSpec.square(8)
        truth = GridField(grid, np.full((1, *grid.resolution), 1.0))
        pred = GridField(grid, np.full((1, *grid.resolution), 1.25))
        split = error_decomposition(pred, truth)
        assert split.zero_mode_sq[0] == pytest.approx(0.0625, rel=1e-12)
        assert split.nonzero_sq[0] < 1e-28


class TestErrorReduction:
    def test_randomized_inequality_and_equality_cases(self):
        """1000 random triples with conserving input: correction never hurts."""
        rng = np.random.default_rng(10)
        grid = GridSpec.square(8)
        mask = (True,)
        equalities = 0
        for trial in range(1000):
            truth = random_field(rng, grid, scale=2.0)
            # input shares the truth's mean: zero-mean noise on top
            noise = rng.standard_normal((1, 8, 8))
            noise -= noise.mean()
            input_state = GridField(grid, truth.values + 0.5 * noise)
            pred = random_field(rng, grid, scale=2.0)
            if trial % 3 == 0:
                # force the equality case: prediction already has the right mean
                pred = GridField(grid, pred.values - pred.values.mean() + truth.values.mean())
            report = check_error_reduction(pred, truth, input_state, mask, pin_channel_means)
            assert report.bound_holds, f"trial {trial}"
            if report.equality:
                equalities += 1
                assert abs(report.err_after[0] - report.err_before[0]) < 1e-12
        assert equalities >= 300  # the constructed cases must be recognized

    def test_strict_reduction_for_biased_prediction(self):
        grid = GridSpec.square(16)
        rng = np.random.default_rng(11)
        truth = random_field(rng, grid)
        pred = GridField(grid, truth.values + 0.5)  # pure zero-mode error
        report = check_error_reduction(pred, truth, truth, (True,), pin_channel_means)
        assert report.err_after[0] < 1e-12
        assert report.err_before[0] == pytest.approx(0.5, rel=1e-12)
        assert not report.equality

    def test_equality_flag_tracks_mean_match(self):
        grid = GridSpec.square(8)
        rng = np.random.default_rng(12)
        truth = random_field(rng, grid)
        pred = GridField(grid, truth.values + rng.standard_normal((1, 8, 8)) * 1e-3)
        pred = GridField(grid, pred.values - pred.values.mean() + truth.values.mean())
        report = check_error_reduction(pred, truth, truth, (True,), pin_channel_means)
        assert report.equality
