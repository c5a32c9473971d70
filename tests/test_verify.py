"""Self-check runner: suites pass as shipped, broken corrections get flagged."""

import dataclasses
import inspect
import textwrap

import numpy as np
import pytest

import zeromode.model
import zeromode.verify
from zeromode.correction import pin_channel_means
from zeromode.verify import (
    CheckResult,
    all_passed,
    available_suites,
    format_results,
    run_checks,
)


def mutated(function, old, new):
    """``function`` compiled again from its source with every ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert old in source
    namespace = dict(function.__globals__)
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


class TestSuites:
    def test_everything_passes_as_shipped(self):
        results = run_checks("all")
        assert all_passed(results), format_results(results)

    def test_suite_filtering(self):
        for suite in available_suites():
            results = run_checks(suite)
            assert results
            assert {r.suite for r in results} == {suite}
        assert {r.suite for r in run_checks("all")} == set(available_suites())

    def test_suites_come_from_the_registry(self, monkeypatch):
        assert available_suites() == ("theorems", "solvers", "gradients")
        # a check registered under a new suite runs under "all" too
        passing = lambda correction: None
        registry = [("extra", "a", passing), ("other", "b", passing), ("extra", "c", passing)]
        monkeypatch.setattr(zeromode.verify, "_REGISTRY", registry)
        assert available_suites() == ("extra", "other")
        assert [(r.suite, r.name) for r in run_checks("all")] == [("extra", "a"), ("other", "b"), ("extra", "c")]

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_checks("vibes")

    def test_results_carry_timing(self):
        results = run_checks("theorems")
        assert all(isinstance(r, CheckResult) for r in results)
        assert all(r.elapsed >= 0.0 for r in results)


class TestMutantDetection:
    """A wrong correction must be reported, or the suite is decorative."""

    def test_noop_correction_fails_mean_pinning(self):
        noop = lambda values, targets, flags: values
        results = run_checks("theorems", correction=noop)
        failed = {r.name for r in results if not r.passed}
        assert "mean_pinning" in failed
        detail = next(r.detail for r in results if r.name == "mean_pinning")
        assert "seed" in detail  # counterexample is named

    def test_rescaling_correction_fails_shift_check(self):
        def rescale(values, targets, flags):
            out = values.copy()
            for c, on in enumerate(flags):
                if on:
                    out[c] *= targets[c] / values[c].mean()
            return out

        results = run_checks("theorems", correction=rescale)
        failed = {r.name for r in results if not r.passed}
        # pins the mean, but by bending nonzero structure
        assert "shift_only_action" in failed

    def test_crashing_correction_is_a_failure_not_an_abort(self):
        def broken(values, targets, flags):
            raise ZeroDivisionError("boom")

        results = run_checks("theorems", correction=broken)
        assert not all_passed(results)
        crashed = [r for r in results if "ZeroDivisionError" in r.detail]
        assert crashed

    def test_offset_pin_fails_the_theorem_checks_that_apply_it(self):
        # lands every mean 1e-3 off target: the spectrum path and the
        # error-reduction audit must see it through the injected pin
        offset = lambda values, targets, flags: pin_channel_means(values, targets, flags) + 1e-3
        results = {r.name: r for r in run_checks("theorems", correction=offset)}
        for name in ("error_reduction_bound", "spectral_zero_mode_surgery"):
            assert not results[name].passed
            assert "seed" in results[name].detail

    def test_real_part_band_inverse_fails_band_inner_product(self, monkeypatch):
        # an inverse that drops the imaginary part of the band is no longer _to_band's transpose
        exact = zeromode.verify._from_band
        monkeypatch.setattr(zeromode.verify, "_from_band", lambda modes, band: exact(modes.real + 0j, band))
        results = {r.name: r for r in run_checks("gradients")}
        assert not results["band_inner_product"].passed
        assert "differ" in results["band_inner_product"].detail

    def test_flipped_dft_column_fails_spectral_adjoint(self, monkeypatch):
        # one -sin column of the last-axis table negated: _dft returns the conjugate of mode 1
        exact = zeromode.verify._band

        def flipped(resolution, modes_kept):
            band = exact(resolution, modes_kept)
            to_cols = band.to_cols.copy()
            to_cols[:, 3] *= -1.0
            return dataclasses.replace(band, to_cols=to_cols)

        monkeypatch.setattr(zeromode.verify, "_band", flipped)
        results = {r.name: r for r in run_checks("gradients")}
        assert not results["spectral_adjoint"].passed
        assert "direct DFT sums" in results["spectral_adjoint"].detail

    def test_fold_without_mirror_term_fails_spectral_adjoint(self, monkeypatch):
        # W_eff[k] = W[k] drops conj W[-k] / 2 and the halving: no longer the band of Re(ifftn(W X))
        unfolded = lambda weight, band: np.ascontiguousarray(weight.transpose(2, 0, 1)[band.half])
        monkeypatch.setattr(zeromode.verify, "_fold", unfolded)
        results = {r.name: r for r in run_checks("gradients")}
        assert not results["spectral_adjoint"].passed
        assert "direct DFT sums" in results["spectral_adjoint"].detail

    def test_band_inner_without_column_count_fails_band_inner_product(self, monkeypatch):
        # each mode above column 0 stands for itself and its conjugate mirror; dropping that count halves them
        def uncounted(a_modes, b_modes, band):
            return np.einsum("bik,bjk->ij", np.conj(a_modes), b_modes).real / np.prod(band.resolution)

        monkeypatch.setattr(zeromode.verify, "_band_inner", uncounted)
        results = {r.name: r for r in run_checks("gradients")}
        assert not results["band_inner_product"].passed
        assert "differ" in results["band_inner_product"].detail

    def test_assigning_weight_gradient_scatter_fails_finite_differences(self, monkeypatch):
        # column 0 holds both k and -k, so the mirror's assignment overwrites the zero mode's first term
        scatter = mutated(zeromode.model._mixing_backward, "] +=", "] =")
        monkeypatch.setattr(zeromode.model, "_mixing_backward", scatter)
        results = {r.name: r for r in run_checks("gradients")}
        for name in ("finite_difference_mse", "finite_difference_mae", "finite_difference_corrected"):
            assert not results[name].passed
            assert "disagrees with finite differences" in results[name].detail


class TestFormatting:
    def test_report_lines(self):
        results = run_checks("gradients")
        text = format_results(results)
        lines = text.splitlines()
        assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
        assert "passed" in lines[-1] and "failed" in lines[-1]

    def test_failure_line_carries_detail(self):
        noop = lambda values, targets, flags: values
        text = format_results(run_checks("theorems", correction=noop))
        assert "FAIL" in text
