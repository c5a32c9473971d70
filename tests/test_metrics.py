"""Metric definitions and byte-stable report emission."""

import numpy as np
import pytest

from zeromode.correction import ConservationMask
from zeromode.metrics import (
    SCOPE_NOTE,
    MetricsRecord,
    emit_report,
    relative_conservation_error,
    rmse,
    sci3,
    step_metrics,
)


class TestRmse:
    def test_single_channel_closed_form(self):
        pred = np.array([[1.0, 2.0, 3.0, 4.0]])
        truth = np.array([[1.0, 2.0, 3.0, 2.0]])
        assert np.isclose(rmse(pred, truth), np.sqrt(4.0 / 4.0))

    def test_channels_average_not_pool(self):
        # channel 0 error 0, channel 1 error 2 everywhere: the mean of the
        # per-channel RMSEs is 1, pooling all entries would give sqrt(2)
        pred = np.zeros((2, 8, 8))
        truth = np.zeros((2, 8, 8))
        truth[1] = 2.0
        assert np.isclose(rmse(pred, truth), 1.0)

    def test_metric_axioms_on_random_fields(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.normal(size=(2, 6, 6))
            b = rng.normal(size=(2, 6, 6))
            c = rng.normal(size=(2, 6, 6))
            assert rmse(a, a) == 0.0
            assert np.isclose(rmse(a, b), rmse(b, a), rtol=1e-14)
            assert rmse(a, c) <= rmse(a, b) + rmse(b, c) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse(np.zeros((1, 4)), np.zeros((1, 5)))


class TestConservationError:
    def test_known_drift(self):
        truth = np.full((3, 1, 4, 4), 2.0)
        pred = truth.copy()
        pred[1] += 0.02
        pred[2] -= 0.05
        err = relative_conservation_error(pred, truth, ConservationMask((True,)))
        np.testing.assert_allclose(err, [0.0, 0.01, 0.025], atol=1e-15)

    def test_max_over_masked_channels(self):
        truth = np.ones((2, 3, 4, 4))
        pred = truth.copy()
        pred[:, 0] += 0.01
        pred[:, 1] += 0.30
        pred[:, 2] += 0.70  # unmasked, must be ignored
        mask = ConservationMask((True, True, False))
        err = relative_conservation_error(pred, truth, mask)
        np.testing.assert_allclose(err, [0.30, 0.30], rtol=1e-12)

    def test_zero_integral_channel_warns_and_skips(self):
        truth = np.ones((2, 2, 4, 4))
        truth[:, 1] = 0.0
        pred = truth + 0.1
        with pytest.warns(UserWarning, match="zero conserved integral"):
            err = relative_conservation_error(pred, truth, ConservationMask((True, True)))
        np.testing.assert_allclose(err, [0.1, 0.1], rtol=1e-12)

    def test_all_zero_integrals_rejected(self):
        truth = np.zeros((2, 1, 4, 4))
        with pytest.raises(ValueError, match="zero conserved integral"):
            with pytest.warns(UserWarning):
                relative_conservation_error(truth + 1.0, truth, ConservationMask((True,)))


class TestStepMetrics:
    def test_matches_per_frame_loop_bit_for_bit(self):
        rng = np.random.default_rng(5)
        truth = rng.normal(1.0, 1.0, size=(6, 3, 8, 8))
        pred = truth + rng.normal(0.0, 0.2, size=truth.shape)
        mask = ConservationMask((True, False, True))
        rmse_k, cons_k = step_metrics(pred, truth, mask)
        for k in range(6):
            assert rmse_k[k] == rmse(pred[k], truth[k])
            pm, tm = pred[k].mean(axis=(1, 2)), truth[k].mean(axis=(1, 2))
            assert cons_k[k] == max(abs(pm[c] - tm[c]) / abs(tm[c]) for c in (0, 2))

    def test_zero_integral_skipped_per_frame_and_empty_frame_is_nan(self):
        truth = np.ones((3, 2, 4, 4))
        truth[1, 1] = 0.0  # channel 1 has no usable integral at frame 1 only
        truth[2] = 0.0  # no usable channel at frame 2
        pred = truth + np.array([0.1, 0.3])[None, :, None, None]
        _, cons = step_metrics(pred, truth, ConservationMask((True, True)))
        np.testing.assert_allclose(cons[:2], [0.3, 0.1], rtol=1e-12)
        assert np.isnan(cons[2])

    def test_mask_must_cover_every_channel(self):
        with pytest.raises(ValueError, match="mask covers 2 channels"):
            step_metrics(np.ones((2, 1, 4)), np.ones((2, 1, 4)), ConservationMask((True, True)))


class TestRecord:
    def test_derived_summaries(self):
        r = MetricsRecord("heat", "base", 0, [1.0, 2.0, 3.0], [0.1, 0.4, 0.2])
        assert r.rmse_mean == 2.0
        assert r.rmse_final == 3.0
        assert np.isclose(r.cons_err_mean, 0.7 / 3.0)
        assert r.cons_err_max == 0.4

    def test_json_round_trip(self):
        r = MetricsRecord("heat", "staged", 3, [1.0, 0.5], [0.0, 0.0])
        back = MetricsRecord.from_json(r.to_json())
        assert back == r

    def test_validation(self):
        with pytest.raises(ValueError, match="variant"):
            MetricsRecord("heat", "fancy", 0, [1.0], [0.0])
        with pytest.raises(ValueError, match="step"):
            MetricsRecord("heat", "base", 0, [], [])


def make_records():
    rng = np.random.default_rng(13)
    records = []
    for dataset in ("diff", "heat"):
        for variant in ("base", "integrated", "staged"):
            for seed in (0, 1, 2):
                steps = rng.uniform(0.01, 0.2, size=5)
                cons = rng.uniform(1e-14, 1e-3, size=5)
                records.append(MetricsRecord(dataset, variant, seed, list(steps), list(cons)))
    return records


class TestReport:
    def test_file_set_and_determinism(self, tmp_path):
        records = make_records()
        first = emit_report(records, tmp_path / "a")
        blobs = {p.name: p.read_bytes() for p in first}
        # shuffled input, fresh directory: identical bytes
        again = emit_report(list(reversed(records)), tmp_path / "b")
        assert [p.name for p in again] == [p.name for p in first]
        for p in again:
            assert p.read_bytes() == blobs[p.name]

    def test_expected_files(self, tmp_path):
        paths = emit_report(make_records(), tmp_path)
        names = {p.relative_to(tmp_path).as_posix() for p in paths}
        assert "records.csv" in names
        assert "summary.csv" in names
        assert "summary.md" in names
        assert "plotdata/diff__staged__rmse.tsv" in names
        assert "plotdata/heat__integrated__cons_err.tsv" in names
        # 2 datasets x 3 variants x 2 metrics
        assert sum(1 for n in names if n.startswith("plotdata/")) == 12

    def test_markdown_and_csv_numbers_agree(self, tmp_path):
        records = make_records()
        emit_report(records, tmp_path)
        summary = (tmp_path / "summary.csv").read_text().strip().splitlines()[1:]
        md = (tmp_path / "summary.md").read_text()
        assert SCOPE_NOTE in md
        for line in summary:
            fields = line.split(",")
            rmse_mean, rmse_std = fields[3], fields[4]
            assert f"{rmse_mean} +/- {rmse_std}" in md

    def test_aggregate_mean_and_population_std(self, tmp_path):
        records = [
            MetricsRecord("diff", "base", 0, [1.0], [0.0]),
            MetricsRecord("diff", "base", 1, [3.0], [0.0]),
        ]
        emit_report(records, tmp_path, formats=("csv",))
        line = (tmp_path / "summary.csv").read_text().strip().splitlines()[1]
        fields = line.split(",")
        assert fields[3] == sci3(2.0)
        assert fields[4] == sci3(1.0)  # population std, not sample std

    def test_plotdata_layout(self, tmp_path):
        emit_report(make_records(), tmp_path, formats=("plotdata",))
        body = (tmp_path / "plotdata" / "diff__base__rmse.tsv").read_text().splitlines()
        assert body[0] == "step\tvalue"
        assert len(body) == 6
        step, value = body[1].split("\t")
        assert step == "1"
        float(value)  # parses

    def test_guards(self, tmp_path):
        with pytest.raises(ValueError, match="nothing"):
            emit_report([], tmp_path)
        with pytest.raises(ValueError, match="formats"):
            emit_report(make_records(), tmp_path, formats=("csv", "pdf"))
        dup = [
            MetricsRecord("diff", "base", 0, [1.0], [0.0]),
            MetricsRecord("diff", "base", 0, [2.0], [0.0]),
        ]
        with pytest.raises(ValueError, match="duplicate seed"):
            emit_report(dup, tmp_path)

    def test_sci3_formatting(self):
        assert sci3(0.000123456) == "1.23E-04"
        assert sci3(1.0) == "1.00E+00"
        assert sci3(-42.5) == "-4.25E+01"
