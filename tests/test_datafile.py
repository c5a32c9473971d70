"""Binary dataset format: round trips, validation, crafted bad fixtures."""

import json
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from zeromode.datafile import (
    MAGIC,
    DatasetFormatError,
    read_dataset,
    sidecar_path,
    write_dataset,
)
from zeromode.datasets import DatasetConfig, Problem, desk_config, generate_dataset
from zeromode.grid import Precision


@pytest.fixture(scope="module")
def small_dataset():
    cfg = desk_config(Problem.DIFF, "train")
    params = cfg.params.to_dict()
    params.update(resolution=12, n_steps=100, n_snapshots=10)
    from zeromode.datasets import ProblemParams

    return generate_dataset(DatasetConfig(params=ProblemParams.from_dict(params), n_samples=2, master_seed=3))


class TestRoundTrip:
    def test_f64_bit_exact(self, small_dataset, tmp_path):
        path = write_dataset(small_dataset, tmp_path / "d.ecfd")
        back = read_dataset(path)
        assert (back.data == small_dataset.data).all()
        assert back.problem == small_dataset.problem
        assert back.grid == small_dataset.grid
        assert back.mask == small_dataset.mask
        assert back.params == small_dataset.params
        assert back.sample_seeds == small_dataset.sample_seeds
        assert back.precision is Precision.F64
        np.testing.assert_array_equal(back.frame_times, small_dataset.frame_times)

    def test_f32_rounds_to_nearest(self, small_dataset, tmp_path):
        small_dataset.precision = Precision.F32
        try:
            path = write_dataset(small_dataset, tmp_path / "d32.ecfd")
        finally:
            small_dataset.precision = Precision.F64
        back = read_dataset(path)
        assert back.precision is Precision.F32
        assert back.data.dtype == np.float64  # widened for compute
        np.testing.assert_array_equal(back.data, small_dataset.data.astype(np.float32).astype(np.float64))

    def test_no_temp_files_left(self, small_dataset, tmp_path):
        write_dataset(small_dataset, tmp_path / "d.ecfd")
        # a directory at the target path fails the final rename of the dataset, then of a sidecar
        for target, blocked in (("e.ecfd", "e.ecfd"), ("f.ecfd", "f.ecfd.json")):
            (tmp_path / blocked).mkdir()
            with pytest.raises(OSError):
                write_dataset(small_dataset, tmp_path / target)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


def traced_peak(call):
    """Peak bytes ``tracemalloc`` sees while ``call()`` runs; its result stays alive until the end."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """A write holds no copy of an F64 payload; a read holds the one array it returns."""

    @pytest.fixture(scope="class")
    def desk_split(self):
        return generate_dataset(replace(desk_config(Problem.DIFF, "train"), n_samples=20))  # 20 x 20 x 32^2

    def test_f64_write_holds_no_payload_copy(self, desk_split, tmp_path):
        assert traced_peak(lambda: write_dataset(desk_split, tmp_path / "d.ecfd")) <= 0.1 * desk_split.data.nbytes

    def test_f64_read_holds_one_payload(self, desk_split, tmp_path):
        path = write_dataset(desk_split, tmp_path / "d.ecfd")
        assert traced_peak(lambda: read_dataset(path)) <= 1.1 * desk_split.data.nbytes


def corrupt(path, offset, new_bytes):
    raw = bytearray(path.read_bytes())
    raw[offset : offset + len(new_bytes)] = new_bytes
    path.write_bytes(bytes(raw))


class TestValidation:
    def test_bad_magic(self, small_dataset, tmp_path):
        path = write_dataset(small_dataset, tmp_path / "d.ecfd")
        corrupt(path, 0, b"NOPE")
        with pytest.raises(DatasetFormatError, match="magic"):
            read_dataset(path)

    def test_unsupported_version(self, small_dataset, tmp_path):
        path = write_dataset(small_dataset, tmp_path / "d.ecfd")
        corrupt(path, 4, struct.pack("<H", 99))
        with pytest.raises(DatasetFormatError, match="version"):
            read_dataset(path)

    def test_big_endian_fixture_rejected(self, small_dataset, tmp_path):
        path = write_dataset(small_dataset, tmp_path / "d.ecfd")
        corrupt(path, 6, b"\x02")  # endianness flag
        with pytest.raises(DatasetFormatError, match="little-endian"):
            read_dataset(path)

    def test_flipped_payload_byte_fails_checksum(self, small_dataset, tmp_path):
        path = write_dataset(small_dataset, tmp_path / "d.ecfd")
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="checksum"):
            read_dataset(path)

    def test_truncated_payload(self, small_dataset, tmp_path):
        path = write_dataset(small_dataset, tmp_path / "d.ecfd")
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(DatasetFormatError, match="truncated"):
            read_dataset(path)

    def test_size_mismatch_detected_before_checksum(self, small_dataset, tmp_path):
        path = write_dataset(small_dataset, tmp_path / "d.ecfd")
        # declare one sample more than the payload holds
        corrupt(path, 36, struct.pack("<I", small_dataset.n_samples + 1))
        with pytest.raises(DatasetFormatError, match="size mismatch"):
            read_dataset(path)

    @pytest.mark.parametrize("offset, fmt, field", [
        (36, "<I", "samples"), (40, "<I", "snapshots"), (34, "<H", "channels"),
        (52, "<I", "resolution[0]"), (56, "<I", "resolution[1]"),
    ])
    def test_empty_dimension_refused(self, small_dataset, tmp_path, offset, fmt, field):
        path = write_dataset(small_dataset, tmp_path / "d.ecfd")
        assert small_dataset.grid.ndim == 2
        corrupt(path, offset, struct.pack(fmt, 0))
        message = rf"d\.ecfd: header declares an empty dimension: {re.escape(field)} is 0"
        with pytest.raises(DatasetFormatError, match=message):
            read_dataset(path)

    @pytest.mark.parametrize("precision", list(Precision))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_refused_though_its_checksum_matches(self, small_dataset, tmp_path, value, precision):
        bad = replace(small_dataset, data=small_dataset.data.copy(), precision=precision)
        bad.data[1, 4, 0, 3, 5] = value
        path = write_dataset(bad, tmp_path / "d.ecfd")
        message = rf"d\.ecfd: payload holds a non-finite value {value} \(sample 1, frame 4\)"
        with pytest.raises(DatasetFormatError, match=message):
            read_dataset(path)

    def test_missing_sidecar(self, small_dataset, tmp_path):
        path = write_dataset(small_dataset, tmp_path / "d.ecfd")
        sidecar_path(path).unlink()
        with pytest.raises(DatasetFormatError, match="sidecar"):
            read_dataset(path)

    @pytest.mark.parametrize("frame_times, shape", [([0.0], "(1,)"), ([[0.0, 1.0]], "(1, 2)")])
    def test_frame_times_must_hold_one_time_per_frame(self, small_dataset, tmp_path, frame_times, shape):
        path = write_dataset(small_dataset, tmp_path / "d.ecfd")
        side = sidecar_path(path)
        side.write_text(json.dumps({**json.loads(side.read_text()), "frame_times": frame_times}))
        message = rf"d\.ecfd: sidecar d\.ecfd\.json: 'frame_times' has shape {re.escape(shape)}, expected \(10,\)"
        with pytest.raises(DatasetFormatError, match=message):
            read_dataset(path)

    @pytest.mark.parametrize("seeds, got", [([[3, 0, 0, 0]], "a list of 1"), ([[3, 0, 0, 0]] * 3, "a list of 3"),
                                            ("x", '"x"'), ({}, "{}")], ids=["short", "long", "string", "object"])
    def test_sample_seeds_must_hold_one_entry_per_sample(self, small_dataset, tmp_path, seeds, got):
        path = write_dataset(small_dataset, tmp_path / "d.ecfd")
        side = sidecar_path(path)
        side.write_text(json.dumps({**json.loads(side.read_text()), "sample_seeds": seeds}))
        message = rf"d\.ecfd: sidecar d\.ecfd\.json: 'sample_seeds' must list one entry per sample \(2\), got {got}$"
        with pytest.raises(DatasetFormatError, match=message):
            read_dataset(path)

    @pytest.mark.parametrize("field, value, message", [
        ("problem", Problem.AC_DW, "'problem' is 'diff' but the header says 'ac_dw'"),
        ("split", "valid", "'split' is 'train' but the header says 'valid'"),
        ("master_seed", 4, "'master_seed' is 3 but the header says 4"),
        ("precision", Precision.F32, "'precision' is 'f64' but the header says 'f32'"),
    ], ids=["problem", "split", "master_seed", "precision"])
    def test_sidecar_must_agree_with_the_header(self, small_dataset, tmp_path, field, value, message):
        # the sidecar of one dataset copied beside the payload of another
        source = write_dataset(small_dataset, tmp_path / "d.ecfd")
        path = write_dataset(replace(small_dataset, **{field: value}), tmp_path / "other.ecfd")
        sidecar_path(path).write_bytes(sidecar_path(source).read_bytes())
        with pytest.raises(DatasetFormatError, match=re.escape(f"other.ecfd: sidecar other.ecfd.json: {message}")):
            read_dataset(path)

    def test_magic_constant_is_stable(self):
        # on-disk contract: readers in other languages key off these bytes
        assert MAGIC == b"ECFD"
