"""On-disk trajectory dataset format.

A dataset is one binary file plus a human-readable JSON sidecar holding
generation provenance (solver parameters, per-sample seeds, tolerances).
The binary layout is little-endian throughout:

    offset  field
    0       magic "ECFD" (4 bytes)
    4       format version, u16
    6       endianness flag, u8 (1 = little; anything else is rejected)
    7       storage precision, u8 (32 or 64)
    8       ndim, u8
    9       boundary code, u8 (0 periodic, 1 neumann, 2 wall)
    10      problem tag, 12 bytes ASCII, NUL padded
    22      split tag, 12 bytes ASCII, NUL padded
    34      channels, u16
    36      samples, u32
    40      snapshots, u32
    44      master seed, i64
    52      resolution, ndim * u32
    ...     axis lengths, ndim * f64
    ...     conservation mask, channels * u8
    ...     payload byte count, u64
    ...     payload CRC32, u32
    ...     payload

The payload is the trajectory array in C order, sample-major then
time-major then channel then row-major space, as little-endian f32 or
f64.  This module owns that framing (header, ``<QI`` count and CRC32,
little-endian payload) and the operator checkpoint shares it.  Every whole
file the package writes goes through :func:`write_atomic`, which writes a
temporary file in the target directory and renames it into place, so readers
never observe a half-written file; JSON goes through :func:`write_json`.
:func:`read_payload` reads and checks each payload.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .correction import ConservationMask
from .datasets import Problem, TrajectoryDataset
from .grid import Boundary, GridSpec, Precision

__all__ = [
    "DatasetFormatError", "write_atomic", "write_json", "read_payload", "write_dataset", "read_dataset", "sidecar_path",
]

MAGIC = b"ECFD"
FORMAT_VERSION = 1
_LITTLE = 1

_BOUNDARY_CODES = {Boundary.PERIODIC: 0, Boundary.NEUMANN: 1, Boundary.WALL: 2}
_BOUNDARY_FROM_CODE = {v: k for k, v in _BOUNDARY_CODES.items()}

_FIXED_HEAD = struct.Struct("<4sHBBBB12s12sHIIq")


class DatasetFormatError(ValueError):
    """The bytes on disk do not form a valid dataset file."""


def sidecar_path(path: str | os.PathLike) -> Path:
    return Path(str(path) + ".json")


def _tag(text: str) -> bytes:
    raw = text.encode("ascii")
    if len(raw) > 12:
        raise ValueError(f"tag {text!r} longer than 12 bytes")
    return raw.ljust(12, b"\0")


def _untag(raw: bytes) -> str:
    return raw.rstrip(b"\0").decode("ascii")


def write_atomic(path: str | os.PathLike, *parts) -> Path:
    """Write ``parts`` (bytes or C-contiguous arrays) to a temporary file, then rename it to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def write_json(path: str | os.PathLike, payload) -> Path:
    """``payload`` as JSON (indent 2, sorted keys) plus a newline, through :func:`write_atomic`."""
    return write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def read_payload(fh, shape: tuple[int, ...], dtype, crc: int) -> np.ndarray:
    """The rest of ``fh`` read into one array; ValueError unless it fills it exactly and matches ``crc``.

    A payload larger than what is left of the file is refused before its array is allocated.
    """
    nbytes, left = math.prod(shape) * np.dtype(dtype).itemsize, os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes > left:
        raise ValueError(f"payload truncated: expected {nbytes} bytes of payload, got {left}")
    out = np.empty(shape, dtype)
    got = fh.readinto(memoryview(out).cast("B"))
    if got != out.nbytes:
        raise ValueError(f"payload truncated: expected {out.nbytes} bytes of payload, got {got}")
    if fh.read(1):
        raise ValueError("trailing bytes after payload")
    if zlib.crc32(out) != crc:
        raise ValueError("payload checksum mismatch, file is corrupt")
    return out


def write_dataset(dataset: TrajectoryDataset, path: str | os.PathLike) -> Path:
    """Serialize a dataset (binary payload + JSON sidecar), atomically.

    The stored dtype follows ``dataset.precision``; an F64 round trip is
    bit-exact, an F32 one rounds each value to the nearest float32.
    """
    dtype = dataset.precision.dtype
    payload = np.ascontiguousarray(dataset.data, dtype=dtype)
    grid = dataset.grid

    head = _FIXED_HEAD.pack(
        MAGIC,
        FORMAT_VERSION,
        _LITTLE,
        dtype.itemsize * 8,
        grid.ndim,
        _BOUNDARY_CODES[grid.boundary],
        _tag(dataset.problem.value),
        _tag(dataset.split),
        dataset.channels,
        dataset.n_samples,
        dataset.n_snapshots,
        dataset.master_seed,
    )
    tail = struct.pack(f"<{grid.ndim}I", *grid.resolution)
    tail += struct.pack(f"<{grid.ndim}d", *grid.lengths)
    tail += struct.pack(f"<{dataset.channels}B", *(int(f) for f in dataset.mask.flags))
    tail += struct.pack("<QI", payload.nbytes, zlib.crc32(payload))
    path = write_atomic(path, head, tail, payload)

    meta = {
        "problem": dataset.problem.value,
        "split": dataset.split,
        "params": dataset.params,
        "sample_seeds": dataset.sample_seeds,
        "master_seed": dataset.master_seed,
        "frame_times": [float(t) for t in dataset.frame_times],
        "tolerances": dataset.tolerances,
        "generator_version": dataset.generator_version,
        "precision": dataset.precision.value,
    }
    write_json(sidecar_path(path), meta)
    return path


def _read_exact(fh, n: int, what: str) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise DatasetFormatError(f"truncated file: expected {n} bytes of {what}, got {len(raw)}")
    return raw


def read_dataset(path: str | os.PathLike) -> TrajectoryDataset:
    """Parse and validate a dataset file; inverse of :func:`write_dataset`.

    A payload holding NaN or Inf is refused, naming its first such sample
    and frame, even when its checksum matches.  Values are widened to
    float64 for computation regardless of the storage precision, which is
    preserved as a tag.  Every refusal, of the file, its sidecar or the
    dataset they describe, is a :class:`DatasetFormatError` naming the file.
    """
    path = Path(path)
    side = sidecar_path(path)
    try:
        with open(path, "rb") as fh:
            head = _FIXED_HEAD.unpack(_read_exact(fh, _FIXED_HEAD.size, "header"))
            (magic, version, endian, bits, ndim, boundary_code,
             problem_raw, split_raw, channels, samples, snapshots, master_seed) = head
            if magic != MAGIC:
                raise DatasetFormatError(f"bad magic {magic!r}, not a dataset file")
            if version > FORMAT_VERSION:
                raise DatasetFormatError(f"unsupported format version {version} (reader supports <= {FORMAT_VERSION})")
            if endian != _LITTLE:
                raise DatasetFormatError(f"unsupported endianness flag {endian}; payload must be little-endian")
            if bits not in (32, 64):
                raise DatasetFormatError(f"unsupported precision {bits} bits")
            if boundary_code not in _BOUNDARY_FROM_CODE:
                raise DatasetFormatError(f"unknown boundary code {boundary_code}")
            if ndim not in (1, 2):
                raise DatasetFormatError(f"unsupported dimensionality {ndim}")

            resolution = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "resolution"))
            for field, size in (("samples", samples), ("snapshots", snapshots), ("channels", channels),
                                *((f"resolution[{axis}]", n) for axis, n in enumerate(resolution))):
                if size == 0:
                    raise DatasetFormatError(f"header declares an empty dimension: {field} is 0")
            lengths = struct.unpack(f"<{ndim}d", _read_exact(fh, 8 * ndim, "lengths"))
            flags = struct.unpack(f"<{channels}B", _read_exact(fh, channels, "mask"))
            payload_nbytes, crc = struct.unpack("<QI", _read_exact(fh, 12, "payload descriptor"))

            expected = samples * snapshots * channels * int(np.prod(resolution)) * (bits // 8)
            if payload_nbytes != expected:
                raise DatasetFormatError(f"payload size mismatch: header declares {payload_nbytes} bytes, "
                                         f"shape needs {expected}")
            data = read_payload(fh, (samples, snapshots, channels, *resolution), f"<f{bits // 8}", crc)
            # NaN and +-Inf carry through min and max, which make no temporary; the search runs on failure only
            if not (np.isfinite(data.min()) and np.isfinite(data.max())):
                at = tuple(np.argwhere(~np.isfinite(data))[0])
                raise DatasetFormatError(f"payload holds a non-finite value {data[at]} (sample {at[0]}, frame {at[1]})")

        if not side.exists():
            raise DatasetFormatError(f"sidecar metadata {side.name} missing")
        try:
            meta = json.loads(side.read_text())
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"sidecar {side.name} is not valid JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise DatasetFormatError(f"sidecar {side.name} must hold a JSON object")
        for key in ("problem", "split", "master_seed", "precision", "params", "sample_seeds", "frame_times"):
            if key not in meta:
                raise DatasetFormatError(f"sidecar {side.name} lacks the key {key!r}")
        if not isinstance(meta["params"], dict):
            raise DatasetFormatError(f"sidecar {side.name}: 'params' must be a JSON object")
        frame_times = np.asarray(meta["frame_times"], dtype=np.float64)
        if frame_times.shape != (snapshots,):
            raise DatasetFormatError(f"sidecar {side.name}: 'frame_times' has shape {frame_times.shape}, "
                                     f"expected ({snapshots},), one time per frame")
        seeds = meta["sample_seeds"]
        if not (isinstance(seeds, list) and len(seeds) == samples):
            got = f"a list of {len(seeds)}" if isinstance(seeds, list) else json.dumps(seeds)
            raise DatasetFormatError(f"sidecar {side.name}: 'sample_seeds' must list one entry per sample "
                                     f"({samples}), got {got}")
        problem, split = Problem(_untag(problem_raw)), _untag(split_raw)
        precision = Precision.F32 if bits == 32 else Precision.F64
        header = {"problem": problem.value, "split": split, "master_seed": master_seed, "precision": precision.value}
        for key, value in header.items():
            if meta[key] != value:  # e.g. a sidecar copied beside another dataset
                raise DatasetFormatError(f"sidecar {side.name}: {key!r} is {meta[key]!r} but the header says {value!r}")

        return TrajectoryDataset(
            problem=problem,
            grid=GridSpec(lengths=lengths, resolution=resolution, boundary=_BOUNDARY_FROM_CODE[boundary_code]),
            data=data.astype(np.float64, copy=False),
            mask=ConservationMask(tuple(bool(f) for f in flags)),
            params=meta["params"],
            sample_seeds=seeds,
            master_seed=master_seed,
            split=split,
            frame_times=frame_times,
            precision=precision,
            tolerances=meta.get("tolerances", {}),
            generator_version=meta.get("generator_version", "unknown"),
        )
    except (ValueError, TypeError) as exc:
        raise DatasetFormatError(f"dataset {path}: {exc}") from None
