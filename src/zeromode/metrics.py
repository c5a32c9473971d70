"""Evaluation metrics and deterministic report emission.

One kernel, :func:`step_metrics`, scores every rollout step: the RMSE and
the relative conservation error of each frame.  The conservation error is
:func:`correction.conservation_error`, which :func:`step_metrics` calls and
where its zero-integral policy is stated.

Numbers leave this module in one shape only: scientific notation with
three significant digits, aggregated as mean +/- population standard
deviation across seeds.  Output ordering is fixed by sorting, never by
insertion, so identical records always produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, field, fields
from pathlib import Path

import numpy as np

from .correction import Variant, conservation_error
from .datafile import write_atomic
from .datasets import Problem

__all__ = [
    "step_metrics",
    "MetricsRecord",
    "emit_report",
    "sci3",
    "SCOPE_NOTE",
]

SCOPE_NOTE = (
    "Scope note: absolute error levels from large published benchmark runs are "
    "not reproducible here; they depend on backbone capacity, sample counts and "
    "training budget.  This report instead gates on two checkable properties: "
    "conservation closure of corrected rollouts (relative error at rounding "
    "level in F64) and staged-correction monotonicity (correcting the stored "
    "frames never degrades per-step RMSE).  The base/integrated/staged columns "
    "record the directional comparison for qualitative reading only."
)


def step_metrics(pred: np.ndarray, truth: np.ndarray, mask: tuple[bool, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame RMSE and relative conservation error of (frames, channels, *spatial) stacks.

    RMSE averages the per-channel RMSEs.  The conservation error is
    :func:`correction.conservation_error` of each frame's channel means
    against the truth's.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    spatial = tuple(range(2, pred.ndim))
    cons = conservation_error(pred.mean(axis=spatial), truth.mean(axis=spatial), mask)
    rmse_per_frame = np.sqrt(((pred - truth) ** 2).mean(axis=spatial)).mean(axis=1)
    return rmse_per_frame, cons


@dataclass
class MetricsRecord:
    """One evaluated (dataset, variant, seed) cell: a :class:`Problem` value, a :class:`Variant` value and a seed."""

    dataset: str
    variant: str
    seed: int
    rmse_per_step: list[float]
    cons_err_per_step: list[float]
    rmse_mean: float = field(init=False)
    rmse_final: float = field(init=False)
    cons_err_mean: float = field(init=False)
    cons_err_max: float = field(init=False)

    def __post_init__(self) -> None:
        # both name report files and fill CSV fields
        for name, members in (("dataset", Problem), ("variant", Variant)):
            values = [m.value for m in members]
            if getattr(self, name) not in values:
                raise ValueError(f"{name} must be one of {values}, got {getattr(self, name)!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not self.rmse_per_step:
            raise ValueError("record needs at least one rollout step")
        if len(self.rmse_per_step) != len(self.cons_err_per_step):
            raise ValueError("rmse_per_step and cons_err_per_step differ in length")
        self.rmse_per_step = [float(x) for x in self.rmse_per_step]
        self.cons_err_per_step = [float(x) for x in self.cons_err_per_step]
        self.rmse_mean = float(np.mean(self.rmse_per_step))
        self.rmse_final = float(self.rmse_per_step[-1])
        self.cons_err_mean = float(np.mean(self.cons_err_per_step))
        self.cons_err_max = float(np.max(self.cons_err_per_step))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsRecord":
        d = json.loads(text)
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.init})


def sci3(x: float) -> str:
    """Three significant digits in scientific notation, e.g. 1.40E-01."""
    return f"{float(x):.2E}"


def _aggregate(records: list[MetricsRecord]) -> list[dict]:
    """Per (dataset, variant), sorted: its records by seed as ``cell``, their metrics' mean and population std.

    A cell must hold distinct seeds with one step count, or its mean series has no shape.
    """
    cells: dict[tuple[str, str], list[MetricsRecord]] = {}
    for r in sorted(records, key=lambda r: (r.dataset, r.variant, r.seed)):
        cells.setdefault((r.dataset, r.variant), []).append(r)
    rows = []
    for (dataset, variant), cell in cells.items():
        repeated = [a.seed for a, b in zip(cell, cell[1:]) if a.seed == b.seed]
        if repeated:
            raise ValueError(f"duplicate seed in records for {dataset}/{variant}: seed {repeated[0]}; a report takes "
                             "one record per problem, variant and seed, so records of two splits go to two reports")
        steps = sorted({len(r.rmse_per_step) for r in cell})
        if len(steps) > 1:
            raise ValueError(f"records for {dataset}/{variant} differ in step count: {steps}")
        rows.append(
            {
                "dataset": dataset,
                "variant": variant,
                "cell": cell,
                "n_seeds": len(cell),
                "rmse_mean": float(np.mean([r.rmse_mean for r in cell])),
                "rmse_std": float(np.std([r.rmse_mean for r in cell])),
                "rmse_final_mean": float(np.mean([r.rmse_final for r in cell])),
                "cons_err_mean": float(np.mean([r.cons_err_mean for r in cell])),
                "cons_err_max": float(np.max([r.cons_err_max for r in cell])),
            }
        )
    return rows


def emit_report(records: list[MetricsRecord], out_dir: str | Path) -> list[Path]:
    """Write the report files, each through :func:`datafile.write_atomic`; returns their paths, sorted.

    ``records.csv`` (one row per record) and ``summary.csv`` (aggregates);
    ``summary.md``, same aggregate numbers plus the scope note; and under
    ``plotdata/`` one tab-separated (step, value) file per (dataset,
    variant) series, for both metrics.  Nothing is written for records
    that cannot be aggregated.
    """
    if not records:
        raise ValueError("nothing to report")
    rows = _aggregate(records)
    files: dict[str, list[str]] = {}

    lines = ["dataset,variant,seed,rmse_mean,rmse_final,cons_err_mean,cons_err_max"]
    for r in (r for row in rows for r in row["cell"]):  # sorted by dataset, variant and seed
        lines.append(
            f"{r.dataset},{r.variant},{r.seed},{sci3(r.rmse_mean)},"
            f"{sci3(r.rmse_final)},{sci3(r.cons_err_mean)},{sci3(r.cons_err_max)}"
        )
    files["records.csv"] = lines

    lines = ["dataset,variant,n_seeds,rmse_mean,rmse_std,rmse_final_mean,cons_err_mean,cons_err_max"]
    for row in rows:
        lines.append(
            f"{row['dataset']},{row['variant']},{row['n_seeds']},{sci3(row['rmse_mean'])},"
            f"{sci3(row['rmse_std'])},{sci3(row['rmse_final_mean'])},"
            f"{sci3(row['cons_err_mean'])},{sci3(row['cons_err_max'])}"
        )
    files["summary.csv"] = lines

    datasets = sorted({row["dataset"] for row in rows})
    by_key = {(row["dataset"], row["variant"]): row for row in rows}

    def table(cell) -> list[str]:
        """One row per variant, in :class:`Variant` order; "-" marks a missing cell."""
        out = ["| variant | " + " | ".join(datasets) + " |", "|" + "---|" * (len(datasets) + 1)]
        for variant in Variant:
            cells = [by_key.get((ds, variant.value)) for ds in datasets]
            out.append(f"| {variant.value} | " + " | ".join(cell(row) if row else "-" for row in cells) + " |")
        return out

    lines = ["# Rollout evaluation", "", SCOPE_NOTE, "", "## Mean rollout RMSE (mean +/- std over seeds)", ""]
    lines += table(lambda row: f"{sci3(row['rmse_mean'])} +/- {sci3(row['rmse_std'])}")
    lines += ["", "## Relative conservation error (mean over steps and seeds)", ""]
    lines += table(lambda row: sci3(row["cons_err_mean"]))
    files["summary.md"] = lines

    for row in rows:
        for metric in ("rmse", "cons_err"):
            series = np.mean([getattr(r, f"{metric}_per_step") for r in row["cell"]], axis=0)
            lines = ["step\tvalue"]
            lines += [f"{k + 1}\t{sci3(v)}" for k, v in enumerate(series)]
            files[f"plotdata/{row['dataset']}__{row['variant']}__{metric}.tsv"] = lines

    return sorted(write_atomic(Path(out_dir) / name, ("\n".join(body) + "\n").encode()) for name, body in files.items())
