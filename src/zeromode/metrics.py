"""Evaluation metrics and deterministic report emission.

Zero-integral policy: the relative conservation error divides by the
true integral, so a masked channel whose true integral is 0 at a frame
is skipped at that frame, and a frame with no usable channel gives NaN.

Numbers leave this module in one shape only: scientific notation with
three significant digits, aggregated as mean +/- population standard
deviation across seeds.  Output ordering is fixed by sorting, never by
insertion, so identical records always produce byte-identical reports.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, asdict, field, fields
from pathlib import Path

import numpy as np

from .correction import ConservationMask

__all__ = [
    "step_metrics",
    "rmse",
    "relative_conservation_error",
    "MetricsRecord",
    "emit_report",
    "sci3",
    "SCOPE_NOTE",
]

VARIANTS = ("base", "integrated", "staged")

SCOPE_NOTE = (
    "Scope note: absolute error levels from large published benchmark runs are "
    "not reproducible here; they depend on backbone capacity, sample counts and "
    "training budget.  This report instead gates on two checkable properties: "
    "conservation closure of corrected rollouts (relative error at rounding "
    "level in F64) and staged-correction monotonicity (correcting the stored "
    "frames never degrades per-step RMSE).  The base/integrated/staged columns "
    "record the directional comparison for qualitative reading only."
)


def step_metrics(pred: np.ndarray, truth: np.ndarray,
                 mask: ConservationMask | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame RMSE and relative conservation error of (frames, channels, *spatial) stacks.

    RMSE averages the per-channel RMSEs.  The conservation error is
    |mean(pred) - mean(truth)| / |mean(truth)| (integrals over a fixed
    volume), max'd over masked channels (all channels without a mask)
    under the module's zero-integral policy.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    flags = np.ones(pred.shape[1], dtype=bool) if mask is None else np.asarray(mask.flags)
    if flags.shape != pred.shape[1:2]:
        raise ValueError(f"mask covers {flags.size} channels but the frames have {pred.shape[1]}")
    spatial = tuple(range(2, pred.ndim))
    rmse_per_frame = np.sqrt(((pred - truth) ** 2).mean(axis=spatial)).mean(axis=1)
    pred_means = pred.mean(axis=spatial)
    truth_means = truth.mean(axis=spatial)
    usable = flags & (truth_means != 0.0)
    gap = np.abs(pred_means - truth_means)
    errs = np.divide(gap, np.abs(truth_means), out=np.full_like(gap, -np.inf), where=usable)
    cons = np.where(usable.any(axis=1), errs.max(axis=1), np.nan)
    return rmse_per_frame, cons


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Root-mean-square error, per-channel RMSE averaged across channels.

    Inputs are (channels, *spatial) state arrays; for one channel this is
    plain sqrt(mean((pred - truth)^2)).
    """
    return float(step_metrics(np.asarray(pred)[None], np.asarray(truth)[None])[0][0])


def relative_conservation_error(
    pred_traj: np.ndarray, truth_traj: np.ndarray, mask: ConservationMask
) -> np.ndarray:
    """Conservation error column of :func:`step_metrics`, one value per frame.

    Input validation on top of the zero-integral policy: each skipped
    channel warns, and a frame with no usable channel raises ValueError.
    """
    truth = np.asarray(truth_traj, dtype=np.float64)
    errs = step_metrics(pred_traj, truth, mask)[1]
    zero = truth.mean(axis=tuple(range(2, truth.ndim))) == 0.0
    for c in mask.indices():
        if zero[:, c].any():
            warnings.warn(f"channel {c} has a zero conserved integral, skipping it there", stacklevel=2)
    if zero[:, mask.indices()].all(axis=1).any():
        raise ValueError("every masked channel has a zero conserved integral at some frame")
    return errs


@dataclass
class MetricsRecord:
    """One evaluated (dataset, variant, seed) cell."""

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
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.rmse_per_step:
            raise ValueError("record needs at least one rollout step")
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


def _aggregate(records: list[MetricsRecord]):
    """mean and population std of the summary metrics per (dataset, variant)."""
    groups: dict[tuple[str, str], list[MetricsRecord]] = {}
    for r in records:
        groups.setdefault((r.dataset, r.variant), []).append(r)
    rows = []
    for (dataset, variant) in sorted(groups):
        cell = groups[(dataset, variant)]
        seeds = sorted(r.seed for r in cell)
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"duplicate seed in records for {dataset}/{variant}")
        rows.append(
            {
                "dataset": dataset,
                "variant": variant,
                "n_seeds": len(cell),
                "rmse_mean": float(np.mean([r.rmse_mean for r in cell])),
                "rmse_std": float(np.std([r.rmse_mean for r in cell])),
                "rmse_final_mean": float(np.mean([r.rmse_final for r in cell])),
                "cons_err_mean": float(np.mean([r.cons_err_mean for r in cell])),
                "cons_err_max": float(np.max([r.cons_err_max for r in cell])),
            }
        )
    return rows


def emit_report(records: list[MetricsRecord], out_dir: str | Path,
                formats: tuple[str, ...] = ("csv", "markdown", "plotdata")) -> list[Path]:
    """Write the report files; returns the created paths, sorted.

    csv: ``records.csv`` (one row per record) and ``summary.csv``
    (aggregates).  markdown: ``summary.md``, same aggregate numbers plus
    the scope note.  plotdata: one tab-separated (step, value) file per
    (dataset, variant) series, for both metrics.
    """
    if not records:
        raise ValueError("nothing to report")
    known = {"csv", "markdown", "plotdata"}
    if set(formats) - known:
        raise ValueError(f"unknown report formats {sorted(set(formats) - known)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: (r.dataset, r.variant, r.seed))
    rows = _aggregate(ordered)
    written: list[Path] = []

    if "csv" in formats:
        lines = ["dataset,variant,seed,rmse_mean,rmse_final,cons_err_mean,cons_err_max"]
        for r in ordered:
            lines.append(
                f"{r.dataset},{r.variant},{r.seed},{sci3(r.rmse_mean)},"
                f"{sci3(r.rmse_final)},{sci3(r.cons_err_mean)},{sci3(r.cons_err_max)}"
            )
        p = out_dir / "records.csv"
        p.write_text("\n".join(lines) + "\n")
        written.append(p)

        lines = ["dataset,variant,n_seeds,rmse_mean,rmse_std,rmse_final_mean,cons_err_mean,cons_err_max"]
        for row in rows:
            lines.append(
                f"{row['dataset']},{row['variant']},{row['n_seeds']},{sci3(row['rmse_mean'])},"
                f"{sci3(row['rmse_std'])},{sci3(row['rmse_final_mean'])},"
                f"{sci3(row['cons_err_mean'])},{sci3(row['cons_err_max'])}"
            )
        p = out_dir / "summary.csv"
        p.write_text("\n".join(lines) + "\n")
        written.append(p)

    if "markdown" in formats:
        datasets = sorted({row["dataset"] for row in rows})
        by_key = {(row["dataset"], row["variant"]): row for row in rows}
        lines = ["# Rollout evaluation", "", SCOPE_NOTE, "", "## Mean rollout RMSE (mean +/- std over seeds)", ""]
        header = "| variant | " + " | ".join(datasets) + " |"
        lines += [header, "|" + "---|" * (len(datasets) + 1)]
        for variant in VARIANTS:
            cells = []
            for ds in datasets:
                row = by_key.get((ds, variant))
                cells.append(f"{sci3(row['rmse_mean'])} +/- {sci3(row['rmse_std'])}" if row else "-")
            lines.append(f"| {variant} | " + " | ".join(cells) + " |")
        lines += ["", "## Relative conservation error (mean over steps and seeds)", ""]
        lines += [header, "|" + "---|" * (len(datasets) + 1)]
        for variant in VARIANTS:
            cells = []
            for ds in datasets:
                row = by_key.get((ds, variant))
                cells.append(sci3(row["cons_err_mean"]) if row else "-")
            lines.append(f"| {variant} | " + " | ".join(cells) + " |")
        p = out_dir / "summary.md"
        p.write_text("\n".join(lines) + "\n")
        written.append(p)

    if "plotdata" in formats:
        plot_dir = out_dir / "plotdata"
        plot_dir.mkdir(exist_ok=True)
        groups: dict[tuple[str, str], list[MetricsRecord]] = {}
        for r in ordered:
            groups.setdefault((r.dataset, r.variant), []).append(r)
        for (dataset, variant) in sorted(groups):
            cell = groups[(dataset, variant)]
            for metric in ("rmse", "cons_err"):
                series = np.mean([getattr(r, f"{metric}_per_step") for r in cell], axis=0)
                lines = ["step\tvalue"]
                lines += [f"{k + 1}\t{sci3(v)}" for k, v in enumerate(series)]
                p = plot_dir / f"{dataset}__{variant}__{metric}.tsv"
                p.write_text("\n".join(lines) + "\n")
                written.append(p)

    return sorted(written)
