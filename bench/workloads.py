"""The benchmark's three closed-loop workloads and the checks on their outputs.

A workload makes the inputs of one pass in ``setup`` and lists the pass's
CLI commands in ``ops``.  Both take the pass seed, a sub-seed of the
workload seed (see ``run.py``).  Every command plus the checks on what it
wrote is one operation.  A check returns a list of problems, empty when
the output is right.

* ``gen-desk`` - ``gen`` for all six problems at the desk preset.  Almost
  all solver time, plus initial conditions, the audit and dataset writes;
  never touches model, optim, correction or training, so it is the
  no-change control for operator work.
* ``train-desk`` - ``train --mode integrated`` with the default operator on
  32x32 diffusion data: forward and backward at batch 5, AdamW, and
  feedback-corrected validation rollouts.  Solvers run only in set-up.
* ``rollout-paper`` - ``eval`` for the base, integrated and staged
  variants over a 128x128 convection-diffusion trajectory, then ``report``:
  forward only at batch 1, where one activation fills a 4 MiB L2 cache
  that the 32x32 training batch fits in.  No backward, optimizer or solver.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PROBLEMS = ("ac_dw", "ac_fh", "heat", "water", "diff", "cd")
DRIFT_LIMIT = 1e-10
CONSERVATION_LIMIT = 1e-12
RMSE_SLACK = 1e-12
# Pinning a mean is exact up to rounding: about eps * |values| on the mean.
# An untrained operator's rollout can reach |values| ~ 2e4 (pass seed 104002),
# which relative to a conserved mean of 0.08 is 6e-11 and lifts the relative
# conservation error to 1e-12.  The limits widen to ROUNDING * eps times the
# field's scale where that exceeds them; elsewhere they stay as set above.
ROUNDING = 64 * sys.float_info.epsilon
VARIANTS = ("base", "integrated", "staged")
REPORT_FILES = ("records.csv", "summary.csv", "summary.md")


@dataclass
class Op:
    """One CLI command of a pass and the checks on its output."""

    argv: list[str]
    check: Callable[[], list[str]]
    #: files whose bytes must repeat in every pass with the same seed
    outputs: list[Path] = field(default_factory=list)
    #: whether the command's time counts towards the workload's throughput
    timed: bool = True


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``zeromode.cli.main`` in process; returns (exit code, stderr)."""
    from zeromode import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # a traceback is a failed operation, not a benchmark crash
        return 1, err.getvalue() + traceback.format_exc()
    return code, err.getvalue()


def digest(paths: list[Path]) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else "missing"
            for p in paths}


def ic_draws(dataset: Path) -> tuple[int, int]:
    """(samples, initial conditions drawn), from the attempt index in the sidecar's seeds."""
    seeds = json.loads(Path(str(dataset) + ".json").read_text())["sample_seeds"]
    return len(seeds), sum(seed[-1] + 1 for seed in seeds)


def gen_argv(problem: str, out: Path, seed: int, extra: list[str]) -> list[str]:
    return ["gen", "--problem", problem, "--split", "test", "--out", str(out),
            "--master-seed", str(seed), *extra]


def run_setup(argvs: list[list[str]]) -> list[str]:
    problems = []
    for argv in argvs:
        code, err = run_cli(argv)
        if code != 0:
            problems.append(f"set-up {' '.join(argv[:3])} exited {code}: {err.strip()}")
    return problems


def check_dataset(path: Path, shape: tuple[int, ...]) -> list[str]:
    from zeromode.datafile import read_dataset

    try:
        dataset = read_dataset(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name} does not read back: {exc}"]
    problems = []
    if dataset.data.shape != shape:
        problems.append(f"{path.name} has shape {dataset.data.shape}, expected {shape}")
    drift = dataset.tolerances.get("audit_worst_drift")
    if not isinstance(drift, float) or not drift <= DRIFT_LIMIT:
        problems.append(f"{path.name} audit_worst_drift {drift!r} exceeds {DRIFT_LIMIT}")
    return problems


class Workload:
    name = ""
    #: the unit of throughput, and the name the rate goes by for this workload
    item = ""
    rate_name = ""

    def setup(self, inputs: Path, seed: int) -> list[str]:
        """Make one pass seed's inputs under ``inputs``; returns problems."""
        raise NotImplementedError

    def ops(self, inputs: Path, out: Path, seed: int) -> list[Op]:
        raise NotImplementedError

    def items(self) -> int:
        """Throughput units produced by the timed commands of one pass."""
        raise NotImplementedError

    def datasets(self, inputs: Path, out: Path) -> list[Path]:
        """Datasets whose sidecars give the initial-condition accept ratio."""
        raise NotImplementedError


class GenDesk(Workload):
    name = "gen-desk"
    item = "traj"
    rate_name = "gen_traj_per_s"

    def __init__(self, tiny: bool):
        self.samples = 2 if tiny else 10
        self.extra = ["--resolution", "16", "--n-snapshots", "5"] if tiny else []
        self.shape = (2, 5, 1, 16, 16) if tiny else (10, 20, 1, 32, 32)

    def setup(self, inputs: Path, seed: int) -> list[str]:
        # nothing to read; one sample per problem pays lazy imports and first calls
        return run_setup([gen_argv(p, inputs / f"{p}.ecfd", seed, ["--samples", "1", *self.extra])
                          for p in PROBLEMS])

    def ops(self, inputs: Path, out: Path, seed: int) -> list[Op]:
        ops = []
        for problem in PROBLEMS:
            path = out / f"{problem}.ecfd"
            argv = gen_argv(problem, path, seed, ["--samples", str(self.samples), *self.extra])
            ops.append(Op(argv, lambda path=path: check_dataset(path, self.shape),
                          [path, Path(str(path) + ".json")]))
        return ops

    def items(self) -> int:
        return self.samples * len(PROBLEMS)

    def datasets(self, inputs: Path, out: Path) -> list[Path]:
        return [out / f"{p}.ecfd" for p in PROBLEMS]


class TrainDesk(Workload):
    name = "train-desk"
    item = "pairs"
    rate_name = "train_pairs_per_s"

    def __init__(self, tiny: bool):
        self.data_extra = ["--resolution", "16", "--n-snapshots", "5"] if tiny else []
        self.sizes = {"train": 10, "valid": 2} if tiny else {"train": 50, "valid": 10}
        self.epochs = 2 if tiny else 5
        self.model_extra = ["--width", "4", "--modes-kept", "4"] if tiny else []
        self.batch = 5
        #: best validation RMSE of the last pass of each pass seed
        self.val_rmse: dict[int, float] = {}

    def setup(self, inputs: Path, seed: int) -> list[str]:
        return run_setup([["gen", "--problem", "diff", "--split", split, "--out", str(inputs / f"{split}.ecfd"),
                           "--master-seed", str(seed), "--samples", str(n), *self.data_extra]
                          for split, n in self.sizes.items()])

    def ops(self, inputs: Path, out: Path, seed: int) -> list[Op]:
        run = out / "run"
        argv = ["train", "--train", str(inputs / "train.ecfd"), "--valid", str(inputs / "valid.ecfd"),
                "--out", str(run), "--mode", "integrated", "--seed", str(seed),
                "--epochs", str(self.epochs), "--eval-every", str(self.epochs),
                "--batch-size", str(self.batch), *self.model_extra]
        return [Op(argv, lambda: self._check(run, seed), [run / "model.ckpt", run / "training_log.json"])]

    def _check(self, run: Path, seed: int) -> list[str]:
        from zeromode.model import load_checkpoint

        problems = []
        try:
            load_checkpoint(run / "model.ckpt")
        except (OSError, ValueError) as exc:
            problems.append(f"checkpoint does not load: {exc}")
        try:
            val = float(json.loads((run / "training_log.json").read_text())["best_val_rmse"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return problems + [f"training log unreadable: {exc}"]
        if not math.isfinite(val):
            problems.append(f"best_val_rmse is {val}")
        self.val_rmse[seed] = val
        return problems

    def items(self) -> int:
        return self.epochs * -(-self.sizes["train"] // self.batch) * self.batch

    def datasets(self, inputs: Path, out: Path) -> list[Path]:
        return [inputs / f"{split}.ecfd" for split in self.sizes]


class RolloutPaper(Workload):
    name = "rollout-paper"
    item = "frames"
    rate_name = "rollout_steps_per_s"

    def __init__(self, tiny: bool):
        # tiny runs at the desk resolution, the smallest the default model accepts
        self.data_extra = ["--samples", "1", "--n-snapshots", "5"] if tiny else ["--paper-scale", "--samples", "1"]
        self.frames = 5 if tiny else 20

    def setup(self, inputs: Path, seed: int) -> list[str]:
        from zeromode.model import OperatorConfig, init_model, save_checkpoint

        problems = run_setup([gen_argv("cd", inputs / "test.ecfd", seed, self.data_extra)])
        save_checkpoint(init_model(OperatorConfig(channels=1, seed=seed)), inputs / "model.ckpt")
        return problems

    def ops(self, inputs: Path, out: Path, seed: int) -> list[Op]:
        evals, report = out / "evals", out / "report"
        records = evals / "records.jsonl"
        ops = []
        for k, variant in enumerate(VARIANTS):
            argv = ["eval", "--model", str(inputs / "model.ckpt"), "--data", str(inputs / "test.ecfd"),
                    "--out", str(evals), "--variant", variant]
            ops.append(Op(argv, lambda k=k: self._check_records(records, k + 1, inputs)))
        outputs = [records] + [report / name for name in REPORT_FILES]
        outputs += [report / "plotdata" / f"cd__{v}__{m}.tsv" for v in VARIANTS for m in ("rmse", "cons_err")]
        ops.append(Op(["report", "--records", str(records), "--out", str(report)],
                      lambda: [f"{p.name} missing" for p in outputs if not p.exists()], outputs, timed=False))
        return ops

    def _check_records(self, path: Path, expected: int, inputs: Path) -> list[str]:
        records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        # eval appends, so more records than evals run means a stale directory
        if len(records) != expected:
            return [f"{path.name} holds {len(records)} records after eval {expected}"]
        for record, variant in zip(records, VARIANTS):
            if record["variant"] != variant:
                return [f"record {variant!r} has variant {record['variant']!r}"]
        record, base = records[-1], records[0]
        variant = VARIANTS[expected - 1]
        problems = []
        if len(record["rmse_per_step"]) != self.frames - 1:
            problems.append(f"{variant} record has {len(record['rmse_per_step'])} steps, expected {self.frames - 1}")
        if variant != "base":
            truth_rms, mean0 = self._truth_scale(inputs)
            for k, (err, rmse) in enumerate(zip(record["cons_err_per_step"], record["rmse_per_step"])):
                limit = max(CONSERVATION_LIMIT, ROUNDING * (rmse + truth_rms[k]) / mean0)
                if not err <= limit:
                    problems.append(f"{variant} conservation error {err:.3e} exceeds {limit:.3e} at step {k + 1}")
                    break
        if variant == "staged":
            for k, (s, b) in enumerate(zip(record["rmse_per_step"], base["rmse_per_step"])):
                if not s <= b + max(RMSE_SLACK, ROUNDING * b):
                    problems.append(f"staged rmse {s:.6e} exceeds base {b:.6e} at step {k + 1}")
                    break
        return problems

    @staticmethod
    def _truth_scale(inputs: Path):
        """RMS of each true predicted frame, and the smallest |mean| of an initial frame."""
        from zeromode.datafile import read_dataset

        data = read_dataset(inputs / "test.ecfd").data  # (samples, frames, channels, *spatial)
        rms = (data[:, 1:] ** 2).mean(axis=(0, *range(2, data.ndim))) ** 0.5
        return rms, float(abs(data[:, 0].mean(axis=tuple(range(2, data.ndim - 1)))).min())

    def items(self) -> int:
        return len(VARIANTS) * (self.frames - 1)

    def datasets(self, inputs: Path, out: Path) -> list[Path]:
        return [inputs / "test.ecfd"]


WORKLOADS = {w.name: w for w in (GenDesk, TrainDesk, RolloutPaper)}
