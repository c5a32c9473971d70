"""Numerics anchor: one small gen -> train -> eval run, checked against the figures it wrote when recorded.

Exact pins (the ``gen`` sha256 in ``test_datasets.py``, the training bytes in
``test_training.py``) hold a refactor that keeps every bit.  A change that
moves bits at rounding level on purpose re-records those pins; this test
then bounds how far the run moved.  ``ac_dw`` and ``water`` at 16^2 are
generated, an operator is trained on each in ``base`` and ``integrated``
mode, and every ``eval`` variant is rolled out (``staged`` from the ``base``
checkpoint), all through :func:`zeromode.cli.main`.  The checks:

- every ``gen`` file's sha256 equals the anchor's;
- every checkpoint slot's norm, and every per-step RMSE and uncorrected
  ``cons_err`` row, is within ``RTOL`` relative of the anchor's;
- the corrected variants' ``cons_err`` stays at or below ``CONS_TOL``.

The checkpoints' sha256 values are recorded too, but not checked: they show
whether a change moved bits at all.  Re-record with
``PYTHONPATH=src python tests/test_anchor.py`` only when a change is meant to
move results, and quote :func:`worst_gap` against the old file.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from zeromode.cli import main
from zeromode.model import layout, load_checkpoint

ANCHOR = Path(__file__).parent / "data" / "anchor_desk.json"
RTOL = 1e-8
CONS_TOL = 1e-12

PROBLEMS = ("ac_dw", "water")
GEN_ARGS = ["--resolution", "16", "--n-snapshots", "10", "--master-seed", "3"]
SPLIT_SAMPLES = {"train": 6, "valid": 2, "test": 2}
TRAIN_ARGS = ["--epochs", "40", "--eval-every", "10", "--batch-size", "4", "--lr", "3e-3", "--seed", "1",
              "--width", "8", "--n-layers", "2", "--modes-kept", "4"]
# (checkpoint's training mode, eval variant)
EVALS = (("base", "base"), ("base", "staged"), ("integrated", "integrated"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"zeromode {' '.join(argv)} exited {code}")


def run_anchor(work: Path) -> dict:
    """The anchor's figures from one run with its artifacts under ``work``."""
    figures = {"gen_sha256": {}, "checkpoints": {}, "evals": {}}
    for problem in PROBLEMS:
        data = {}
        for split, samples in SPLIT_SAMPLES.items():
            data[split] = work / f"{problem}_{split}.ecfd"
            _run(["gen", "--problem", problem, "--split", split, "--out", str(data[split]),
                  "--samples", str(samples), *GEN_ARGS])
            figures["gen_sha256"][f"{problem}/{split}"] = _sha256(data[split])
        for mode in ("base", "integrated"):
            run_dir = work / f"{problem}_{mode}"
            _run(["train", "--train", str(data["train"]), "--valid", str(data["valid"]), "--out", str(run_dir),
                  "--mode", mode, *TRAIN_ARGS])
            ckpt = run_dir / "model.ckpt"
            model = load_checkpoint(ckpt)
            norms = {slot.name: float(np.linalg.norm(model.params[slot.offset : slot.offset + slot.n_floats]))
                     for slot in layout(model.config)}
            figures["checkpoints"][f"{problem}/{mode}"] = {"sha256": _sha256(ckpt), "slot_norms": norms}
        for mode, variant in EVALS:
            out = work / f"{problem}_eval"
            _run(["eval", "--model", str(work / f"{problem}_{mode}" / "model.ckpt"), "--data", str(data["test"]),
                  "--out", str(out), "--variant", variant])
        for line in (out / "records.jsonl").read_text().splitlines():
            record = json.loads(line)
            figures["evals"][f"{problem}/{record['variant']}"] = {
                "rmse_per_step": record["rmse_per_step"], "cons_err_per_step": record["cons_err_per_step"]}
    return figures


def _relative_gaps(new, old):
    """Relative gaps of matching leaves of two figure trees, keyed by their path."""
    if isinstance(old, dict):
        return {f"{key}/{sub}".rstrip("/"): gap
                for key in old for sub, gap in _relative_gaps(new[key], old[key]).items()}
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    if new.shape != old.shape:
        raise AssertionError(f"shape {new.shape} against the anchor's {old.shape}")
    gap = np.abs(new - old) / np.maximum(np.abs(old), np.finfo(float).tiny)
    return {"": float(gap.max(initial=0.0))}


def _bounded(figures: dict) -> dict:
    """The figures the relative bound covers: slot norms, RMSE rows and the uncorrected ``base`` ``cons_err`` rows."""
    return {"checkpoints": {key: ckpt["slot_norms"] for key, ckpt in figures["checkpoints"].items()},
            "evals": {key: {name: row for name, row in rows.items() if name == "rmse_per_step" or key.endswith("/base")}
                      for key, rows in figures["evals"].items()}}


def worst_gap(new: dict, old: dict) -> tuple[str, float]:
    """The largest relative gap between two runs' bounded figures, with its path."""
    return max(_relative_gaps(_bounded(new), _bounded(old)).items(), key=lambda item: item[1])


def test_run_stays_at_the_anchor(tmp_path):
    anchor = json.loads(ANCHOR.read_text())
    figures = run_anchor(tmp_path)
    assert figures["gen_sha256"] == anchor["gen_sha256"]
    assert figures["checkpoints"].keys() == anchor["checkpoints"].keys()
    assert figures["evals"].keys() == anchor["evals"].keys()
    where, gap = worst_gap(figures, anchor)
    assert gap <= RTOL, f"{where} moved {gap:.3e} relative from the anchor written at {anchor['revision']}"
    for key, rows in figures["evals"].items():
        if not key.endswith("/base"):
            assert max(rows["cons_err_per_step"]) <= CONS_TOL, key


if __name__ == "__main__":
    revision = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=Path(__file__).parent).stdout.strip()
    with tempfile.TemporaryDirectory() as work:
        figures = run_anchor(Path(work))
    if ANCHOR.exists():
        print("worst relative gap to the previous anchor: %s %.3e" % worst_gap(figures, json.loads(ANCHOR.read_text())))
    ANCHOR.write_text(json.dumps({"revision": revision, **figures}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ANCHOR}", file=sys.stderr)
