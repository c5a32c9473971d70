"""Smoke test of the benchmark itself, at the tiniest input sizes.

    python3 bench/smoke.py

Runs every workload untraced and traced, in process, and asserts that:

* each run passes its output checks and emits exactly the metrics that
  ``BENCHMARK.json`` declares for its mode, each with the declared unit;
* every name the tracer wrapped is the original function again afterwards;
* a boundary whose function no longer exists drops its metrics and is
  listed as absent, without failing the run;
* an injected bad output (a staged eval record whose RMSE exceeds base) is
  counted as a failed operation, lowers ``ops_ok_frac`` and makes the run
  exit non-zero;
* without the package next to it the benchmark exits non-zero and prints
  no result.

Exits 0 when all of them hold.  Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # fixes the thread caps before numpy loads
import spans
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int) -> tuple[int, dict, str]:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace), "--tiny"])
    return code, json.loads(text.getvalue().strip().splitlines()[-1]), text.getvalue()


def originals() -> dict:
    run.import_program()
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in spans.BOUNDARIES}


def check_declared_metrics() -> None:
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
    before = originals()
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, text = invoke(name, trace)
            assert code == 0 and result["correct"] and result["failed"] == 0, text
            declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == declared, f"{name} trace {trace}: {set(emitted) ^ set(declared)}"
            assert all(isinstance(v["value"], float) for v in result["metrics"].values()), result
    assert originals() == before, "a traced run left a wrapped name behind"


def check_absent_name() -> None:
    missing = ("zeromode.model", "renamed_away", "model.renamed_away", None)
    spans.BOUNDARIES.append(missing)
    run.LAYER_STATS["model.renamed_away"] = ("calls", "busy_s")
    try:
        code, result, text = invoke("train-desk", 1)
    finally:
        spans.BOUNDARIES.remove(missing)
        del run.LAYER_STATS["model.renamed_away"]
    assert code == 0 and result["correct"], text
    assert not any(k.startswith("model.renamed_away") for k in result["metrics"]), result
    assert "model.loss_and_grad.busy_s" in result["metrics"], result
    assert "zeromode.model.renamed_away" in text, text


def check_injected_failure() -> None:
    from zeromode import cli

    real = cli.main

    def staged_worse_than_base(argv):
        code = real(argv)
        if argv[0] == "eval" and argv[argv.index("--variant") + 1] == "staged":
            path = Path(argv[argv.index("--out") + 1]) / "records.jsonl"
            lines = path.read_text().splitlines()
            record = json.loads(lines[-1])
            record["rmse_per_step"] = [x + 1.0 for x in record["rmse_per_step"]]
            path.write_text("\n".join(lines[:-1] + [json.dumps(record)]) + "\n")
        return code

    cli.main = staged_worse_than_base
    try:
        code, result, text = invoke("rollout-paper", 0)
    finally:
        cli.main = real
    attempted, failed = result["attempted"], result["failed"]
    assert code == 1 and not result["correct"] and failed >= 1, text
    assert result["metrics"]["ops_ok_frac"]["value"] == (attempted - failed) / attempted < 1.0, result
    assert "staged rmse" in text, text


def check_bare_directory() -> None:
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    here = Path(__file__).resolve().parent
    shutil.copytree(here, bare / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{here.name}/run.py", "--workload", "gen-desk",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout + proc.stderr


def main() -> int:
    for check in (check_declared_metrics, check_absent_name, check_injected_failure, check_bare_directory):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
