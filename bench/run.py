"""zeromode benchmark: one closed-loop client driving the real CLI in process.

    python3 bench/run.py --workload gen-desk --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
process is single-threaded: the BLAS/FFT thread caps are fixed to 1 before
numpy loads.  Each command starts after the previous one returned, and its
outputs are checked.

A run goes through pass seeds 1000*seed + 0, 1, 2, ... until ``--seconds``
is used up.  Each pass seed gets its own set-up (timed; the median is
``setup_s``) and its own pass.  The program's cost depends on the values it
computes on: the same training pass runs up to 30% slower for one model
initialisation than for another, mostly in ``x**3``, whose time follows
the share of negative entries.  A single pass seed per run would make
that spread between runs.  An untraced run ends by repeating the first pass
seed, whose outputs must match the first pass byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every pass
seed untraced and then traced, and prints the per-layer metrics: busy and
self time per pass of each wrapped boundary, call-time percentiles, and the
tracing overhead.  The last stdout line is the JSON result.  A per-run file
in ``.bench_out/`` holds the environment, any failed checks and, for traced
runs, the raw spans.  The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("ZEROMODE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Must happen before numpy is first imported: thread pools size themselves then.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

from clock import ReferenceClock
from spans import Tracer
from workloads import WORKLOADS, digest, ic_draws, run_cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEEDS_PER_SEED = 1000

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB", "ops_ok_frac": "fraction"}

# span name -> statistics reported for it in a traced run
LAYER_STATS = {
    "solvers.solve_allen_cahn": ("calls", "busy_s", "call_ms_p50", "steps_per_s"),
    "solvers.solve_shallow_water": ("calls", "busy_s"),
    "solvers.exact": ("calls", "busy_s"),
    "initial_conditions": ("calls", "busy_s"),
    "datasets.generate_dataset": ("calls", "busy_s", "self_s"),
    "datafile.write_dataset": ("busy_s", "mb_per_s"),
    "datafile.read_dataset": ("busy_s", "mb_per_s"),
    "model.loss_and_grad": ("calls", "busy_s", "self_s", "call_ms_p50", "call_ms_p95"),
    "model.forward_values": ("calls", "busy_s", "self_s", "call_ms_p50", "call_ms_p95"),
    "model.gelu": ("calls", "busy_s"),
    "model.gelu_grad": ("calls", "busy_s"),
    "model.save_checkpoint": ("busy_s",),
    "model.load_checkpoint": ("busy_s",),
    "optim.adamw_step": ("calls", "busy_s", "call_ms_p50"),
    "correction.pin_channel_means": ("calls", "busy_s"),
    "training.train": ("self_s",),
    "training.rollout": ("calls", "busy_s", "self_s"),
    "metrics.emit_report": ("busy_s",),
    "cli.gen": ("self_s",),
    "cli.train": ("self_s",),
    "cli.eval": ("self_s",),
    "cli.report": ("self_s",),
}
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "call_ms_p50": "ms",
              "call_ms_p95": "ms", "steps_per_s": "1/s", "mb_per_s": "MB/s"}
DERIVED_UNITS = {"datasets.ic_accept_ratio": "ratio", "training.validation_share": "fraction",
                 "training.accounted_frac": "fraction", "training.val_rmse": "rmse",
                 "trace.overhead_frac": "fraction"}


def import_program() -> None:
    """Import zeromode from this checkout's ``src``, or exit 2."""
    if not (SRC / "zeromode" / "__init__.py").is_file():
        print(f"error: no zeromode package under {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zeromode

    if Path(zeromode.__file__).resolve().parent != (SRC / "zeromode").resolve():
        print(f"error: imported zeromode from {zeromode.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def git_revision(root: Path) -> str | None:
    """HEAD's commit, read from the files; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(ROOT),
        "seed": seed,
    }


class Run:
    """One benchmark run: set-ups, timed passes, checks, metrics."""

    def __init__(self, workload, seed: int, seconds: float, traced: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if traced else None
        self.work = work
        self.clock = ReferenceClock()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.inputs: dict[int, Path] = {}
        # durations in wall and reference seconds: one per set-up, and the timed
        # commands of each pass with its pass-seed index and whether it was traced
        self.setup_times: list[tuple[float, float]] = []
        self.passes: list[tuple[int, bool, float, float]] = []
        self.draws = [0, 0]
        self._first_outputs: dict[tuple[int, int], dict] = {}

    def measure(self) -> None:
        start = time.perf_counter()
        rounds: list[float] = []
        modes = (False, True) if self.tracer else (False,)
        # an untraced run keeps room to repeat the first pass seed at the end
        reserve = 1 if self.tracer else 2
        while not rounds or time.perf_counter() - start + reserve * statistics.median(rounds) <= self.seconds:
            t0 = time.perf_counter()
            for traced in modes:
                self._pass(len(rounds), traced)
            rounds.append(time.perf_counter() - t0)
        if not self.tracer:
            self._pass(0, False)

    def _pass_seed(self, j: int) -> int:
        return SEEDS_PER_SEED * self.seed + j

    def _setup(self, j: int) -> Path:
        inputs = self.work / f"inputs-{j}"
        inputs.mkdir(parents=True)
        self.clock.start()
        t0 = time.perf_counter()
        problems = self.workload.setup(inputs, self._pass_seed(j))
        wall = time.perf_counter() - t0
        self.setup_times.append((wall, self.clock.scale(wall)))
        if problems:
            raise RuntimeError("; ".join(problems))
        return inputs

    def _pass(self, j: int, traced: bool) -> None:
        if j not in self.inputs:
            self.inputs[j] = self._setup(j)
        inputs, seed = self.inputs[j], self._pass_seed(j)
        number = len(self.passes) + 1
        out = self.work / f"pass-{number}"
        out.mkdir()  # fails if an earlier pass left it: every pass starts fresh
        tracer = self.tracer if traced else None
        if tracer:
            tracer.group = number
        wall = reference = 0.0
        self.clock.start()
        for index, op in enumerate(self.workload.ops(inputs, out, seed)):
            self.attempted += 1
            t0 = time.perf_counter()
            with tracer.installed() if tracer else nullcontext():
                with tracer.span(f"cli.{op.argv[0]}") if tracer else nullcontext():
                    code, err = run_cli(op.argv)
            elapsed = time.perf_counter() - t0
            if op.timed:
                wall += elapsed
                reference += self.clock.scale(elapsed)
            problems = [f"exit code {code}: {err.strip()}"] if code != 0 else self._check((j, index), op)
            if problems:
                self.failed += 1
                self.problems += [f"pass {number} (seed {seed}), {' '.join(op.argv[:3])}: {p}" for p in problems]
        self.passes.append((j, traced, wall, reference))
        if self.tracer and not traced:
            for dataset in self.workload.datasets(inputs, out):
                samples, drawn = ic_draws(dataset)
                self.draws[0] += samples
                self.draws[1] += drawn
        shutil.rmtree(out)

    def _check(self, key: tuple[int, int], op) -> list[str]:
        try:
            problems = op.check()
        except Exception as exc:  # a malformed output must count, not crash the run
            return [f"check raised {type(exc).__name__}: {exc}"]
        if op.outputs:
            digests = digest(op.outputs)
            first = self._first_outputs.setdefault(key, digests)
            changed = sorted(name for name in digests if digests[name] != first[name])
            if changed:
                problems.append(f"outputs differ from the first pass with this seed: {changed}")
        return problems

    def rates(self, traced: bool) -> dict[int, float]:
        """Items per reference second of each pass seed's last pass of the given kind."""
        return {p[0]: self.workload.items() / p[3] for p in self.passes if p[1] == traced}

    def rate(self, column: int = 3) -> float:
        """Median over untraced passes of items per reference (column 3) or wall (2) second."""
        return statistics.median(self.workload.items() / p[column] for p in self.passes if not p[1])

    def end_to_end(self) -> dict[str, float]:
        return {
            "items_per_s": self.rate(),
            "setup_s": statistics.median(t[1] for t in self.setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> tuple[dict[str, tuple[float, str]], dict[str, int]]:
        """Metrics with units, and the sample count behind each percentile."""
        groups = [number for number, p in enumerate(self.passes, 1) if p[1]]
        stats = self.tracer.stats(groups)
        absent = self.tracer.absent_spans()
        metrics: dict[str, tuple[float, str]] = {}
        counts: dict[str, int] = {}
        for name, wanted in LAYER_STATS.items():
            if name in absent:
                continue
            st = stats.get(name)
            for stat in wanted:
                metrics[f"{name}.{stat}"] = (_stat_value(st, stat), STAT_UNITS[stat])
                if stat.startswith("call_ms"):
                    counts[f"{name}.{stat}"] = len(st.durations) if st else 0

        def share(parts: tuple[str, ...], whole: str) -> float:
            """Median over traced passes of the parts' busy time over the whole's."""
            busy = {name: stats[name].busy if name in stats else dict.fromkeys(groups, 0.0)
                    for name in (*parts, whole)}
            ratios = [sum(busy[p][g] for p in parts) / busy[whole][g] for g in groups if busy[whole][g]]
            return statistics.median(ratios) if ratios else 0.0

        derived = {}
        samples, drawn = self.draws
        derived["datasets.ic_accept_ratio"] = samples / drawn if drawn else 0.0
        if not absent & {"training.train", "training.rollout"}:
            derived["training.validation_share"] = share(("training.rollout",), "training.train")
        parts = ("model.loss_and_grad", "optim.adamw_step", "training.rollout")
        if not absent & set(parts):
            derived["training.accounted_frac"] = share(parts, "cli.train")
        val_rmse = getattr(self.workload, "val_rmse", {})
        derived["training.val_rmse"] = statistics.median(val_rmse.values()) if val_rmse else 0.0
        untraced, traced = self.rates(False), self.rates(True)
        derived["trace.overhead_frac"] = statistics.median(untraced[j] / traced[j] for j in traced) - 1.0
        metrics.update((k, (v, DERIVED_UNITS[k])) for k, v in derived.items())
        return metrics, counts


def _stat_value(st, stat: str) -> float:
    if st is None:
        return 0.0
    if stat == "calls":
        return st.calls_per_pass
    if stat == "busy_s":
        return st.busy_s
    if stat == "self_s":
        return st.self_s
    if stat.startswith("call_ms_p"):
        return st.call_ms(int(stat[len("call_ms_p"):]))
    per_s = st.work / st.total_busy if st.total_busy else 0.0
    return per_s / 1e6 if stat == "mb_per_s" else per_s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    env = environment(args.seed)
    workload = WORKLOADS[args.workload](args.tiny)
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run = Run(workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counts: dict[str, int] = {}
    if args.trace:
        with_units, counts = run.per_layer()
    else:
        with_units = {k: (v, END_TO_END_UNITS[k]) for k, v in run.end_to_end().items()}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in with_units.items()},
    }

    print(f"{args.workload} seed {args.seed}: {len(run.passes)} passes over {len(run.inputs)} pass seeds, "
          f"{run.attempted} operations, {run.failed} failed")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    if not args.trace:
        print(f"  {workload.rate_name} = {run.rate():.4f} {workload.item}/s at reference speed "
              f"(items_per_s), {run.rate(column=2):.4f} {workload.item}/s wall clock")
        print(f"  ops_failed_frac = {run.failed / run.attempted:.4f} fraction")
    for name, (value, unit) in with_units.items():
        n = f" (n={counts[name]})" if name in counts else ""
        print(f"  {name} = {value:.6g} {unit}{n}")
    absent = sorted(run.tracer.absent) if run.tracer else []
    if absent:
        print(f"  absent (no longer in the program): {absent}")
    print("env: " + json.dumps(env, sort_keys=True))

    record = {"env": env, "result": result, "problems": run.problems, "absent": absent,
              "items_per_pass": workload.items(),
              "setups": {"fields": ["wall", "reference"], "rows": run.setup_times},
              "passes": {"fields": ["pass_seed_index", "traced", "wall", "reference"], "rows": run.passes}}
    if run.tracer:
        record["spans"] = {"fields": ["name", "start", "end", "parent", "pass", "work"],
                           "rows": run.tracer.to_json()}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
