"""Command-line entry points: gen, train, eval, report, verify.

``gen`` and ``train`` accept ``--config FILE`` (a flat JSON object whose keys
match the long option names with underscores); explicit flags win over
the file, the file wins over built-in defaults.  Dataset and training
defaults are desk scale, small enough for a laptop; ``gen --paper-scale``
switches to the published problem sizes and warns about the cost.

Each run writes a ``manifest.json`` next to its artifacts, last, after
everything else succeeded: the argv echo, the resolved configuration and
its sha256, the seeds involved, the artifact paths, package version,
wall-clock timestamps, the environment (the numpy version, the
thread-cap variables in effect, the CPU count) and the process's peak
resident set and minor page faults so far; ``eval`` adds the seconds
spent in rollouts, and ``train`` the seconds of the whole training run and
of its validation rollouts, and per epoch the seconds of its training steps
and the training pairs per second.  Reports themselves stay timestamp-free
so that reruns are byte-identical; the manifest is the only place time
appears.  Every artifact is written whole through :mod:`datafile`, JSON
through :func:`datafile.write_json`, except ``eval``'s record, which is
appended to ``records.jsonl``.

Exit codes: 0 on success, 1 when a run fails (solver abort, divergence,
failed verification, a size that does not fit in memory), 2 for bad usage,
unreadable inputs or invalid configuration, including an ``--out`` of the
wrong kind, which each command refuses before it reads any input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

__all__ = ["main", "build_parser"]

_PAPER_SCALE_WARNING = (
    "warning: paper-scale presets solve hundreds of trajectories at full "
    "resolution; expect minutes to hours and gigabytes of output"
)


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _config_digest(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def _reject_constant(name: str):
    # json reads NaN, Infinity and -Infinity, which are not JSON and no valid setting
    raise ValueError(f"{name} is not a valid config value")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        loaded = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return loaded


def _merge(defaults: dict, file_cfg: dict, args: argparse.Namespace, keys: list[str]) -> dict:
    """defaults < config file < explicit command-line flags."""
    merged = dict(defaults)
    unknown = set(file_cfg) - set(keys)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}; expected a subset of {sorted(keys)}")
    for key, value in file_cfg.items():
        # a file value has its default's JSON type; an integer may stand for a float
        default = defaults[key]
        expected = (int, float) if type(default) is float else type(default)
        if isinstance(value, bool) is not isinstance(default, bool) or not isinstance(value, expected):
            raise ValueError(f"config key {key!r} must have the JSON type of its default {json.dumps(default)}, "
                             f"got {json.dumps(value)}")
    merged.update(file_cfg)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _environment() -> dict:
    import numpy

    from . import _THREAD_CAP_VARS

    return {
        "numpy": numpy.__version__,
        "thread_caps": {var: os.environ.get(var) for var in ("ZEROMODE_THREADS", *_THREAD_CAP_VARS)},
        "cpu_count": os.cpu_count(),
    }


def _process_cost() -> dict:
    """This process's peak resident set in MiB and its minor page faults so far; null where ``resource`` is missing."""
    try:
        import resource
    except ImportError:  # Windows has no getrusage
        return {"peak_rss_mb": None, "minor_faults": None}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    mib = 1024.0 ** 2 if sys.platform == "darwin" else 1024.0  # ru_maxrss counts bytes on macOS, KiB on Linux
    return {"peak_rss_mb": usage.ru_maxrss / mib, "minor_faults": usage.ru_minflt}


def _write_manifest(out_dir: Path, command: str, argv: list[str], config: dict,
                    seeds: list[int], artifacts: list[Path], started: str,
                    name: str = "manifest.json", **fields) -> Path:
    """Write the run's manifest; ``fields`` are extra top-level entries."""
    from . import __version__
    from .datafile import write_json

    manifest = {
        "command": command,
        "argv": argv,
        "config": config,
        "config_sha256": _config_digest(config),
        "seeds": seeds,
        "artifacts": sorted(str(p) for p in artifacts),
        "version": __version__,
        "started": started,
        "finished": _utc_now(),
        "environment": _environment(),
        **_process_cost(),
        **fields,
    }
    return write_json(out_dir / name, manifest)


def _out_path(path: str, kind: str) -> Path:
    """``--out`` as a path, refused before any work unless a ``kind``, "file" or "directory", can be written there."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())  # "." or "/" at the latest
    if kind == "file" and existing == out and out.is_dir():
        raise ValueError(f"--out {path} is a directory; expected a file path")
    if (kind == "directory" or existing != out) and not existing.is_dir():
        raise ValueError(f"--out {path}: {existing} is not a directory; expected a {kind} path")
    return out


def _check_fit(path: str, dataset, model_config) -> None:
    """Refuse, naming ``path``, a dataset whose states the operator of ``model_config`` cannot step.

    A dataset with one frame is refused too: a rollout from it, or a training pair, would take no step.
    """
    try:
        model_config.check_fit(dataset.data.shape[2:])
    except ValueError as exc:
        raise ValueError(f"dataset {path}: {exc}") from None
    if dataset.n_snapshots < 2:
        raise ValueError(f"dataset {path} has one frame; a rollout needs at least 2")


# -- subcommands ---------------------------------------------------------------


def _cmd_gen(args, argv: list[str]) -> int:
    from .datafile import sidecar_path, write_dataset
    from .datasets import (
        DatasetConfig,
        Problem,
        ProblemParams,
        desk_config,
        generate_dataset,
        paper_config,
    )
    from .grid import Precision

    started = _utc_now()
    out = _out_path(args.out, "file")
    if args.paper_scale:
        print(_PAPER_SCALE_WARNING, file=sys.stderr)
        base = paper_config(Problem(args.problem), split=args.split)
    else:
        base = desk_config(Problem(args.problem), split=args.split)

    param_keys = [f.name for f in fields(ProblemParams) if f.name != "problem"]
    file_cfg = _load_config_file(args.config)
    run_keys = param_keys + ["samples", "master_seed", "precision"]
    defaults = {k: v for k, v in base.params.to_dict().items() if k in param_keys}
    defaults.update(samples=base.n_samples, master_seed=0, precision="f64")
    resolved = _merge(defaults, file_cfg, args, run_keys)

    params_dict = {k: resolved[k] for k in param_keys}
    params_dict["problem"] = args.problem
    config = DatasetConfig(
        params=ProblemParams.from_dict(params_dict),
        n_samples=resolved["samples"],
        master_seed=resolved["master_seed"],
        split=args.split,
        precision=Precision(resolved["precision"]),
    )
    dataset = generate_dataset(config)
    written = write_dataset(dataset, out)
    print(f"wrote {dataset.n_samples} samples x {dataset.n_snapshots} frames to {written}")
    # one manifest per dataset: several gens may share a directory
    _write_manifest(out.parent, "gen", argv, {**resolved, "problem": args.problem, "split": args.split},
                    [config.master_seed], [written, sidecar_path(written)], started,
                    name=out.name + ".manifest.json")
    return 0


def _cmd_train(args, argv: list[str]) -> int:
    from .datafile import read_dataset, write_json
    from .model import OperatorConfig, save_checkpoint
    from .training import TrainConfig, train

    started = _utc_now()
    out_dir = _out_path(args.out, "directory")
    train_set = read_dataset(args.train)
    valid_set = read_dataset(args.valid)
    if (valid_set.problem, valid_set.channels) != (train_set.problem, train_set.channels):  # any resolution is fine
        raise ValueError(
            f"training split {args.train} (problem {train_set.problem.value}, channels {train_set.channels}) and "
            f"validation split {args.valid} (problem {valid_set.problem.value}, channels {valid_set.channels}) differ")

    train_defaults, model_defaults = asdict(TrainConfig()), asdict(OperatorConfig())
    model_keys = ("seed", "width", "n_layers", "modes_kept")
    defaults = {**train_defaults, **{key: model_defaults[key] for key in model_keys}}
    resolved = _merge(defaults, _load_config_file(args.config), args, list(defaults))

    model_config = OperatorConfig(channels=train_set.channels, ndim=train_set.grid.ndim,
                                  **{key: resolved[key] for key in model_keys})
    train_config = TrainConfig(**{key: resolved[key] for key in train_defaults})
    for path, split in ((args.train, train_set), (args.valid, valid_set)):
        _check_fit(path, split, model_config)
    t0 = time.perf_counter()
    result = train(train_set, valid_set, model_config, train_config)
    train_seconds = time.perf_counter() - t0

    ckpt = save_checkpoint(result.model, out_dir / "model.ckpt")
    log_path = write_json(out_dir / "training_log.json", {
        "log": result.log, "best_epoch": result.best_epoch, "best_val_rmse": result.best_val_rmse})
    print(f"trained {resolved['mode']} seed {model_config.seed}: best epoch {result.best_epoch}, "
          f"val rmse {result.best_val_rmse:.3e}")
    _write_manifest(out_dir, "train", argv, resolved, [model_config.seed], [ckpt, log_path], started,
                    train_seconds=train_seconds, validation_seconds=result.validation_seconds,
                    epoch_seconds=result.epoch_seconds, pairs_per_s=result.pairs_per_s)
    return 0


def _read_records(path: Path) -> list:
    """Every record in a records.jsonl file; a malformed line raises ValueError naming it."""
    from .metrics import MetricsRecord

    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        try:
            if line.strip():
                records.append(MetricsRecord.from_json(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path} line {lineno}: malformed record ({type(exc).__name__}: {exc})") from exc
    return records


def _cmd_eval(args, argv: list[str]) -> int:
    from .correction import Variant
    from .datafile import read_dataset
    from .metrics import MetricsRecord
    from .model import load_checkpoint
    from .training import rollout

    started = _utc_now()
    out_dir = _out_path(args.out, "directory")
    model = load_checkpoint(args.model)
    dataset = read_dataset(args.data)
    _check_fit(args.data, dataset, model.config)
    records_path = out_dir / "records.jsonl"
    # a second record for one (dataset, variant, seed) would make report refuse the file
    key = (dataset.problem.value, args.variant, model.config.seed)
    if records_path.exists() and any((r.dataset, r.variant, r.seed) == key
                                     for r in _read_records(records_path)):
        raise ValueError(f"{records_path} already holds a record for {key[0]}/{key[1]} seed {key[2]}")

    result = rollout(model, dataset.data, Variant(args.variant), dataset.mask)
    record = MetricsRecord(
        dataset=dataset.problem.value,
        variant=args.variant,
        seed=model.config.seed,
        rmse_per_step=list(result.rmse.mean(axis=0)),
        cons_err_per_step=list(result.cons_err.mean(axis=0)),
    )

    # the one write outside datafile: two evals sharing --out would lose a record to a read-modify-rename
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(records_path, "a") as fh:
        fh.write(record.to_json() + "\n")
    print(f"evaluated {dataset.problem.value}/{args.variant} seed {model.config.seed}: "
          f"mean rmse {record.rmse_mean:.3e}, worst conservation error {record.cons_err_max:.3e}")
    config = {"model": str(args.model), "data": str(args.data), "variant": args.variant}
    _write_manifest(out_dir, "eval", argv, config, [model.config.seed], [records_path], started,
                    rollout_seconds=result.wall_clock)
    return 0


def _cmd_report(args, argv: list[str]) -> int:
    from .metrics import emit_report

    started = _utc_now()
    out_dir = _out_path(args.out, "directory")
    records = [record for path in args.records for record in _read_records(path)]
    if not records:
        raise ValueError("no records found in the given files")
    written = emit_report(records, out_dir)
    print(f"report with {len(records)} records -> {out_dir}")
    seeds = sorted({r.seed for r in records})
    _write_manifest(out_dir, "report", argv, {"n_records": len(records)}, seeds, written, started)
    return 0


def _cmd_verify(args, argv: list[str]) -> int:
    from .datafile import write_json
    from .verify import all_passed, format_results, run_checks

    started = _utc_now()
    out_dir = _out_path(args.out, "directory") if args.out else None
    results = run_checks(args.suite)
    text = format_results(results)
    print(text)
    if out_dir:
        results_path = write_json(out_dir / "verify.json", [asdict(r) for r in results])
        _write_manifest(out_dir, "verify", argv, {"suite": args.suite},
                        [], [results_path], started)
    return 0 if all_passed(results) else 1


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeromode",
        description="Conservation-corrected spectral surrogates: data, training, evaluation.",
    )
    from . import __version__
    from .correction import Variant
    from .datasets import SPLIT_IDS, Problem
    from .grid import Precision
    from .training import LOSSES, MODES

    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a trajectory dataset with a reference solver")
    gen.add_argument("--problem", required=True,
                     choices=[p.value for p in Problem])
    gen.add_argument("--split", default="train", choices=list(SPLIT_IDS))
    gen.add_argument("--out", required=True, help="output dataset path (.ecfd)")
    gen.add_argument("--config", help="JSON file with parameter overrides")
    gen.add_argument("--paper-scale", action="store_true", dest="paper_scale",
                     help="published problem sizes instead of desk scale")
    gen.add_argument("--samples", type=int)
    gen.add_argument("--master-seed", type=int, dest="master_seed")
    gen.add_argument("--precision", choices=[p.value for p in Precision])
    gen.add_argument("--resolution", type=int)
    gen.add_argument("--n-steps", type=int, dest="n_steps")
    gen.add_argument("--n-snapshots", type=int, dest="n_snapshots")
    gen.set_defaults(fn=_cmd_gen)

    tr = sub.add_parser("train", help="train one surrogate on next-step pairs")
    tr.add_argument("--train", required=True, help="training dataset path")
    tr.add_argument("--valid", required=True, help="validation dataset path")
    tr.add_argument("--out", required=True, help="output run directory")
    tr.add_argument("--config", help="JSON file with hyperparameter overrides")
    tr.add_argument("--mode", choices=MODES)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--batch-size", type=int, dest="batch_size")
    tr.add_argument("--lr", type=float)
    tr.add_argument("--weight-decay", type=float, dest="weight_decay")
    tr.add_argument("--loss", choices=LOSSES)
    tr.add_argument("--eval-every", type=int, dest="eval_every")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--width", type=int)
    tr.add_argument("--n-layers", type=int, dest="n_layers")
    tr.add_argument("--modes-kept", type=int, dest="modes_kept")
    tr.set_defaults(fn=_cmd_train)

    ev = sub.add_parser("eval", help="roll a trained model over a dataset and record metrics")
    ev.add_argument("--model", required=True, help="checkpoint path")
    ev.add_argument("--data", required=True, help="dataset path")
    ev.add_argument("--out", required=True, help="output directory; records.jsonl is appended, and a second record "
                    "for the same dataset, variant and seed is refused")
    ev.add_argument("--variant", default=Variant.BASE.value, choices=[v.value for v in Variant])
    ev.set_defaults(fn=_cmd_eval)

    rp = sub.add_parser("report", help="aggregate eval records into csv/markdown/plot data")
    rp.add_argument("--records", nargs="+", required=True, help="records.jsonl files")
    rp.add_argument("--out", required=True, help="report directory")
    rp.set_defaults(fn=_cmd_report)

    vf = sub.add_parser("verify", help="run the self-check property suites")
    vf.add_argument("--suite", default="all")
    vf.add_argument("--out", help="optionally write verify.json and a manifest here")
    vf.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, argv)
    except (ValueError, OSError) as exc:
        # bad inputs: malformed files, impossible configurations
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # failed runs: solver aborts, divergence, non-finite rollouts
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a failed run too: sizes this machine cannot hold, such as gen --resolution 200000
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
