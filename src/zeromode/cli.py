"""Command-line entry points: gen, train, eval, report, verify.

Every subcommand accepts ``--config FILE`` (a flat JSON object whose keys
match the long option names with underscores); explicit flags win over
the file, the file wins over built-in defaults.  Dataset and training
defaults are desk scale, small enough for a laptop; ``gen --paper-scale``
switches to the published problem sizes and warns about the cost.

Each run writes a ``manifest.json`` next to its artifacts, last, after
everything else succeeded: the argv echo, the resolved configuration and
its sha256, the seeds involved, the artifact paths, package version and
wall-clock timestamps.  Reports themselves stay timestamp-free so that
reruns are byte-identical; the manifest is the only place time appears.

Exit codes: 0 on success, 1 when a run fails (solver abort, divergence,
failed verification), 2 for bad usage, unreadable inputs or invalid
configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
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


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        loaded = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise SystemExit(f"config file {path} must hold a JSON object")
    return loaded


def _merge(defaults: dict, file_cfg: dict, args: argparse.Namespace, keys: list[str]) -> dict:
    """defaults < config file < explicit command-line flags."""
    merged = dict(defaults)
    unknown = set(file_cfg) - set(keys)
    if unknown:
        raise SystemExit(f"unknown config keys {sorted(unknown)}; expected a subset of {sorted(keys)}")
    merged.update(file_cfg)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _write_manifest(out_dir: Path, command: str, argv: list[str], config: dict,
                    seeds: list[int], artifacts: list[Path], started: str,
                    name: str = "manifest.json") -> Path:
    from . import __version__

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
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# -- subcommands ---------------------------------------------------------------


def _cmd_gen(args, argv: list[str]) -> int:
    from .datafile import write_dataset
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
    preset = paper_config if args.paper_scale else desk_config
    if args.paper_scale:
        print(_PAPER_SCALE_WARNING, file=sys.stderr)
    base = preset(Problem(args.problem), split=args.split)

    param_keys = ["resolution", "t_final", "n_steps", "n_snapshots", "length", "epsilon",
                  "theta", "theta_c", "d_coeff", "velocity", "g_r", "grf_tau", "grf_alpha",
                  "ic_offset", "cheb_order"]
    file_cfg = _load_config_file(args.config)
    run_keys = param_keys + ["samples", "master_seed", "precision"]
    defaults = {k: v for k, v in base.params.to_dict().items() if k in param_keys}
    defaults.update(samples=base.n_samples, master_seed=0, precision="f64")
    resolved = _merge(defaults, file_cfg, args, run_keys)

    params_dict = {k: resolved[k] for k in param_keys}
    params_dict["problem"] = args.problem
    config = DatasetConfig(
        params=ProblemParams.from_dict(params_dict),
        n_samples=int(resolved["samples"]),
        master_seed=int(resolved["master_seed"]),
        split=args.split,
        precision=Precision(resolved["precision"]),
    )
    dataset = generate_dataset(config)
    out = Path(args.out)
    written = write_dataset(dataset, out)
    print(f"wrote {dataset.n_samples} samples x {dataset.n_snapshots} frames to {written}")
    # one manifest per dataset: several gens may share a directory
    _write_manifest(out.parent, "gen", argv, {**resolved, "problem": args.problem, "split": args.split},
                    [config.master_seed], [written, Path(str(written) + ".json")], started,
                    name=out.name + ".manifest.json")
    return 0


def _cmd_train(args, argv: list[str]) -> int:
    from .datafile import read_dataset
    from .model import OperatorConfig, save_checkpoint
    from .training import TrainConfig, TrainMode, train

    started = _utc_now()
    train_set = read_dataset(args.train)
    valid_set = read_dataset(args.valid)

    keys = ["mode", "epochs", "batch_size", "lr", "weight_decay", "loss", "eval_every",
            "seed", "width", "n_layers", "modes_kept"]
    defaults = {"mode": "baseline", "epochs": 200, "batch_size": 5, "lr": 1e-3,
                "weight_decay": 1e-4, "loss": "mae", "eval_every": 50, "seed": 0,
                "width": 16, "n_layers": 2, "modes_kept": 8}
    resolved = _merge(defaults, _load_config_file(args.config), args, keys)

    model_config = OperatorConfig(
        channels=train_set.channels,
        width=int(resolved["width"]),
        n_layers=int(resolved["n_layers"]),
        modes_kept=int(resolved["modes_kept"]),
        ndim=train_set.grid.ndim,
    )
    train_config = TrainConfig(
        mode=TrainMode(resolved["mode"]),
        epochs=int(resolved["epochs"]),
        batch_size=int(resolved["batch_size"]),
        lr=float(resolved["lr"]),
        weight_decay=float(resolved["weight_decay"]),
        loss=str(resolved["loss"]),
        eval_every=int(resolved["eval_every"]),
    )
    seed = int(resolved["seed"])
    result = train(train_set, valid_set, model_config, train_config, seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = save_checkpoint(result.model, out_dir / "model.ckpt")
    log_path = out_dir / "training_log.json"
    log_path.write_text(json.dumps(
        {"log": result.log, "best_epoch": result.best_epoch, "best_val_rmse": result.best_val_rmse},
        indent=2, sort_keys=True) + "\n")
    print(f"trained {resolved['mode']} seed {seed}: best epoch {result.best_epoch}, "
          f"val rmse {result.best_val_rmse:.3e}")
    _write_manifest(out_dir, "train", argv, resolved, [seed], [ckpt, log_path], started)
    return 0


_VARIANT_CORRECTION = {"base": "off", "integrated": "feedback", "staged": "post_hoc"}


def _cmd_eval(args, argv: list[str]) -> int:
    import numpy as np

    from .datafile import read_dataset
    from .metrics import MetricsRecord
    from .model import load_checkpoint
    from .training import CorrectionMode, rollout

    started = _utc_now()
    model = load_checkpoint(args.model)
    dataset = read_dataset(args.data)
    correction = CorrectionMode(args.correction or _VARIANT_CORRECTION[args.variant])

    rmse_steps = []
    cons_steps = []
    for i in range(dataset.n_samples):
        result = rollout(model, dataset.data[i], correction=correction, mask=dataset.mask)
        rmse_steps.append(result.rmse)
        cons_steps.append(result.cons_err)
    record = MetricsRecord(
        dataset=dataset.problem.value,
        variant=args.variant,
        seed=model.config.seed,
        rmse_per_step=list(np.mean(rmse_steps, axis=0)),
        cons_err_per_step=list(np.mean(cons_steps, axis=0)),
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.jsonl"
    with open(records_path, "a") as fh:
        fh.write(record.to_json() + "\n")
    print(f"evaluated {dataset.problem.value}/{args.variant} seed {model.config.seed}: "
          f"mean rmse {record.rmse_mean:.3e}, worst conservation error {record.cons_err_max:.3e}")
    config = {"model": str(args.model), "data": str(args.data), "variant": args.variant,
              "correction": correction.value}
    _write_manifest(out_dir, "eval", argv, config, [model.config.seed], [records_path], started)
    return 0


def _cmd_report(args, argv: list[str]) -> int:
    from .metrics import MetricsRecord, emit_report

    started = _utc_now()
    records = []
    for path in args.records:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            try:
                if line.strip():
                    records.append(MetricsRecord.from_json(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path} line {lineno}: malformed record ({type(exc).__name__}: {exc})") from exc
    if not records:
        raise SystemExit("no records found in the given files")
    formats = tuple(args.formats.split(","))
    out_dir = Path(args.out)
    written = emit_report(records, out_dir, formats=formats)
    print(f"report with {len(records)} records -> {out_dir}")
    seeds = sorted({r.seed for r in records})
    _write_manifest(out_dir, "report", argv, {"formats": list(formats), "n_records": len(records)},
                    seeds, written, started)
    return 0


def _cmd_verify(args, argv: list[str]) -> int:
    from .verify import all_passed, format_results, run_checks

    started = _utc_now()
    results = run_checks(args.suite)
    text = format_results(results)
    print(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        results_path = out_dir / "verify.json"
        results_path.write_text(json.dumps(
            [{"suite": r.suite, "name": r.name, "passed": r.passed,
              "elapsed": r.elapsed, "detail": r.detail} for r in results],
            indent=2) + "\n")
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

    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a trajectory dataset with a reference solver")
    gen.add_argument("--problem", required=True,
                     choices=["ac_dw", "ac_fh", "heat", "water", "diff", "cd"])
    gen.add_argument("--split", default="train", choices=["train", "valid", "test"])
    gen.add_argument("--out", required=True, help="output dataset path (.ecfd)")
    gen.add_argument("--config", help="JSON file with parameter overrides")
    gen.add_argument("--paper-scale", action="store_true", dest="paper_scale",
                     help="published problem sizes instead of desk scale")
    gen.add_argument("--samples", type=int)
    gen.add_argument("--master-seed", type=int, dest="master_seed")
    gen.add_argument("--precision", choices=["f32", "f64"])
    gen.add_argument("--resolution", type=int)
    gen.add_argument("--n-steps", type=int, dest="n_steps")
    gen.add_argument("--n-snapshots", type=int, dest="n_snapshots")
    gen.set_defaults(fn=_cmd_gen)

    tr = sub.add_parser("train", help="train one surrogate on next-step pairs")
    tr.add_argument("--train", required=True, help="training dataset path")
    tr.add_argument("--valid", required=True, help="validation dataset path")
    tr.add_argument("--out", required=True, help="output run directory")
    tr.add_argument("--config", help="JSON file with hyperparameter overrides")
    tr.add_argument("--mode", choices=["baseline", "integrated", "staged"])
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--batch-size", type=int, dest="batch_size")
    tr.add_argument("--lr", type=float)
    tr.add_argument("--weight-decay", type=float, dest="weight_decay")
    tr.add_argument("--loss", choices=["mae", "mse"])
    tr.add_argument("--eval-every", type=int, dest="eval_every")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--width", type=int)
    tr.add_argument("--n-layers", type=int, dest="n_layers")
    tr.add_argument("--modes-kept", type=int, dest="modes_kept")
    tr.set_defaults(fn=_cmd_train)

    ev = sub.add_parser("eval", help="roll a trained model over a dataset and record metrics")
    ev.add_argument("--model", required=True, help="checkpoint path")
    ev.add_argument("--data", required=True, help="dataset path")
    ev.add_argument("--out", required=True, help="output directory (records.jsonl is appended)")
    ev.add_argument("--variant", default="base", choices=["base", "integrated", "staged"])
    ev.add_argument("--correction", choices=["off", "feedback", "post_hoc"],
                    help="override the correction implied by --variant")
    ev.set_defaults(fn=_cmd_eval)

    rp = sub.add_parser("report", help="aggregate eval records into csv/markdown/plot data")
    rp.add_argument("--records", nargs="+", required=True, help="records.jsonl files")
    rp.add_argument("--out", required=True, help="report directory")
    rp.add_argument("--formats", default="csv,markdown,plotdata")
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
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        # bad inputs: malformed files, impossible configurations
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # failed runs: solver aborts, divergence, non-finite rollouts
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
