"""CLI: pipeline wiring, config precedence, manifests, exit codes."""

import json
import os
import resource
import shutil
import struct
import subprocess
import sys
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest

import zeromode
import zeromode.datasets
import zeromode.training
import zeromode.verify
from zeromode.cli import main
from zeromode.correction import Variant
from zeromode.datafile import read_dataset, sidecar_path
from zeromode.model import init_model, load_checkpoint, save_checkpoint
from zeromode.training import rollout

GEN_ARGS = ["--samples", "3", "--resolution", "16", "--n-steps", "100", "--n-snapshots", "10"]
TRAIN_ARGS = ["--epochs", "2", "--eval-every", "2", "--width", "4", "--n-layers", "1",
              "--modes-kept", "2"]


def gen(tmp_path, split, extra=()):
    out = tmp_path / f"diff_{split}.ecfd"
    code = main(["gen", "--problem", "diff", "--split", split, "--out", str(out),
                 *GEN_ARGS, *extra])
    assert code == 0
    return out


class TestGen:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = gen(tmp_path, "train")
        ds = read_dataset(out)
        assert ds.n_samples == 3
        assert ds.split == "train"
        manifest = json.loads((tmp_path / "diff_train.ecfd.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert "--problem" in manifest["argv"]
        assert len(manifest["config_sha256"]) == 64
        assert manifest["version"]
        assert any(p.endswith(".ecfd") for p in manifest["artifacts"])

    def test_reruns_are_byte_identical(self, tmp_path):
        a = gen(tmp_path / "a", "train")
        b = gen(tmp_path / "b", "train")
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 2, "master_seed": 9}))
        out = tmp_path / "d.ecfd"
        # flag overrides the file's samples, the file's master_seed survives
        code = main(["gen", "--problem", "diff", "--out", str(out), "--config", str(cfg),
                     "--samples", "4", "--resolution", "16", "--n-steps", "100",
                     "--n-snapshots", "10"])
        assert code == 0
        ds = read_dataset(out)
        assert ds.n_samples == 4
        assert ds.master_seed == 9

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"smaples": 2}))
        assert main(["gen", "--problem", "diff", "--out", str(tmp_path / "d.ecfd"),
                     "--config", str(cfg), *GEN_ARGS]) == 2

    def test_memory_error_is_a_failed_run(self, tmp_path, capsys, monkeypatch):
        # a size the machine cannot hold, as gen --resolution 200000 asks, raised without allocating it
        def too_big(config):
            raise MemoryError("Unable to allocate 298. GiB for an array with shape (1, 200000, 200000)")

        monkeypatch.setattr(zeromode.datasets, "generate_dataset", too_big)
        capsys.readouterr()
        assert main(["gen", "--problem", "diff", "--out", str(tmp_path / "d.ecfd"), *GEN_ARGS]) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 298. GiB for an array with shape (1, 200000, 200000)\n"
        assert not list(tmp_path.iterdir())

    def test_invalid_parameters_exit_2(self, tmp_path):
        code = main(["gen", "--problem", "diff", "--out", str(tmp_path / "d.ecfd"),
                     "--samples", "3", "--resolution", "16", "--n-steps", "7",
                     "--n-snapshots", "10"])  # 10 does not divide 7
        assert code == 2


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generated pair of splits plus a trained base run."""
    root = tmp_path_factory.mktemp("pipeline")
    train_path = gen(root, "train")
    valid_path = gen(root, "valid")
    run_dir = root / "run"
    code = main(["train", "--train", str(train_path), "--valid", str(valid_path),
                 "--out", str(run_dir), "--mode", "base", "--seed", "1", *TRAIN_ARGS])
    assert code == 0
    return root, train_path, valid_path, run_dir


class TestTrain:
    def test_artifacts(self, pipeline):
        _, _, _, run_dir = pipeline
        model = load_checkpoint(run_dir / "model.ckpt")
        assert model.config.seed == 1  # --seed is the model config's seed
        log = json.loads((run_dir / "training_log.json").read_text())
        assert [r["epoch"] for r in log["log"]] == [1, 2]
        assert log["best_epoch"] >= 1
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seeds"] == [1]
        assert manifest["config"]["mode"] == "base"

    def test_validation_split_may_have_another_resolution(self, pipeline, tmp_path):
        _, train_path, _, _ = pipeline
        valid_path = gen(tmp_path, "valid", extra=("--resolution", "32"))
        assert main(["train", "--train", str(train_path), "--valid", str(valid_path),
                     "--out", str(tmp_path / "run"), *TRAIN_ARGS]) == 0

    def test_deterministic_across_runs(self, pipeline, tmp_path):
        root, train_path, valid_path, run_dir = pipeline
        code = main(["train", "--train", str(train_path), "--valid", str(valid_path),
                     "--out", str(tmp_path / "again"), "--mode", "base", "--seed", "1",
                     *TRAIN_ARGS])
        assert code == 0
        a = (run_dir / "model.ckpt").read_bytes()
        b = (tmp_path / "again" / "model.ckpt").read_bytes()
        assert a == b

    def test_manifest_carries_training_times(self, pipeline):
        _, _, _, run_dir = pipeline
        manifest = json.loads((run_dir / "manifest.json").read_text())
        # the validation rollouts run inside the timed training run
        assert 0.0 < manifest["validation_seconds"] < manifest["train_seconds"]
        # timing stays out of the training log, whose bytes reruns reproduce
        log = json.loads((run_dir / "training_log.json").read_text())
        assert set(log) == {"log", "best_epoch", "best_val_rmse"}
        assert all(set(r) <= {"epoch", "loss", "val_rmse"} for r in log["log"])

    def test_manifest_carries_per_epoch_timing(self, pipeline):
        _, _, _, run_dir = pipeline
        manifest = json.loads((run_dir / "manifest.json").read_text())
        seconds, rates = manifest["epoch_seconds"], manifest["pairs_per_s"]
        assert len(seconds) == len(rates) == 2  # --epochs 2
        assert all(value > 0.0 for value in seconds + rates)
        assert sum(seconds) <= manifest["train_seconds"]
        # one batch of the default size 5 covers the 3 training samples each epoch
        assert [rate * s for rate, s in zip(rates, seconds)] == pytest.approx([5, 5], rel=1e-12)


class TestEvalAndReport:
    def test_eval_records_and_variant_correction(self, pipeline, tmp_path):
        _, _, valid_path, run_dir = pipeline
        out = tmp_path / "evals"
        for variant in ("base", "staged"):
            code = main(["eval", "--model", str(run_dir / "model.ckpt"),
                         "--data", str(valid_path), "--out", str(out), "--variant", variant])
            assert code == 0
        lines = (out / "records.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        by_variant = {json.loads(line)["variant"]: json.loads(line) for line in lines}
        # post-hoc pinning restores the conserved integral to rounding level
        assert max(by_variant["staged"]["cons_err_per_step"]) < 1e-12
        assert max(by_variant["base"]["cons_err_per_step"]) > 1e-12
        staged = np.array(by_variant["staged"]["rmse_per_step"])
        base = np.array(by_variant["base"]["rmse_per_step"])
        assert np.all(staged <= base + 1e-9)

    def test_eval_record_holds_the_rows_of_its_variant(self, pipeline, tmp_path):
        _, _, valid_path, run_dir = pipeline
        model, dataset = load_checkpoint(run_dir / "model.ckpt"), read_dataset(valid_path)
        out = tmp_path / "evals"
        for variant in Variant:
            assert main(["eval", "--model", str(run_dir / "model.ckpt"), "--data", str(valid_path),
                         "--out", str(out), "--variant", variant.value]) == 0
            record = json.loads((out / "records.jsonl").read_text().splitlines()[-1])
            result = rollout(model, dataset.data, variant, dataset.mask)
            assert record["variant"] == variant.value
            assert record["rmse_per_step"] == result.rmse.mean(axis=0).tolist()
            assert record["cons_err_per_step"] == result.cons_err.mean(axis=0).tolist()

    def test_report_from_records(self, pipeline, tmp_path):
        _, _, valid_path, run_dir = pipeline
        out = tmp_path / "evals"
        for variant in ("base", "staged"):
            main(["eval", "--model", str(run_dir / "model.ckpt"), "--data", str(valid_path),
                  "--out", str(out), "--variant", variant])
        code = main(["report", "--records", str(out / "records.jsonl"),
                     "--out", str(tmp_path / "report")])
        assert code == 0
        assert (tmp_path / "report" / "summary.md").exists()
        body = (tmp_path / "report" / "records.csv").read_text()
        assert "diff,base," in body and "diff,staged," in body

    def test_eval_manifest_carries_environment_and_rollout_time(self, pipeline, tmp_path):
        _, _, valid_path, run_dir = pipeline
        out = tmp_path / "evals"
        assert main(["eval", "--model", str(run_dir / "model.ckpt"), "--data", str(valid_path),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rollout_seconds"] > 0.0
        # the variant names the correction, so no other key repeats it
        assert set(manifest["config"]) == {"model", "data", "variant"}
        env = manifest["environment"]
        assert set(env) == {"numpy", "thread_caps", "cpu_count"}
        assert env["numpy"] == np.__version__
        assert env["cpu_count"] == os.cpu_count()
        assert env["thread_caps"]["OMP_NUM_THREADS"] == os.environ.get("OMP_NUM_THREADS")
        assert "ZEROMODE_THREADS" in env["thread_caps"]

    def test_missing_data_is_usage_error(self, pipeline, tmp_path):
        _, _, _, run_dir = pipeline
        code = main(["eval", "--model", str(run_dir / "model.ckpt"),
                     "--data", str(tmp_path / "nope.ecfd"), "--out", str(tmp_path)])
        assert code == 2


def sidecar_row(edit, dump=json.dumps):
    """train on a copy of the training split whose sidecar text is ``dump(edit(meta))``."""
    def build(pipeline, tmp_path):
        _, train_path, valid_path, _ = pipeline
        data = tmp_path / "bad.ecfd"
        shutil.copy(train_path, data)
        sidecar_path(data).write_text(dump(edit(json.loads(sidecar_path(train_path).read_text()))))
        return ["train", "--train", str(data), "--valid", str(valid_path), "--out", str(tmp_path / "run"),
                *TRAIN_ARGS]
    return build


def config_row(command, config, problem="diff", dump=json.dumps):
    """``command`` with a config file holding ``dump(config)``; gen makes a ``problem`` split."""
    def build(pipeline, tmp_path):
        _, train_path, valid_path, _ = pipeline
        path = tmp_path / "cfg.json"
        path.write_text(dump(config))
        if command == "gen":
            return ["gen", "--problem", problem, "--out", str(tmp_path / "d.ecfd"), "--config", str(path), *GEN_ARGS]
        return ["train", "--train", str(train_path), "--valid", str(valid_path), "--out", str(tmp_path / "run"),
                "--config", str(path), *TRAIN_ARGS]
    return build


def gen_row(problem, *extra):
    def build(pipeline, tmp_path):
        return ["gen", "--problem", problem, "--out", str(tmp_path / "d.ecfd"), *GEN_ARGS, *extra]
    return build


def eval_row(*extra):
    def build(pipeline, tmp_path):
        _, _, valid_path, run_dir = pipeline
        return ["eval", "--model", str(run_dir / "model.ckpt"), "--data", str(valid_path),
                "--out", str(tmp_path / "evals"), *extra]
    return build


def train_row(*extra):
    def build(pipeline, tmp_path):
        _, train_path, valid_path, _ = pipeline
        return ["train", "--train", str(train_path), "--valid", str(valid_path), "--out", str(tmp_path / "run"),
                *TRAIN_ARGS, *extra]
    return build


def report_row(text):
    """report on one records file holding ``text``."""
    def build(pipeline, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(text)
        return ["report", "--records", str(path), "--out", str(tmp_path / "report")]
    return build


def record_line(**changes):
    """One records.jsonl line of a valid record with ``changes`` applied."""
    record = {"dataset": "diff", "variant": "base", "seed": 1, "rmse_per_step": [0.1, 0.2],
              "cons_err_per_step": [0.0, 0.0]}
    return json.dumps({**record, **changes}) + "\n"


def without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def other_model_row(**changes):
    """eval on the validation split with an untrained checkpoint: the pipeline model's config with ``changes``."""
    def build(pipeline, tmp_path):
        _, _, valid_path, run_dir = pipeline
        config = replace(load_checkpoint(run_dir / "model.ckpt").config, **changes)
        ckpt = save_checkpoint(init_model(config), tmp_path / "other.ckpt")
        return ["eval", "--model", str(ckpt), "--data", str(valid_path), "--out", str(tmp_path / "evals")]
    return build


def checkpoint_row(edit):
    """eval with a checkpoint whose bytes are ``edit`` of the pipeline's checkpoint."""
    def build(pipeline, tmp_path):
        _, _, valid_path, run_dir = pipeline
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(edit((run_dir / "model.ckpt").read_bytes()))
        return ["eval", "--model", str(ckpt), "--data", str(valid_path), "--out", str(tmp_path / "evals")]
    return build


def dataset_row(edit, split="train", command="train", sidecar=lambda meta: meta):
    """``command`` with ``split``'s dataset swapped for ``bad_<split>.ecfd``: ``edit`` of its bytes, with its sidecar.

    ``sidecar`` edits the sidecar's JSON object; eval reads the swapped split with the pipeline's checkpoint.
    """
    def build(pipeline, tmp_path):
        _, train_path, valid_path, run_dir = pipeline
        paths = {"train": train_path, "valid": valid_path}
        data = tmp_path / f"bad_{split}.ecfd"
        data.write_bytes(edit(paths[split].read_bytes()))
        sidecar_path(data).write_text(json.dumps(sidecar(json.loads(sidecar_path(paths[split]).read_text()))))
        if command == "eval":
            return ["eval", "--model", str(run_dir / "model.ckpt"), "--data", str(data),
                    "--out", str(tmp_path / "evals")]
        paths[split] = data
        return ["train", "--train", str(paths["train"]), "--valid", str(paths["valid"]),
                "--out", str(tmp_path / "run"), *TRAIN_ARGS]
    return build


def other_valid_row(problem):
    """train on the pipeline's diff split, validated on a ``problem`` split."""
    def build(pipeline, tmp_path):
        _, train_path, _, _ = pipeline
        valid_path = tmp_path / f"{problem}_valid.ecfd"
        assert main(["gen", "--problem", problem, "--split", "valid", "--out", str(valid_path), *GEN_ARGS]) == 0
        return ["train", "--train", str(train_path), "--valid", str(valid_path),
                "--out", str(tmp_path / "run"), *TRAIN_ARGS]
    return build


def coarse_split_row(command):
    """``command`` reading a diff split at resolution 3, too coarse for the pipeline's modes_kept 2."""
    def build(pipeline, tmp_path):
        _, train_path, _, run_dir = pipeline
        coarse = tmp_path / "coarse.ecfd"
        assert main(["gen", "--problem", "diff", "--split", "valid", "--out", str(coarse), *GEN_ARGS,
                     "--resolution", "3"]) == 0
        if command == "eval":
            return ["eval", "--model", str(run_dir / "model.ckpt"), "--data", str(coarse),
                    "--out", str(tmp_path / "evals")]
        return ["train", "--train", str(train_path), "--valid", str(coarse), "--out", str(tmp_path / "run"),
                *TRAIN_ARGS]
    return build


def checkpoint_ends(blob):
    """End offsets of a checkpoint's magic, version and length, config, count and CRC, and payload."""
    config_len = struct.unpack("<I", blob[6:10])[0]
    return [4, 10, 10 + config_len, 22 + config_len, len(blob)]


def dataset_ends(blob):
    """End offsets of a dataset's fixed head, resolution, lengths, mask, payload descriptor and payload."""
    ndim, channels = blob[8], struct.unpack("<H", blob[34:36])[0]
    ends = [52]
    for size in (4 * ndim, 8 * ndim, channels, 12):
        ends.append(ends[-1] + size)
    return ends + [len(blob)]


def cut_inside(ends, section):
    """The file cut one byte short of the end of one section."""
    return lambda blob: blob[: ends(blob)[section] - 1]


def with_samples(samples):
    """The dataset declaring ``samples`` samples, its payload byte count to match; it keeps at most that many."""
    def edit(blob):
        at = dataset_ends(blob)[3]  # the payload descriptor
        per_sample = struct.unpack("<Q", blob[at:at + 8])[0] // struct.unpack("<I", blob[36:40])[0]
        payload = blob[at + 12:][: samples * per_sample]
        return (blob[:36] + struct.pack("<I", samples) + blob[40:at]
                + struct.pack("<QI", samples * per_sample, zlib.crc32(payload)) + payload)
    return edit


def with_snapshots(snapshots):
    """The dataset keeping the first ``snapshots`` frames of each sample, its header to match."""
    def edit(blob):
        at = dataset_ends(blob)[3]  # the payload descriptor
        samples, frames = struct.unpack("<II", blob[36:44])
        per_frame = struct.unpack("<Q", blob[at:at + 8])[0] // (samples * frames)
        payload = b"".join(blob[at + 12 + i * frames * per_frame:][: snapshots * per_frame] for i in range(samples))
        return (blob[:40] + struct.pack("<I", snapshots) + blob[44:at]
                + struct.pack("<QI", len(payload), zlib.crc32(payload)) + payload)
    return edit


def first_frame_times(snapshots):
    """The sidecar edit that matches ``with_snapshots(snapshots)``: its first ``snapshots`` frame times."""
    return lambda meta: {**meta, "frame_times": meta["frame_times"][:snapshots]}


def with_value(value, sample, frame):
    """The F64 dataset with ``value`` in the first cell of one sample's frame, its checksum to match."""
    def edit(blob):
        at = dataset_ends(blob)[3]  # the payload descriptor
        samples, frames = struct.unpack("<II", blob[36:44])
        payload = np.frombuffer(blob[at + 12:], "<f8").reshape(samples, frames, -1).copy()
        payload[sample, frame, 0] = value
        return blob[:at] + struct.pack("<QI", payload.nbytes, zlib.crc32(payload)) + payload.tobytes()
    return edit


def with_first_row():
    """The F64 2-D dataset cut to the first row of its first axis, its header and checksum to match."""
    def edit(blob):
        at = dataset_ends(blob)[3]  # the payload descriptor
        samples, frames, n0, n1 = struct.unpack("<IIII", blob[36:44] + blob[52:60])
        payload = np.frombuffer(blob[at + 12:], "<f8").reshape(samples, frames, -1, n0, n1)[:, :, :, :1].copy()
        return (blob[:52] + struct.pack("<I", 1) + blob[56:at]
                + struct.pack("<QI", payload.nbytes, zlib.crc32(payload)) + payload.tobytes())
    return edit


def overwrite(section, raw, skip=0):
    """``raw`` written ``skip`` bytes into one section of the dataset, counted as ``dataset_ends`` counts them."""
    def edit(blob):
        at = ([0] + dataset_ends(blob))[section] + skip
        return blob[:at] + raw + blob[at + len(raw):]
    return edit


def flip(offset):
    """One byte inverted; a negative offset counts from the end."""
    def edit(blob):
        i = offset % len(blob)
        return blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:]
    return edit


def with_config(**changes):
    """The checkpoint with ``changes`` applied to its config JSON."""
    def edit(blob):
        config_len = struct.unpack("<I", blob[6:10])[0]
        new = json.dumps({**json.loads(blob[10:10 + config_len]), **changes}).encode()
        return blob[:6] + struct.pack("<I", len(new)) + new + blob[10 + config_len:]
    return edit


def with_version(version, edit=None):
    """The checkpoint, after ``edit`` if one is given, its header declaring ``version``."""
    def build(blob):
        blob = edit(blob) if edit else blob
        return blob[:4] + struct.pack("<H", version) + blob[6:]
    return build


def taken_out_row(command, inside=False):
    """``command`` whose --out is taken by the other kind of path: a directory for gen, a file for the rest.

    With ``inside``, --out names a path inside that file.
    """
    def build(pipeline, tmp_path):
        _, train_path, valid_path, run_dir = pipeline
        taken = tmp_path / "taken"
        if command == "gen" and not inside:
            taken.mkdir()
        else:
            taken.write_text("")
        records = tmp_path / "records.jsonl"
        records.write_text(record_line())
        argv = {"gen": ["gen", "--problem", "diff", *GEN_ARGS],
                "train": ["train", "--train", str(train_path), "--valid", str(valid_path), *TRAIN_ARGS],
                "eval": ["eval", "--model", str(run_dir / "model.ckpt"), "--data", str(valid_path)],
                "report": ["report", "--records", str(records)],
                "verify": ["verify"]}[command]
        return [*argv, "--out", str(taken / "sub" if inside else taken)]
    return build


# (build argv, text stderr must hold, whether the input is a file, so that stderr is one line)
BAD_INPUTS = [
    pytest.param(sidecar_row(without("params")), "bad.ecfd.json lacks the key 'params'", True, id="sidecar-no-params"),
    pytest.param(sidecar_row(without("sample_seeds")), "bad.ecfd.json lacks the key 'sample_seeds'", True,
                 id="sidecar-no-sample-seeds"),
    pytest.param(sidecar_row(lambda meta: {**meta, "sample_seeds": meta["sample_seeds"][:1]}),
                 "sidecar bad.ecfd.json: 'sample_seeds' must list one entry per sample (3), got a list of 1", True,
                 id="sidecar-sample-seeds-short"),
    pytest.param(sidecar_row(lambda meta: {**meta, "sample_seeds": "x"}),
                 "sidecar bad.ecfd.json: 'sample_seeds' must list one entry per sample (3), got \"x\"", True,
                 id="sidecar-sample-seeds-string"),
    pytest.param(sidecar_row(lambda meta: list(meta)), "bad.ecfd.json must hold a JSON object", True,
                 id="sidecar-list"),
    pytest.param(sidecar_row(lambda meta: '{"params": ', dump=str), "bad.ecfd.json is not valid JSON", True,
                 id="sidecar-truncated"),
    pytest.param(sidecar_row(lambda meta: {**meta, "params": [1]}), "'params' must be a JSON object", True,
                 id="sidecar-params-list"),
    pytest.param(sidecar_row(lambda meta: {**meta, "frame_times": {}}),
                 "bad.ecfd: float() argument must be a string or a real number, not 'dict'", True,
                 id="sidecar-frame-times-object"),
    pytest.param(sidecar_row(lambda meta: {**meta, "frame_times": "abc"}),
                 "bad.ecfd: could not convert string to float: 'abc'", True, id="sidecar-frame-times-string"),
    pytest.param(sidecar_row(without("problem")), "bad.ecfd.json lacks the key 'problem'", True,
                 id="sidecar-no-problem"),
    pytest.param(sidecar_row(lambda meta: {**meta, "problem": "ac_dw"}),
                 "bad.ecfd: sidecar bad.ecfd.json: 'problem' is 'ac_dw' but the header says 'diff'", True,
                 id="sidecar-other-problem"),
    pytest.param(sidecar_row(lambda meta: {**meta, "split": "valid"}),
                 "sidecar bad.ecfd.json: 'split' is 'valid' but the header says 'train'", True,
                 id="sidecar-other-split"),
    pytest.param(sidecar_row(lambda meta: {**meta, "master_seed": 1}),
                 "sidecar bad.ecfd.json: 'master_seed' is 1 but the header says 0", True,
                 id="sidecar-other-master-seed"),
    pytest.param(sidecar_row(lambda meta: {**meta, "precision": "f32"}),
                 "sidecar bad.ecfd.json: 'precision' is 'f32' but the header says 'f64'", True,
                 id="sidecar-other-precision"),
    pytest.param(dataset_row(lambda blob: blob, split="valid", command="eval",
                             sidecar=lambda meta: {**meta, "problem": "cd"}),
                 "bad_valid.ecfd: sidecar bad_valid.ecfd.json: 'problem' is 'cd' but the header says 'diff'", True,
                 id="eval-sidecar-other-problem"),
    pytest.param(config_row("gen", {"smaples": 1}), "unknown config keys ['smaples']", True,
                 id="gen-unknown-key"),
    pytest.param(config_row("train", []), "must hold a JSON object", True, id="train-config-list"),
    pytest.param(config_row("train", {"loss": "l2"}), "unknown loss 'l2', expected one of ('mae', 'mse')", True,
                 id="train-loss-unknown"),
    pytest.param(report_row(""), "no records found", True, id="report-no-records"),
    pytest.param(report_row(record_line() + record_line(seed="x")), "line 2: malformed record", True,
                 id="report-seed-string"),
    pytest.param(report_row(record_line(seed=1.5)), "seed must be an integer, got 1.5", True,
                 id="report-seed-float"),
    pytest.param(report_row(record_line(dataset="../esc/x")),
                 "line 1: malformed record (ValueError: dataset must be one of", True, id="report-dataset-path"),
    pytest.param(report_row(record_line() + record_line(dataset="a,b")),
                 "line 2: malformed record (ValueError: dataset must be one of", True, id="report-dataset-comma"),
    pytest.param(report_row(record_line(cons_err_per_step=[0.0])), "cons_err_per_step differ in length", True,
                 id="report-steps-mismatch"),
    pytest.param(report_row(record_line(dataset="cd", seed=1)
                            + record_line(dataset="cd", seed=2, rmse_per_step=[0.1, 0.2, 0.3],
                                          cons_err_per_step=[0.0, 0.0, 0.0])),
                 "records for cd/base differ in step count: [2, 3]", True, id="report-cell-step-counts"),
    pytest.param(config_row("train", {"width": [16]}), "'width'", True, id="train-width-list"),
    pytest.param(config_row("train", {"seed": {"a": 1}}), "'seed'", True, id="train-seed-object"),
    pytest.param(config_row("train", {"lr": [1]}), "'lr'", True, id="train-lr-list"),
    pytest.param(config_row("gen", {"samples": [2]}), "'samples'", True, id="gen-samples-list"),
    pytest.param(config_row("gen", {"resolution": None}), "'resolution'", True, id="gen-resolution-null"),
    pytest.param(config_row("gen", {"velocity": 3}), "'velocity'", True, id="gen-velocity-number"),
    pytest.param(config_row("gen", {"velocity": [1, "a"]}), "velocity must be two finite numbers", True,
                 id="gen-velocity-string"),
    pytest.param(config_row("gen", {"t_final": float("nan")}), "NaN is not a valid config value", True,
                 id="gen-t-final-nan"),
    pytest.param(config_row("train", {"lr": float("nan")}), "NaN is not a valid config value", True,
                 id="train-lr-nan"),
    # a JSON number past the float range reads as +-inf without passing through parse_constant
    pytest.param(config_row("gen", '{"t_final": 1e400}', dump=str), "t_final must be finite, got inf", True,
                 id="gen-t-final-overflow"),
    pytest.param(config_row("gen", '{"epsilon": -1e400}', dump=str), "epsilon must be finite, got -inf", True,
                 id="gen-epsilon-overflow"),
    pytest.param(config_row("gen", '{"t_final": 1e400}', "water", dump=str), "t_final must be finite, got inf", True,
                 id="gen-water-t-final-overflow"),
    pytest.param(train_row("--lr", "nan"), "lr must be finite and non-negative, got nan", True,
                 id="train-lr-flag-nan"),
    pytest.param(train_row("--weight-decay", "-5"), "weight_decay must be finite and non-negative, got -5.0", True,
                 id="train-weight-decay-negative"),
    pytest.param(gen_row("cd", "--n-steps", "0"), "n_steps must be a positive multiple of n_snapshots 10", True,
                 id="gen-n-steps-zero"),
    pytest.param(config_row("gen", {"epsilon": -1.0}, problem="ac_dw"), "epsilon must be positive, got -1.0", True,
                 id="gen-epsilon-negative"),
    pytest.param(config_row("gen", {"g_r": -1.0}, problem="water"), "g_r must be positive, got -1.0", True,
                 id="gen-g-r-negative"),
    pytest.param(config_row("gen", {"ic_offset": 0.0}), "ic_offset must be at least 0.05 in magnitude, got 0.0", True,
                 id="gen-diff-ic-offset-zero"),
    pytest.param(gen_row("diff", "--master-seed", "99999999999999999999"),
                 "master_seed must lie in [0, 2**63), got 99999999999999999999", True, id="gen-master-seed-huge"),
    pytest.param(gen_row("diff", "--master-seed", "-1"), "master_seed must lie in [0, 2**63), got -1", True,
                 id="gen-master-seed-negative"),
    pytest.param(train_row("--seed", "-1"), "seed must be non-negative, got -1", True, id="train-seed-negative"),
    pytest.param(train_row("--mode", "baseline"), "invalid choice: 'baseline'", False, id="train-mode-baseline"),
    # staged is an eval variant of a base checkpoint, not a training mode
    pytest.param(train_row("--mode", "staged"), ("invalid choice: 'staged'", "base", "integrated"), False,
                 id="train-mode-staged"),
    pytest.param(config_row("train", {"mode": "staged"}),
                 "unknown mode 'staged', expected one of ('base', 'integrated')", True, id="train-config-mode-staged"),
    pytest.param(checkpoint_row(cut_inside(checkpoint_ends, 0)), "bad.ckpt: bad checkpoint magic", True,
                 id="ckpt-cut-magic"),
    pytest.param(checkpoint_row(cut_inside(checkpoint_ends, 1)), "header truncated", True,
                 id="ckpt-cut-version-length"),
    pytest.param(checkpoint_row(cut_inside(checkpoint_ends, 2)), "bad.ckpt: header truncated or malformed", True,
                 id="ckpt-cut-config"),
    pytest.param(checkpoint_row(cut_inside(checkpoint_ends, 3)), "header truncated", True, id="ckpt-cut-count-crc"),
    pytest.param(checkpoint_row(cut_inside(checkpoint_ends, 4)), "bad.ckpt: payload truncated", True,
                 id="ckpt-cut-payload"),
    pytest.param(checkpoint_row(flip(6)), "bad.ckpt: header truncated or malformed", True,
                 id="ckpt-flip-config-length"),
    pytest.param(checkpoint_row(flip(-1)), "bad.ckpt: payload checksum mismatch", True, id="ckpt-flip-payload"),
    pytest.param(checkpoint_row(with_config(width=5)), "bad.ckpt: checkpoint holds", True,
                 id="ckpt-config-other-width"),
    pytest.param(checkpoint_row(with_config(bogus=1)), "bogus", True, id="ckpt-config-unknown-key"),
    pytest.param(checkpoint_row(with_config(width=4.0)),
                 "bad.ckpt: header truncated or malformed: width must be an integer, got 4.0", True,
                 id="ckpt-config-float-width"),
    pytest.param(checkpoint_row(with_config(channels=True)),
                 "bad.ckpt: header truncated or malformed: channels must be an integer, got True", True,
                 id="ckpt-config-bool-channels"),
    pytest.param(checkpoint_row(with_version(0)), "bad.ckpt: unsupported checkpoint version 0, expected 1 or 2", True,
                 id="ckpt-version-0"),
    pytest.param(checkpoint_row(with_version(3)), "bad.ckpt: unsupported checkpoint version 3, expected 1 or 2", True,
                 id="ckpt-version-3"),
    # version 1 recorded the one activation there is; version 2 has no such key
    pytest.param(checkpoint_row(with_version(1, with_config(activation="relu"))),
                 "bad.ckpt: unknown activation 'relu'", True, id="ckpt-version-1-other-activation"),
    pytest.param(checkpoint_row(with_config(activation="gelu_tanh")), "unexpected keyword argument 'activation'", True,
                 id="ckpt-version-2-activation"),
    pytest.param(dataset_row(cut_inside(dataset_ends, 0)), "bytes of header", True, id="data-cut-head"),
    pytest.param(dataset_row(cut_inside(dataset_ends, 1)), "bytes of resolution", True, id="data-cut-resolution"),
    pytest.param(dataset_row(cut_inside(dataset_ends, 2)), "bytes of lengths", True, id="data-cut-lengths"),
    pytest.param(dataset_row(cut_inside(dataset_ends, 3)), "bytes of mask", True, id="data-cut-mask"),
    pytest.param(dataset_row(cut_inside(dataset_ends, 4)), "bytes of payload descriptor", True,
                 id="data-cut-payload-descriptor"),
    pytest.param(dataset_row(cut_inside(dataset_ends, 5)), "bytes of payload", True, id="data-cut-payload"),
    pytest.param(dataset_row(flip(-1)), "checksum mismatch", True, id="data-flip-payload"),
    pytest.param(dataset_row(lambda blob: blob + b"\0"), "trailing bytes", True, id="data-trailing-byte"),
    pytest.param(dataset_row(with_samples(2**31)), "bad_train.ecfd: payload truncated", True,
                 id="data-huge-samples"),
    pytest.param(dataset_row(with_samples(2**31), split="valid", command="eval"), "bad_valid.ecfd: payload truncated",
                 True, id="eval-data-huge-samples"),
    pytest.param(dataset_row(with_samples(0)), "bad_train.ecfd: header declares an empty dimension: samples is 0",
                 True, id="data-zero-samples"),
    pytest.param(dataset_row(with_samples(0), split="valid"), "bad_valid.ecfd: header declares an empty dimension",
                 True, id="data-zero-samples-valid"),
    pytest.param(dataset_row(with_samples(0), split="valid", command="eval"),
                 "bad_valid.ecfd: header declares an empty dimension", True, id="eval-data-zero-samples"),
    pytest.param(dataset_row(cut_inside(dataset_ends, 0), split="valid"),
                 "bad_valid.ecfd: truncated file: expected 52 bytes of header", True, id="data-cut-valid-head"),
    pytest.param(dataset_row(with_snapshots(1), split="valid", sidecar=first_frame_times(1)),
                 "bad_valid.ecfd has one frame", True, id="train-valid-one-frame"),
    pytest.param(dataset_row(with_snapshots(1), sidecar=first_frame_times(1)),
                 "bad_train.ecfd has one frame; a rollout needs at least 2", True, id="train-train-one-frame"),
    pytest.param(dataset_row(with_snapshots(1), split="valid", command="eval", sidecar=first_frame_times(1)),
                 "bad_valid.ecfd has one frame; a rollout needs at least 2", True,
                 id="eval-data-one-frame"),
    pytest.param(dataset_row(with_snapshots(1), split="valid"),
                 "sidecar bad_valid.ecfd.json: 'frame_times' has shape (10,), expected (1,), one time per frame", True,
                 id="data-frame-times-other-count"),
    pytest.param(dataset_row(with_value(np.nan, 1, 1), split="valid"),
                 "bad_valid.ecfd: payload holds a non-finite value nan (sample 1, frame 1)", True, id="data-nan"),
    pytest.param(dataset_row(with_value(np.inf, 2, 4)),
                 "bad_train.ecfd: payload holds a non-finite value inf (sample 2, frame 4)", True, id="data-inf"),
    pytest.param(dataset_row(with_value(np.nan, 1, 1), split="valid", command="eval"),
                 "bad_valid.ecfd: payload holds a non-finite value nan (sample 1, frame 1)", True, id="eval-data-nan"),
    pytest.param(dataset_row(overwrite(0, b"bogus".ljust(12, b"\0"), skip=10)),
                 "bad_train.ecfd: 'bogus' is not a valid Problem", True, id="data-unknown-problem"),
    pytest.param(dataset_row(overwrite(3, b"\0")), "bad_train.ecfd: mask must flag at least one conserved channel",
                 True, id="data-mask-zero"),
    pytest.param(dataset_row(with_first_row()), "bad_train.ecfd: all resolutions must be >= 2, got (1, 16)", True,
                 id="data-resolution-one"),
    pytest.param(dataset_row(overwrite(2, struct.pack("<d", np.nan)), split="valid"),
                 "bad_valid.ecfd: all lengths must be finite and positive, got (nan, 1.0)", True,
                 id="data-valid-length-nan"),
    pytest.param(other_model_row(channels=2),
                 "diff_valid.ecfd: the operator steps states (channels, *spatial) of channels=2, ndim=2; "
                 "got shape (1, 16, 16)",
                 True, id="eval-model-channels"),
    pytest.param(other_model_row(ndim=1),
                 "diff_valid.ecfd: the operator steps states (channels, *spatial) of channels=1, ndim=1; "
                 "got shape (1, 16, 16)",
                 True, id="eval-model-ndim"),
    pytest.param(coarse_split_row("train"), "coarse.ecfd: modes_kept=2 exceeds the Nyquist bound for resolution 3",
                 True, id="train-valid-too-coarse"),
    pytest.param(coarse_split_row("eval"), "coarse.ecfd: modes_kept=2 exceeds the Nyquist bound for resolution 3",
                 True, id="eval-data-too-coarse"),
    pytest.param(eval_row("--correction", "off"), "unrecognized arguments: --correction", False,
                 id="eval-correction-flag"),
    pytest.param(other_valid_row("cd"), "diff_train.ecfd (problem diff, channels 1) and validation split", True,
                 id="train-valid-other-problem"),
    pytest.param(taken_out_row("gen"), "taken is a directory; expected a file path", True, id="gen-out-directory"),
    pytest.param(taken_out_row("gen", inside=True), "taken is not a directory; expected a file path", True,
                 id="gen-out-inside-file"),
    pytest.param(taken_out_row("train"), "taken is not a directory; expected a directory path", True,
                 id="train-out-file"),
    pytest.param(taken_out_row("eval"), "taken is not a directory; expected a directory path", True,
                 id="eval-out-file"),
    pytest.param(taken_out_row("eval", inside=True), "taken is not a directory; expected a directory path", True,
                 id="eval-out-inside-file"),
    pytest.param(taken_out_row("report"), "taken is not a directory; expected a directory path", True,
                 id="report-out-file"),
    pytest.param(taken_out_row("verify"), "taken is not a directory; expected a directory path", True,
                 id="verify-out-file"),
]


class TestMalformedInputs:
    """Bad inputs end in exit 2, before any generation, training step, rollout or check, and never with a traceback.

    Stderr holds a row's message, or each string of a tuple of them; a bad file prints one stderr line.
    ``BAD_INPUTS`` holds the cases whose argv is built alone;
    the named tests below need more set-up or checks of their own.
    """

    @pytest.mark.parametrize("build, message, file_row", BAD_INPUTS)
    def test_bad_input_exits_2(self, pipeline, tmp_path, capsys, monkeypatch, build, message, file_row):
        argv = build(pipeline, tmp_path)
        stages = [(zeromode.datasets, "generate_dataset"), (zeromode.training, "loss_and_grad"),
                  (zeromode.training, "rollout"), (zeromode.verify, "run_checks")]
        called = []

        def no_stage(*args, **kwargs):
            called.append(True)
            raise AssertionError("generation, a training step, a rollout or a check ran on a refused input")

        for module, name in stages:
            monkeypatch.setattr(module, name, no_stage)
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        assert code == 2 and not called
        err = capsys.readouterr().err
        messages = (message,) if isinstance(message, str) else message
        assert all(m in err for m in messages) and "Traceback" not in err
        if file_row:
            assert err.count("\n") == 1
        assert not list((tmp_path / "report").rglob("*"))  # a refused report writes no file

    @pytest.mark.parametrize("bad_line", ["drop_key", "not json"])
    def test_malformed_record_names_file_and_line(self, pipeline, tmp_path, capsys, bad_line):
        _, _, valid_path, run_dir = pipeline
        out = tmp_path / "evals"
        main(["eval", "--model", str(run_dir / "model.ckpt"), "--data", str(valid_path),
              "--out", str(out)])
        records = out / "records.jsonl"
        good = records.read_text().strip()
        if bad_line == "drop_key":
            record = json.loads(good)
            del record["cons_err_per_step"]
            bad_line = json.dumps(record)
        records.write_text(good + "\n" + bad_line + "\n")
        capsys.readouterr()
        code = main(["report", "--records", str(records), "--out", str(tmp_path / "report")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{records} line 2" in err


    def test_duplicate_eval_refused_before_rollout(self, pipeline, tmp_path, capsys, monkeypatch):
        _, _, valid_path, run_dir = pipeline
        out = tmp_path / "evals"
        argv = ["eval", "--model", str(run_dir / "model.ckpt"), "--data", str(valid_path),
                "--out", str(out), "--variant", "staged"]
        assert main(argv) == 0
        records = out / "records.jsonl"
        before = records.read_bytes()

        def no_rollout(*args, **kwargs):
            raise AssertionError("rollout ran for a duplicate record")

        monkeypatch.setattr(zeromode.training, "rollout", no_rollout)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(records) in err
        assert records.read_bytes() == before


class TestVerifyCommand:
    def test_passes_and_writes_results(self, tmp_path, capsys):
        code = main(["verify", "--suite", "theorems", "--out", str(tmp_path)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        results = json.loads((tmp_path / "verify.json").read_text())
        assert all(r["passed"] for r in results)
        # a row is a CheckResult, key for field
        assert results and all(set(r) == {f.name for f in fields(zeromode.verify.CheckResult)} for r in results)

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(
            zeromode.verify, "_REGISTRY",
            [("theorems", "always_fails", lambda correction: "forced counterexample")],
        )
        code = main(["verify", "--suite", "theorems"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "vibes"]) == 2


class TestManifestCost:
    """Every manifest carries its own process's peak resident set in MiB and its minor page faults."""

    def test_every_subcommand_records_peak_rss_and_minor_faults(self, pipeline, tmp_path):
        root, _, valid_path, run_dir = pipeline
        evals, report, checks = tmp_path / "evals", tmp_path / "report", tmp_path / "verify"
        assert main(["eval", "--model", str(run_dir / "model.ckpt"), "--data", str(valid_path),
                     "--out", str(evals)]) == 0
        assert main(["report", "--records", str(evals / "records.jsonl"), "--out", str(report)]) == 0
        assert main(["verify", "--suite", "theorems", "--out", str(checks)]) == 0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        maxrss_mb = usage.ru_maxrss / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0)
        manifests = [json.loads(path.read_text()) for path in (
            root / "diff_train.ecfd.manifest.json", run_dir / "manifest.json", evals / "manifest.json",
            report / "manifest.json", checks / "manifest.json")]
        assert [m["command"] for m in manifests] == ["gen", "train", "eval", "report", "verify"]
        for manifest in manifests:
            # this process wrote every manifest earlier, and holds more than 10 MiB with numpy loaded
            assert 10.0 < manifest["peak_rss_mb"] <= maxrss_mb
            assert 0 < manifest["minor_faults"] <= usage.ru_minflt

    def test_fields_are_null_without_resource(self, tmp_path, monkeypatch):
        records = tmp_path / "records.jsonl"
        records.write_text(record_line())
        monkeypatch.setitem(sys.modules, "resource", None)  # then ``import resource`` raises ImportError
        assert main(["report", "--records", str(records), "--out", str(tmp_path / "report")]) == 0
        manifest = json.loads((tmp_path / "report" / "manifest.json").read_text())
        assert manifest["peak_rss_mb"] is None and manifest["minor_faults"] is None


def child_env(env: dict) -> dict:
    """``env`` with this zeromode's parent directory first on PYTHONPATH.

    pytest's ``pythonpath`` setting reaches this process only, not the
    interpreters it starts.
    """
    package_parent = os.path.dirname(os.path.dirname(zeromode.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_parent, env.get("PYTHONPATH")) if p)
    return env


class TestEnvironment:
    def test_thread_cap_propagates_before_numpy(self):
        script = ("import os; import zeromode; "
                  "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])")
        env = child_env({k: v for k, v in os.environ.items()
                         if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")})
        env["ZEROMODE_THREADS"] = "2"
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["2", "2"]

    def test_import_loads_no_submodule_and_no_numpy(self):
        script = ("import json, os, sys; import zeromode; print(json.dumps({"
                  "'loaded': sorted(m for m in sys.modules if m.startswith(('zeromode.', 'numpy'))), "
                  "'caps': {var: os.environ.get(var) for var in zeromode._THREAD_CAP_VARS}}))")
        env = child_env({k: v for k, v in os.environ.items() if k not in zeromode._THREAD_CAP_VARS})
        env["ZEROMODE_THREADS"] = "1"
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == {"loaded": [], "caps": dict.fromkeys(zeromode._THREAD_CAP_VARS, "1")}

    def test_explicit_blas_setting_wins(self):
        env = child_env(dict(os.environ))
        env["ZEROMODE_THREADS"] = "2"
        env["OMP_NUM_THREADS"] = "7"
        script = "import os; import zeromode; print(os.environ['OMP_NUM_THREADS'])"
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "7"

    def test_module_entry_point(self):
        env = child_env(dict(os.environ))

        def run(*args):
            return subprocess.run([sys.executable, "-m", "zeromode", *args], env=env,
                                  capture_output=True, text=True, timeout=60)

        version = run("--version")
        assert version.returncode == 0, version.stderr
        assert version.stdout.strip() == f"zeromode {zeromode.__version__}"
        no_command = run()
        assert no_command.returncode == 2
        assert "Traceback" not in no_command.stderr

    @pytest.mark.parametrize("scipy_state", ["importable", "blocked"])
    def test_every_command_runs_on_numpy_alone(self, tmp_path, scipy_state):
        # one child process runs gen of every problem, train, every eval variant, report and verify and
        # loads no scipy module; with scipy blocked, any scipy import would raise ImportError
        script = """
import json, sys
if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None
import zeromode
from zeromode.cli import main

out = sys.argv[1]
tiny = ["--samples", "2", "--resolution", "8", "--n-steps", "20", "--n-snapshots", "4"]
for problem in ("diff", "cd", "heat", "ac_dw", "ac_fh", "water"):
    assert main(["gen", "--problem", problem, "--split", "train", "--out", f"{out}/{problem}.ecfd", *tiny]) == 0
assert main(["gen", "--problem", "diff", "--split", "valid", "--out", f"{out}/diff_valid.ecfd", *tiny]) == 0
assert main(["train", "--train", f"{out}/diff.ecfd", "--valid", f"{out}/diff_valid.ecfd", "--out", f"{out}/run",
             "--epochs", "1", "--width", "4", "--modes-kept", "4", "--n-layers", "1"]) == 0
for variant in ("base", "staged", "integrated"):
    assert main(["eval", "--model", f"{out}/run/model.ckpt", "--data", f"{out}/diff_valid.ecfd",
                 "--out", f"{out}/evals", "--variant", variant]) == 0
assert main(["report", "--records", f"{out}/evals/records.jsonl", "--out", f"{out}/report"]) == 0
assert main(["verify"]) == 0
print(json.dumps(sorted(m for m, module in sys.modules.items() if m.split(".")[0] == "scipy" and module)))
"""
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path), scipy_state],
                             env=child_env(dict(os.environ)), capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "zeromode" in capsys.readouterr().out
