"""CLI: pipeline wiring, config precedence, manifests, exit codes."""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import zeromode.verify
from zeromode.cli import main
from zeromode.datafile import read_dataset
from zeromode.model import load_checkpoint

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
        with pytest.raises(SystemExit):
            main(["gen", "--problem", "diff", "--out", str(tmp_path / "d.ecfd"),
                  "--config", str(cfg), *GEN_ARGS])

    def test_invalid_parameters_exit_2(self, tmp_path):
        code = main(["gen", "--problem", "diff", "--out", str(tmp_path / "d.ecfd"),
                     "--samples", "3", "--resolution", "16", "--n-steps", "7",
                     "--n-snapshots", "10"])  # 10 does not divide 7
        assert code == 2


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generated pair of splits plus a trained baseline run."""
    root = tmp_path_factory.mktemp("pipeline")
    train_path = gen(root, "train")
    valid_path = gen(root, "valid")
    run_dir = root / "run"
    code = main(["train", "--train", str(train_path), "--valid", str(valid_path),
                 "--out", str(run_dir), "--mode", "baseline", "--seed", "1", *TRAIN_ARGS])
    assert code == 0
    return root, train_path, valid_path, run_dir


class TestTrain:
    def test_artifacts(self, pipeline):
        _, _, _, run_dir = pipeline
        model = load_checkpoint(run_dir / "model.ckpt")
        assert model.config.seed == 1  # run seed replaces the config seed
        log = json.loads((run_dir / "training_log.json").read_text())
        assert [r["epoch"] for r in log["log"]] == [1, 2]
        assert log["best_epoch"] >= 1
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seeds"] == [1]
        assert manifest["config"]["mode"] == "baseline"

    def test_deterministic_across_runs(self, pipeline, tmp_path):
        root, train_path, valid_path, run_dir = pipeline
        code = main(["train", "--train", str(train_path), "--valid", str(valid_path),
                     "--out", str(tmp_path / "again"), "--mode", "baseline", "--seed", "1",
                     *TRAIN_ARGS])
        assert code == 0
        a = (run_dir / "model.ckpt").read_bytes()
        b = (tmp_path / "again" / "model.ckpt").read_bytes()
        assert a == b


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

    def test_missing_data_is_usage_error(self, pipeline, tmp_path):
        _, _, _, run_dir = pipeline
        code = main(["eval", "--model", str(run_dir / "model.ckpt"),
                     "--data", str(tmp_path / "nope.ecfd"), "--out", str(tmp_path)])
        assert code == 2


class TestMalformedInputs:
    """Bad input files end in exit 2 with one stderr line, never a traceback."""

    def eval_checkpoint(self, pipeline, tmp_path, blob):
        _, _, valid_path, _ = pipeline
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(blob)
        return main(["eval", "--model", str(ckpt), "--data", str(valid_path),
                     "--out", str(tmp_path / "evals")])

    def test_truncated_checkpoint(self, pipeline, tmp_path, capsys):
        blob = (pipeline[3] / "model.ckpt").read_bytes()
        assert self.eval_checkpoint(pipeline, tmp_path, blob[:8]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "truncated" in err

    def test_checkpoint_config_with_unknown_key(self, pipeline, tmp_path, capsys):
        blob = (pipeline[3] / "model.ckpt").read_bytes()
        version, config_len = struct.unpack("<HI", blob[4:10])
        config = json.loads(blob[10:10 + config_len])
        config["bogus"] = 1
        new = json.dumps(config).encode()
        bad = blob[:4] + struct.pack("<HI", version, len(new)) + new + blob[10 + config_len:]
        assert self.eval_checkpoint(pipeline, tmp_path, bad) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bogus" in err

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


class TestVerifyCommand:
    def test_passes_and_writes_results(self, tmp_path, capsys):
        code = main(["verify", "--suite", "theorems", "--out", str(tmp_path)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        results = json.loads((tmp_path / "verify.json").read_text())
        assert all(r["passed"] for r in results)

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


class TestEnvironment:
    def test_thread_cap_propagates_before_numpy(self):
        script = ("import os; import zeromode; "
                  "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
        env["ZEROMODE_THREADS"] = "2"
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["2", "2"]

    def test_explicit_blas_setting_wins(self):
        env = dict(os.environ)
        env["ZEROMODE_THREADS"] = "2"
        env["OMP_NUM_THREADS"] = "7"
        script = "import os; import zeromode; print(os.environ['OMP_NUM_THREADS'])"
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "7"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "zeromode" in capsys.readouterr().out
