"""Command-line surface: exit codes, precedence, and byte-stable reports."""

import json

import numpy as np
import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from seednorm import training
from seednorm.cli import main

FAST_GRADCHECK = ["gradcheck", "--variant", "rmsnorm", "--dims", "2", "4",
                  "--trials", "3"]
FAST_TRAIN = ["train", "--steps", "2", "--layers", "1", "--dims", "8",
              "--heads", "2", "--context", "6", "--vocab", "7", "--seed", "3"]


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestExitCodes:
    def test_passing_gradcheck_zero(self, capsys):
        rc, out, _ = run(FAST_GRADCHECK, capsys)
        assert rc == 0
        assert "PASS" in out

    def test_failing_tolerance_one(self, capsys):
        rc, out, _ = run(FAST_GRADCHECK + ["--tol", "0"], capsys)
        assert rc == 1
        assert "FAIL" in out

    def test_unknown_subcommand_two(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_unknown_probe_name_two(self, capsys):
        assert run(["probe", "--name", "nonsense"], capsys)[0] == 2

    def test_probe_without_name_two(self, capsys):
        rc, _, err = run(["probe"], capsys)
        assert rc == 2
        assert "--name" in err

    def test_bytes_task_without_data_two(self, capsys):
        rc, _, err = run(["train", "--task", "bytes", "--steps", "1"], capsys)
        assert rc == 2
        assert "--data" in err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0
        assert run(["gradcheck", "--help"], capsys)[0] == 0

    def test_no_args_two(self, capsys):
        assert run([], capsys)[0] == 2

    def test_cost_check_failure_would_be_one(self, capsys):
        # healthy path: the estimate matches the model walk, rc 0
        rc, out, _ = run(["cost", "--layers", "1", "--dims", "8", "--heads",
                          "2", "--check"], capsys)
        assert rc == 0
        assert "matches=true" in out

    def test_invalid_dim_value_two(self, capsys):
        rc, _, err = run(["gradcheck", "--dims", "two"], capsys)
        assert rc == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_gradient_with_finite_loss_one(self, monkeypatch, capsys):
        real = training.loss_and_grads
        calls = []

        def poisoned(model, tokens, targets):
            loss, grads = real(model, tokens, targets)
            calls.append(loss)
            if len(calls) == 2:
                grads["layer0.ffn.w1"][0, 0] = np.inf
            return loss, grads

        monkeypatch.setattr(training, "loss_and_grads", poisoned)
        rc, _, err = run(FAST_TRAIN, capsys)
        assert rc == 1
        assert np.isfinite(calls[-1])
        assert "non-finite gradient at step 1; first non-finite site: layer0.ffn.w1" in err


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\ntrials = 3\ndims = 2 4\nvariant = rmsnorm\n")
        rc, out, _ = run(["gradcheck", "--config", str(cfg)], capsys)
        assert rc == 0
        assert "trials=3" in out
        assert "dims=2,4" in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_option = 5\n")
        rc, _, err = run(["gradcheck", "--config", str(cfg)], capsys)
        assert rc == 2
        assert "unknown config key" in err

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = banana\n")
        rc, _, err = run(["gradcheck", "--config", str(cfg)], capsys)
        assert rc == 2

    def test_hyphen_keys_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha-init = 0.5\nname = scale_insensitivity\ndims = 4\n")
        rc, out, _ = run(["probe", "--config", str(cfg)], capsys)
        assert rc == 0

    def test_missing_config_file_two(self, capsys):
        rc, _, err = run(["gradcheck", "--config", "/no/such/file.cfg"], capsys)
        assert rc == 2

    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 9\nvariant = rmsnorm\ndims = 2\n")
        rc, out, _ = run(["gradcheck", "--config", str(cfg), "--trials", "4"], capsys)
        assert rc == 0
        assert "trials=4" in out


class TestSeedEnv:
    def test_env_seed_used(self, monkeypatch, capsys):
        monkeypatch.setenv("SEEDNORM_SEED", "77")
        rc, out, _ = run(FAST_GRADCHECK, capsys)
        assert rc == 0
        assert "seed=77" in out

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("SEEDNORM_SEED", "77")
        rc, out, _ = run(FAST_GRADCHECK + ["--seed", "5"], capsys)
        assert "seed=5" in out

    def test_config_beats_env(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("SEEDNORM_SEED", "77")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 12\n")
        rc, out, _ = run(FAST_GRADCHECK + ["--config", str(cfg)], capsys)
        assert "seed=12" in out

    def test_non_integer_env_two(self, monkeypatch, capsys):
        monkeypatch.setenv("SEEDNORM_SEED", "pi")
        rc, _, err = run(FAST_GRADCHECK, capsys)
        assert rc == 2
        assert "SEEDNORM_SEED" in err


class TestByteStability:
    def test_gradcheck_json_identical_across_runs(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = FAST_GRADCHECK + ["--seed", "7", "--json"]
        assert main(args + [str(out1)]) == 0
        assert main(args + [str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_train_csv_identical_across_runs(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(FAST_TRAIN + ["--csv", str(out1)]) == 0
        assert main(FAST_TRAIN + ["--csv", str(out2)]) == 0
        capsys.readouterr()
        body = out1.read_bytes()
        assert body == out2.read_bytes()
        assert b"\r\n" in body
        assert b"wall_time" not in body

    def test_train_csv_timing_opt_in(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(FAST_TRAIN + ["--csv", str(out), "--timing"]) == 0
        capsys.readouterr()
        assert b"wall_time" in out.read_bytes()

    def test_json_ends_with_newline_and_sorted_keys(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(FAST_GRADCHECK + ["--json", str(out)]) == 0
        capsys.readouterr()
        raw = out.read_text()
        assert raw.endswith("\n")
        data = json.loads(raw)
        assert list(data) == sorted(data)


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
class TestReportSchemas:
    @staticmethod
    def load_schema(name):
        from importlib import resources

        ref = resources.files("seednorm.schemas") / name
        return json.loads(ref.read_text())

    def test_gradcheck_report_schema(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["gradcheck", "--trials", "2", "--dims", "2",
                     "--json", str(out)]) == 0
        capsys.readouterr()
        jsonschema.validate(json.loads(out.read_text()),
                            self.load_schema("gradcheck_report.schema.json"))

    def test_gradcheck_timing_still_validates(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(FAST_GRADCHECK + ["--timing", "--json", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert all("elapsed_s" in v for v in report["variants"])
        jsonschema.validate(report,
                            self.load_schema("gradcheck_report.schema.json"))

    @pytest.mark.parametrize("argv", [
        ["probe", "--name", "dot_variance", "--dims", "4", "--samples", "20000"],
        ["probe", "--name", "dyt_rmsnorm_ode", "--dims", "4"],
        ["probe", "--name", "scale_insensitivity", "--dims", "4", "--beta-zero"],
    ])
    def test_probe_report_schema(self, argv, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert main(argv + ["--json", str(out)]) == 0
        capsys.readouterr()
        jsonschema.validate(json.loads(out.read_text()),
                            self.load_schema("probe_report.schema.json"))

    def test_cost_report_schema(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["cost", "--layers", "1", "--dims", "8", "--heads", "2",
                     "--check", "--json", str(out)]) == 0
        capsys.readouterr()
        jsonschema.validate(json.loads(out.read_text()),
                            self.load_schema("cost_report.schema.json"))


class TestTrainCommand:
    def test_zero_steps_header_only_csv(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        rc, stdout, _ = run(["train", "--steps", "0", "--layers", "1",
                             "--dims", "8", "--heads", "2", "--context", "6",
                             "--vocab", "7", "--csv", str(out)], capsys)
        assert rc == 0
        assert "no steps run" in stdout
        assert out.read_bytes() == b"step,loss,grad_norm,ema\r\n"

    def test_stdout_reports_variant_and_final(self, capsys):
        rc, out, _ = run(FAST_TRAIN, capsys)
        assert rc == 0
        assert "variant=seednorm" in out
        assert "final loss=" in out

    def test_checkpoint_roundtrips_through_cli(self, tmp_path, capsys):
        from seednorm.model import load_checkpoint

        ckpt = tmp_path / "model.json"
        rc, _, _ = run(FAST_TRAIN + ["--checkpoint", str(ckpt)], capsys)
        assert rc == 0
        model, opt = load_checkpoint(str(ckpt))
        assert model.cfg.hidden_dim == 8
        assert opt is not None
        assert opt.step == 2

    def test_compare_reports_winner(self, tmp_path, capsys):
        out = tmp_path / "pair.csv"
        rc, stdout, _ = run(["compare", "--steps", "2", "--layers", "1",
                             "--dims", "8", "--heads", "2", "--context", "6",
                             "--vocab", "7", "--seed", "3", "--csv", str(out)],
                            capsys)
        assert rc == 0
        assert "seednorm" in stdout and "rmsnorm" in stdout
        header = out.read_bytes().split(b"\r\n")[0]
        assert header == b"step,loss_a,loss_b,ema_a,ema_b"

    def test_gradcheck_stdout_includes_extras(self, capsys):
        rc, out, _ = run(FAST_GRADCHECK, capsys)
        assert "dx_dot_x_max" in out
