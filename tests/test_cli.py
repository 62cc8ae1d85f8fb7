"""Command-line surface: exit codes, precedence, and byte-stable reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

import seednorm
from seednorm import cli, gradcheck, training
from seednorm.cli import COMMANDS, main

FAST_GRADCHECK = ["gradcheck", "--variant", "rmsnorm", "--dims", "2", "4",
                  "--trials", "3"]
FAST_TRAIN = ["train", "--steps", "2", "--layers", "1", "--dims", "8",
              "--heads", "2", "--context", "6", "--vocab", "7", "--seed", "3"]


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_process(argv, address_space=None):
    """Run the CLI as a process, so an uncaught exception shows as a traceback.
    ``address_space`` caps the child's virtual memory in bytes (RLIMIT_AS),
    so a run that would grow until the machine runs out fails in the child."""
    src = str(Path(seednorm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def limit():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "seednorm", *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=limit if address_space else None)


class TestExitCodes:
    def test_nan_analytic_gradient_fails_gradcheck_one(self, monkeypatch, capsys):
        original = gradcheck.seednorm_backward

        def nan_d_x(cache, upstream):
            b = original(cache, upstream)
            b.d_x[...] = np.nan
            return b

        monkeypatch.setattr(gradcheck, "seednorm_backward", nan_d_x)
        rc, out, err = run(["gradcheck", "--variant", "seednorm", "--dims", "4",
                            "--trials", "3"], capsys)
        assert rc == 1, err
        assert out.splitlines()[-1].startswith("FAIL max_rel_err=nan")

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

    def test_bytes_file_one_window_long_two(self, tmp_path):
        # 17 bytes hold one window of context 16, but batch needs two
        data = tmp_path / "short.bin"
        data.write_bytes(bytes(17))
        proc = run_process(["train", "--task", "bytes", "--data", str(data),
                            "--context", "16", "--steps", "1"])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "short" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["train", "--heads", "0", "--steps", "1"],
        ["train", "--variant", "mh_seednorm", "--norm-heads", "0", "--steps", "1"],
        ["gradcheck", "--variant", "mh_seednorm", "--heads", "0", "--trials", "2"],
        ["probe", "--name", "dot_variance", "--heads", "0"],
    ], ids=["train-heads", "train-norm-heads", "gradcheck-heads", "probe-heads"])
    def test_zero_head_count_two(self, argv):
        proc = run_process(argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "heads" in proc.stderr

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_non_positive_trial_count_two(self, trials):
        # used to print PASS and exit 0 without running a single trial
        proc = run_process(["gradcheck", "--variant", "rmsnorm", "--trials", trials])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "trials" in proc.stderr

    @pytest.mark.parametrize("argv,word", [
        (["gradcheck", "--dims", "0", "--variant", "dyt"], "dims"),
        (["gradcheck", "--dims", "0", "--variant", "layernorm"], "dims"),
        (["gradcheck", "--dims", "4", "-2", "--variant", "rmsnorm"], "dims"),
        (["gradcheck", "--tol", "-1", "--variant", "rmsnorm", "--trials", "2"], "tolerance"),
    ], ids=["dims-zero-dyt", "dims-zero-layernorm", "dims-negative", "tol-negative"])
    def test_bad_gradcheck_width_or_tolerance_two(self, argv, word):
        # a zero width used to fail inside NumPy (with a RuntimeWarning for
        # layernorm), and a negative tolerance ran every trial to print FAIL
        proc = run_process(argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr
        assert word in proc.stderr
        assert "FAIL" not in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["train", "--alpha-init", "nan", "--steps", "1"],
        ["train", "--lr", "nan", "--steps", "3", "--batch-size", "4"],
        ["train", "--weight-decay", "nan", "--steps", "3", "--batch-size", "4"],
        ["train", "--clip", "nan", "--steps", "1"],
        ["gradcheck", "--tol", "nan"],
        ["gradcheck", "--step", "inf"],
        ["probe", "--name", "dot_variance", "--sigma", "nan"],
        ["probe", "--name", "dyt_rmsnorm_ode", "--c", "nan"],
        ["probe", "--name", "scale_insensitivity", "--k", "2", "inf"],
    ], ids=["alpha-init", "lr", "weight-decay", "clip", "tol", "step", "sigma", "c",
            "k-list"])
    def test_non_finite_float_flag_two(self, argv, capsys):
        rc, out, err = run(argv, capsys)
        assert rc == 2, out + err
        assert "finite" in err

    @pytest.mark.parametrize("step", ["1e300", "1e308"])
    def test_absurd_gradcheck_step_fails_quietly_one(self, step):
        # a valid step the oracle cannot use is a failed check (1e308 makes
        # its objective overflow, 1e300 its gradients meaningless), reported
        # without a traceback and without NumPy's overflow warnings
        proc = run_process(["gradcheck", "--variant", "rmsnorm", "--trials", "2",
                            "--step", step])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["dot_variance", "--sigma", "1e200", "--samples", "10000"],
        ["dot_variance", "--sigma", "1e-100"],
        ["dyt_rmsnorm_ode", "--c", "1e-300"],
        ["dyt_rmsnorm_ode", "--c", "1e300"],
        ["dyt_rmsnorm_ode", "--span", "1e308"],
        ["scale_insensitivity", "--alpha-init", "1e308"],
    ], ids=["sigma-huge", "sigma-tiny", "c-tiny", "c-huge", "span-huge", "alpha-huge"])
    def test_probe_parameter_out_of_float64_range_two(self, argv):
        # each makes a probe's closed form over- or underflow float64, which
        # would otherwise surface as a traceback, or as a PASS read off a NaN
        proc = run_process(["probe", "--name", *argv])
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "out of range" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr
        assert "PASS" not in proc.stdout

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

        def poisoned(model, tokens, targets, *ws):
            loss, grads = real(model, tokens, targets, *ws)
            calls.append(loss)
            if len(calls) == 2:
                grads["layer0.ffn.w1"][0, 0] = np.inf
            return loss, grads

        monkeypatch.setattr(training, "loss_and_grads", poisoned)
        rc, _, err = run(FAST_TRAIN, capsys)
        assert rc == 1
        assert np.isfinite(calls[-1])
        assert "non-finite gradient at step 1; first non-finite site: layer0.ffn.w1" in err


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_pipe_is_one_error_line(unbuffered):
    """A reader that closes stdout before the command writes: one error line
    on stderr and exit 1, whether Python's stdout is buffered or not."""
    src = str(Path(seednorm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "seednorm", "probe", "--name", "dyt_rmsnorm_ode"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err.splitlines() == ["error: output pipe closed before the command finished"]


TINY_TRAIN = ["--dims", "8", "--layers", "1", "--heads", "2", "--context", "4",
              "--batch-size", "2", "--steps", "20"]


class TestExitCodeTable:
    """Each exception a command can raise ends as one `error:` line, with the
    exit code of ``main``'s table and no traceback or warning."""

    @pytest.mark.parametrize("exc,code", [
        (ValueError("bad value"), 2),
        (FloatingPointError("non-finite objective"), 1),
        (MemoryError(), 1),
        (training.TrainingDiverged(3, "layer0.attn_norm"), 1),
    ], ids=["ValueError", "FloatingPointError", "MemoryError", "TrainingDiverged"])
    def test_exception_maps_to_its_code(self, monkeypatch, capsys, exc, code):
        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "estimate_cost", fail)
        rc, out, err = run(["cost"], capsys)
        assert rc == code
        # a bare MemoryError has no message of its own
        assert err == f"error: {str(exc) or 'MemoryError'}\n"

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-1"],
        ["compare", "--seed", "-1"],
        ["probe", "--name", "dot_variance", "--seed", "-1"],
    ], ids=["train", "compare", "probe"])
    def test_negative_seed_flag_two(self, argv, capsys):
        rc, out, err = run(argv, capsys)
        assert rc == 2
        assert out == ""
        assert "a seed must be an integer >= 0, got '-1'" in err

    def test_negative_seed_in_config_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        rc, out, err = run(["train", "--config", str(cfg)], capsys)
        assert rc == 2
        assert out == ""
        assert err == f"error: {cfg}:1: bad value for 'seed': a seed must be an integer >= 0, got '-1'\n"

    def test_negative_seed_in_environment_two(self, monkeypatch, capsys):
        monkeypatch.setenv("SEEDNORM_SEED", "-5")
        rc, out, err = run(["probe", "--name", "dot_variance"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: SEEDNORM_SEED: ")

    @pytest.mark.parametrize("argv,line", [
        (["--lr", "1e308"],
         "non-finite activation at step 1; first non-finite site: layer0.attn_norm"),
        (["--alpha-init", "1e300"],
         "non-finite gradient at step 0; first non-finite site: final_norm.beta"),
        (["--weight-decay", "1e300"],
         "non-finite gradient at step 1; first non-finite site: layer0.ffn_norm"),
        (["--variant", "dyt", "--lr", "1e300"],
         "non-finite activation at step 1; first non-finite site: layer0.q_norm"),
    ], ids=["lr", "alpha-init", "weight-decay", "dyt-lr"])
    def test_overflowing_hyperparameter_is_a_named_divergence_one(self, argv, line):
        proc = run_process(["train", *TINY_TRAIN, *argv])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {line}"]

    @pytest.mark.parametrize("flag,line", [
        ("--lr", "lr must be >= 0, got -1.0"),
        ("--weight-decay", "weight_decay must be >= 0, got -1.0"),
        ("--warmup", "warmup_steps must be >= 0, got -1"),
    ], ids=["lr", "weight-decay", "warmup"])
    def test_negative_training_hyperparameter_two(self, flag, line, capsys):
        rc, out, err = run(["train", *TINY_TRAIN, flag, "-1"], capsys)
        assert rc == 2
        assert out == ""
        assert err == f"error: {line}\n"

    @pytest.mark.parametrize("freeze", [[""], [".beta", ""]], ids=["empty", "one-empty"])
    def test_empty_freeze_suffix_two(self, freeze, capsys):
        # an empty suffix matches every parameter: the run would train nothing
        rc, out, err = run(["train", *TINY_TRAIN, "--freeze", *freeze], capsys)
        assert rc == 2
        assert out == ""
        assert err == "error: an empty freeze suffix would match, and freeze, every parameter\n"

    def test_model_past_memory_one(self):
        # well formed, so a machine with 728 TiB could run it: exit 1
        proc = run_process(["train", "--dims", "10000000", "--steps", "1"])
        assert proc.returncode == 1, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: Unable to allocate ")
        assert "10000000" in line

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_deep_model_past_memory_one(self, command):
        # the count is closed-form and the buffer is one allocation, so the
        # run fails at once instead of listing ten million layers first
        proc = run_process([command, "--layers", "10000000", "--steps", "1"],
                           address_space=2 << 30)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: Unable to allocate 496320003392 parameters (3697.9 GiB) "
            "for 10000000 layers of width 64"]

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_depth_no_array_holds_two(self, command):
        proc = run_process([command, "--layers", str(2**63), "--steps", "1"],
                           address_space=2 << 30)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == ["error: Maximum allowed dimension exceeded"]

    def test_shape_no_machine_holds_two(self):
        proc = run_process(["train", "--vocab", str(2**63), "--steps", "1"])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == ["error: Maximum allowed dimension exceeded"]

    def test_ode_grid_no_array_holds_two(self):
        proc = run_process(["probe", "--name", "dyt_rmsnorm_ode", "--grid", str(2**63)])
        assert proc.returncode == 2, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: grid_points=9223372036854775808 out of range")
        assert proc.stdout == ""


# each model and training option of train, compare and cost, and the
# ModelConfig or TrainConfig field whose default it takes
CONFIG_FIELDS = {
    "dims": "hidden_dim", "layers": "layers", "heads": "attn_heads",
    "norm_heads": "norm_heads", "vocab": "vocab", "context": "context",
    "alpha_init": "alpha_init", "variant": "norm_variant",
    "steps": "steps", "batch_size": "batch_size", "lr": "lr", "warmup": "warmup_steps",
    "weight_decay": "weight_decay", "clip": "grad_clip", "ema": "ema", "freeze": "freeze",
}


class TestOptionDefaults:
    def test_every_model_and_training_option_has_its_field(self):
        names = {o.name for o in cli.MODEL_OPTS + cli.HYPER_OPTS}
        assert names == set(CONFIG_FIELDS) - {"variant"} | {"no_decay_dynamic"}

    @pytest.mark.parametrize("command", ["train", "compare", "cost"])
    def test_defaults_and_help_are_the_configs(self, command):
        from seednorm.model import ModelConfig

        model, train = ModelConfig(), training.TrainConfig()
        expected = {name: getattr(model if hasattr(model, f) else train, f)
                    for name, f in CONFIG_FIELDS.items()}
        expected["no_decay_dynamic"] = not train.decay_dynamic
        opts = {o.name: o for name, _, cmd_opts, _ in COMMANDS if name == command
                for o in cmd_opts if o.name in expected}
        assert opts and all(o.default == expected[n] for n, o in opts.items())
        sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
        helps = {a.dest: a.help for a in sub._actions if a.dest in opts}
        for name, value in expected.items():
            if name in helps and value != ():
                assert helps[name].endswith(f"(default {value})"), name

    def test_cost_defaults_describe_the_default_model(self, capsys):
        # the model `train` builds with no flags: 4 attention heads
        rc, out, _ = run(["cost", "--check"], capsys)
        assert rc == 0
        assert out.splitlines() == [
            "cost layers=2 hidden_dim=64 heads=4", "  extra_params=768",
            "  extra_madds=1527", "  check: model_param_delta=768 matches=true",
        ]

    @pytest.mark.parametrize("flags", [["--timing"], ["--log-every", "5"]],
                             ids=["timing", "log-every"])
    def test_compare_takes_no_train_only_flag(self, flags, capsys):
        # compare prints no per-step log and its reports carry no wall time
        rc, out, err = run(["compare", *TINY_TRAIN, *flags], capsys)
        assert rc == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in err

    def test_train_keeps_timing_and_log_every(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        rc, stdout, _ = run(FAST_TRAIN + ["--timing", "--log-every", "1",
                                          "--json", str(out)], capsys)
        assert rc == 0
        assert "  step 0 " in stdout and "  step 1 " in stdout
        assert all("wall_time" in r for r in json.loads(out.read_text())["curve"]["records"])


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\ntrials = 3\ndims = 2 4\nvariant = rmsnorm\n")
        rc, out, _ = run(["gradcheck", "--config", str(cfg)], capsys)
        assert rc == 0
        assert "trials=3" in out
        assert "dims=2,4" in out

    def test_empty_dims_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dims =\n")
        rc, _, err = run(["gradcheck", "--config", str(cfg)], capsys)
        assert rc == 2
        assert "dims" in err

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

    @pytest.mark.parametrize("line", ["lr = nan", "k = 2, inf"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        command = "train" if line.startswith("lr") else "probe"
        rc, _, err = run([command, "--config", str(cfg)], capsys)
        assert rc == 2
        assert "finite" in err

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


# The smallest valid run of each subcommand, so that a path check that fails
# to fire costs little work.
QUICK_ARGS = {
    "gradcheck": ["--variant", "rmsnorm", "--dims", "2", "--trials", "1"],
    "probe": ["--name", "dot_variance", "--dims", "4", "--samples", "10"],
    "train": FAST_TRAIN[1:],
    "compare": FAST_TRAIN[1:],
    "cost": ["--layers", "1", "--dims", "8", "--heads", "2"],
}
PATH_OPTIONS = [(name, o.flag) for name, _, opts, _ in COMMANDS
                for o in opts if o.kind == "path"]


class TestOutputPaths:
    def test_every_report_option_is_a_path(self):
        flags = {flag for _, flag in PATH_OPTIONS}
        assert flags == {"--json", "--csv", "--checkpoint"}
        assert {name for name, _ in PATH_OPTIONS} == set(QUICK_ARGS)

    @pytest.mark.parametrize("target", ["directory", "missing_parent"])
    @pytest.mark.parametrize("command,flag", PATH_OPTIONS,
                             ids=[f"{c}{f}" for c, f in PATH_OPTIONS])
    def test_unwritable_path_two_before_any_work(self, command, flag, target, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        path = out_dir if target == "directory" else tmp_path / "missing" / "report"
        proc = run_process([command, *QUICK_ARGS[command], flag, str(path)])
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert flag in proc.stderr
        # no header, no step: the run stopped before doing any work
        assert proc.stdout == ""
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list(out_dir.iterdir()) == []

    def test_path_from_config_file_checked(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"json = {tmp_path / 'missing' / 'r.json'}\n")
        rc, out, err = run(["cost", "--config", str(cfg)], capsys)
        assert rc == 2
        assert "--json" in err and out == ""

    def test_failed_write_two(self, tmp_path, capsys):
        # a dangling link passes the check and fails only when opened
        link = tmp_path / "r.json"
        link.symlink_to(tmp_path / "gone" / "r.json")
        rc, _, err = run(["cost", "--json", str(link)], capsys)
        assert rc == 2
        assert err.startswith("error: cannot write")
