"""Command line interface: gradient checks, probes, training, comparisons,
and the overhead cost model.

Exit codes, all set by ``main``: 0 when the requested run completes and its
checks pass, 1 when a check fails, training diverges or memory runs out, 2
for usage errors (bad flags or config files, unknown probe names, any
ValueError). Option kinds, each with one parser for flags, config files and
SEEDNORM_SEED: int, seed (an int >= 0), float (finite), str, bool, path,
int_list, float_list, str_list.

Option precedence, lowest to highest: built-in defaults, the SEEDNORM_SEED
environment variable (seed only), entries from a `--config` file, explicit
command line flags. Config files are flat `key = value` lines; `#` starts a
comment; hyphens and underscores in keys are interchangeable; unknown keys
are rejected.

Reports are byte-stable for a fixed seed: JSON is written with sorted keys,
CSV uses CRLF line endings per RFC 4180, and wall-clock timing stays out of
both unless `--timing` is passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .core import make_rng
from .gradcheck import DEFAULT_DIMS, VARIANTS, run_gradcheck
from .model import ModelConfig, count_parameters, save_checkpoint
from .params import NormParams
from .probes import (
    estimate_cost,
    probe_dot_variance,
    probe_dyt_rmsnorm_ode,
    probe_scale_insensitivity,
)
from .training import (
    ByteFileTask,
    CopyTask,
    TrainConfig,
    TrainingDiverged,
    compare_runs,
    train_model,
)

PROBE_NAMES = ("scale_insensitivity", "dot_variance", "dyt_rmsnorm_ode")


class UsageError(ValueError):
    """Bad invocation: malformed values, unknown keys, missing requirements."""


@dataclass(frozen=True)
class Opt:
    """One option: drives both the argparse flag and config-file parsing."""

    name: str
    # int | seed (an int >= 0) | float | str | bool | path | int_list | float_list
    # | str_list; a path is a file the command writes, checked before any work
    kind: str
    default: object
    help: str
    choices: tuple = ()

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _finite_float(text: str) -> float:
    """float() for option values: nan and +/-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A seed: Philox takes only an integer >= 0."""
    if not re.fullmatch(r"\s*\+?\d+\s*", text):
        raise argparse.ArgumentTypeError(f"a seed must be an integer >= 0, got {text!r}")
    return int(text)


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _bool(text: str) -> bool:
    if text.lower() not in _BOOL_WORDS:
        raise ValueError(f"expected a boolean, got {text!r}")
    return _BOOL_WORDS[text.lower()]


# each kind's one parser, for flags, config and SEEDNORM_SEED; a list's, per element
_PARSERS = {"int": int, "seed": _seed, "float": _finite_float, "bool": _bool, "str": str,
            "path": str, "int_list": int, "float_list": _finite_float, "str_list": str}


def _add_to_parser(parser: argparse.ArgumentParser, opts) -> None:
    for o in opts:
        shown = "" if o.default in (None, ()) else f" (default {o.default})"
        kw: dict = {"dest": o.name, "default": None, "help": o.help + shown}
        if o.kind == "bool":
            parser.add_argument(o.flag, action="store_true", **kw)
            continue
        if o.kind.endswith("_list"):
            kw["nargs"] = "+"
        parser.add_argument(o.flag, type=_PARSERS[o.kind], choices=o.choices or None, **kw)
    parser.add_argument(
        "--config", default=None, metavar="PATH",
        help="flat 'key = value' file merged below explicit flags",
    )


def _coerce(opt: Opt, text: str, where: str):
    parse = _PARSERS[opt.kind]
    try:
        if opt.kind.endswith("_list"):
            return [parse(tok) for tok in re.split(r"[,\s]+", text) if tok]
        value = parse(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"{where}: bad value for {opt.name!r}: {exc}") from None
    if opt.choices and value not in opt.choices:
        raise UsageError(
            f"{where}: {opt.name!r} must be one of {', '.join(opt.choices)}, got {text!r}"
        )
    return value


def _load_config(path: str, opts) -> dict:
    by_name = {o.name: o for o in opts}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip().lower().replace("-", "_")
        if key not in by_name:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(by_name[key], value.strip(), f"{path}:{lineno}")
    return out


def _resolve(opts, args) -> dict:
    """defaults < SEEDNORM_SEED < config file < explicit flags."""
    values = {o.name: o.default for o in opts}
    env = os.environ.get("SEEDNORM_SEED")
    if env is not None and "seed" in values:
        values["seed"] = _coerce(Opt("seed", "seed", 0, ""), env, "SEEDNORM_SEED")
    if getattr(args, "config", None):
        values.update(_load_config(args.config, opts))
    for o in opts:
        cli_val = getattr(args, o.name)
        if cli_val is not None:
            values[o.name] = cli_val
    written: dict = {}  # each output file's real path: the flag that names it
    for o in opts:
        if o.kind == "path" and values[o.name]:
            _check_output_path(o.flag, values[o.name])
            first = written.setdefault(os.path.realpath(values[o.name]), o.flag)
            if first != o.flag:
                raise UsageError(f"{first} and {o.flag} name one file: {values[o.name]!r}")
    return values


def _check_output_path(flag: str, path: str) -> None:
    """A file the command will write: not a directory, in one that exists."""
    if os.path.isdir(path):
        raise UsageError(f"{flag}: {path!r} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"{flag}: directory {parent!r} does not exist")


@contextlib.contextmanager
def _writing(path: str):
    """Writing an output file: a failure is a usage error, not a traceback."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    with _writing(path), open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


# ---------------------------------------------------------------- gradcheck

GRADCHECK_OPTS = (
    Opt("seed", "seed", 0, "base seed for the randomized suite"),
    Opt("variant", "str", "all", "which layer to check", VARIANTS + ("all",)),
    Opt("dims", "int_list", list(DEFAULT_DIMS), "row widths to sample from"),
    Opt("trials", "int", 100, "random configurations per variant"),
    Opt("tol", "float", 1e-5, "max relative error allowed"),
    Opt("step", "float", 1e-5, "finite-difference step"),
    Opt("heads", "int_list", [2, 4], "head counts sampled for the multi-head layer"),
    Opt("timing", "bool", False, "include wall-clock timing in the report"),
    Opt("json", "path", None, "write the JSON report here"),
)


def cmd_gradcheck(args) -> int:
    v = _resolve(GRADCHECK_OPTS, args)
    variants = VARIANTS if v["variant"] == "all" else (v["variant"],)
    report = run_gradcheck(
        variants=variants, dims=tuple(v["dims"]), trials=v["trials"],
        seed=v["seed"], heads=tuple(v["heads"]), step=v["step"],
        tolerance=v["tol"], timing=v["timing"],
    )
    print(
        f"gradcheck seed={v['seed']} dims={','.join(map(str, v['dims']))} "
        f"trials={v['trials']} step={_fmt(v['step'])} tol={_fmt(v['tol'])}"
    )
    for entry in report["variants"]:
        extras = "".join(f"  {k}={_fmt(val)}" for k, val in entry["extras"].items())
        print(
            f"  {entry['variant']:<12} max_rel_err={entry['max_rel_error']:.3e}"
            f"  trials={entry['trials']}{extras}"
        )
    verdict = "PASS" if report["pass"] else "FAIL"
    print(f"{verdict} max_rel_err={report['max_rel_error']:.3e} tol={_fmt(v['tol'])}")
    if v["json"]:
        _write_json(v["json"], report)
    return 0 if report["pass"] else 1


# -------------------------------------------------------------------- probe

PROBE_OPTS = (
    Opt("seed", "seed", 0, "seed for sampled inputs"),
    Opt("name", "str", None, "which probe to run", PROBE_NAMES),
    Opt("dims", "int", None, "row width (default: 8 / 64 / 4 per probe)"),
    Opt("samples", "int", None, "sample count (default: 100000 / 100 per probe)"),
    Opt("heads", "int", 1, "head count for the variance probe"),
    Opt("sigma", "float", 1.0, "entry standard deviation for the variance probe"),
    Opt("dist", "str", "normal", "sampling law for the variance probe",
        ("normal", "uniform")),
    Opt("c", "float", 1.0, "frozen row RMS level for the ODE probe"),
    Opt("grid", "int", 101, "grid points for the ODE probe"),
    Opt("span", "float", 10.0, "half-width of the ODE probe grid"),
    Opt("k", "float_list", [2.0, 10.0, 1000.0], "input scale factors for the drift probe"),
    Opt("trials", "int", 8, "random inputs for the drift probe"),
    Opt("beta_zero", "bool", False, "zero the coefficient projection in the drift probe"),
    Opt("alpha_init", "float", 1.0, "alpha fill value for the drift probe"),
    Opt("json", "path", None, "write the JSON report here"),
)


def cmd_probe(args) -> int:
    v = _resolve(PROBE_OPTS, args)
    if v["name"] is None:
        raise UsageError("probe requires --name")
    rng = make_rng(v["seed"])
    if v["name"] == "scale_insensitivity":
        dim = v["dims"] if v["dims"] is not None else 8
        if v["beta_zero"]:
            beta = np.zeros(dim)
        else:
            beta = rng.standard_normal(dim) / np.sqrt(dim)
        p = NormParams(
            gamma=np.ones(dim), alpha=np.full(dim, v["alpha_init"]),
            beta=beta, eps=0.0,
        )
        report = probe_scale_insensitivity(p, v["k"], rng, trials=v["trials"])
    elif v["name"] == "dot_variance":
        dim = v["dims"] if v["dims"] is not None else 64
        samples = v["samples"] if v["samples"] is not None else 100000
        report = probe_dot_variance(
            dim, v["heads"], v["sigma"], samples, rng, dist=v["dist"]
        )
    else:
        dim = v["dims"] if v["dims"] is not None else 4
        samples = v["samples"] if v["samples"] is not None else 100
        report = probe_dyt_rmsnorm_ode(
            v["c"], dim, grid_points=v["grid"], span=v["span"],
            samples=samples, rng=rng,
        )
    verdict = "PASS" if report.passed else "FAIL"
    rule = "<=" if report.one_sided else "within"
    print(
        f"probe {report.name} samples={report.samples} "
        f"statistic={_fmt(report.statistic)} {rule} expected={_fmt(report.expected)}"
        f"+tol={_fmt(report.tolerance)} {verdict}"
    )
    for detail in report.details:
        print("  " + " ".join(f"{k}={_fmt(val)}" for k, val in detail.items()))
    if v["json"]:
        _write_json(v["json"], {"command": "probe", "seed": v["seed"],
                                "report": report.to_dict()})
    return 0 if report.passed else 1


# --------------------------------------------------------------------- cost

# a model or training option's default is its config field's, held there only
_MODEL, _TRAIN = ModelConfig(), TrainConfig()

COST_OPTS = (
    Opt("layers", "int", _MODEL.layers, "transformer layers"),
    Opt("dims", "int", _MODEL.hidden_dim, "hidden width"),
    Opt("heads", "int", _MODEL.attn_heads, "attention heads (sets the query/key norm width)"),
    Opt("check", "bool", False,
        "cross-check extra_params against a built model's parameter-count delta"),
    Opt("json", "path", None, "write the JSON report here"),
)


def cmd_cost(args) -> int:
    v = _resolve(COST_OPTS, args)
    est = estimate_cost(v["layers"], v["dims"], v["heads"])
    print(f"cost layers={est.layers} hidden_dim={est.hidden_dim} heads={est.heads}")
    print(f"  extra_params={est.extra_params}")
    print(f"  extra_madds={est.extra_madds}")
    check = None
    if v["check"]:
        # dynamic layer vs static RMS scaling, by the trainer's own closed-form
        # parameter count (nothing allocated)
        shape = dict(layers=v["layers"], hidden_dim=v["dims"], attn_heads=v["heads"])
        delta = (count_parameters(ModelConfig(norm_variant="seednorm", **shape))
                 - count_parameters(ModelConfig(norm_variant="rmsnorm", **shape)))
        check = {
            "dynamic_variant": "seednorm",
            "baseline_variant": "rmsnorm",
            "model_param_delta": delta,
            "matches": bool(delta == est.extra_params),
        }
        print(f"  check: model_param_delta={delta} matches={_fmt(check['matches'])}")
    if v["json"]:
        _write_json(v["json"], {"command": "cost", "estimate": asdict(est),
                                "check": check})
    return 0 if check is None or check["matches"] else 1


# ---------------------------------------------------------- train / compare

MODEL_OPTS = (
    Opt("dims", "int", _MODEL.hidden_dim, "hidden width"),
    Opt("layers", "int", _MODEL.layers, "transformer layers"),
    Opt("heads", "int", _MODEL.attn_heads, "attention heads"),
    Opt("norm_heads", "int", _MODEL.norm_heads, "heads for the multi-head dynamic layer"),
    Opt("vocab", "int", _MODEL.vocab, "vocabulary size (copy task; bytes task forces 256)"),
    Opt("context", "int", _MODEL.context, "context length"),
    Opt("alpha_init", "float", _MODEL.alpha_init, "initial dynamic coefficient scale"),
)

HYPER_OPTS = (
    Opt("steps", "int", _TRAIN.steps, "optimizer steps"),
    Opt("batch_size", "int", _TRAIN.batch_size, "sequences per batch"),
    Opt("lr", "float", _TRAIN.lr, "peak learning rate"),
    Opt("warmup", "int", _TRAIN.warmup_steps, "linear warmup steps"),
    Opt("weight_decay", "float", _TRAIN.weight_decay, "decoupled weight decay"),
    Opt("clip", "float", _TRAIN.grad_clip, "global gradient-norm cap (<=0 disables)"),
    Opt("ema", "float", _TRAIN.ema, "loss smoothing coefficient"),
    Opt("no_decay_dynamic", "bool", not _TRAIN.decay_dynamic,
        "exempt the dynamic coefficient vectors from weight decay"),
    Opt("freeze", "str_list", _TRAIN.freeze, "param-name suffixes whose gradients are zeroed"),
)

TASK_OPTS = (
    Opt("task", "str", "copy", "training task", ("copy", "bytes")),
    Opt("data", "str", None, "byte-level input file for the bytes task"),
)

TRAIN_OPTS = (
    (Opt("seed", "seed", 0, "run seed"),)
    + TASK_OPTS
    + (Opt("variant", "str", _MODEL.norm_variant, "norm layer in every slot", VARIANTS),)
    + MODEL_OPTS
    + HYPER_OPTS
    + (
        Opt("log_every", "int", 100, "stdout cadence"),
        Opt("timing", "bool", False, "include wall-clock columns in reports"),
        Opt("csv", "path", None, "write the loss curve as CSV here"),
        Opt("json", "path", None, "write the JSON report here"),
        Opt("checkpoint", "path", None, "save model + optimizer state here"),
    )
)

COMPARE_OPTS = (
    (Opt("seed", "seed", 0, "run seed (shared by both variants)"),)
    + TASK_OPTS
    + (
        Opt("variant_a", "str", "seednorm", "first norm layer", VARIANTS),
        Opt("variant_b", "str", "rmsnorm", "second norm layer", VARIANTS),
    )
    + MODEL_OPTS
    + HYPER_OPTS
    + (
        Opt("csv", "path", None, "write the paired loss curves as CSV here"),
        Opt("json", "path", None, "write the JSON report here"),
    )
)


def _build_configs(v: dict, variant: str):
    """The task, ModelConfig and TrainConfig that the options describe."""
    if v["task"] == "bytes":
        if not v["data"]:
            raise UsageError("bytes task requires --data FILE")
        try:
            task = ByteFileTask(v["data"], context=v["context"])
        except OSError as exc:
            raise UsageError(str(exc)) from None
    else:
        task = CopyTask(vocab=v["vocab"], context=v["context"])
    cfg = ModelConfig(
        layers=v["layers"], hidden_dim=v["dims"], attn_heads=v["heads"],
        vocab=task.vocab, context=v["context"], norm_variant=variant,
        norm_heads=v["norm_heads"], alpha_init=v["alpha_init"],
    )
    tcfg = TrainConfig(
        steps=v["steps"], batch_size=v["batch_size"], lr=v["lr"],
        warmup_steps=v["warmup"], weight_decay=v["weight_decay"],
        grad_clip=v["clip"], ema=v["ema"],
        decay_dynamic=not v["no_decay_dynamic"], freeze=tuple(v["freeze"]),
    )
    return task, cfg, tcfg


def cmd_train(args) -> int:
    v = _resolve(TRAIN_OPTS, args)
    task, cfg, tcfg = _build_configs(v, v["variant"])
    print(
        f"train variant={cfg.norm_variant} task={v['task']} dims={cfg.hidden_dim} "
        f"layers={cfg.layers} steps={tcfg.steps} seed={v['seed']}"
    )
    result = train_model(cfg, tcfg, task, make_rng(v["seed"]))
    curve, ema = result.curve, result.curve.ema()
    for i, rec in enumerate(curve.records):
        if rec.step % max(1, v["log_every"]) == 0 or i == len(curve) - 1:
            print(f"  step {rec.step:<6d} loss={rec.loss:.6f} ema={ema[i]:.6f}")
    if len(curve):
        print(f"final loss={curve.losses()[-1]:.6f} ema={curve.final_ema():.6f}")
    else:
        print("no steps run")
    if v["csv"]:
        with _writing(v["csv"]), open(v["csv"], "w", encoding="utf-8", newline="") as fh:
            curve.to_csv(fh, include_wall_time=v["timing"])
    if v["json"]:
        payload = {
            "command": "train",
            "seed": v["seed"],
            "task": v["task"],
            "variant": cfg.norm_variant,
            "steps": tcfg.steps,
            "final_loss": curve.losses()[-1] if len(curve) else None,
            "final_ema": curve.final_ema() if len(curve) else None,
            "curve": curve.to_json_dict(include_wall_time=v["timing"]),
        }
        _write_json(v["json"], payload)
    if v["checkpoint"]:
        with _writing(v["checkpoint"]):
            save_checkpoint(result.model, v["checkpoint"], opt_state=result.opt_state)
        print(f"checkpoint written to {v['checkpoint']}")
    return 0


def cmd_compare(args) -> int:
    v = _resolve(COMPARE_OPTS, args)
    task, cfg, tcfg = _build_configs(v, v["variant_a"])
    print(
        f"compare {v['variant_a']} vs {v['variant_b']} task={v['task']} "
        f"dims={cfg.hidden_dim} layers={cfg.layers} steps={tcfg.steps} seed={v['seed']}"
    )
    paired = compare_runs(cfg, v["variant_a"], v["variant_b"], tcfg, task, v["seed"])
    if len(paired.curve_a):
        ema_a = paired.curve_a.final_ema()
        ema_b = paired.curve_b.final_ema()
        if ema_a < ema_b:
            winner = paired.variant_a
        elif ema_b < ema_a:
            winner = paired.variant_b
        else:
            winner = "tie"
        print(f"  {paired.variant_a:<12} final_ema={ema_a:.6f}")
        print(f"  {paired.variant_b:<12} final_ema={ema_b:.6f}")
        print(f"winner: {winner}")
    else:
        ema_a = ema_b = None
        winner = "tie"
        print("no steps run")
    if v["csv"]:
        with _writing(v["csv"]), open(v["csv"], "w", encoding="utf-8", newline="") as fh:
            paired.to_csv(fh)
    if v["json"]:
        _write_json(v["json"], {
            "command": "compare",
            "seed": v["seed"],
            "final_ema_a": ema_a,
            "final_ema_b": ema_b,
            "winner": winner,
            **paired.to_json_dict(),
        })
    return 0


# --------------------------------------------------------------------- main


# (name, help, options, handler) of each subcommand
COMMANDS = (
    ("gradcheck", "verify analytic gradients against finite differences",
     GRADCHECK_OPTS, cmd_gradcheck),
    ("probe", "run one executable analysis probe", PROBE_OPTS, cmd_probe),
    ("train", "train the desk-scale transformer", TRAIN_OPTS, cmd_train),
    ("compare", "train two norm variants on identical batches",
     COMPARE_OPTS, cmd_compare),
    ("cost", "closed-form overhead of the dynamic layers", COST_OPTS, cmd_cost),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seednorm",
        description="dynamic normalization layers: checks, probes, and training",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, opts, fn in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        _add_to_parser(p, opts)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a check reports every non-finite result; NumPy's warnings are noise
        with np.errstate(all="ignore"):
            rc = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return rc
    except BrokenPipeError:
        # the reader closed stdout; with it on devnull, the exit flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output pipe closed before the command finished", file=sys.stderr)
        return 1
    # the only place an exception becomes an exit code: a ValueError (a
    # UsageError among them) is a bad invocation, 2; a well-formed run that
    # fails, 1, even for want of memory, which a bigger machine might have
    except (ValueError, TrainingDiverged, FloatingPointError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
