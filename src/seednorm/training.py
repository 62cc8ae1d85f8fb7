"""Desk-scale training: tasks, the loop, loss curves, and paired comparisons.

Runs are deterministic functions of (config, seed): the run rng splits into
one stream for initialization and one for batches, both Philox. Wall time is
recorded in memory and in JSON output but stays out of CSV by default so
that re-running a seeded command reproduces files byte for byte.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import Workspace, make_rng, spawn_seeds
from .model import (
    Model,
    ModelConfig,
    build_model,
    first_nonfinite_site,
    loss_and_grads,
)
from .optim import AdamWConfig, OptimizerState, adamw_step, clip_gradients, decay_flags


@dataclass
class TrainConfig:
    steps: int = 1000
    batch_size: int = 32
    lr: float = 1e-3
    warmup_steps: int = 50
    weight_decay: float = 0.1
    grad_clip: float = 1.0
    ema: float = 0.99
    # Flip off to reproduce the no-decay ablation on the dynamic vectors.
    decay_dynamic: bool = True
    # Param-name suffixes whose gradients are zeroed (e.g. ".beta" pins the
    # dynamic layers to their RMSNorm reduction for equivalence checks).
    freeze: tuple = ()

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("steps must be >= 0 and batch_size >= 1")
        if not 0.0 <= self.ema < 1.0:
            raise ValueError("ema coefficient must be in [0, 1)")
        # a negative rate or decay would climb the loss (NaN fails too);
        # grad_clip <= 0 turns clipping off, and a NaN one would too, unasked
        for name in ("lr", "weight_decay", "warmup_steps"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if math.isnan(self.grad_clip):
            raise ValueError("grad_clip must not be NaN")
        if "" in tuple(self.freeze):
            raise ValueError("an empty freeze suffix would match, and freeze, every parameter")


class TrainingDiverged(RuntimeError):
    """Loss, an activation, a parameter or a gradient went non-finite;
    carries step and first bad site (an activation checkpoint, else a
    parameter with a non-finite entry or the norm slot that met one, or the
    parameter whose gradient went non-finite while the loss stayed finite)."""

    def __init__(self, step: int, site: str, quantity: str = "loss"):
        self.step = step
        self.site = site
        self.quantity = quantity
        super().__init__(
            f"non-finite {quantity} at step {step}; first non-finite site: {site}"
        )

    def __reduce__(self):
        # args holds only the message, which __init__ cannot take back
        return type(self), (self.step, self.site, self.quantity)


@dataclass
class CopyTask:
    """Sequence-copy batches: random payload, a separator, then the payload
    again. The second half is predictable from the first, so loss falling
    well below the uniform floor means the model learned to copy."""

    vocab: int = 17
    context: int = 16

    def __post_init__(self):
        if self.vocab < 3:
            raise ValueError("vocab must be >= 3 (payload symbols plus separator)")
        if self.context < 2 or self.context % 2 != 0:
            raise ValueError("context must be even and >= 2")

    @property
    def sep_token(self) -> int:
        return self.vocab - 1

    def batch(self, rng: np.random.Generator, batch_size: int):
        half = self.context // 2
        payload = rng.integers(0, self.vocab - 1, size=(batch_size, half), dtype=np.int64)
        seq = np.empty((batch_size, self.context + 1), dtype=np.int64)
        seq[:, :half] = payload
        seq[:, half] = self.sep_token
        seq[:, half + 1 :] = payload
        return seq[:, :-1].copy(), seq[:, 1:].copy()


@dataclass
class ByteFileTask:
    """Language-model batches over raw bytes of a local file (vocab 256)."""

    path: str
    context: int = 64

    def __post_init__(self):
        with open(self.path, "rb") as fh:
            self.data = np.frombuffer(fh.read(), dtype=np.uint8).astype(np.int64)
        # batch draws a start below size - context - 1, so that bound must be >= 1
        if self.data.size < self.context + 2:
            raise ValueError("file shorter than context + 2 bytes")
        self.vocab = 256

    def batch(self, rng: np.random.Generator, batch_size: int):
        starts = rng.integers(0, self.data.size - self.context - 1, size=batch_size)
        rows = np.stack([self.data[s : s + self.context + 1] for s in starts])
        return rows[:, :-1].copy(), rows[:, 1:].copy()


@dataclass
class StepRecord:
    step: int
    loss: float
    grad_norm: float
    wall_time: float


@dataclass
class LossCurve:
    """Per-step records plus EMA smoothing at a fixed coefficient."""

    records: list = field(default_factory=list)
    ema_coef: float = 0.99

    def append(self, step: int, loss: float, grad_norm: float, wall_time: float):
        if self.records and step <= self.records[-1].step:
            raise ValueError("steps must be strictly increasing")
        self.records.append(StepRecord(int(step), float(loss), float(grad_norm), float(wall_time)))

    def __len__(self) -> int:
        return len(self.records)

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def ema(self) -> np.ndarray:
        losses = self.losses()
        out = np.empty_like(losses)
        acc = 0.0
        for i, val in enumerate(losses):
            acc = val if i == 0 else self.ema_coef * acc + (1.0 - self.ema_coef) * val
            out[i] = acc
        return out

    def final_ema(self) -> float:
        if not self.records:
            raise ValueError("empty curve has no final EMA")
        return float(self.ema()[-1])

    def to_csv(self, fh, include_wall_time: bool = False) -> None:
        writer = csv.writer(fh, lineterminator="\r\n")
        header = ["step", "loss", "grad_norm", "ema"]
        if include_wall_time:
            header.append("wall_time")
        writer.writerow(header)
        ema = self.ema()
        for rec, e in zip(self.records, ema):
            row = [rec.step, repr(rec.loss), repr(rec.grad_norm), repr(float(e))]
            if include_wall_time:
                row.append(repr(rec.wall_time))
            writer.writerow(row)

    def to_json_dict(self, include_wall_time: bool = True) -> dict:
        out = asdict(self)
        if not include_wall_time:
            for rec in out["records"]:
                del rec["wall_time"]
        return out


@dataclass
class TrainResult:
    curve: LossCurve
    model: Model
    opt_state: OptimizerState


def train_model(
    cfg: ModelConfig,
    train_cfg: TrainConfig,
    task,
    rng: np.random.Generator,
    model: Model | None = None,
) -> TrainResult:
    """Full training entry point; returns the curve, model, and optimizer.

    Passing ``model`` starts from its parameters instead of building fresh
    ones. That is not a resume: the optimizer state is new, and warmup and
    the batch stream restart at step 0, so a run split in two differs from
    one run of the same steps. Init and batch streams come from separate
    child seeds, so the batches are those of a fresh run of this seed.

    The call owns one ``Workspace``, which every step's ``loss_and_grads``
    reuses, so every step hands the optimizer the same gradient arrays; a
    frozen parameter's are zeroed in place. Clipping and the AdamW update
    share the optimizer state's scratch, so the steps after the first
    allocate no large array.

    A step that fails with a non-finite loss, activation or parameter raises
    TrainingDiverged naming the first such site, else the norm slot that met
    one in its forward or backward. Any other error of the step (a batch
    whose token ids or length the model does not take) propagates unchanged.
    """
    init_seed, data_seed = spawn_seeds(rng, 2)
    if model is None:
        model = build_model(cfg, make_rng(init_seed))
    data_rng = make_rng(data_seed)

    flags = decay_flags(cfg)
    if not train_cfg.decay_dynamic:
        flags = {k: f and not cfg.norm.decays(k) for k, f in flags.items()}
    state = OptimizerState.init(model.params, flags)
    frozen = [n for n in model.params if n.endswith(tuple(train_cfg.freeze))]
    hyper = AdamWConfig(lr=train_cfg.lr, weight_decay=train_cfg.weight_decay)
    curve = LossCurve(ema_coef=train_cfg.ema)
    ws = Workspace()
    started = time.perf_counter()
    for step in range(train_cfg.steps):
        tokens, targets = task.batch(data_rng, train_cfg.batch_size)
        try:
            loss, grads = loss_and_grads(model, tokens, targets, ws)
        except (ValueError, FloatingPointError) as exc:
            site = first_nonfinite_site(model.params, cfg, tokens)
            if site is not None:
                quantity = "parameter" if site in model.params else "activation"
                raise TrainingDiverged(step, site, quantity) from None
            if getattr(exc, "slot", None) is None:
                raise  # not a divergence: a bad batch or a bad config
            quantity = "activation" if exc.direction == "forward" else "gradient"
            raise TrainingDiverged(step, exc.slot, quantity) from None
        if not math.isfinite(loss):
            site = first_nonfinite_site(model.params, cfg, tokens) or "loss"
            raise TrainingDiverged(step, site)
        for name in frozen:
            grads[name].fill(0.0)
        grad_norm = clip_gradients(grads, train_cfg.grad_clip, state.scratch)
        if not math.isfinite(grad_norm):
            # a non-finite gradient, else the largest, whose squares overflowed
            bad = (n for n, g in grads.items() if not np.all(np.isfinite(g)))
            site = next(bad, None) or max(grads, key=lambda n: np.max(np.abs(grads[n])))
            raise TrainingDiverged(step, site, quantity="gradient")
        if train_cfg.warmup_steps > 0:
            lr_t = train_cfg.lr * min(1.0, (step + 1) / train_cfg.warmup_steps)
        else:
            lr_t = train_cfg.lr
        adamw_step(state, model.params, grads, hyper, lr=lr_t)
        curve.append(step, loss, grad_norm, time.perf_counter() - started)
    return TrainResult(curve=curve, model=model, opt_state=state)


@dataclass
class PairedCurves:
    variant_a: str
    variant_b: str
    curve_a: LossCurve
    curve_b: LossCurve

    def __post_init__(self):
        if len(self.curve_a) != len(self.curve_b):
            raise ValueError("paired curves must have equal length")

    def to_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["step", "loss_a", "loss_b", "ema_a", "ema_b"])
        ema_a = self.curve_a.ema() if len(self.curve_a) else []
        ema_b = self.curve_b.ema() if len(self.curve_b) else []
        for ra, rb, ea, eb in zip(self.curve_a.records, self.curve_b.records, ema_a, ema_b):
            writer.writerow(
                [ra.step, repr(ra.loss), repr(rb.loss), repr(float(ea)), repr(float(eb))]
            )

    def to_json_dict(self) -> dict:
        return {
            "variant_a": self.variant_a,
            "variant_b": self.variant_b,
            "curve_a": self.curve_a.to_json_dict(include_wall_time=False),
            "curve_b": self.curve_b.to_json_dict(include_wall_time=False),
        }


def compare_runs(
    cfg: ModelConfig,
    variant_a: str,
    variant_b: str,
    train_cfg: TrainConfig,
    task,
    seed: int,
) -> PairedCurves:
    """Two runs differing only in norm variant: same seed, same batches."""
    cfg_a = replace(cfg, norm_variant=variant_a)
    cfg_b = replace(cfg, norm_variant=variant_b)
    curve_a = train_model(cfg_a, train_cfg, task, make_rng(seed)).curve
    curve_b = train_model(cfg_b, train_cfg, task, make_rng(seed)).curve
    return PairedCurves(
        variant_a=cfg_a.norm_variant, variant_b=cfg_b.norm_variant,
        curve_a=curve_a, curve_b=curve_b,
    )
