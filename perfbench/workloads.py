"""The benchmark's workloads: what each one runs, how it is timed and checked.

Every workload runs in rounds. A round is a fixed amount of work, so its
outputs are a function of the seed alone; rounds repeat until the requested
seconds have passed and at least ``MIN_OPS`` operations were timed (enough
for ten samples beyond the 90th percentile). An operation is one optimizer
step on the training workloads and one randomized oracle trial on
``gradcheck``.

Right before and right after every operation a fixed NumPy computation,
the reference, is timed too (see ``Reference``). An operation's cost is its
wall time divided by the mean of those two reference times. The end-to-end
metrics are built on cost, which cancels the speed the shared machine
happens to run at; the raw wall times are reported next to them. Set-up is
bracketed by the reference in the same way (see ``SetupTimes``).

Library functions are looked up through their modules at call time, so the
tracing hooks of ``spans.Hooks`` see the calls and a renamed function shows
up as a missing layer rather than as a stale reference.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import tempfile
import time
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from seednorm import backward, gradcheck, model, optim, training

from spans import Hooks, Tracer

clock = time.perf_counter

VARIANTS = ("rmsnorm", "layernorm", "dyt", "seednorm", "mh_seednorm")
SLOTS = ("attn_norm", "q_norm", "k_norm", "ffn_norm", "final_norm")

# Correctness bounds, from acceptance criteria 1 and 7 of the library.
TRIAL_BOUND = 1e-5
MODEL_CHECK_BOUND = 1e-4
# A trial over TRIAL_BOUND at the library's step of 1e-5 is checked again,
# untimed, at the same point with these steps, and fails only if it is over
# the bound at every one. One random point in a few thousand needs this: the
# one-step difference errs by roundoff (mh_seednorm, 1.5e-5, fine at 1e-4) or
# by truncation where the function curves sharply (layernorm at D=2 with two
# nearly equal inputs, 6e-4 at 1e-4, fine at 1e-6). A wrong gradient is off
# at every step: a 1% error reads 1e-2 at each of them.
TRIAL_RECHECK_STEPS = (1e-4, 1e-6)
# The whole-model check extrapolates central differences at two steps
# (Richardson), which cancels their O(h^2) truncation error. A single step
# of 1e-5 is too coarse at some seeded points: at seed 8 its error is 3e-3
# and grows 100-fold at ten times the step, while the extrapolated
# difference agrees with the analytic gradient to 5e-6 at seeds 1-20.
MODEL_CHECK_STEPS = (2e-5, 1e-5)
# Directional derivative of the training loss, checked once per variant at
# the workload's own shape: a central difference along a random direction
# with a unit-norm share in every parameter array, so small arrays such as
# norm scales weigh as much as the matrices. The gap is relative to the
# derivative, but never to one below DIRECTION_FLOOR_ULPS ulps of the loss
# over twice the step, divided by the bound: along an unlucky direction the
# derivative nears zero (2.7e-7 for dyt at seed 74, against a typical 3e-4)
# and the gap, which is roundoff of the two losses, would read 2e-5. Over
# seeds 60-99 that roundoff stayed within 4 ulps. A 1% error in a gradient
# array moves the derivative by 1% of that array's share of it.
DIRECTION_STEP = 1e-4
DIRECTION_BOUND = 1e-5
DIRECTION_FLOOR_ULPS = 50
# Three clip + AdamW steps of the library against this file's own update
# (see ``_update_error``). They agree exactly today; the bound leaves room
# for reordered arithmetic, while a step 1% off in size shows at 1e-2.
UPDATE_BOUND = 1e-10

END_TO_END = (
    ("setup_s", "s"),
    ("op_cost", "ratio"),
    ("op_cost_p90", "ratio"),
    ("final_loss", "nats"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("op_ms", "ms"),
    ("op_ms_p90", "ms"),
    ("wall_s", "s"),
    ("ref_ms", "ms"),
    *((f"op_cost.{v}", "ratio") for v in VARIANTS),
    *((f"norm_fwd.{s}.ms", "ms") for s in SLOTS),
    *((f"norm_bwd.{s}.ms", "ms") for s in SLOTS),
    ("norm_fwd.calls", "count"),
    ("norm_bwd.calls", "count"),
    ("attn_fwd.ms", "ms"),
    ("attn_bwd.ms", "ms"),
    ("attn.gflops_s", "GFLOP/s"),
    ("ffn_fwd.ms", "ms"),
    ("ffn_bwd.ms", "ms"),
    ("ffn.gflops_s", "GFLOP/s"),
    ("model_fwd_self.ms", "ms"),
    ("model_bwd_self.ms", "ms"),
    ("loss.ms", "ms"),
    ("clip.ms", "ms"),
    ("adamw.ms", "ms"),
    ("adamw.params", "count"),
    ("batch.ms", "ms"),
    ("step_other.ms", "ms"),
    ("fd.evals", "count"),
    ("fd.eval_us", "us"),
    ("gc.analytic_us", "us"),
    ("gc.model_check_s", "s"),
    ("trace_overhead", "ratio"),
    ("fail_frac", "ratio"),
)

MIN_OPS = 100
# Set-up samples taken before the first round, per training variant and on
# gradcheck; every round adds more. The first SETUP_WARMUP are not kept: they
# pay for the allocator growing its heap. On gradcheck one sample builds the
# check model SETUP_BUILDS times, since one build takes well under a millisecond.
SETUP_WARMUP = 3
SETUP_REPEATS = 20
SETUP_BUILDS = 64

# Layers timed inside a training step: (module, function, layer). Spans of
# the norm layers are named after the model slot too, as norm_fwd.q_norm.
TRAIN_HOOKS = (
    ("seednorm.model", "_slot_forward", "norm_fwd"),
    ("seednorm.model", "_slot_backward", "norm_bwd"),
    ("seednorm.model", "_attn_forward", "attn_fwd"),
    ("seednorm.model", "_attn_backward", "attn_bwd"),
    ("seednorm.model", "_ffn_forward", "ffn_fwd"),
    ("seednorm.model", "_ffn_backward", "ffn_bwd"),
    ("seednorm.model", "model_forward", "model_fwd"),
    ("seednorm.model", "model_backward", "model_bwd"),
    ("seednorm.model", "softmax_cross_entropy", "loss"),
    ("seednorm.optim", "clip_gradients", "clip"),
    ("seednorm.optim", "adamw_step", "adamw"),
)

# Inside an oracle trial: the layer forwards (the analytic one and every
# finite-difference evaluation), the layer backwards, and the oracle loop.
GC_HOOKS = (
    *(("seednorm.forward", f"{v}_forward", "layer_fwd") for v in VARIANTS),
    *(("seednorm.backward", f"{v}_backward", "layer_bwd") for v in VARIANTS),
    ("seednorm.backward", "finite_difference_jacobian", "fd"),
)

# Per-layer metric name prefix -> layers it is computed from. A metric whose
# layer lost its hook is reported missing instead of wrong.
_DEPENDS = {
    "step_other.": tuple(layer for _, _, layer in TRAIN_HOOKS),
    "norm_fwd.": ("norm_fwd",),
    "norm_bwd.": ("norm_bwd",),
    "attn_fwd.": ("attn_fwd",),
    "attn_bwd.": ("attn_bwd",),
    "attn.": ("attn_fwd", "attn_bwd"),
    "ffn_fwd.": ("ffn_fwd",),
    "ffn_bwd.": ("ffn_bwd",),
    "ffn.": ("ffn_fwd", "ffn_bwd"),
    "model_fwd_self.": ("model_fwd",),
    "model_bwd_self.": ("model_bwd",),
    "loss.": ("loss",),
    "clip.": ("clip",),
    "adamw.ms": ("adamw",),
    "fd.": ("fd", "layer_fwd"),
    "gc.analytic_us": ("layer_fwd", "layer_bwd"),
}


def _span_name(layer: str):
    """Span name, or for a norm layer a function of the call's arguments.

    ``_slot_forward(params, cfg, prefix, ...)`` gets its slot from the prefix,
    "layer0.q_norm" -> "norm_fwd.q_norm".
    """
    if not layer.startswith("norm_"):
        return layer

    def name(args) -> str:
        prefix = args[2] if len(args) > 2 and isinstance(args[2], str) else "unknown"
        return f"{layer}.{prefix.rsplit('.', 1)[-1]}"

    return name


def _hooks(tracer: Tracer, targets) -> Hooks:
    return Hooks(tracer, [(mod, attr, _span_name(layer)) for mod, attr, layer in targets])


@dataclass(frozen=True)
class TrainSpec:
    """Train every variant in ``variants`` for ``round_steps`` steps per round.

    In round r, the i-th variant trains from sub-seed
    i * ``loss_seeds`` + r % ``loss_seeds`` of the run seed, and a run has
    at least ``loss_seeds`` rounds; ``final_loss`` averages over all these
    sub-seeds, which narrows its spread over run seeds. Variants get
    sub-seeds of their own because the seed, not the variant, decides most
    of a round's loss: on ``copy-c8`` four variants that share a sub-seed
    end within a few percent of each other.
    """

    task: str  # "copy" (CopyTask) or "bytes" (ByteFileTask on a generated corpus)
    variants: tuple
    layers: int
    hidden_dim: int
    attn_heads: int
    vocab: int
    context: int
    batch_size: int
    norm_heads: int
    round_steps: int
    loss_seeds: int = 1
    corpus_bytes: int = 0
    ref_ms: float = 1.0  # fixed reference ms that scales set-up cost (SetupTimes)


@dataclass(frozen=True)
class GradcheckSpec:
    """Oracle trials over every variant and dim, plus a whole-model check."""

    dims: tuple = (2, 4, 8, 16, 64)
    grid_passes: int = 4
    check_layers: int = 1
    check_dim: int = 8
    check_heads: int = 2
    check_vocab: int = 11
    check_context: int = 4
    check_batch: int = 2
    ref_ms: float = 1.0  # fixed reference ms that scales set-up cost (SetupTimes)


WORKLOADS = {
    "copy-c8": TrainSpec(
        task="copy", variants=VARIANTS, layers=2, hidden_dim=64, attn_heads=4,
        vocab=17, context=16, batch_size=32, norm_heads=4, round_steps=60, loss_seeds=2,
        ref_ms=3.21,
    ),
    "bytes-wide": TrainSpec(
        task="bytes", variants=("mh_seednorm",), layers=2, hidden_dim=128, attn_heads=4,
        vocab=256, context=64, batch_size=16, norm_heads=4, round_steps=34,
        corpus_bytes=1 << 16, ref_ms=20.0,
    ),
    "gradcheck": GradcheckSpec(ref_ms=1.43),
}


@dataclass
class Outcome:
    """What one run measured and found."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed correctness checks
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: list = field(default_factory=list)  # extra lines for the reader
    missing: list = field(default_factory=list)  # hook targets not found
    traced_op_ms: float = 0.0  # mean traced operation time, for self-time sums
    spans_path: str | None = None


class OpTimes:
    """Wall ms of each timed operation, with its kind and the reference ms
    bracketing it (the mean of the reference times just before and after)."""

    def __init__(self):
        self.rows: list[tuple[str, bool, float, float]] = []

    def add(self, kind: str, traced: bool, ms: float, ref_ms: float) -> None:
        self.rows.append((kind, traced, ms, ref_ms))

    def __len__(self) -> int:
        return len(self.rows)

    def ms(self, traced: bool, kind: str | None = None) -> list[float]:
        return [m for k, t, m, _ in self.rows if t == traced and kind in (None, k)]

    def cost(self, traced: bool, kind: str | None = None) -> list[float]:
        return [m / r for k, t, m, r in self.rows if t == traced and kind in (None, k)]

    def ref_ms(self) -> list[float]:
        return [r for _, _, _, r in self.rows]


class Reference:
    """Fixed NumPy work, timed right before and right after each operation.

    On the shared 2-vCPU machine this benchmark was built on, identical work
    runs at two speeds up to 1.8x apart, switching every few to tens of
    seconds, with CPU time equal to wall time throughout (one fixed pass of
    oracle trials took 124-265 ms within a single 40 s run). The median raw
    time of a 30 s run then depends on how much of it fell in slow periods:
    across runs the quartile spread of median operation time was 11-44%,
    depending on the workload. The ratio of an operation's time to the mean
    of two reference timings, one on each side of it, moved by a few percent
    at most, provided the reference does the same kind of work: matrix
    products and elementwise maps at the model's rows and width (``"blas"``)
    around training steps, and many NumPy calls on 3 x 16 arrays
    (``"calls"``) around oracle trials.

    The reference uses NumPy only, never the library, so a change to the
    library cannot change it.
    """

    def __init__(self, kind: str, rows: int = 3, dim: int = 16, repeats: int = 1):
        rng = np.random.Generator(np.random.Philox(12345))
        self.kind = kind
        self.repeats = repeats
        self.x = rng.standard_normal((rows, dim))
        self.w1 = rng.standard_normal((dim, 4 * dim)) / math.sqrt(dim)
        self.w2 = rng.standard_normal((4 * dim, dim)) / math.sqrt(4 * dim)

    def _blas(self) -> float:
        h = np.tanh(self.x @ self.w1)
        y = h @ self.w2
        y = y / np.sqrt(np.mean(y * y, axis=1) + 1e-6)[:, None]
        return float(np.sum(y))

    def _calls(self) -> float:
        acc = 0.0
        for _ in range(60):
            x = np.asarray(self.x, dtype=np.float64)
            if not np.all(np.isfinite(x)):
                raise FloatingPointError("reference input went non-finite")
            r = np.sqrt(np.mean(x * x, axis=1))
            acc += float(np.sum(np.tanh(x @ self.w1[:, :16]) * x / r[:, None]))
        return acc

    def time_ms(self) -> float:
        work = self._blas if self.kind == "blas" else self._calls
        t0 = clock()
        for _ in range(self.repeats):
            work()
        return (clock() - t0) * 1e3


def input_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for benchmark inputs; streams keep independent draws apart."""
    return np.random.Generator(np.random.Philox(key=[int(seed) % 2**64, int(stream)]))


class SetupTimes:
    """Set-up samples, each with the reference timed right before and after it.

    Set-up takes milliseconds, so its raw time swings with the machine's
    speed as much as an operation's does. ``seconds`` therefore reports the
    median set-up cost (time over the bracketing reference time) times a
    fixed reference time, the spec's ``ref_ms``: set-up seconds of the machine
    the benchmark was built on. Over three bytes-wide runs the
    median set-up cost stayed within 3%, while the machine's own speed, even
    that of its fastest 5% of reference timings, moved by 25%.
    """

    def __init__(self):
        self.rows: list[tuple[float, float]] = []  # (ms, bracketing reference ms)

    def add(self, ms: float, ref_ms: float) -> None:
        self.rows.append((ms, ref_ms))

    def cost(self) -> float:
        return statistics.median(ms / ref_ms for ms, ref_ms in self.rows)

    def seconds(self, ref_ms: float) -> float:
        return self.cost() * ref_ms / 1e3

    def note(self) -> str:
        raw = statistics.median(ms for ms, _ in self.rows)
        return f"set-up: {len(self.rows)} samples, median {raw:.4f} ms, cost {self.cost():.4f}"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _round_schedule(seconds: float, trace: bool, ops_done, min_rounds: int = 1):
    """Yield (round index, traced) until time is up, enough ops are timed and
    at least ``min_rounds`` rounds have run.

    With tracing, rounds alternate untraced and traced, so the two kinds see
    the same machine conditions and their ratio is the tracing overhead.
    """
    started = clock()
    r = 0
    while True:
        yield r, trace and r % 2 == 1
        r += 1
        if (clock() - started >= seconds and ops_done() >= MIN_OPS
                and r >= max(min_rounds, 2 if trace else 1)):
            return


def _p90(values) -> float:
    return float(np.percentile(np.asarray(values), 90))


def _end_to_end(out: Outcome, times: OpTimes, setup_s: float, final_loss: float) -> None:
    cost = times.cost(False)
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "op_cost": (statistics.median(cost), "ratio"),
        "op_cost_p90": (_p90(cost), "ratio"),
        "final_loss": (final_loss, "nats"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _common_per_layer(times: OpTimes, round_s: list[float]) -> dict:
    """Per-layer entries every workload reports: raw times and cost per variant."""
    untraced = times.ms(False)
    m = {
        "op_ms": statistics.median(untraced),
        "op_ms_p90": _p90(untraced),
        "wall_s": statistics.median(round_s),
        "ref_ms": statistics.median(times.ref_ms()),
    }
    for v in VARIANTS:
        cost = times.cost(False, v)
        m[f"op_cost.{v}"] = statistics.median(cost) if cost else 0.0
    m["trace_overhead"] = (statistics.median(times.cost(True))
                           / statistics.median(times.cost(False)) - 1.0)
    return m


def _finish_per_layer(out: Outcome, m: dict, hooks: Hooks, targets) -> None:
    """Attach units and the failure share, and drop metrics whose hooks are missing."""
    m["fail_frac"] = out.failed / out.attempted if out.attempted else 0.0
    lost = {layer for mod, attr, layer in targets if f"{mod}.{attr}" in hooks.missing}
    out.metrics = {}
    for key, unit in PER_LAYER:
        deps = next((d for prefix, d in _DEPENDS.items() if key.startswith(prefix)), ())
        if lost & set(deps):
            continue
        out.metrics[key] = (float(m.get(key, 0.0)), unit)


def _write_spans(tracer: Tracer, work_dir: str, name: str, seed: int) -> str:
    path = os.path.join(work_dir, f"spans-{name}-seed{seed}.tsv")
    tracer.write_tsv(path)
    return path


# --------------------------------------------------------------------------
# Training workloads


def markov_corpus(seed: int, size: int) -> bytes:
    """Order-1 Markov byte source whose transition rows come from the seed.

    Rows are sparse-ish Dirichlet draws, so the next byte is predictable from
    the current one and a byte-level model has something to learn.
    """
    rng = input_rng(seed, 1)
    trans = rng.dirichlet(np.full(256, 0.05), size=256)
    cum = np.cumsum(trans, axis=1)
    cum[:, -1] = 1.0
    rows = [row.tolist() for row in cum]
    draws = rng.random(size).tolist()
    out = bytearray(size)
    state = int(rng.integers(0, 256))
    for i, u in enumerate(draws):
        state = min(bisect_right(rows[state], u), 255)
        out[i] = state
    return bytes(out)


class StepClock:
    """Task wrapper that times one ``train_model`` call from outside the library.

    ``begin`` times the reference and notes the call. ``train_model`` draws
    exactly one batch per step, at the start of the step, so its first draw
    ends the set-up (building the model and the optimizer state). On each
    draw the wrapper closes the previous step or the set-up, times the
    reference, then opens the next step, so the reference falls between
    steps and not inside one. Calling ``close`` after ``train_model``
    returns closes the last step (or, for a call of zero steps, the set-up)
    and times the reference once more, so the set-up and every step have a
    reference on both sides.
    """

    def __init__(self, task, reference: Reference, tracer: Tracer | None = None):
        self.task = task
        self.reference = reference
        self.tracer = tracer
        self.called = 0.0
        self.setup_ms = 0.0
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ref_ms: list[float] = []

    def begin(self) -> None:
        self.ref_ms.append(self.reference.time_ms())
        self.called = clock()

    def close(self) -> None:
        now = clock()
        if self.starts:
            self.ends.append(now)
        else:
            self.setup_ms = (now - self.called) * 1e3
        self.ref_ms.append(self.reference.time_ms())

    def batch(self, rng, batch_size):
        self.close()
        self.starts.append(clock())
        if self.tracer is None:
            return self.task.batch(rng, batch_size)
        with self.tracer.span("batch"):
            return self.task.batch(rng, batch_size)

    def setup(self) -> tuple[float, float]:
        """(set-up wall ms, bracketing reference ms)."""
        return self.setup_ms, (self.ref_ms[0] + self.ref_ms[1]) / 2

    def steps(self) -> list[tuple[float, float]]:
        """(wall ms, bracketing reference ms) of each step."""
        return [((e - s) * 1e3, (self.ref_ms[i + 1] + self.ref_ms[i + 2]) / 2)
                for i, (s, e) in enumerate(zip(self.starts, self.ends))]


def _train_rng(seed: int, sub: int) -> np.random.Generator:
    """Generator handed to ``train_model``: model init and batches of a sub-seed."""
    return input_rng(seed, 10 + sub)


def _model_config(spec: TrainSpec, variant: str):
    return model.ModelConfig(
        layers=spec.layers, hidden_dim=spec.hidden_dim, attn_heads=spec.attn_heads,
        vocab=spec.vocab, context=spec.context, norm_variant=variant,
        norm_heads=spec.norm_heads,
    )


def _attn_flops(spec: TrainSpec) -> float:
    """Closed-form attention flops per step (2 per multiply-add), all layers.

    Forward: q/k/v/out projections 4*B*T*D^2, scores and mixing 2*B*T^2*D.
    Backward: twice the projections plus the input grads, 8*B*T*D^2, and
    four T^2 contractions, 4*B*T^2*D.
    """
    b, t, d = spec.batch_size, spec.context, spec.hidden_dim
    macs = 12 * b * t * d * d + 6 * b * t * t * d
    return 2.0 * macs * spec.layers


def _ffn_flops(spec: TrainSpec, ffn_mult: int) -> float:
    """Closed-form FFN flops per step: 2 matmuls forward, 4 backward."""
    b, t, d = spec.batch_size, spec.context, spec.hidden_dim
    return 2.0 * 6 * b * t * d * (ffn_mult * d) * spec.layers


def _gflops(flops_per_step: float, ms_per_step: float) -> float:
    return flops_per_step / (ms_per_step * 1e-3) / 1e9 if ms_per_step > 0 else 0.0


def _direction_error(cfg, task, seed: int, batch_size: int) -> float:
    """Relative gap between <grad, v> and a central difference along v.

    The point is the initial model moved by a small random offset, so the
    dynamic coefficients (beta = 0 at initialization) are active.
    """
    rng = input_rng(seed, 2)
    m = model.build_model(cfg, np.random.Generator(np.random.Philox(seed)))
    for p in m.params.values():
        p += 0.02 * rng.standard_normal(p.shape)
    tokens, targets = task.batch(rng, batch_size)
    loss, grads = model.loss_and_grads(m, tokens, targets)
    direction = {}
    for n, p in m.params.items():
        d = rng.standard_normal(p.shape)
        direction[n] = d / np.linalg.norm(d) / math.sqrt(len(m.params))
    analytic = sum(float(np.sum(grads[n] * d)) for n, d in direction.items())

    def loss_at(step: float) -> float:
        shifted = {n: p + step * direction[n] for n, p in m.params.items()}
        return model.model_loss(shifted, cfg, tokens, targets)

    numeric = (loss_at(DIRECTION_STEP) - loss_at(-DIRECTION_STEP)) / (2.0 * DIRECTION_STEP)
    roundoff = DIRECTION_FLOOR_ULPS * np.finfo(float).eps * abs(loss) / (2.0 * DIRECTION_STEP)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), roundoff / DIRECTION_BOUND)


def _update_error(seed: int) -> float:
    """Relative gap between the library's clip + AdamW and this file's own update.

    Three steps on random arrays, one decayed and one exempt from decay,
    with gradients whose global norm is above the clip threshold, so step
    size, bias correction, weight decay and clipping all count. The gap is
    that of each array's total displacement, which the learning rate scales.
    """
    rng = input_rng(seed, 5)
    hyper = optim.AdamWConfig(lr=1e-3, beta1=0.9, beta2=0.95, eps=1e-8, weight_decay=0.1)
    max_norm = 1.0
    decay = {"w": True, "gamma": False}
    start = {"w": rng.standard_normal((8, 4)), "gamma": 1.0 + rng.standard_normal(4)}
    params = {n: p.copy() for n, p in start.items()}
    state = optim.OptimizerState.init(params, decay)
    mine = {n: p.copy() for n, p in start.items()}
    m = {n: np.zeros_like(p) for n, p in start.items()}
    v = {n: np.zeros_like(p) for n, p in start.items()}
    for t in range(1, 4):
        grads = {n: 3.0 * rng.standard_normal(p.shape) for n, p in start.items()}
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        scale = min(1.0, max_norm / norm)
        for n, g in grads.items():
            g = g * scale
            m[n] = hyper.beta1 * m[n] + (1.0 - hyper.beta1) * g
            v[n] = hyper.beta2 * v[n] + (1.0 - hyper.beta2) * g * g
            step = hyper.lr * (m[n] / (1.0 - hyper.beta1**t)) / (
                np.sqrt(v[n] / (1.0 - hyper.beta2**t)) + hyper.eps)
            if decay[n]:
                step = step + hyper.lr * hyper.weight_decay * mine[n]
            mine[n] = mine[n] - step
        optim.clip_gradients(grads, max_norm)
        optim.adamw_step(state, params, grads, hyper, lr=hyper.lr)
    return max(float(np.linalg.norm((params[n] - start[n]) - (mine[n] - start[n])))
               / float(np.linalg.norm(mine[n] - start[n])) for n in start)


def run_training(spec: TrainSpec, seed: int, seconds: float, trace: bool,
                 work_dir: str) -> Outcome:
    out = Outcome()
    corpus_path = None
    try:
        if spec.task == "bytes":
            fd, corpus_path = tempfile.mkstemp(prefix="corpus-", suffix=".bin", dir=work_dir)
            with os.fdopen(fd, "wb") as fh:
                fh.write(markov_corpus(seed, spec.corpus_bytes))
        _train_rounds(spec, seed, seconds, trace, corpus_path, work_dir, out)
    finally:
        if corpus_path is not None:
            os.unlink(corpus_path)
    return out


def _make_task(spec: TrainSpec, corpus_path):
    if spec.task == "copy":
        return training.CopyTask(vocab=spec.vocab, context=spec.context)
    return training.ByteFileTask(corpus_path, context=spec.context)


def _train_rounds(spec, seed, seconds, trace, corpus_path, work_dir, out: Outcome) -> None:
    configs = {v: _model_config(spec, v) for v in spec.variants}
    task = _make_task(spec, corpus_path)
    reference = Reference("blas", spec.batch_size * spec.context, spec.hidden_dim, repeats=2)
    setup = SetupTimes()

    # the set-up of train_model alone: calls of zero steps
    no_steps = training.TrainConfig(steps=0, batch_size=spec.batch_size, warmup_steps=0)
    for i in range(SETUP_WARMUP + SETUP_REPEATS):
        for cfg in configs.values():
            timer = StepClock(task, reference)
            timer.begin()
            training.train_model(cfg, no_steps, timer, _train_rng(seed, 0))
            timer.close()
            if i >= SETUP_WARMUP:
                setup.add(*timer.setup())

    for v, cfg in configs.items():
        err = _direction_error(cfg, task, seed, spec.batch_size)
        out.notes.append(f"direction check {v}: rel_err={err:.2e} (bound {DIRECTION_BOUND:g})")
        if not err <= DIRECTION_BOUND:
            out.problems.append(f"{v}: loss gradient disagrees with a central "
                                f"difference (rel_err={err:.2e})")
    err = _update_error(seed)
    out.notes.append(f"update check: rel_err={err:.2e} (bound {UPDATE_BOUND:g})")
    if not err <= UPDATE_BOUND:
        out.problems.append(f"clip + AdamW update disagrees with the reference update "
                            f"(rel_err={err:.2e})")

    # no warmup, so a short round already trains: see the progress check below
    tcfg = training.TrainConfig(steps=spec.round_steps, batch_size=spec.batch_size,
                                warmup_steps=0)
    tracer = Tracer()
    hooks = _hooks(tracer, TRAIN_HOOKS)
    out.missing = list(hooks.missing)
    times = OpTimes()
    round_s = []
    digests: dict = {}  # (variant, sub-seed) -> digest of the loss sequence
    finals: dict = {}  # (variant, sub-seed) -> mean loss of the last quarter

    for r, traced in _round_schedule(seconds, trace, lambda: len(times), spec.loss_seeds):
        slot = r % spec.loss_seeds
        # rotate the variant order so no variant always runs first in a round
        k = r % len(spec.variants)
        order = spec.variants[k:] + spec.variants[:k]
        round_start, round_ref_ms = clock(), 0.0
        for v in order:
            sub = spec.variants.index(v) * spec.loss_seeds + slot
            steps = StepClock(task, reference, tracer if traced else None)
            out.attempted += spec.round_steps
            try:
                steps.begin()
                with (hooks if traced else nullcontext()):
                    result = training.train_model(
                        configs[v], tcfg, steps, _train_rng(seed, sub))
                steps.close()
            except (training.TrainingDiverged, FloatingPointError, ValueError) as exc:
                done = max(len(steps.starts) - 1, 0)
                out.failed += spec.round_steps - done
                out.problems.append(f"{v}: step {done} of round {r} failed: {exc}")
                continue
            finally:
                round_ref_ms += sum(steps.ref_ms)
            if not traced:
                setup.add(*steps.setup())
            for ms, ref_ms in steps.steps():
                times.add(v, traced, ms, ref_ms)
            losses = result.curve.losses()
            if not np.all(np.isfinite(losses)):
                out.problems.append(f"{v}: non-finite loss in round {r}")
            digest = hashlib.sha256(np.ascontiguousarray(losses).tobytes()).hexdigest()[:16]
            if digests.setdefault((v, sub), digest) != digest:
                out.problems.append(f"{v}: loss sequence of round {r} differs bitwise "
                                    f"from round {slot} of the same sub-seed")
            # a broken update leaves the loss where it started
            tail = float(np.mean(losses[-max(1, len(losses) // 4):]))
            if not tail < losses[0]:
                out.problems.append(f"{v}: loss did not fall in round {r}: first "
                                    f"{losses[0]!r}, last quarter mean {tail!r}")
            finals[v, sub] = tail
        round_s.append(clock() - round_start - round_ref_ms / 1e3)

    for (v, sub), digest in sorted(digests.items()):
        out.notes.append(f"loss digest {v} sub-seed {sub}: {digest} ({spec.round_steps} steps, "
                         f"last quarter mean loss {finals[v, sub]!r})")
    for v in spec.variants:
        if times.ms(False, v):
            out.notes.append(f"{v}: median step {statistics.median(times.ms(False, v)):.3f} ms, "
                             f"cost {statistics.median(times.cost(False, v)):.4f}")
    untraced = times.ms(False)
    if untraced:
        tokens_s = spec.batch_size * spec.context / (statistics.median(untraced) / 1e3)
        out.notes.append(f"tokens_per_s = {tokens_s:.1f} (batch x context / median step ms "
                         f"{statistics.median(untraced):.3f})")
    out.notes.append(f"{len(untraced)} untraced steps, {len(times.ms(True))} traced steps, "
                     f"{len(round_s)} rounds")
    if not untraced or (trace and not times.ms(True)):
        return
    out.notes.append(setup.note())
    if not trace:
        _end_to_end(out, times, setup.seconds(spec.ref_ms), statistics.fmean(finals.values()))
        return

    traced_steps = times.ms(True)
    n = len(traced_steps)
    out.traced_op_ms = statistics.fmean(traced_steps)
    per_step = lambda s: tracer.self_time(s) * 1e3 / n  # noqa: E731
    m = _common_per_layer(times, round_s)
    for slot in SLOTS:
        m[f"norm_fwd.{slot}.ms"] = per_step(f"norm_fwd.{slot}")
        m[f"norm_bwd.{slot}.ms"] = per_step(f"norm_bwd.{slot}")
    m["norm_fwd.calls"] = sum(tracer.calls(s) for s in tracer.names_with_prefix("norm_fwd.")) / n
    m["norm_bwd.calls"] = sum(tracer.calls(s) for s in tracer.names_with_prefix("norm_bwd.")) / n
    for layer in ("attn_fwd", "attn_bwd", "ffn_fwd", "ffn_bwd", "loss", "clip", "adamw", "batch"):
        m[f"{layer}.ms"] = per_step(layer)
    ffn_mult = next(iter(configs.values())).ffn_mult
    m["attn.gflops_s"] = _gflops(_attn_flops(spec), m["attn_fwd.ms"] + m["attn_bwd.ms"])
    m["ffn.gflops_s"] = _gflops(_ffn_flops(spec, ffn_mult), m["ffn_fwd.ms"] + m["ffn_bwd.ms"])
    m["model_fwd_self.ms"] = per_step("model_fwd")
    m["model_bwd_self.ms"] = per_step("model_bwd")
    m["adamw.params"] = statistics.fmean(model.count_parameters(c) for c in configs.values())
    covered = sum(tracer.self_s.values()) * 1e3 / n
    m["step_other.ms"] = out.traced_op_ms - covered
    _finish_per_layer(out, m, hooks, TRAIN_HOOKS)
    out.spans_path = _write_spans(tracer, work_dir, spec.task, seed)


# --------------------------------------------------------------------------
# Oracle workload


def _trial_grid(spec: GradcheckSpec):
    """Every (variant, dim) pair once. Rows alternate 1 and 3 in a checkerboard.

    The layout is fixed and only the values come from the seed, so each run
    times the same mix of trial sizes; an odd cell count puts the median
    inside one cell's cluster of times rather than in the gap between two.
    """
    return [(v, d, 3 if (vi + di) % 2 else 1)
            for vi, v in enumerate(VARIANTS) for di, d in enumerate(spec.dims)]


def _trial_kwargs(variant: str, dim: int, rng: np.random.Generator) -> dict:
    kwargs = {"eps": float(rng.choice((0.0, 1e-6)))}
    if variant == "mh_seednorm":
        heads = [h for h in (2, 4) if dim % h == 0] or [1]
        kwargs["n_heads"] = int(rng.choice(heads))
        kwargs["dim_scaled"] = bool(rng.integers(0, 2))
    return kwargs


def run_gradcheck(spec: GradcheckSpec, seed: int, seconds: float, trace: bool,
                  work_dir: str) -> Outcome:
    out = Outcome()
    cfg = model.ModelConfig(
        layers=spec.check_layers, hidden_dim=spec.check_dim, attn_heads=spec.check_heads,
        vocab=spec.check_vocab, context=spec.check_context, norm_variant="seednorm",
    )

    reference = Reference("calls")
    setup = SetupTimes()

    def build():
        m = model.build_model(cfg, np.random.Generator(np.random.Philox(seed)))
        rng = input_rng(seed, 3)
        shape = (spec.check_batch, spec.check_context)
        return m, rng.integers(0, cfg.vocab, size=shape), rng.integers(0, cfg.vocab, size=shape)

    def time_setup(keep=True):
        before = reference.time_ms()
        t0 = clock()
        for _ in range(SETUP_BUILDS):
            built = build()
        ms = (clock() - t0) * 1e3 / SETUP_BUILDS
        if keep:
            setup.add(ms, (before + reference.time_ms()) / 2)
        return built

    for i in range(SETUP_WARMUP + SETUP_REPEATS):
        check_model, tokens, targets = time_setup(keep=i >= SETUP_WARMUP)
    names = [n for n, _ in model.parameter_specs(cfg)]
    check_arrays = [check_model.params[n] for n in names]

    def check_loss_fn() -> float:
        return model.model_loss(check_model.params, cfg, tokens, targets)

    check_loss = check_loss_fn()

    grid = _trial_grid(spec)
    rng = input_rng(seed, 4)
    tracer = Tracer()
    hooks = _hooks(tracer, GC_HOOKS)
    out.missing = list(hooks.missing)
    times = OpTimes()
    round_s, check_s = [], []
    worst_trial, worst_check = 0.0, 0.0

    rechecked = []

    def one_trial(variant, dim, rows, traced):
        kwargs = _trial_kwargs(variant, dim, rng)
        point = rng.bit_generator.state
        t0 = clock()
        with (tracer.span("trial") if traced else nullcontext()):
            errors = gradcheck.run_trial(variant, dim, rows, rng, **kwargs)
        ms, err = (clock() - t0) * 1e3, max(errors.values())
        if err > TRIAL_BOUND:
            again = []
            for step in TRIAL_RECHECK_STEPS:
                replay = np.random.Generator(np.random.Philox())
                replay.bit_generator.state = point
                again.append(max(gradcheck.run_trial(variant, dim, rows, replay, step=step,
                                                     **kwargs).values()))
            rechecked.append(f"{variant} D={dim} rows={rows}: {err:.2e} at step 1e-5, "
                             + ", ".join(f"{e:.2e} at {s:g}"
                                         for s, e in zip(TRIAL_RECHECK_STEPS, again)))
            err = min(err, *again)
        return ms, err

    for r, traced in _round_schedule(seconds, trace, lambda: len(times)):
        time_setup()
        round_start, round_ref_ms = clock(), 0.0
        with (hooks if traced else nullcontext()):
            for _ in range(spec.grid_passes):
                refs = [reference.time_ms()]
                timed = []  # (variant, ms) per trial, None for a trial that raised
                for variant, dim, rows in grid:
                    out.attempted += 1
                    try:
                        ms, err = one_trial(variant, dim, rows, traced)
                    except (FloatingPointError, ValueError) as exc:
                        out.failed += 1
                        out.problems.append(f"trial {variant} D={dim} rows={rows} raised: {exc}")
                        timed.append(None)
                    else:
                        worst_trial = max(worst_trial, err)
                        if not err <= TRIAL_BOUND:
                            out.failed += 1
                            out.problems.append(f"trial {variant} D={dim} rows={rows}: "
                                                f"rel_err={err:.2e} > {TRIAL_BOUND:g}")
                        timed.append((variant, ms))
                    refs.append(reference.time_ms())
                for i, trial in enumerate(timed):
                    if trial is not None:
                        times.add(trial[0], traced, trial[1], (refs[i] + refs[i + 1]) / 2)
                round_ref_ms += sum(refs)
        # whole-model check, never traced: its layer calls are not oracle trials
        out.attempted += 1
        t0 = clock()
        _, grads = model.loss_and_grads(check_model, tokens, targets)
        coarse, fine = (backward.central_difference(check_loss_fn, check_arrays, step=h)
                        for h in MODEL_CHECK_STEPS)
        numeric = [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]
        err = max(backward.relative_error(grads[n], f, floor=1e-5)
                  for n, f in zip(names, numeric))
        check_s.append(clock() - t0)
        worst_check = max(worst_check, err)
        if not err <= MODEL_CHECK_BOUND:
            out.failed += 1
            out.problems.append(f"whole-model check round {r}: rel_err={err:.2e} "
                                f"> {MODEL_CHECK_BOUND:g}")
        round_s.append(clock() - round_start - round_ref_ms / 1e3)

    out.notes.append(f"worst trial rel_err={worst_trial:.2e} (bound {TRIAL_BOUND:g}), "
                     f"worst whole-model rel_err={worst_check:.2e} (bound {MODEL_CHECK_BOUND:g})")
    out.notes.extend(f"rechecked trial {r}" for r in rechecked)
    out.notes.append(f"{len(times.ms(False))} untraced trials, {len(times.ms(True))} traced "
                     f"trials, {len(round_s)} rounds of {len(grid) * spec.grid_passes} trials "
                     f"and one whole-model check")
    if not times.ms(False) or (trace and not times.ms(True)):
        return out
    out.notes.append(setup.note())
    if not trace:
        _end_to_end(out, times, setup.seconds(spec.ref_ms), check_loss)
        return out

    traced_trials = times.ms(True)
    n = len(traced_trials)
    out.traced_op_ms = statistics.fmean(traced_trials)
    m = _common_per_layer(times, round_s)
    evals = tracer.calls("layer_fwd", "fd")
    m["fd.evals"] = evals / n
    m["fd.eval_us"] = tracer.total_time("fd") * 1e6 / evals if evals else 0.0
    analytic = tracer.total_time("layer_fwd", "trial") + tracer.total_time("layer_bwd", "trial")
    m["gc.analytic_us"] = analytic * 1e6 / n
    m["gc.model_check_s"] = statistics.median(check_s)
    _finish_per_layer(out, m, hooks, GC_HOOKS)
    out.spans_path = _write_spans(tracer, work_dir, "gradcheck", seed)
    return out
