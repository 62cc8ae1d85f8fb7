"""Randomized agreement suite: analytic backward vs central differences.

Each trial draws a layer configuration and a random point (inputs, upstream
gradient, and parameters all standard normal), runs the hand-derived
backward, runs the finite-difference oracle at the same point, and records
the worst relative error across every gradient array.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

# run_trial calls the layers through this module (see _LAYER_FNS), so a test
# or a tracer can swap one here.
from .backward import (  # noqa: F401
    dyt_backward,
    finite_difference_jacobian,
    layernorm_backward,
    mh_seednorm_backward,
    relative_error,
    rmsnorm_backward,
    seednorm_backward,
)
from .core import make_rng, worst
from .forward import (  # noqa: F401
    dyt_forward,
    layernorm_forward,
    mh_seednorm_forward,
    rmsnorm_forward,
    seednorm_forward,
)
from .norms import NORMS
from .params import NormParams

VARIANTS = tuple(NORMS)
DEFAULT_DIMS = (2, 4, 8, 16, 64)
_LAYER_FNS = sys.modules[__name__]


@dataclass
class VariantCheck:
    """Worst-case agreement for one layer variant over many random trials."""

    variant: str
    trials: int
    max_rel_error: float
    per_param_max: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        # wall time is opt-in so that equal seeds give byte-equal reports
        out = asdict(self)
        if not include_timing:
            del out["elapsed_s"]
        return out


def run_trial(
    variant: str,
    dim: int,
    rows: int,
    rng: np.random.Generator,
    *,
    n_heads: int = 1,
    eps: float = 0.0,
    dim_scaled: bool = False,
    scalar_alpha: bool = False,
    step: float = 1e-5,
) -> dict:
    """One random point: returns relative errors keyed by gradient name."""
    norm = NORMS.get(variant)
    if norm is None:
        raise ValueError(f"unknown variant {variant!r}")
    x = rng.standard_normal((rows, dim))
    u = rng.standard_normal((rows, dim))
    fields = {"gamma": rng.standard_normal(dim), **norm.draw(rng, dim, scalar_alpha)}
    p = NormParams(**fields, eps=eps or norm.oracle_zero_eps, n_heads=n_heads,
                   dim_scaled=dim_scaled)
    forward = getattr(_LAYER_FNS, f"{variant}_forward")
    _, cache = forward(x, p)
    analytic = getattr(_LAYER_FNS, f"{variant}_backward")(cache, u)
    numeric = finite_difference_jacobian(
        forward, x, u, p, [name for _, name in norm.params], step
    )

    # Floor 1e-4: central differences at step 1e-5 on an O(10) probe value
    # carry ~1e-10 absolute noise, so entries under the floor are compared
    # at absolute scale floor*tolerance instead of relatively.
    floor = 1e-4
    errors = {}
    for name in ("d_x", "d_gamma", "d_beta", "d_alpha"):
        want = getattr(numeric, name)
        if want is not None:
            errors[name] = relative_error(getattr(analytic, name), want, floor=floor)
    return errors


def check_variant(
    variant: str,
    dims=DEFAULT_DIMS,
    trials: int = 100,
    seed: int = 0,
    *,
    heads=(2, 4),
    step: float = 1e-5,
) -> VariantCheck:
    """Run the full randomized suite for one variant."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if any(h < 1 for h in heads):
        raise ValueError(f"heads must all be >= 1, got {list(heads)}")
    if len(dims) == 0 or any(d < 1 for d in dims):
        raise ValueError(f"dims must be one or more widths >= 1, got {list(dims)}")
    if variant not in NORMS:
        raise ValueError(f"unknown variant {variant!r}")
    rng = make_rng(seed)
    per_param: dict = {}
    extras: dict = {}
    started = time.perf_counter()
    for _ in range(trials):
        dim = int(rng.choice(dims))
        rows = int(rng.choice((1, 3)))
        eps = float(rng.choice((0.0, 1e-6)))
        kwargs = {}
        if NORMS[variant].multi_head:
            valid = [h for h in heads if dim % h == 0] or [1]
            kwargs["n_heads"] = int(rng.choice(valid))
            kwargs["dim_scaled"] = bool(rng.integers(0, 2))
        if variant == "seednorm":
            kwargs["scalar_alpha"] = bool(rng.random() < 0.15)
        errors = run_trial(variant, dim, rows, rng, eps=eps, step=step, **kwargs)
        for key, err in errors.items():
            per_param[key] = worst(per_param.get(key, 0.0), err)
        if variant == "rmsnorm" and eps == 0.0:
            x = rng.standard_normal((2, dim))
            u = rng.standard_normal((2, dim))
            p = NormParams(gamma=rng.standard_normal(dim), eps=0.0)
            _, cache = rmsnorm_forward(x, p)
            b = rmsnorm_backward(cache, u)
            num = np.abs(np.sum(b.d_x * x, axis=1))
            den = np.linalg.norm(b.d_x, axis=1) * np.linalg.norm(x, axis=1) + 1e-30
            extras["dx_dot_x_max"] = worst(
                extras.get("dx_dot_x_max", 0.0), float(np.max(num / den))
            )
    return VariantCheck(
        variant=variant,
        trials=trials,
        max_rel_error=worst(0.0, *per_param.values()),
        per_param_max=per_param,
        extras=extras,
        elapsed_s=time.perf_counter() - started,
    )


def run_gradcheck(
    variants=VARIANTS,
    dims=DEFAULT_DIMS,
    trials: int = 100,
    seed: int = 0,
    *,
    heads=(2, 4),
    step: float = 1e-5,
    tolerance: float = 1e-5,
    timing: bool = False,
) -> dict:
    """Suite across variants. The report's pass flag is max error <= tolerance."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    checks = [
        check_variant(v, dims=dims, trials=trials, seed=seed + i, heads=heads, step=step)
        for i, v in enumerate(variants)
    ]
    overall = worst(0.0, *(c.max_rel_error for c in checks))
    return {
        "command": "gradcheck",
        "seed": seed,
        "dims": [int(d) for d in dims],
        "trials": trials,
        "step": step,
        "tolerance": tolerance,
        "variants": [c.to_dict(include_timing=timing) for c in checks],
        "max_rel_error": overall,
        "pass": bool(overall <= tolerance),
    }
