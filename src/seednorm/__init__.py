"""Dynamic normalization layers with hand-derived gradients.

The package implements a family of RMS-normalization layers whose output
scale is a bounded function of the input (single-head, multi-head, and a
condition-modulated form), next to static baselines (RMSNorm, LayerNorm,
and a tanh-squashing layer), each with a manual backward pass verified
against finite differences. A desk-scale transformer trainer and a CLI sit
on top.
"""

from .backward import (
    GradBundle,
    central_difference,
    dyt_backward,
    finite_difference_jacobian,
    layernorm_backward,
    mh_seednorm_backward,
    relative_error,
    rmsnorm_backward,
    seednorm_backward,
)
from .core import Workspace, make_rng, spawn_seeds
from .forward import (
    ForwardCache,
    ada_seednorm_forward,
    dyt_forward,
    layernorm_forward,
    mh_seednorm_forward,
    rmsnorm_forward,
    seednorm_forward,
)
from .gradcheck import VARIANTS, check_variant, run_gradcheck, run_trial
from .model import (
    Model,
    ModelConfig,
    build_model,
    count_parameters,
    load_checkpoint,
    loss_and_grads,
    model_forward,
    parameter_specs,
    save_checkpoint,
)
from .optim import AdamWConfig, OptimizerState, adamw_step, clip_gradients, decay_flags
from .params import ConditionParams, NormParams
from .probes import (
    CostEstimate,
    ProbeReport,
    estimate_cost,
    probe_dot_variance,
    probe_dyt_rmsnorm_ode,
    probe_scale_insensitivity,
)
from .training import (
    ByteFileTask,
    CopyTask,
    LossCurve,
    PairedCurves,
    TrainConfig,
    TrainingDiverged,
    compare_runs,
    train_model,
)

__version__ = "0.1.0"

__all__ = [
    "AdamWConfig",
    "ByteFileTask",
    "ConditionParams",
    "CopyTask",
    "CostEstimate",
    "ForwardCache",
    "GradBundle",
    "LossCurve",
    "Model",
    "ModelConfig",
    "NormParams",
    "OptimizerState",
    "PairedCurves",
    "ProbeReport",
    "TrainConfig",
    "TrainingDiverged",
    "VARIANTS",
    "Workspace",
    "ada_seednorm_forward",
    "adamw_step",
    "build_model",
    "central_difference",
    "check_variant",
    "clip_gradients",
    "compare_runs",
    "count_parameters",
    "decay_flags",
    "dyt_backward",
    "dyt_forward",
    "estimate_cost",
    "finite_difference_jacobian",
    "layernorm_backward",
    "layernorm_forward",
    "load_checkpoint",
    "loss_and_grads",
    "make_rng",
    "mh_seednorm_backward",
    "mh_seednorm_forward",
    "model_forward",
    "parameter_specs",
    "probe_dot_variance",
    "probe_dyt_rmsnorm_ode",
    "probe_scale_insensitivity",
    "relative_error",
    "rmsnorm_backward",
    "rmsnorm_forward",
    "run_gradcheck",
    "run_trial",
    "save_checkpoint",
    "seednorm_backward",
    "seednorm_forward",
    "spawn_seeds",
    "train_model",
]
