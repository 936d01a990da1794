"""droughtcast: hybrid recurrent/embedding forecaster for county drought
scores, with the full experiment harness (ablations, cross-validation,
location transfer, introspection)."""

from .autodiff import RngState, Tensor, backward, grad_check
from .data import SampleSet, build_samples, load_statics, load_timeseries
from .metrics import MetricsReport, evaluate, paired_t_test
from .model import AblationConfig, HybridModel, ModelConfig
from .training import LrSchedule, TrainRunConfig, fit, load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "AblationConfig",
    "HybridModel",
    "LrSchedule",
    "MetricsReport",
    "ModelConfig",
    "RngState",
    "SampleSet",
    "Tensor",
    "TrainRunConfig",
    "backward",
    "build_samples",
    "evaluate",
    "fit",
    "grad_check",
    "load_checkpoint",
    "load_statics",
    "load_timeseries",
    "paired_t_test",
    "save_checkpoint",
    "__version__",
]
