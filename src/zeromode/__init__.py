"""Conservation-corrected spectral surrogates for PDE trajectories.

The package covers the full loop: manufacture conserving trajectory
datasets with reference solvers, train a small spectral-convolution
surrogate on next-step pairs, correct each prediction's zero DFT mode so
the conserved integral is restored exactly, and report the effect.

Setting ``ZEROMODE_THREADS`` caps the BLAS/FFT thread pools; it must take
effect before numpy loads, hence the shim below runs first.
"""

import os as _os

_THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
_cap = _os.environ.get("ZEROMODE_THREADS")
if _cap:
    for _var in _THREAD_CAP_VARS:
        _os.environ.setdefault(_var, _cap)
del _os, _cap

from .grid import (
    Boundary,
    GridField,
    GridSpec,
    Precision,
    Spectrum,
    fft_forward,
    l2_norm,
)
from .correction import (
    ConservationMask,
    Variant,
    ConservedQuantity,
    check_error_reduction,
    correct_spectrum,
    encode_conserved,
    error_decomposition,
)
from .datasets import (
    DatasetConfig,
    Problem,
    ProblemParams,
    TrajectoryDataset,
    desk_config,
    generate_dataset,
    paper_config,
)
from .datafile import read_dataset, write_dataset
from .model import OperatorConfig, OperatorModel, init_model, load_checkpoint, save_checkpoint
from .training import TrainConfig, rollout, train

__all__ = [
    "Boundary", "GridField", "GridSpec", "Precision", "Spectrum",
    "fft_forward", "l2_norm",
    "ConservationMask", "ConservedQuantity", "check_error_reduction",
    "correct_spectrum", "encode_conserved", "error_decomposition", "Variant",
    "DatasetConfig", "Problem", "ProblemParams", "TrajectoryDataset",
    "desk_config", "generate_dataset", "paper_config",
    "read_dataset", "write_dataset",
    "OperatorConfig", "OperatorModel", "init_model",
    "load_checkpoint", "save_checkpoint",
    "TrainConfig", "rollout", "train",
]

__version__ = "0.1.0"
