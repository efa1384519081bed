"""Self-paced cross-modal hashing robust to noisy labels."""

import os

# one BLAS thread per process, set before numpy loads its BLAS; a value already set wins
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"

from .data import MultiModalDataset, SynthSpec, generate_synthetic, inject_symmetric_noise, split
from .encoder import binarize, encode, init_centers, init_params
from .losses import BatchCodes, LossConfig
from .pacer import PaceSchedule, SampleWeights, refresh_weights
from .trainer import TrainConfig, TrainReport, train

__all__ = [
    "__version__",
    "MultiModalDataset",
    "SynthSpec",
    "generate_synthetic",
    "inject_symmetric_noise",
    "split",
    "binarize",
    "encode",
    "init_centers",
    "init_params",
    "BatchCodes",
    "LossConfig",
    "PaceSchedule",
    "SampleWeights",
    "refresh_weights",
    "TrainConfig",
    "TrainReport",
    "train",
]
