"""Binary-state xApp conflict simulation, graph-convolutional conflict
prediction, and root cause tracing.

The package namespace exports what the README's "Library use" example
imports; everything else is reached through its module (``graphica.gap``,
``graphica.rca`` and so on).
"""

from .conflict_sim import new_topology, synth_dataset
from .gap import FocalConfig, TrainConfig, compute_alpha, predict, train
from .gsc import build_graph
from .rca import build_report

__version__ = "0.1.0"

__all__ = [
    "FocalConfig",
    "TrainConfig",
    "__version__",
    "build_graph",
    "build_report",
    "compute_alpha",
    "new_topology",
    "predict",
    "synth_dataset",
    "train",
]
