"""Gamma sweep: average cross-validated metrics over repeated experiments
for a grid of focusing parameters and conflict mixes."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .conflict_sim import Dataset, Topology, new_topology, synth_dataset
from .errors import DomainError
from .gap import FocalConfig, TrainConfig, TrainHistory, _cross_validate, compute_alpha
from .metrics import confusion, prf

DEFAULT_GAMMA_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
DEFAULT_TOPOLOGY_SIZES = (10, 13, 10)


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset configuration of the sweep grid.

    A balanced spec is trained with gamma 0 only, since equal class mass
    leaves nothing for the focusing parameter to rebalance.
    """

    name: str
    n_rows: int
    conflict_fraction: float
    balanced: bool = False


def default_dataset_specs(n_rows: int = 570, balanced_rows: int = 800):
    return [
        DatasetSpec("balanced", balanced_rows, 0.75, balanced=True),
        DatasetSpec("40%", n_rows, 0.40),
        DatasetSpec("30%", n_rows, 0.30),
        DatasetSpec("20%", n_rows, 0.20),
        DatasetSpec("10%", n_rows, 0.10),
    ]


@dataclass(frozen=True)
class SweepCell:
    dataset: str
    gamma: float
    precision: float
    recall: float
    f1: float


@dataclass(eq=False)
class SweepResult:
    cells: list[SweepCell]
    repetitions: int


def cross_validated_metrics(dataset: Dataset, history: TrainHistory):
    """Weighted (precision, recall, f1) over the pooled held-out
    predictions that training recorded."""
    return prf(confusion(history.predictions, dataset.labels()))


def gamma_sweep(dataset_specs, gamma_grid, repetitions: int,
                cfg: TrainConfig, topology: Topology | None = None) -> SweepResult:
    """Run the full grid.

    Each repetition synthesizes its own dataset with seed
    ``cfg.seed + repetition`` and trains with that same seed, so sweeps
    are reproducible yet varied across repetitions.
    """
    gamma_grid = list(gamma_grid)
    if not gamma_grid:
        raise DomainError("gamma grid is empty")
    if any(g < 0 for g in gamma_grid):
        raise DomainError("gamma values must be >= 0")
    if repetitions < 1:
        raise DomainError("repetitions must be >= 1")
    if topology is None:
        topology = new_topology(*DEFAULT_TOPOLOGY_SIZES, seed=cfg.seed)

    plan = [(spec, gamma) for spec in dataset_specs
            for gamma in ([0.0] if spec.balanced else gamma_grid)]

    def make_run(spec, gamma, run_cfg):
        dataset = synth_dataset(topology, spec.n_rows, spec.conflict_fraction,
                                run_cfg.seed)
        return dataset, FocalConfig(gamma=gamma, alpha=compute_alpha(dataset.labels()))

    # Every run of the grid goes to one cross-validation call, so a
    # single worker pool serves the whole sweep.  Datasets are made as
    # training reaches them.
    runs = []
    for spec, gamma in plan:
        for rep in range(repetitions):
            run_cfg = replace(cfg, seed=cfg.seed + rep)
            runs.append((spec.n_rows, run_cfg, partial(make_run, spec, gamma, run_cfg)))
    triples = [cross_validated_metrics(dataset, history)
               for dataset, _, history in _cross_validate(runs)]
    cells: list[SweepCell] = []
    for i, (spec, gamma) in enumerate(plan):
        mean = np.asarray(triples[i * repetitions:(i + 1) * repetitions],
                          dtype=np.float64).mean(axis=0)
        cells.append(SweepCell(spec.name, float(gamma),
                               float(mean[0]), float(mean[1]), float(mean[2])))
    return SweepResult(cells=cells, repetitions=repetitions)


def sweep_to_csv(result: SweepResult, path) -> None:
    lines = ["dataset,gamma,precision,recall,f1"]
    for cell in result.cells:
        lines.append(f"{cell.dataset},{cell.gamma:.1f},{cell.precision:.4f},"
                     f"{cell.recall:.4f},{cell.f1:.4f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")
