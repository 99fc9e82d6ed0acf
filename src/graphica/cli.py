"""Command line pipeline: synthesize, train, evaluate, sweep, report.

Settings resolve in order: command line flag, then config file entry,
then the ``GRAPHICA_SEED`` environment variable (seed only), then the
built-in default.  Progress lines go to stderr; results go to stdout and
to files in the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import conflict_sim, gap, rca, sweep
from .errors import DomainError, GraphicaError
from .gsc import build_graph
from .metrics import confusion, confusion_to_csv, metrics_to_csv, prf


_TRAIN_DEFAULTS = gap.TrainConfig()


@dataclass
class RunConfig:
    """Defaults for every tunable of the pipeline; the training ones are
    those of ``gap.TrainConfig``."""

    apps: int = 10
    params: int = 13
    kpis: int = 10
    rows: int = 570
    conflict: float = 0.10
    gamma: float = 2.0
    alpha: str = "inverse"
    learning_rate: float = _TRAIN_DEFAULTS.learning_rate
    weight_decay: float = _TRAIN_DEFAULTS.weight_decay
    batch_size: int = _TRAIN_DEFAULTS.batch_size
    folds: int = _TRAIN_DEFAULTS.n_folds
    epochs: int = _TRAIN_DEFAULTS.max_epochs
    patience: int = _TRAIN_DEFAULTS.patience
    min_delta: float = _TRAIN_DEFAULTS.min_delta
    seed: int = 0


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_CONVERTERS = {"int": int, "float": float, "str": str}


def load_config_file(path) -> dict:
    """Parse a flat key=value config file; ``#`` starts a comment line."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FIELD_TYPES:
            raise DomainError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = _CONVERTERS[_FIELD_TYPES[key]](value.strip())
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


class Settings:
    """Flag > config file > environment (seed) > default."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._file = load_config_file(args.config) if getattr(args, "config", None) else {}
        self._defaults = RunConfig()

    def __getattr__(self, name):
        value = getattr(self._args, name, None)
        if value is not None:
            return value
        if name in self._file:
            return self._file[name]
        if name == "seed":
            env = os.environ.get("GRAPHICA_SEED")
            if env is not None:
                try:
                    return int(env)
                except ValueError as exc:
                    raise DomainError(f"GRAPHICA_SEED must be an integer, got {env!r}") from exc
        return getattr(self._defaults, name)


def _log(args, message):
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _train_config(s: Settings) -> gap.TrainConfig:
    return gap.TrainConfig(
        learning_rate=s.learning_rate,
        weight_decay=s.weight_decay,
        batch_size=s.batch_size,
        n_folds=s.folds,
        max_epochs=s.epochs,
        patience=s.patience,
        min_delta=s.min_delta,
        seed=s.seed,
    )


def _load_inputs(args):
    topology = conflict_sim.load_topology(args.topology)
    dataset = conflict_sim.load_dataset(args.dataset, topology)
    return topology, dataset


def cmd_synth(args) -> int:
    s = Settings(args)
    out = _out_dir(args)
    topology = conflict_sim.new_topology(s.apps, s.params, s.kpis, s.seed)
    dataset = conflict_sim.synth_dataset(topology, s.rows, s.conflict, s.seed)
    conflict_sim.save_topology(topology, out / "topology.json")
    conflict_sim.save_dataset(dataset, out / "dataset.csv")
    _log(args, f"wrote {out / 'topology.json'} and {out / 'dataset.csv'}")
    dist = conflict_sim.class_distribution(dataset)
    print("class distribution: " +
          " ".join(f"{label}:{dist[label]}" for label in sorted(dist)))
    return 0


def cmd_train(args) -> int:
    s = Settings(args)
    out = _out_dir(args)
    topology, dataset = _load_inputs(args)
    labels = dataset.labels()
    if s.alpha == "uniform":
        alpha = np.ones(gap.NUM_CLASSES)
    elif s.alpha == "inverse":
        alpha = gap.compute_alpha(labels)
    else:
        raise DomainError(f"--alpha must be 'inverse' or 'uniform', got {s.alpha!r}")
    focal = gap.FocalConfig(gamma=s.gamma, alpha=alpha)
    cfg = _train_config(s)
    _log(args, f"training {cfg.n_folds} folds on {len(dataset.rows)} rows "
               f"(gamma={focal.gamma}, seed={cfg.seed})")
    models, history = gap.train(dataset, cfg, focal)
    for fold_id, model in enumerate(models):
        gap.save_checkpoint(model, out / f"fold{fold_id}.ckpt", cfg.seed, focal)
    gap.history_to_csv(history, out / "history.csv")
    for fold_id in range(cfg.n_folds):
        best = history.best_epochs[fold_id]
        val = history.val_losses[fold_id][best - 1]
        p, r, f1 = history.fold_metrics[fold_id]
        print(f"fold {fold_id}: stopped at epoch {history.stop_epochs[fold_id]}, "
              f"best epoch {best}, val loss {val:.4f}, "
              f"precision {p:.4f} recall {r:.4f} f1 {f1:.4f}")
    return 0


def _load_fold_models(model_dir: Path, n_folds: int):
    models, seeds = [], []
    for fold_id in range(n_folds):
        path = model_dir / f"fold{fold_id}.ckpt"
        model, _, seed = gap.load_checkpoint(path)
        models.append(model)
        seeds.append(seed)
    if len(set(seeds)) != 1:
        raise DomainError("fold checkpoints carry different seeds")
    return models, seeds[0]


def _check_fold(fold, n_folds: int) -> None:
    if fold is not None and not 0 <= fold < n_folds:
        raise DomainError(f"--fold must be in 0..{n_folds - 1}")


def cmd_eval(args) -> int:
    s = Settings(args)
    _check_fold(args.fold, s.folds)
    out = _out_dir(args)
    topology, dataset = _load_inputs(args)
    models, seed = _load_fold_models(Path(args.models), s.folds)
    cfg = replace(_train_config(s), seed=seed)
    labels = dataset.labels()
    preds = gap.fold_predictions(dataset, models, cfg)
    if args.fold is not None:
        keep = gap.stratified_kfold(labels, cfg.n_folds, cfg.seed)[args.fold]
        preds, labels = preds[keep], labels[keep]
    cm = confusion(preds, labels)
    triple = prf(cm)
    metrics_to_csv(triple, out / "metrics.csv")
    confusion_to_csv(cm, out / "confusion.csv")
    _log(args, f"wrote {out / 'metrics.csv'} and {out / 'confusion.csv'}")
    print(f"precision {triple[0]:.4f} recall {triple[1]:.4f} f1 {triple[2]:.4f}")
    return 0


def cmd_sweep(args) -> int:
    s = Settings(args)
    out = _out_dir(args)
    grid = args.gamma_grid if args.gamma_grid else list(sweep.DEFAULT_GAMMA_GRID)
    if args.datasets:
        specs = []
        for token in args.datasets:
            if token == "balanced":
                specs.append(sweep.DatasetSpec("balanced", args.balanced_rows,
                                               0.75, balanced=True))
            else:
                pct = int(token.rstrip("%"))
                if not 0 < pct <= 100:
                    raise DomainError(f"dataset share {token!r} outside (0, 100]")
                specs.append(sweep.DatasetSpec(f"{pct}%", s.rows, pct / 100.0))
    else:
        specs = sweep.default_dataset_specs(s.rows, args.balanced_rows)
    topology = conflict_sim.new_topology(s.apps, s.params, s.kpis, s.seed)
    cfg = _train_config(s)
    _log(args, f"sweeping {len(specs)} datasets x {len(grid)} gamma values, "
               f"{args.reps} repetitions")
    result = sweep.gamma_sweep(specs, grid, args.reps, cfg, topology)
    sweep.sweep_to_csv(result, out / "sweep.csv")
    for cell in result.cells:
        print(f"{cell.dataset} gamma={cell.gamma:.1f}: precision {cell.precision:.4f} "
              f"recall {cell.recall:.4f} f1 {cell.f1:.4f}")
    return 0


def cmd_report(args) -> int:
    s = Settings(args)
    _check_fold(args.fold, s.folds)
    out = _out_dir(args)
    topology, dataset = _load_inputs(args)
    model, _, seed = gap.load_checkpoint(args.model)
    rows = list(dataset.rows)
    if args.fold is not None:
        folds = gap.stratified_kfold(dataset.labels(), s.folds, seed)
        rows = [rows[i] for i in folds[args.fold]]
    preds = gap.predict_rows(model, topology, rows).argmax(axis=1)
    # Only predicted conflicts are traced, so only they need a graph.
    report = rca.build_report(
        [(preds[i], build_graph(topology, rows[i])) for i in np.flatnonzero(preds)],
        topology)
    rca.report_to_csv(report, out / "rca.csv")
    _log(args, f"wrote {out / 'rca.csv'} "
               f"({len(report.rows)} conflicts among {len(rows)} rows)")
    print(rca.format_report_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphica",
        description="Synthesize xApp conflict datasets, train the graph "
                    "conflict classifier, and trace root causes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="generator seed")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress lines on stderr")

    def train_flags(p):
        p.add_argument("--learning-rate", type=float, default=None)
        p.add_argument("--weight-decay", type=float, default=None)
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--folds", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--patience", type=int, default=None)
        p.add_argument("--min-delta", type=float, default=None)

    p = sub.add_parser("synth", help="generate a topology and dataset")
    p.add_argument("--apps", type=int, default=None)
    p.add_argument("--params", type=int, default=None)
    p.add_argument("--kpis", type=int, default=None)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--conflict", type=float, default=None,
                   help="total conflict fraction in [0, 1]")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train fold models on a dataset")
    p.add_argument("-d", "--dataset", required=True)
    p.add_argument("-t", "--topology", required=True)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--alpha", choices=("inverse", "uniform"), default=None)
    train_flags(p)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate fold models on held-out folds")
    p.add_argument("-d", "--dataset", required=True)
    p.add_argument("-t", "--topology", required=True)
    p.add_argument("-m", "--models", required=True,
                   help="directory containing fold{N}.ckpt files")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--fold", type=int, default=None,
                   help="restrict metrics to one held-out fold")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="average metrics over a gamma grid")
    p.add_argument("--gamma-grid", type=float, nargs="+", default=None)
    p.add_argument("--datasets", nargs="+", default=None,
                   help="conflict shares in percent, or 'balanced'")
    p.add_argument("--reps", type=int, default=10,
                   help="experiments averaged per grid cell")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--balanced-rows", type=int, default=800)
    p.add_argument("--apps", type=int, default=None)
    p.add_argument("--params", type=int, default=None)
    p.add_argument("--kpis", type=int, default=None)
    train_flags(p)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="predict rows and trace root causes")
    p.add_argument("-d", "--dataset", required=True)
    p.add_argument("-t", "--topology", required=True)
    p.add_argument("-m", "--model", required=True, help="one checkpoint file")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--fold", type=int, default=None,
                   help="restrict to one held-out fold")
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def _validate_flags(parser, args) -> None:
    conflict = getattr(args, "conflict", None)
    if conflict is not None and not 0.0 <= conflict <= 1.0:
        parser.error(f"--conflict must lie in [0, 1], got {conflict}")
    epochs = getattr(args, "epochs", None)
    if epochs is not None and epochs < 1:
        parser.error(f"--epochs must be positive, got {epochs}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        parser.error(f"--seed must be >= 0, got {seed}")
    reps = getattr(args, "reps", None)
    if reps is not None and reps < 1:
        parser.error(f"--reps must be >= 1, got {reps}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_flags(parser, args)
    try:
        return args.func(args)
    except GraphicaError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error[FileError]: {name}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
