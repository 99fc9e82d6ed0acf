"""The benchmark's workloads: set-up, one timed round, and the checks of
a round's outputs.

Every stage runs through ``graphica.cli.main`` in this process, the way
``scripts/run_pipeline.py`` chains them, except where a workload needs a
value the command line does not expose (the injected ground truth of a
synthesized stream); there it calls the library function the command
would call.  The defaults of each workload class are the benchmark's;
the tests build tiny instances of the same classes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``reference_cv`` runs the reference input on every run, and
#: ``score_stream`` fixes its deployment and scoring model; see the
#: workload classes for why.  The stream's seed is ``--seed`` plus the
#: offset, so that it never equals the deployment's.
REFERENCE_SEED = 0
DEPLOYMENT_SEED = 0
STREAM_SEED_OFFSET = 1_000_000


class StageError(RuntimeError):
    """A program stage exited non-zero or raised."""


def load_program():
    """Import ``graphica`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "graphica" / "__init__.py").is_file():
        raise ImportError(f"no graphica package under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphica
    import graphica.cli  # noqa: F401  (imports every module the layers name)
    if Path(graphica.__file__).resolve().parent != (SRC / "graphica").resolve():
        raise ImportError(f"graphica was imported from {graphica.__file__}, not {SRC}")
    return graphica


def cli(argv) -> str:
    """Run one ``graphica`` command; returns what it printed to stdout."""
    from graphica import cli as graphica_cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = graphica_cli.main([str(a) for a in argv] + ["--quiet"])
    except SystemExit as exc:  # argparse rejects flags by exiting
        raise StageError(f"graphica {argv[0]} exited with {exc.code}") from exc
    if code != 0:
        raise StageError(f"graphica {argv[0]} exited with {code}")
    return buf.getvalue()


def digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class Round:
    """What one round measured and produced."""

    seconds: float
    rows_per_s: float
    attempted: int
    failed: int
    stages: dict[str, float]
    out: Path
    digest: str = ""
    info: dict = field(default_factory=dict)


def warm_up(seed: int, work: Path) -> None:
    """A miniature pass over every command (synth, train, eval, report,
    sweep) on 64 rows, so lazy imports, allocator arenas and numpy's
    first-call costs are paid before timing."""
    d = work / "warm"
    common = ["--seed", seed, "-o", d]
    cli(["synth", "--rows", 64, "--conflict", 0.5] + common)
    data = ["-d", d / "dataset.csv", "-t", d / "topology.json"]
    short = ["--folds", 2, "--epochs", 3, "--patience", 2]
    cli(["train"] + data + short + common)
    cli(["eval"] + data + ["-m", d, "--folds", 2] + common)
    cli(["report"] + data + ["-m", d / "fold0.ckpt", "--folds", 2, "--fold", 0] + common)
    cli(["sweep", "--datasets", "balanced", "50", "--balanced-rows", 64, "--rows", 64,
         "--gamma-grid", 0, "--reps", 1] + short + common)


def _failed_round(start, attempted, failed, stages, out, exc) -> Round:
    return Round(time.perf_counter() - start, 0.0, attempted, failed, stages, out,
                 info={"error": str(exc)})


# ---------------------------------------------------------------------------
# reference_cv


@dataclass
class ReferenceCV:
    """The paper's reference pipeline: 10 apps / 13 parameters / 10 KPIs,
    570 rows at 10% conflicts, gamma 2 and the default ``TrainConfig``
    (5 folds, patience 200, up to 2,000 epochs), then eval and a report
    on held-out fold 0.  Its inputs are the reference ones (seed 0) on
    every run: early stopping makes the epoch count, and so the run time,
    depend on the data, so only a fixed input gives a steady time."""

    name: str = "reference_cv"
    rows: int = 570
    conflict: float = 0.10
    gamma: float = 2.0
    n_folds: int = 5
    train_flags: tuple = ()
    f1_floor: float = 0.95

    def setup(self, seed: int, work: Path) -> dict:
        warm_up(seed, work)
        return {}

    def round(self, state: dict, out: Path) -> Round:
        common = ["--seed", REFERENCE_SEED, "-o", out]
        data = ["-d", out / "dataset.csv", "-t", out / "topology.json"]
        steps = [
            ("synth", ["synth", "--rows", self.rows, "--conflict", self.conflict] + common),
            ("train", ["train"] + data + ["--gamma", self.gamma, "--folds", self.n_folds,
                                          *self.train_flags] + common),
            ("eval", ["eval"] + data + ["-m", out, "--folds", self.n_folds] + common),
            ("report", ["report"] + data + ["-m", out / "fold0.ckpt", "--folds", self.n_folds,
                                            "--fold", 0] + common),
        ]
        attempted = len(steps) + self.n_folds
        stages = {}
        start = time.perf_counter()
        for i, (name, argv) in enumerate(steps):
            t0 = time.perf_counter()
            try:
                cli(argv)
            except StageError as exc:
                failed = len(steps) - i + (self.n_folds if i <= 1 else 0)
                return _failed_round(start, attempted, failed, stages, out, exc)
            stages[name] = time.perf_counter() - t0
        seconds = time.perf_counter() - start

        epochs = _history_epochs(out / "history.csv", self.n_folds)
        _, labels = oracles.read_dataset(out / "dataset.csv")
        folds = _program_folds(labels, self.n_folds, REFERENCE_SEED)
        train_rows = sum(e * (labels.size - f.size) for e, f in zip(epochs, folds))
        return Round(seconds, train_rows / stages["train"], attempted,
                     sum(e == 0 for e in epochs), stages, out,
                     digest(out / "metrics.csv", out / "confusion.csv",
                            out / "history.csv", out / "rca.csv"),
                     {"fold_epochs": sum(epochs)})

    def check(self, state: dict, r: Round) -> list[str]:
        from graphica import conflict_sim, gap

        out = r.out
        masks = oracles.read_masks(out / "topology.json")
        bits, labels = oracles.read_dataset(out / "dataset.csv")
        problems = check_labels(masks, bits, labels, self.rows, self.conflict)

        topology = conflict_sim.load_topology(out / "topology.json")
        dataset = conflict_sim.load_dataset(out / "dataset.csv", topology)
        folds = _program_folds(labels, self.n_folds, REFERENCE_SEED)
        if not np.array_equal(np.sort(np.concatenate(folds)), np.arange(labels.size)):
            problems.append("the folds do not partition the rows")
        own_pred = np.zeros(labels.size, dtype=np.int64)
        for fold_id, idx in enumerate(folds):
            ckpt = oracles.read_checkpoint(out / f"fold{fold_id}.ckpt")
            model, _, _ = gap.load_checkpoint(out / f"fold{fold_id}.ckpt")
            mine = oracles.forward(ckpt.params, masks, bits[idx])
            theirs = gap.predict_rows(model, topology, [dataset.rows[i] for i in idx])
            problems += check_probs(mine, theirs, f"fold {fold_id}")
            own_pred[idx] = mine.argmax(axis=1)

        cm = oracles.confusion_counts(labels, own_pred)
        own = oracles.weighted_prf(cm)
        stored_cm = np.loadtxt(out / "confusion.csv", delimiter=",", dtype=np.int64, ndmin=2)
        if not np.array_equal(cm, stored_cm):
            problems.append(f"confusion.csv {stored_cm.tolist()} != own {cm.tolist()}")
        stored = np.loadtxt(out / "metrics.csv", delimiter=",", skiprows=1)
        if np.max(np.abs(stored - np.array(own))) > 0.5e-4 + 1e-12:
            problems.append(f"metrics.csv {stored.tolist()} != own {list(own)}")
        if own[2] < self.f1_floor:
            problems.append(f"pooled F1 {own[2]:.4f} below {self.f1_floor}")
        r.info["f1"] = own[2]
        r.info["all-normal f1"] = oracles.all_normal_f1(np.bincount(labels, minlength=4))

        problems += check_gradient(out / "fold0.ckpt", masks, bits, labels, topology, dataset)

        counts = dict(enumerate(oracles.declared_counts(self.rows, self.conflict).tolist()))
        truth = conflict_sim.synth_rows(topology, counts, REFERENCE_SEED)
        if [row for row, _ in truth] != list(dataset.rows):
            problems.append("re-synthesized rows differ from dataset.csv")
        held = folds[0]
        problems += check_rca(out / "rca.csv", bits[held], labels[held], own_pred[held],
                              [truth[i][1] for i in held])
        return problems


def _history_epochs(path: Path, n_folds: int) -> list[int]:
    counts = [0] * n_folds
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        counts[int(line.split(",")[1])] += 1
    return counts


def _program_folds(labels, k: int, seed: int):
    from graphica import gap

    return gap.stratified_kfold(labels, k, seed)


# ---------------------------------------------------------------------------
# sweep_slice


@dataclass
class SweepSlice:
    """``graphica sweep`` over the balanced set and the 10% mix at gamma 0
    and 2, two repetitions each, with an epoch budget that every fold
    runs to (a patience of budget - 1 cannot stop a fold earlier)."""

    name: str = "sweep_slice"
    epochs: int = 80
    reps: int = 2
    gammas: tuple = (0.0, 2.0)
    rows: int = 570
    balanced_rows: int = 800
    n_folds: int = 5

    def setup(self, seed: int, work: Path) -> dict:
        warm_up(seed, work)
        return {"seed": seed}

    def round(self, state: dict, out: Path) -> Round:
        runs = self.reps * (1 + len(self.gammas))
        argv = ["sweep", "--datasets", "balanced", "10", "--gamma-grid", *self.gammas,
                "--reps", self.reps, "--rows", self.rows, "--balanced-rows", self.balanced_rows,
                "--folds", self.n_folds, "--epochs", self.epochs,
                "--patience", self.epochs - 1, "--seed", state["seed"], "-o", out]
        start = time.perf_counter()
        try:
            cli(argv)
        except StageError as exc:
            return _failed_round(start, 1 + runs, 1 + runs, {}, out, exc)
        seconds = time.perf_counter() - start
        rows = self.reps * (self.balanced_rows + len(self.gammas) * self.rows)
        train_rows = self.epochs * (self.n_folds - 1) * rows
        return Round(seconds, train_rows / seconds, 1 + runs, 0, {"sweep": seconds}, out,
                     digest(out / "sweep.csv"))

    def check(self, state: dict, r: Round) -> list[str]:
        baselines = {
            "balanced": oracles.all_normal_f1(oracles.declared_counts(self.balanced_rows, 0.75)),
            "10%": oracles.all_normal_f1(oracles.declared_counts(self.rows, 0.10)),
        }
        return check_sweep_cells(r.out / "sweep.csv", baselines,
                                 [("balanced", 0.0)] + [("10%", g) for g in self.gammas],
                                 r.info)


def check_sweep_cells(path, baselines: dict, expected: list, info: dict) -> list[str]:
    """Every expected cell is present and its F1 beats the all-normal
    baseline of its mix."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    cells = [line.split(",") for line in lines]
    problems = []
    if [(c[0], float(c[1])) for c in cells] != expected:
        problems.append(f"sweep cells {[(c[0], c[1]) for c in cells]} != {expected}")
    for name, gamma, _, _, f1 in cells:
        info[f"f1 {name} gamma={gamma}"] = float(f1)
        if not float(f1) > baselines[name]:
            problems.append(f"cell {name} gamma={gamma}: F1 {f1} does not beat the "
                            f"all-normal baseline {baselines[name]:.4f}")
    return problems


# ---------------------------------------------------------------------------
# score_stream


@dataclass
class ScoreStream:
    """A stream of snapshots on a 30 / 40 / 30 deployment (100 nodes, three
    times the reference's 33) at 10% conflicts, synthesized from the run's
    seed with its injected ground truth, written to CSV and scored and
    traced by ``graphica report``.

    The deployment and its scoring model are fixed (seed 0), so that the
    share of rows predicted as conflicts, and with it the RCA work, does
    not move with the stream's seed.  Set-up trains that model in 40
    short epochs.  It predicts about 31% of the rows as conflicts against
    the true 10%, and RCA leaves about 77% of those unlocalized, so the
    RCA work is mostly the cheap unlocalized path.  Longer training does
    not fix that at an affordable set-up cost: 2,000 rows and 100 epochs
    (28 s) still predict 35% conflicts."""

    name: str = "score_stream"
    sizes: tuple = (30, 40, 30)
    rows: int = 10_000
    conflict: float = 0.10
    scorer_rows: int = 600
    scorer_epochs: int = 40
    scorer_batch: int = 64

    def setup(self, seed: int, work: Path) -> dict:
        from graphica import conflict_sim

        warm_up(seed, work)
        d = work / "scorer"
        apps, params, kpis = self.sizes
        common = ["--seed", DEPLOYMENT_SEED, "-o", d]
        cli(["synth", "--apps", apps, "--params", params, "--kpis", kpis,
             "--rows", self.scorer_rows, "--conflict", self.conflict] + common)
        cli(["train", "-d", d / "dataset.csv", "-t", d / "topology.json", "--folds", 2,
             "--batch-size", self.scorer_batch, "--epochs", self.scorer_epochs,
             "--patience", self.scorer_epochs - 1] + common)
        return {"topology_path": d / "topology.json", "model": d / "fold0.ckpt",
                "topology": conflict_sim.load_topology(d / "topology.json"),
                "stream_seed": STREAM_SEED_OFFSET + seed}

    def round(self, state: dict, out: Path) -> Round:
        from graphica import conflict_sim

        out.mkdir(parents=True, exist_ok=True)
        topology = state["topology"]
        counts = dict(enumerate(oracles.declared_counts(self.rows, self.conflict).tolist()))
        stages = {}
        start = time.perf_counter()
        synthesized = conflict_sim.synth_rows(topology, counts, state["stream_seed"])
        stages["synth"] = time.perf_counter() - start
        t0 = time.perf_counter()
        rows = tuple(row for row, _ in synthesized)
        mix = {c: n / self.rows for c, n in counts.items()}
        conflict_sim.save_dataset(conflict_sim.Dataset(topology, rows, mix), out / "stream.csv")
        stages["write"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            cli(["report", "-d", out / "stream.csv", "-t", state["topology_path"],
                 "-m", state["model"], "-o", out])
        except StageError as exc:
            return _failed_round(start, 3 + self.rows, 1 + self.rows, stages, out, exc)
        stages["report"] = time.perf_counter() - t0
        seconds = time.perf_counter() - start
        traced = len((out / "rca.csv").read_text(encoding="utf-8").splitlines()) - 1
        return Round(seconds, self.rows / stages["report"], 3 + self.rows + traced, 0,
                     stages, out, digest(out / "stream.csv", out / "rca.csv"),
                     {"injected": [inj for _, inj in synthesized], "rows traced": traced})

    def check(self, state: dict, r: Round) -> list[str]:
        from graphica import conflict_sim, gap

        masks = oracles.read_masks(state["topology_path"])
        bits, labels = oracles.read_dataset(r.out / "stream.csv")
        problems = check_labels(masks, bits, labels, self.rows, self.conflict)
        mine = oracles.forward(oracles.read_checkpoint(state["model"]).params, masks, bits)
        model, _, _ = gap.load_checkpoint(state["model"])
        dataset = conflict_sim.load_dataset(r.out / "stream.csv", state["topology"])
        problems += check_probs(mine, gap.predict_rows(model, state["topology"],
                                                       list(dataset.rows)), "stream")
        pred = mine.argmax(axis=1)
        r.info["f1"] = oracles.weighted_prf(oracles.confusion_counts(labels, pred))[2]
        problems += check_rca(r.out / "rca.csv", bits, labels, pred, r.info.pop("injected"))
        return problems


# ---------------------------------------------------------------------------
# shared checks


def check_labels(masks, bits, labels, n_rows, conflict) -> list[str]:
    """Stored labels equal the rule oracle; class counts equal the mix."""
    problems = []
    mine = oracles.label_rows(masks, bits)
    if not np.array_equal(mine, labels):
        bad = np.flatnonzero(mine != labels)
        problems.append(f"{bad.size} stored labels differ from the rule oracle "
                        f"(first row {int(bad[0])})")
    counts = np.bincount(labels, minlength=4)
    want = oracles.declared_counts(n_rows, conflict)
    if not np.array_equal(counts, want):
        problems.append(f"class counts {counts.tolist()} != declared {want.tolist()}")
    return problems


def check_probs(mine, theirs, what: str) -> list[str]:
    err = float(np.max(np.abs(mine - theirs)))
    if err > 1e-9:
        return [f"{what}: probabilities differ from the dense oracle by {err:.2e}"]
    return []


def check_gradient(ckpt_path, masks, bits, labels, topology, dataset) -> list[str]:
    """Central differences of the oracle's focal loss against
    ``loss_and_grad`` at a trained model, on two rows of every class."""
    from graphica import gap

    ckpt = oracles.read_checkpoint(ckpt_path)
    model, focal, _ = gap.load_checkpoint(ckpt_path)
    idx = np.concatenate([np.flatnonzero(labels == c)[:2] for c in range(4)])
    tensors = gap.row_tensors(topology, [dataset.rows[i] for i in idx])
    loss, grads = gap.loss_and_grad(model, tensors, np.arange(idx.size), focal)
    own_loss = oracles.focal_loss(oracles.forward(ckpt.params, masks, bits[idx]),
                                  labels[idx], ckpt.gamma, ckpt.alpha)
    numeric = oracles.finite_difference_grad(ckpt.params, masks, bits[idx], labels[idx],
                                             ckpt.gamma, ckpt.alpha)
    shapes = {k: np.shape(v) for k, v in ckpt.params.items()}
    errors = oracles.block_relative_errors(grads.to_flat(), numeric, shapes)
    problems = []
    if abs(loss - own_loss) > 1e-9 * max(1.0, abs(own_loss)):
        problems.append(f"loss {loss!r} != oracle {own_loss!r}")
    worst = max(errors, key=errors.get)
    if errors[worst] > 1e-4:
        problems.append(f"gradient block {worst}: relative error {errors[worst]:.2e}")
    return problems


def check_rca(path, bits, labels, pred, injected) -> list[str]:
    """rca.csv has one line per predicted conflict, in row order.  Where
    the predicted label is right, the affected node and root-cause nodes
    are the injected ones; every root-cause xApp is active in its row."""
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))[1:]
    conflict_rows = np.flatnonzero(pred > 0)
    if len(records) != conflict_rows.size:
        return [f"rca.csv has {len(records)} rows for {conflict_rows.size} predicted conflicts"]
    problems = []
    for (label, _, affected, nodes, apps), i in zip(records, conflict_rows):
        if int(label) != pred[i]:
            problems.append(f"row {i}: rca.csv label {label} != predicted {pred[i]}")
            continue
        for app in filter(None, apps.split(";")):
            if not bits[i, int(app[1:]) - 1]:
                problems.append(f"row {i}: root-cause xApp {app} is not active")
        truth = injected[i]
        if pred[i] == labels[i] and (affected != truth.affected or
                                     sorted(filter(None, nodes.split(";"))) !=
                                     sorted(truth.sources)):
            problems.append(f"row {i}: RCA {affected} <- {nodes} != injected "
                            f"{truth.affected} <- {';'.join(truth.sources)}")
    return problems[:10]


WORKLOADS = {w.name: w for w in (ReferenceCV(), SweepSlice(), ScoreStream())}
