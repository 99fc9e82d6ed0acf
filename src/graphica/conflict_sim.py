"""Random dependency topologies and binary-state conflict datasets.

The simulated control plane has three kinds of entities: applications
(xApps) deployed on a RAN controller, the configuration parameters they
control, and the KPIs those parameters drive.  Parameters may also drive
other parameters.  One dataset row is a timestamped snapshot: an
activation bit per application plus a changed bit per parameter and per
KPI.

Three interference patterns receive labels:

* direct (1): a changed parameter with two or more active controlling apps,
* implicit (2): a changed KPI with two or more changed source parameters,
* indirect (3): a changed parameter with two or more changed source
  parameters.

``label_row`` is the deterministic oracle for these rules.
``synth_dataset`` manufactures datasets with a prescribed conflict share;
every emitted row carries exactly one interference pattern (or none), so
its stored label always round-trips through the oracle.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    EmptyInputError,
    GenerationError,
    GraphicaError,
    ShapeError,
    SizeError,
    SynthesisError,
)

#: Probability that a state bit untouched by the injected pattern is set.
BACKGROUND_BIT_RATE = 0.15

_GENERATION_ATTEMPTS = 100
_SYNTH_ATTEMPTS = 50


class ConflictLabel(IntEnum):
    """Four-class row label.  The numbering is fixed and never changes."""

    NORMAL = 0
    DIRECT = 1
    IMPLICIT = 2
    INDIRECT = 3


def app_name(index: int) -> str:
    """One-based display name of an application node (``a1``, ``a2``, ...)."""
    return f"a{index + 1}"


def param_name(index: int) -> str:
    """One-based display name of a parameter node (``p1``, ``p2``, ...)."""
    return f"p{index + 1}"


def kpi_name(index: int) -> str:
    """One-based display name of a KPI node (``k1``, ``k2``, ...)."""
    return f"k{index + 1}"


@dataclass(frozen=True)
class Topology:
    """Static dependency structure of one controller deployment.

    ``controls`` holds (parameter, app) pairs, ``kpi_deps`` (kpi, parameter)
    pairs, and ``param_deps`` (target parameter, source parameter) pairs,
    all zero-based.  Construction validates the structural requirements:
    no pair is listed twice, no parameter depends on itself, every
    parameter has a controlling app, and each conflict pattern has at
    least one candidate node.
    """

    n_apps: int
    n_params: int
    n_kpis: int
    controls: tuple[tuple[int, int], ...]
    kpi_deps: tuple[tuple[int, int], ...]
    param_deps: tuple[tuple[int, int], ...]
    seed: int

    def __post_init__(self):
        if self.n_apps < 1 or self.n_params < 1 or self.n_kpis < 1:
            raise SizeError("topology sizes must be positive")
        for p, a in self.controls:
            if not (0 <= p < self.n_params and 0 <= a < self.n_apps):
                raise DomainError(f"control pair ({p}, {a}) out of range")
        for k, p in self.kpi_deps:
            if not (0 <= k < self.n_kpis and 0 <= p < self.n_params):
                raise DomainError(f"KPI dependency ({k}, {p}) out of range")
        for tgt, src in self.param_deps:
            if tgt == src:
                raise DomainError(f"parameter {src} depends on itself")
            if not (0 <= tgt < self.n_params and 0 <= src < self.n_params):
                raise DomainError(f"parameter dependency ({tgt}, {src}) out of range")
        for what, pairs in (("control pair", self.controls),
                            ("KPI dependency", self.kpi_deps),
                            ("parameter dependency", self.param_deps)):
            twice = [pair for pair, count in Counter(pairs).items() if count > 1]
            if twice:
                raise DomainError(f"duplicate {what} ({twice[0][0]}, {twice[0][1]})")
        if any(not self.controllers_by_param[p] for p in range(self.n_params)):
            raise DomainError("every parameter needs at least one controlling app")
        if not self.multi_controller_params:
            raise DomainError("no parameter has two controlling apps")
        if not self.multi_source_kpis:
            raise DomainError("no KPI has two source parameters")
        if not self.multi_source_params:
            raise DomainError("no parameter has two source parameters")

    @property
    def width(self) -> int:
        """Total number of state bits in one row."""
        return self.n_apps + self.n_params + self.n_kpis

    @cached_property
    def controllers_by_param(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.n_params)]
        for p, a in self.controls:
            out[p].append(a)
        return tuple(tuple(sorted(x)) for x in out)

    @cached_property
    def sources_by_kpi(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.n_kpis)]
        for k, p in self.kpi_deps:
            out[k].append(p)
        return tuple(tuple(sorted(x)) for x in out)

    @cached_property
    def sources_by_param(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.n_params)]
        for tgt, src in self.param_deps:
            out[tgt].append(src)
        return tuple(tuple(sorted(x)) for x in out)

    @cached_property
    def targets_by_param(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.n_params)]
        for tgt, src in self.param_deps:
            out[src].append(tgt)
        return tuple(tuple(sorted(x)) for x in out)

    @cached_property
    def params_by_app(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.n_apps)]
        for p, a in self.controls:
            out[a].append(p)
        return tuple(tuple(sorted(x)) for x in out)

    @cached_property
    def kpis_by_param(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.n_params)]
        for k, p in self.kpi_deps:
            out[p].append(k)
        return tuple(tuple(sorted(x)) for x in out)

    @cached_property
    def multi_controller_params(self) -> tuple[int, ...]:
        return tuple(p for p in range(self.n_params)
                     if len(self.controllers_by_param[p]) >= 2)

    @cached_property
    def multi_source_kpis(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.n_kpis)
                     if len(self.sources_by_kpi[k]) >= 2)

    @cached_property
    def multi_source_params(self) -> tuple[int, ...]:
        return tuple(p for p in range(self.n_params)
                     if len(self.sources_by_param[p]) >= 2)


@dataclass(frozen=True)
class BinaryStateRow:
    """One timestamped snapshot of the control plane, all bits in {0, 1}."""

    app_states: tuple[int, ...]
    param_states: tuple[int, ...]
    kpi_states: tuple[int, ...]
    label: int | None = None

    def __post_init__(self):
        for bits in (self.app_states, self.param_states, self.kpi_states):
            if any(b not in (0, 1) for b in bits):
                raise DomainError("state bits must be 0 or 1")
        if self.label is not None and self.label not in (0, 1, 2, 3):
            raise DomainError(f"label {self.label} outside 0..3")

    @property
    def width(self) -> int:
        return len(self.app_states) + len(self.param_states) + len(self.kpi_states)

    def bits(self) -> tuple[int, ...]:
        """All state bits in app, parameter, KPI order."""
        return self.app_states + self.param_states + self.kpi_states


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of labeled rows over one topology."""

    topology: Topology
    rows: tuple[BinaryStateRow, ...]
    class_mix: dict[int, float]

    def labels(self) -> np.ndarray:
        return np.array([row.label for row in self.rows], dtype=np.int64)


@dataclass(frozen=True)
class InjectedConflict:
    """Ground truth of one synthesized conflict row: which node was hit
    and which nodes were made to hit it."""

    label: ConflictLabel
    affected: str
    sources: tuple[str, ...]


def new_topology(n_apps: int, n_params: int, n_kpis: int, seed: int) -> Topology:
    """Draw a random topology.

    Each parameter gets 1-3 controlling apps and each KPI 1-3 source
    parameters, chosen by shuffling the candidate set.  Each parameter
    drives exactly one other parameter; several parameters may drive the
    same target.  Drawing retries until at least one parameter has two
    controllers, one KPI has two sources, and one parameter has two
    sources, so every conflict class is synthesizable.
    """
    if n_apps < 2:
        raise SizeError("need at least 2 apps")
    if n_params < 3:
        raise SizeError("need at least 3 parameters")
    if n_kpis < 1:
        raise SizeError("need at least 1 KPI")
    rng = np.random.default_rng(seed)
    failing = ""
    fallback = None
    for _ in range(_GENERATION_ATTEMPTS):
        controls = []
        for p in range(n_params):
            n_ctrl = int(rng.integers(1, min(3, n_apps) + 1))
            for a in rng.permutation(n_apps)[:n_ctrl]:
                controls.append((p, int(a)))
        kpi_deps = []
        for k in range(n_kpis):
            n_src = int(rng.integers(1, min(3, n_params) + 1))
            for p in rng.permutation(n_params)[:n_src]:
                kpi_deps.append((k, int(p)))
        param_deps = []
        for src in range(n_params):
            tgt = int(rng.integers(0, n_params - 1))
            if tgt >= src:
                tgt += 1
            param_deps.append((tgt, src))

        if max(Counter(p for p, _ in controls).values()) < 2:
            failing = "no parameter with two controlling apps"
            continue
        if max(Counter(k for k, _ in kpi_deps).values()) < 2:
            failing = "no KPI with two source parameters"
            continue
        if max(Counter(t for t, _ in param_deps).values()) < 2:
            failing = "no parameter with two source parameters"
            continue
        topology = Topology(
            n_apps=n_apps,
            n_params=n_params,
            n_kpis=n_kpis,
            controls=tuple(sorted(controls)),
            kpi_deps=tuple(sorted(kpi_deps)),
            param_deps=tuple(sorted(param_deps)),
            seed=seed,
        )
        # Prefer relations that also admit clean pattern injections; keep
        # the first merely-valid draw as a fallback for tiny sizes where
        # the stronger conditions are unsatisfiable.
        if fallback is None:
            fallback = topology
        if not any(len(_clean_kpi_sources(topology, k)) >= 2
                   for k in topology.multi_source_kpis):
            failing = "no KPI with two tangle-free source parameters"
            continue
        if not any(len(_indirect_sources(topology, t)) >= 2
                   for t in topology.multi_source_params):
            failing = "no parameter with two non-mutual source parameters"
            continue
        return topology
    if fallback is not None:
        return fallback
    raise GenerationError(
        f"gave up after {_GENERATION_ATTEMPTS} attempts: {failing}")


def _check_width(topology: Topology, row: BinaryStateRow) -> None:
    got = (len(row.app_states), len(row.param_states), len(row.kpi_states))
    want = (topology.n_apps, topology.n_params, topology.n_kpis)
    if got != want:
        raise ShapeError(f"row sections {got} do not match topology {want}")


def label_row(topology: Topology, row: BinaryStateRow) -> ConflictLabel:
    """Deterministic rule oracle for one row.

    When several patterns co-occur the priority is direct, then implicit,
    then indirect, making the oracle a total function.  (The synthesizer
    never emits rows with co-occurring patterns.)
    """
    _check_width(topology, row)
    app, par, kpi = row.app_states, row.param_states, row.kpi_states
    for p in range(topology.n_params):
        if par[p] and sum(app[a] for a in topology.controllers_by_param[p]) >= 2:
            return ConflictLabel.DIRECT
    for k in range(topology.n_kpis):
        if kpi[k] and sum(par[p] for p in topology.sources_by_kpi[k]) >= 2:
            return ConflictLabel.IMPLICIT
    for t in range(topology.n_params):
        if par[t] and sum(par[p] for p in topology.sources_by_param[t]) >= 2:
            return ConflictLabel.INDIRECT
    return ConflictLabel.NORMAL


def _class_counts(n_rows: int, conflict_fraction: float) -> dict[int, int]:
    n_conflict = int(round(n_rows * conflict_fraction))
    base, rem = divmod(n_conflict, 3)
    return {
        int(ConflictLabel.NORMAL): n_rows - n_conflict,
        int(ConflictLabel.DIRECT): base + (1 if rem >= 1 else 0),
        int(ConflictLabel.IMPLICIT): base + (1 if rem >= 2 else 0),
        int(ConflictLabel.INDIRECT): base,
    }


def _indirect_sources(topology, target: int) -> tuple[int, ...]:
    """Sources usable for an injected two-source dependency pattern at
    ``target``: a mutual partner (a source that target itself drives) is
    excluded, since changing both ends would weld an unremovable second
    edge onto the source."""
    mutual = set(topology.targets_by_param[target])
    return tuple(s for s in topology.sources_by_param[target] if s not in mutual)


def _clean_kpi_sources(topology, k: int) -> tuple[int, ...]:
    """Largest greedy subset of a KPI's source parameters whose internal
    dependency edges leave every member with at most one pinned edge, so
    the repair pass can always isolate the injected pattern."""
    chosen: list[int] = []
    for s in topology.sources_by_kpi[k]:
        candidate = chosen + [s]
        ok = True
        for m in candidate:
            pinned = sum(1 for x in candidate if x != m
                         and m in topology.targets_by_param[x])
            pinned += sum(1 for x in candidate if x != m
                          and x in topology.targets_by_param[m])
            if pinned > 1:
                ok = False
                break
        if ok:
            chosen = candidate
    return tuple(chosen)


def _pick_controller(topology, source: int, protected_params, rng):
    """Controller app to activate for an injected source parameter, or
    None when every controller also controls another pinned parameter
    (activating one would weld a second control edge onto the pattern)."""
    safe = [a for a in topology.controllers_by_param[source]
            if sum(1 for p in topology.params_by_app[a]
                   if p in protected_params) <= 1]
    if not safe:
        return None
    return int(rng.choice(safe))


def _fully_supportable(topology, sources, protected_params) -> bool:
    """True when every source parameter has a controller app that touches
    no other pinned parameter, so the whole pattern can be activated."""
    for s in sources:
        if not any(sum(1 for p in topology.params_by_app[a]
                       if p in protected_params) <= 1
                   for a in topology.controllers_by_param[s]):
            return False
    return True


def _find_violation(topology, app, par, kpi, intended, affected):
    """First influence concentration other than the intended pattern.

    Every plane is screened undirected: any node incident to two or more
    concurrent edges of one plane is rejected (except the injected
    pattern's own node).  This is stricter than the label rules require;
    it keeps rows single-patterned, so a conflict is always the unique
    concentration in its row and background activity stays pattern-free
    in every plane.

    Returns (plane, center kind, center index, neighbor indices) or None.
    """
    app_on = [a for a in range(topology.n_apps) if app[a]]
    par_on = [p for p in range(topology.n_params) if par[p]]
    kpi_on = [k for k in range(topology.n_kpis) if kpi[k]]

    for p in par_on:
        if intended == ConflictLabel.DIRECT and p == affected:
            continue
        active = [a for a in topology.controllers_by_param[p] if app[a]]
        if len(active) >= 2:
            return ConflictLabel.DIRECT, "param", p, active
    for a in app_on:
        changed = [p for p in topology.params_by_app[a] if par[p]]
        if len(changed) >= 2:
            return ConflictLabel.DIRECT, "app", a, changed

    for k in kpi_on:
        if intended == ConflictLabel.IMPLICIT and k == affected:
            continue
        changed = [p for p in topology.sources_by_kpi[k] if par[p]]
        if len(changed) >= 2:
            return ConflictLabel.IMPLICIT, "kpi", k, changed
    for p in par_on:
        driven = [k for k in topology.kpis_by_param[p] if kpi[k]]
        if len(driven) >= 2:
            return ConflictLabel.IMPLICIT, "param", p, driven

    for t in par_on:
        if intended == ConflictLabel.INDIRECT and t == affected:
            continue
        incident = [p for p in topology.sources_by_param[t] if par[p]]
        incident += [p for p in topology.targets_by_param[t] if par[p]]
        if len(incident) >= 2:
            return ConflictLabel.INDIRECT, "param", t, incident
    return None


_NEIGHBOR_KIND = {
    (ConflictLabel.DIRECT, "param"): "app",
    (ConflictLabel.DIRECT, "app"): "param",
    (ConflictLabel.IMPLICIT, "kpi"): "param",
    (ConflictLabel.IMPLICIT, "param"): "kpi",
    (ConflictLabel.INDIRECT, "param"): "param",
}


def _repair(topology, app, par, kpi, intended, affected,
            prot_app, prot_par, prot_kpi) -> bool:
    """Flip background bits until the intended pattern is the only
    concentration left.

    Each fix clears at least one bit and bits are never set, so the loop
    terminates within the row width.  Returns False when a concentration
    is carried entirely by pinned bits and the row must be redrawn.
    """
    protected = {"app": prot_app, "param": prot_par, "kpi": prot_kpi}
    states = {"app": app, "param": par, "kpi": kpi}
    for _ in range(topology.width + 4):
        violation = _find_violation(topology, app, par, kpi, intended, affected)
        if violation is None:
            return True
        plane, center_kind, center, neighbors = violation
        if center not in protected[center_kind]:
            states[center_kind][center] = 0
            continue
        other = _NEIGHBOR_KIND[(plane, center_kind)]
        prot_other = protected[other]
        pinned = [x for x in neighbors if x in prot_other]
        if len(pinned) >= 2:
            return False
        if pinned:
            keep = pinned[0]
        elif neighbors.count(neighbors[0]) == 1:
            keep = neighbors[0]
        else:
            keep = -1  # mutual dependency pair: keeping it keeps 2 edges
        cleared = False
        for x in neighbors:
            if x != keep and x not in prot_other and states[other][x]:
                states[other][x] = 0
                cleared = True
        if not cleared:
            return False
    return False


def _synth_row(topology: Topology, intended: ConflictLabel,
               rng: np.random.Generator):
    for _ in range(_SYNTH_ATTEMPTS):
        app = [0] * topology.n_apps
        par = [0] * topology.n_params
        kpi = [0] * topology.n_kpis
        prot_app: set[int] = set()
        prot_par: set[int] = set()
        prot_kpi: set[int] = set()
        affected = -1
        injection = None

        if intended == ConflictLabel.DIRECT:
            p0 = int(rng.choice(topology.multi_controller_params))
            par[p0] = 1
            prot_par.add(p0)
            for a in topology.controllers_by_param[p0]:
                app[a] = 1
                prot_app.add(a)
            affected = p0
            injection = InjectedConflict(
                intended, param_name(p0),
                tuple(app_name(a) for a in topology.controllers_by_param[p0]))
        elif intended == ConflictLabel.IMPLICIT:
            candidates = [k for k in topology.multi_source_kpis
                          if len(_clean_kpi_sources(topology, k)) >= 2]
            if not candidates:
                raise SynthesisError(
                    "cannot realize label 2 (implicit): no KPI has two "
                    "source parameters free of internal dependency tangles")
            # Prefer patterns where every source can carry a live app.
            supported = [k for k in candidates if _fully_supportable(
                topology, _clean_kpi_sources(topology, k),
                set(_clean_kpi_sources(topology, k)))]
            if supported:
                candidates = supported
            k0 = int(rng.choice(candidates))
            kpi[k0] = 1
            prot_kpi.add(k0)
            sources = _clean_kpi_sources(topology, k0)
            prot_par.update(sources)
            for s in sources:
                par[s] = 1
                # One active controller per source, where safely possible,
                # so the conflict traces back to a live app.
                a = _pick_controller(topology, s, prot_par, rng)
                if a is not None:
                    app[a] = 1
                    prot_app.add(a)
            affected = k0
            injection = InjectedConflict(
                intended, kpi_name(k0), tuple(param_name(s) for s in sources))
        elif intended == ConflictLabel.INDIRECT:
            candidates = [t for t in topology.multi_source_params
                          if len(_indirect_sources(topology, t)) >= 2]
            if not candidates:
                raise SynthesisError(
                    "cannot realize label 3 (indirect): no parameter has two "
                    "source parameters it does not itself drive")
            supported = [t for t in candidates if _fully_supportable(
                topology, _indirect_sources(topology, t),
                set(_indirect_sources(topology, t)) | {t})]
            if supported:
                candidates = supported
            t0 = int(rng.choice(candidates))
            par[t0] = 1
            sources = _indirect_sources(topology, t0)
            prot_par.add(t0)
            prot_par.update(sources)
            for s in sources:
                par[s] = 1
                a = _pick_controller(topology, s, prot_par, rng)
                if a is not None:
                    app[a] = 1
                    prot_app.add(a)
            affected = t0
            injection = InjectedConflict(
                intended, param_name(t0), tuple(param_name(s) for s in sources))

        for states in (app, par, kpi):
            draws = rng.random(len(states))
            for i in range(len(states)):
                if not states[i] and draws[i] < BACKGROUND_BIT_RATE:
                    states[i] = 1

        if not _repair(topology, app, par, kpi, intended, affected,
                       prot_app, prot_par, prot_kpi):
            continue
        row = BinaryStateRow(tuple(app), tuple(par), tuple(kpi), int(intended))
        if label_row(topology, row) != intended:
            continue
        return row, injection
    raise SynthesisError(
        f"could not realize a row with label {int(intended)}"
        f" ({intended.name.lower()}) after {_SYNTH_ATTEMPTS} attempts")


def synth_rows(topology: Topology, counts: dict[int, int], seed: int):
    """Generate ``counts[label]`` rows per label, shuffled, each paired
    with its injected ground truth (None for normal rows)."""
    rng = np.random.default_rng(seed)
    out = []
    for label in sorted(counts):
        for _ in range(counts[label]):
            out.append(_synth_row(topology, ConflictLabel(label), rng))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def synth_dataset(topology: Topology, n_rows: int, conflict_fraction: float,
                  seed: int) -> Dataset:
    """Synthesize a labeled dataset.

    The conflict mass is split equally among the three conflict labels;
    the remainder is normal.  Realized counts match the declared mix
    exactly, and every stored label equals the oracle label.
    """
    if n_rows < 8:
        raise SizeError("need at least 8 rows")
    if not 0.0 <= conflict_fraction <= 1.0:
        raise DomainError("conflict_fraction must lie in [0, 1]")
    counts = _class_counts(n_rows, conflict_fraction)
    rows = tuple(row for row, _ in synth_rows(topology, counts, seed))
    mix = {label: counts[label] / n_rows for label in sorted(counts)}
    return Dataset(topology=topology, rows=rows, class_mix=mix)


def class_distribution(dataset: Dataset) -> dict[int, int]:
    """Row count per label; the values sum to the dataset size."""
    if not dataset.rows:
        raise EmptyInputError("dataset has no rows")
    hist = {int(label): 0 for label in ConflictLabel}
    for row in dataset.rows:
        hist[int(row.label)] += 1
    return hist


def topology_to_json(topology: Topology) -> str:
    obj = {
        "n_apps": topology.n_apps,
        "n_params": topology.n_params,
        "n_kpis": topology.n_kpis,
        "controls": [list(pair) for pair in topology.controls],
        "kpi_deps": [list(pair) for pair in topology.kpi_deps],
        "param_deps": [list(pair) for pair in topology.param_deps],
        "seed": topology.seed,
    }
    return json.dumps(obj, indent=2) + "\n"


def save_topology(topology: Topology, path) -> None:
    Path(path).write_text(topology_to_json(topology), encoding="utf-8",
                          newline="\n")


def load_topology(path) -> Topology:
    """Read a topology file; every defect of it is a ``GraphicaError``
    naming the file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        return Topology(
            n_apps=int(obj["n_apps"]),
            n_params=int(obj["n_params"]),
            n_kpis=int(obj["n_kpis"]),
            controls=tuple(sorted((int(p), int(a)) for p, a in obj["controls"])),
            kpi_deps=tuple(sorted((int(k), int(p)) for k, p in obj["kpi_deps"])),
            param_deps=tuple(sorted((int(t), int(s)) for t, s in obj["param_deps"])),
            seed=int(obj["seed"]),
        )
    except KeyError as exc:
        raise DomainError(f"{path}: topology file is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        # ValueError covers malformed JSON, fields that are not integers
        # and pairs that are not pairs.
        raise DomainError(f"{path}: malformed topology file ({exc})") from exc
    except GraphicaError as exc:  # the topology's own checks
        raise type(exc)(f"{path}: {exc}") from exc


def _dataset_header(topology: Topology) -> list[str]:
    return ([app_name(i) for i in range(topology.n_apps)]
            + [param_name(i) for i in range(topology.n_params)]
            + [kpi_name(i) for i in range(topology.n_kpis)]
            + ["label"])


def save_dataset(dataset: Dataset, path) -> None:
    """Write the dataset as CSV: one 0/1 column per state bit plus the
    label column, LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_dataset_header(dataset.topology))
        for row in dataset.rows:
            writer.writerow(list(row.bits()) + [int(row.label)])


def load_dataset(path, topology: Topology) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _dataset_header(topology):
            raise ShapeError(f"{path}:1: dataset header does not match the topology")
        rows = []
        a, p, k = topology.n_apps, topology.n_params, topology.n_kpis
        for record in reader:
            if len(record) != topology.width + 1:
                raise ShapeError(f"{path}:{reader.line_num}: row has "
                                 f"{len(record)} fields, expected {topology.width + 1}")
            try:
                bits = [int(x) for x in record]
            except ValueError as exc:
                raise ShapeError(f"{path}:{reader.line_num}: non-integer field ({exc})") from exc
            try:
                rows.append(BinaryStateRow(
                    app_states=tuple(bits[:a]),
                    param_states=tuple(bits[a:a + p]),
                    kpi_states=tuple(bits[a + p:a + p + k]),
                    label=bits[-1],
                ))
            except DomainError as exc:
                raise DomainError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise EmptyInputError(f"no rows in {path}")
    counts = Counter(row.label for row in rows)
    mix = {int(label): counts.get(int(label), 0) / len(rows)
           for label in ConflictLabel}
    return Dataset(topology=topology, rows=tuple(rows), class_mix=mix)
