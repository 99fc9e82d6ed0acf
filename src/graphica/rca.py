"""Root cause tracing for predicted conflicts.

Given a predicted conflict class and the row's influence graph, the
affected node is the one receiving two or more edges of the class's edge
kind (or, when it has none, of any kind); the sources of those edges are
the root-cause nodes, and the apps behind them are the root-cause xApps.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conflict_sim import Topology, app_name
from .gsc import ConflictGraph, EdgeKind

#: Sentinel affected-node name when no node shows a conflict pattern.
UNLOCALIZED = "unlocalized"

CONFLICT_TYPE_NAMES = {1: "Direct", 2: "Implicit", 3: "Indirect"}

_KIND_FOR_LABEL = {1: EdgeKind.PA, 2: EdgeKind.KP, 3: EdgeKind.PP}


@dataclass(frozen=True)
class RcaRow:
    predicted_label: int
    conflict_type: str
    affected_node: str
    root_cause_nodes: tuple[str, ...]
    root_cause_xapps: tuple[str, ...]


@dataclass(eq=False)
class RcaReport:
    """Rows for every non-normal prediction, in prediction order."""

    topology: Topology
    rows: list[RcaRow]


def _in_degrees(graph: ConflictGraph, kind: EdgeKind) -> np.ndarray:
    mask = graph.edge_kind == int(kind)
    return np.bincount(graph.edge_dst[mask], minlength=graph.n_nodes)


def _locate(graph: ConflictGraph, predicted: int):
    """Node index and edge kind of the conflict pattern, or None when no
    node has two incoming edges of any single kind.

    The kind implied by the predicted class is preferred; when it shows
    no pattern, the maximum within-kind in-degree across all kinds wins.
    """
    preferred = _KIND_FOR_LABEL[int(predicted)]
    deg = _in_degrees(graph, preferred)
    if deg.max(initial=0) >= 2:
        return int(np.argmax(deg)), preferred
    stacked = np.stack([_in_degrees(graph, k) for k in EdgeKind])
    per_node = stacked.max(axis=0)
    if per_node.max(initial=0) < 2:
        return None
    node = int(np.argmax(per_node))
    kind = EdgeKind(int(np.argmax(stacked[:, node])))
    return node, kind


def _roots(graph: ConflictGraph, node: int, kind: EdgeKind, topology: Topology):
    """Root-cause node ids and xApp ids of the conflict at ``node``: the
    sources of its incoming kind-``kind`` edges.  For control edges the
    roots already are apps; otherwise each root parameter maps to its
    currently active controlling apps."""
    mask = (graph.edge_kind == int(kind)) & (graph.edge_dst == node)
    sources = sorted(int(s) for s in graph.edge_src[mask])
    if kind == EdgeKind.PA:
        return sources, sources
    apps: set[int] = set()
    for s in sources:
        param = s - graph.n_apps
        for a in topology.controllers_by_param[param]:
            if graph.states[a]:
                apps.add(a)
    return sources, sorted(apps)


def build_report(predictions, topology: Topology) -> RcaReport:
    """One report row per non-normal prediction; normal predictions are
    filtered out.  ``predictions`` pairs each predicted label with the
    row's graph."""
    rows: list[RcaRow] = []
    for predicted, graph in predictions:
        predicted = int(predicted)
        if predicted == 0:
            continue
        located = _locate(graph, predicted)
        if located is None:
            rows.append(RcaRow(predicted, CONFLICT_TYPE_NAMES[predicted],
                               UNLOCALIZED, (), ()))
            continue
        node, kind = located
        sources, apps = _roots(graph, node, kind, topology)
        rows.append(RcaRow(predicted, CONFLICT_TYPE_NAMES[predicted],
                           graph.node_name(node),
                           tuple(graph.node_name(s) for s in sources),
                           tuple(app_name(a) for a in apps)))
    return RcaReport(topology=topology, rows=rows)


def report_to_csv(report: RcaReport, path) -> None:
    """CSV export; multi-valued fields are semicolon-joined and quoted."""
    lines = ["predicted_label,conflict_type,affected_node,"
             "root_cause_nodes,root_cause_xapps"]
    for row in report.rows:
        nodes = ";".join(row.root_cause_nodes)
        apps = ";".join(row.root_cause_xapps)
        lines.append(f'{row.predicted_label},{row.conflict_type},'
                     f'{row.affected_node},"{nodes}","{apps}"')
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")


def format_report_table(report: RcaReport) -> str:
    """Fixed-width table of the report for terminal output."""
    headers = ("Predicted Label", "Conflict Type", "Affected Node",
               "Root Causes Nodes", "Root Causes xApps")
    body = [
        (str(row.predicted_label), row.conflict_type, row.affected_node,
         ", ".join(row.root_cause_nodes), ", ".join(row.root_cause_xapps))
        for row in report.rows
    ]
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(r) for r in body)
    return "\n".join(lines)
