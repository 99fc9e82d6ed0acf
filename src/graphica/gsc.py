"""Conflict graph construction from binary-state rows.

A row and its topology induce one directed graph over all apps,
parameters and KPIs.  An influence edge exists iff the topology declares
it and both endpoints carry a ``1`` state: app->parameter (control),
parameter->KPI (drive), parameter->parameter (drive).  Inactive entities
stay in the graph as isolated nodes, so every graph over one topology
has the same node count, and its symmetrized kind-t edges are one fixed
mask M_t gated by the row's state bits x: M_t * outer(x, x).  The
classifier packs a topology's graphs in that form (``gap.row_tensors``):
node features, state bits, and one mask per edge kind taken from the
packed graphs' edges.  Besides that packing, graphs are read where a
person reads them: root cause tracing and the edge-list debug export.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .conflict_sim import (
    BinaryStateRow,
    Topology,
    app_name,
    kpi_name,
    param_name,
)
from .errors import ShapeError

#: Node feature layout: role one-hot (3) + state bit + normalized degree.
NUM_NODE_FEATURES = 5


class NodeKind(IntEnum):
    APP = 0
    PARAM = 1
    KPI = 2


class EdgeKind(IntEnum):
    PA = 0  # app -> parameter
    KP = 1  # parameter -> KPI
    PP = 2  # parameter -> parameter


EDGE_KIND_NAMES = {EdgeKind.PA: "PA", EdgeKind.KP: "KP", EdgeKind.PP: "PP"}


@dataclass(eq=False)
class ConflictGraph:
    """Merged influence graph of one row.

    Nodes are ordered apps first, then parameters, then KPIs, each by
    index; a node's id is its position in that order.
    """

    n_apps: int
    n_params: int
    n_kpis: int
    kinds: np.ndarray       # (N,) NodeKind values
    states: np.ndarray      # (N,) 0/1
    edge_src: np.ndarray    # (E,) node ids
    edge_dst: np.ndarray    # (E,)
    edge_kind: np.ndarray   # (E,) EdgeKind values
    features: np.ndarray    # (N, NUM_NODE_FEATURES)
    label: int | None = None

    @property
    def n_nodes(self) -> int:
        return self.kinds.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_src.shape[0]

    def node_name(self, index: int) -> str:
        if index < self.n_apps:
            return app_name(index)
        if index < self.n_apps + self.n_params:
            return param_name(index - self.n_apps)
        return kpi_name(index - self.n_apps - self.n_params)

    def node_index(self, name: str) -> int:
        offsets = {"a": 0, "p": self.n_apps, "k": self.n_apps + self.n_params}
        body = name[1:]
        if name[:1] not in offsets or not body.isdigit():
            raise ShapeError(f"unknown node name {name!r}")
        index = offsets[name[0]] + int(body) - 1
        if not 0 <= index < self.n_nodes:
            raise ShapeError(f"node name {name!r} outside this graph")
        return index


def _node_feature_matrix(kinds, states, edge_src, edge_dst) -> np.ndarray:
    """Per-node rows [is_app, is_param, is_kpi, state,
    degree / max(1, N - 1)], all in [0, 1]."""
    n = kinds.shape[0]
    feats = np.zeros((n, NUM_NODE_FEATURES))
    feats[np.arange(n), kinds] = 1.0
    feats[:, 3] = states
    degree = (np.bincount(edge_src, minlength=n)
              + np.bincount(edge_dst, minlength=n))
    feats[:, 4] = degree / max(1, n - 1)
    return feats


def build_graph(topology: Topology, row: BinaryStateRow) -> ConflictGraph:
    """Build the merged influence graph for one row.

    Edges follow the concurrent-state rule: an edge exists iff the
    dependency is declared in the topology and both endpoint states are 1.
    """
    got = (len(row.app_states), len(row.param_states), len(row.kpi_states))
    want = (topology.n_apps, topology.n_params, topology.n_kpis)
    if got != want:
        raise ShapeError(f"row sections {got} do not match topology {want}")

    app, par, kpi = row.app_states, row.param_states, row.kpi_states
    p_off = topology.n_apps
    k_off = topology.n_apps + topology.n_params
    src: list[int] = []
    dst: list[int] = []
    kind: list[int] = []
    for p in range(topology.n_params):
        if not par[p]:
            continue
        for a in topology.controllers_by_param[p]:
            if app[a]:
                src.append(a)
                dst.append(p_off + p)
                kind.append(int(EdgeKind.PA))
    for k in range(topology.n_kpis):
        if not kpi[k]:
            continue
        for p in topology.sources_by_kpi[k]:
            if par[p]:
                src.append(p_off + p)
                dst.append(k_off + k)
                kind.append(int(EdgeKind.KP))
    for tgt in range(topology.n_params):
        if not par[tgt]:
            continue
        for s in topology.sources_by_param[tgt]:
            if par[s]:
                src.append(p_off + s)
                dst.append(p_off + tgt)
                kind.append(int(EdgeKind.PP))

    kinds = np.concatenate([
        np.full(topology.n_apps, NodeKind.APP, dtype=np.int8),
        np.full(topology.n_params, NodeKind.PARAM, dtype=np.int8),
        np.full(topology.n_kpis, NodeKind.KPI, dtype=np.int8),
    ])
    states = np.array(row.bits(), dtype=np.int8)
    edge_src = np.array(src, dtype=np.int64)
    edge_dst = np.array(dst, dtype=np.int64)
    edge_kind = np.array(kind, dtype=np.int64)
    return ConflictGraph(
        n_apps=topology.n_apps,
        n_params=topology.n_params,
        n_kpis=topology.n_kpis,
        kinds=kinds,
        states=states,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_kind=edge_kind,
        features=_node_feature_matrix(kinds, states, edge_src, edge_dst),
        label=None if row.label is None else int(row.label),
    )


def graph_to_edgelist(graph: ConflictGraph) -> str:
    """Debug export: one ``source kind target`` triple per line."""
    lines = []
    for s, d, k in zip(graph.edge_src, graph.edge_dst, graph.edge_kind):
        lines.append(f"{graph.node_name(int(s))} "
                     f"{EDGE_KIND_NAMES[EdgeKind(int(k))]} "
                     f"{graph.node_name(int(d))}")
    return "\n".join(lines) + ("\n" if lines else "")
