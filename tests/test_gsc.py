import numpy as np
import pytest

from graphica import conflict_sim as cs
from graphica import gsc
from graphica.errors import EmptyInputError, ShapeError

from reference import batch_graphs
from test_conflict_sim import DEMO_TOPOLOGY, row_with


@pytest.fixture(scope="module")
def topo():
    return cs.new_topology(10, 13, 10, 0)


def brute_force_edges(topology, row):
    """Triple loop over the raw indicator relations."""
    app, par, kpi = row.app_states, row.param_states, row.kpi_states
    p_off, k_off = topology.n_apps, topology.n_apps + topology.n_params
    edges = set()
    for p, a in topology.controls:
        if app[a] and par[p]:
            edges.add((a, p_off + p, int(gsc.EdgeKind.PA)))
    for k, p in topology.kpi_deps:
        if par[p] and kpi[k]:
            edges.add((p_off + p, k_off + k, int(gsc.EdgeKind.KP)))
    for tgt, src in topology.param_deps:
        if par[src] and par[tgt]:
            edges.add((p_off + src, p_off + tgt, int(gsc.EdgeKind.PP)))
    return edges


class TestBuildGraph:
    def test_direct_example_edges(self):
        row = row_with(DEMO_TOPOLOGY, apps=[0, 2], params=[11])
        g = gsc.build_graph(DEMO_TOPOLOGY, row)
        edges = set(zip(g.edge_src, g.edge_dst, g.edge_kind))
        p12 = 10 + 11
        assert edges == {(0, p12, 0), (2, p12, 0)}

    def test_implicit_example_edges(self):
        row = row_with(DEMO_TOPOLOGY, params=[3, 1], kpis=[4])
        g = gsc.build_graph(DEMO_TOPOLOGY, row)
        edges = set(zip(g.edge_src, g.edge_dst, g.edge_kind))
        k5 = 10 + 13 + 4
        assert edges == {(10 + 3, k5, 1), (10 + 1, k5, 1)}

    def test_all_zero_row_has_no_edges(self):
        g = gsc.build_graph(DEMO_TOPOLOGY, row_with(DEMO_TOPOLOGY))
        assert g.n_edges == 0

    def test_node_count_fixed(self, topo):
        for seed in range(3):
            ds = cs.synth_dataset(topo, 16, 0.5, seed)
            for row in ds.rows:
                assert gsc.build_graph(topo, row).n_nodes == topo.width

    def test_width_mismatch(self, topo):
        bad = cs.BinaryStateRow((1,), (0,), (0,))
        with pytest.raises(ShapeError):
            gsc.build_graph(topo, bad)

    @pytest.mark.parametrize("seed", range(6))
    def test_edges_match_brute_force(self, topo, seed):
        ds = cs.synth_dataset(topo, 30, 0.5, seed)
        for row in ds.rows:
            g = gsc.build_graph(topo, row)
            got = set(zip(g.edge_src.tolist(), g.edge_dst.tolist(),
                          g.edge_kind.tolist()))
            assert got == brute_force_edges(topo, row)
            assert len(got) == g.n_edges  # no duplicate edges

    def test_relabeling_apps_permutes_graph(self):
        base = cs.new_topology(4, 5, 2, 3)
        perm = [2, 0, 3, 1]  # new index of each old app
        permuted = cs.Topology(
            n_apps=4, n_params=5, n_kpis=2,
            controls=tuple(sorted((p, perm[a]) for p, a in base.controls)),
            kpi_deps=base.kpi_deps,
            param_deps=base.param_deps,
            seed=base.seed,
        )
        ds = cs.synth_dataset(base, 24, 0.5, 9)
        for row in ds.rows:
            moved = [0] * 4
            for a, bit in enumerate(row.app_states):
                moved[perm[a]] = bit
            row2 = cs.BinaryStateRow(tuple(moved), row.param_states,
                                     row.kpi_states, row.label)
            g1 = gsc.build_graph(base, row)
            g2 = gsc.build_graph(permuted, row2)
            mapped = {(perm[s] if k == 0 else s, d, k)
                      for s, d, k in zip(g1.edge_src, g1.edge_dst, g1.edge_kind)}
            got = set(zip(g2.edge_src.tolist(), g2.edge_dst.tolist(),
                          g2.edge_kind.tolist()))
            assert mapped == got

    @pytest.mark.parametrize("seed", range(4))
    def test_label_matches_indegree_pattern(self, topo, seed):
        kind_for_label = {1: 0, 2: 1, 3: 2}
        ds = cs.synth_dataset(topo, 40, 0.5, seed + 100)
        for row in ds.rows:
            g = gsc.build_graph(topo, row)
            per_kind = {
                k: np.bincount(g.edge_dst[g.edge_kind == k], minlength=g.n_nodes)
                for k in (0, 1, 2)
            }
            if row.label == 0:
                assert all(deg.max(initial=0) < 2 for deg in per_kind.values())
            else:
                assert per_kind[kind_for_label[row.label]].max(initial=0) >= 2


class TestNodeFeatures:
    def test_active_app_with_one_edge(self):
        row = row_with(DEMO_TOPOLOGY, apps=[0, 2], params=[11])
        g = gsc.build_graph(DEMO_TOPOLOGY, row)
        assert np.allclose(g.features[0], [1, 0, 0, 1, 1 / 32])

    def test_isolated_inactive_kpi(self):
        g = gsc.build_graph(DEMO_TOPOLOGY, row_with(DEMO_TOPOLOGY))
        assert np.allclose(g.features[-1], [0, 0, 1, 0, 0])

    def test_role_one_hot_and_range(self, topo):
        ds = cs.synth_dataset(topo, 20, 0.5, 4)
        for row in ds.rows:
            feats = gsc.build_graph(topo, row).features
            assert np.all(feats[:, :3].sum(axis=1) == 1.0)
            assert feats.min() >= 0.0 and feats.max() <= 1.0


class TestBatchGraphs:
    """The reference's disjoint-union batch (tests/reference.py)."""

    def test_two_graphs(self, topo):
        ds = cs.synth_dataset(topo, 8, 0.5, 6)
        graphs = [gsc.build_graph(topo, r) for r in ds.rows[:2]]
        batch = batch_graphs(graphs)
        assert batch.features.shape[0] == 66
        assert list(batch.membership) == [0] * 33 + [1] * 33
        assert list(batch.nodes_per_graph) == [33, 33]

    def test_edge_counts_add(self, topo):
        ds = cs.synth_dataset(topo, 12, 0.5, 7)
        graphs = [gsc.build_graph(topo, r) for r in ds.rows]
        batch = batch_graphs(graphs)
        assert batch.edge_src.size == sum(g.n_edges for g in graphs)
        # no cross-graph edges: both endpoints in the same block
        assert np.array_equal(batch.membership[batch.edge_src],
                              batch.membership[batch.edge_dst])

    def test_single_graph_batch(self, topo):
        ds = cs.synth_dataset(topo, 8, 0.5, 8)
        g = gsc.build_graph(topo, ds.rows[0])
        batch = batch_graphs([g])
        assert np.array_equal(batch.features, g.features)
        assert np.all(batch.membership == 0)
        assert batch.labels is not None and batch.labels[0] == ds.rows[0].label

    def test_empty_list(self):
        with pytest.raises(EmptyInputError):
            batch_graphs([])


class TestNames:
    def test_node_names(self, topo):
        g = gsc.build_graph(topo, row_with(topo))
        assert g.node_name(0) == "a1"
        assert g.node_name(10) == "p1"
        assert g.node_name(22) == "p13"
        assert g.node_name(23) == "k1"
        assert g.node_index("p13") == 22
        with pytest.raises(ShapeError):
            g.node_index("x1")

    def test_edgelist_export(self):
        row = row_with(DEMO_TOPOLOGY, apps=[0, 2], params=[11])
        g = gsc.build_graph(DEMO_TOPOLOGY, row)
        assert gsc.graph_to_edgelist(g) == "a1 PA p12\na3 PA p12\n"
