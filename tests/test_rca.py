"""Root cause tracing, checked through the rows ``rca.build_report``
returns: the affected node it finds, and the root-cause nodes and xApps
it traces from there."""

from graphica import conflict_sim as cs
from graphica import rca
from graphica.gsc import build_graph

from test_conflict_sim import DEMO_TOPOLOGY, row_with


def direct_graph():
    row = row_with(DEMO_TOPOLOGY, apps=[0, 2], params=[11])
    return build_graph(DEMO_TOPOLOGY, row)


def implicit_graph():
    # k5 driven by p4 and p2; their controllers a4 and a2 are active
    row = row_with(DEMO_TOPOLOGY, apps=[3, 1], params=[3, 1], kpis=[4])
    return build_graph(DEMO_TOPOLOGY, row)


def indirect_graph():
    # p8 depends on p1 and p3; controllers a1 and a3 active
    row = row_with(DEMO_TOPOLOGY, apps=[0, 2], params=[0, 2, 7])
    return build_graph(DEMO_TOPOLOGY, row)


def p10_topology(controllers):
    """The demo's shape with ``controllers`` all controlling p10, and
    a1 and a3 controlling p12."""
    return cs.Topology(
        n_apps=10, n_params=13, n_kpis=10,
        controls=tuple(sorted(
            [(9, a) for a in controllers] + [(11, 0), (11, 2)]
            + [(p, p % 10) for p in range(13) if p not in (9, 11)])),
        kpi_deps=((0, 0), (0, 1)),
        param_deps=((7, 0), (7, 2)) + tuple(
            (p + 1 if p < 12 else 1, p) for p in range(13)
            if p not in (0, 2)),
        seed=0,
    )


def traced(graph, predicted, topology=DEMO_TOPOLOGY):
    """The one report row of a graph predicted as ``predicted``."""
    rows = rca.build_report([(predicted, graph)], topology).rows
    assert len(rows) == 1
    return rows[0]


class TestFindAffected:
    """The affected node of a report row."""

    def test_direct(self):
        assert traced(direct_graph(), 1).affected_node == "p12"

    def test_implicit(self):
        assert traced(implicit_graph(), 2).affected_node == "k5"

    def test_unlocalized(self):
        graph = build_graph(DEMO_TOPOLOGY, row_with(DEMO_TOPOLOGY))
        row = traced(graph, 1)
        assert row.affected_node == rca.UNLOCALIZED
        assert row.root_cause_nodes == () and row.root_cause_xapps == ()

    def test_falls_back_across_kinds(self):
        # prediction says direct but only an implicit pattern exists
        row = traced(implicit_graph(), 1)
        assert row.affected_node == "k5"
        assert row.conflict_type == "Direct"
        assert row.root_cause_nodes == ("p2", "p4")
        assert row.root_cause_xapps == ("a2", "a4")

    def test_max_in_degree_wins(self):
        # p10 has three active controllers, p12 two
        topo = p10_topology([1, 4, 7])
        row = row_with(topo, apps=[0, 1, 2, 4, 7], params=[9, 11])
        traced_row = traced(build_graph(topo, row), 1, topo)
        assert traced_row.affected_node == "p10"
        assert traced_row.root_cause_nodes == ("a2", "a5", "a8")


class TestTraceRoots:
    """The root-cause nodes and xApps of a report row."""

    def test_direct_roots_are_the_apps(self):
        row = traced(direct_graph(), 1)
        assert row.root_cause_nodes == ("a1", "a3")
        assert row.root_cause_xapps == ("a1", "a3")

    def test_indirect_maps_params_to_active_controllers(self):
        row = traced(indirect_graph(), 3)
        assert row.affected_node == "p8"
        assert row.root_cause_nodes == ("p1", "p3")
        assert row.root_cause_xapps == ("a1", "a3")

    def test_implicit_example(self):
        # k10 depends on p1 and p9; a1 and a9 control them
        row = row_with(DEMO_TOPOLOGY, apps=[0, 8], params=[0, 8], kpis=[9])
        traced_row = traced(build_graph(DEMO_TOPOLOGY, row), 2)
        assert traced_row.affected_node == "k10"
        assert traced_row.root_cause_nodes == ("p1", "p9")
        assert traced_row.root_cause_xapps == ("a1", "a9")

    def test_three_app_direct(self):
        topo = p10_topology([1, 4, 7])
        row = row_with(topo, apps=[1, 4, 7], params=[9])
        traced_row = traced(build_graph(topo, row), 1, topo)
        assert traced_row.affected_node == "p10"
        assert traced_row.root_cause_xapps == ("a2", "a5", "a8")


class TestBuildReport:
    def test_all_normal_is_empty(self):
        graph = build_graph(DEMO_TOPOLOGY, row_with(DEMO_TOPOLOGY))
        report = rca.build_report([(0, graph)] * 5, DEMO_TOPOLOGY)
        assert report.rows == []

    def test_count_preservation(self):
        graphs = [(0, direct_graph()), (1, direct_graph()),
                  (2, implicit_graph()), (3, indirect_graph()),
                  (0, implicit_graph()), (1, direct_graph()),
                  (2, implicit_graph()), (3, indirect_graph()),
                  (1, direct_graph())]
        report = rca.build_report(graphs, DEMO_TOPOLOGY)
        assert len(report.rows) == 7

    def test_row_contents(self):
        report = rca.build_report([(1, direct_graph())], DEMO_TOPOLOGY)
        row = report.rows[0]
        assert row.predicted_label == 1
        assert row.conflict_type == "Direct"
        assert row.affected_node == "p12"
        assert row.root_cause_nodes == ("a1", "a3")
        assert row.root_cause_xapps == ("a1", "a3")

    def test_nodes_belong_to_topology(self, tmp_path):
        topo = cs.new_topology(10, 13, 10, 0)
        ds = cs.synth_dataset(topo, 60, 0.75, 2)
        graphs = [build_graph(topo, r) for r in ds.rows]
        report = rca.build_report(
            [(r.label, g) for r, g in zip(ds.rows, graphs)], topo)
        valid = ({cs.app_name(i) for i in range(10)}
                 | {cs.param_name(i) for i in range(13)}
                 | {cs.kpi_name(i) for i in range(10)})
        for row in report.rows:
            assert row.affected_node in valid
            assert set(row.root_cause_nodes) <= valid
            assert set(row.root_cause_xapps) <= valid


class TestGroundTruthRecovery:
    def test_recovers_injected_patterns(self):
        topo = cs.new_topology(10, 13, 10, 1)
        pairs = cs.synth_rows(topo, {1: 40, 2: 40, 3: 40}, 5)
        report = rca.build_report(
            [(row.label, build_graph(topo, row)) for row, _ in pairs], topo)
        assert len(report.rows) == len(pairs)
        for (row, injection), traced_row in zip(pairs, report.rows):
            assert traced_row.affected_node == injection.affected
            assert set(traced_row.root_cause_nodes) == set(injection.sources)
            for a in traced_row.root_cause_xapps:
                assert row.app_states[int(a[1:]) - 1] == 1

    def test_reported_apps_are_active(self):
        topo = cs.new_topology(10, 13, 10, 2)
        ds = cs.synth_dataset(topo, 120, 0.6, 8)
        for row in ds.rows:
            if row.label == 0:
                continue
            graph = build_graph(topo, row)
            report = rca.build_report([(row.label, graph)], topo)
            for name in report.rows[0].root_cause_xapps:
                assert row.app_states[int(name[1:]) - 1] == 1


class TestExports:
    def test_csv_format(self, tmp_path):
        report = rca.build_report([(1, direct_graph())], DEMO_TOPOLOGY)
        path = tmp_path / "rca.csv"
        rca.report_to_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("predicted_label,conflict_type,affected_node,"
                            "root_cause_nodes,root_cause_xapps")
        assert lines[1] == '1,Direct,p12,"a1;a3","a1;a3"'

    def test_empty_report_has_header_only(self, tmp_path):
        report = rca.build_report([], DEMO_TOPOLOGY)
        path = tmp_path / "rca.csv"
        rca.report_to_csv(report, path)
        assert len(path.read_text().splitlines()) == 1

    def test_table_mirrors_rows(self):
        report = rca.build_report(
            [(1, direct_graph()), (2, implicit_graph())], DEMO_TOPOLOGY)
        table = rca.format_report_table(report)
        lines = table.splitlines()
        assert "Predicted Label" in lines[0]
        assert len(lines) == 2 + len(report.rows)
        assert "p12" in table and "k5" in table
