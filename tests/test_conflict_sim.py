import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphica import conflict_sim as cs
from graphica.errors import (
    DomainError,
    EmptyInputError,
    ShapeError,
    SizeError,
)

# Small handmade deployment used by the oracle examples: p12 is controlled
# by a1 and a3, p8 depends on p1 and p3, k10 on p1 and p9, k5 on p4 and p2.
DEMO_TOPOLOGY = cs.Topology(
    n_apps=10,
    n_params=13,
    n_kpis=10,
    controls=tuple(sorted(
        [(11, 0), (11, 2)] + [(p, p % 10) for p in range(13) if p != 11])),
    kpi_deps=((9, 0), (9, 8), (4, 3), (4, 1), (0, 5)),
    param_deps=((7, 0), (7, 2), (12, 6), (12, 8), (12, 9), (5, 1), (0, 3),
                (1, 4), (2, 5), (3, 7), (4, 10), (6, 11), (8, 12)),
    seed=0,
)


def row_with(topology, apps=(), params=(), kpis=(), label=None):
    app = [0] * topology.n_apps
    par = [0] * topology.n_params
    kpi = [0] * topology.n_kpis
    for a in apps:
        app[a] = 1
    for p in params:
        par[p] = 1
    for k in kpis:
        kpi[k] = 1
    return cs.BinaryStateRow(tuple(app), tuple(par), tuple(kpi), label)


class TestNewTopology:
    def test_deterministic(self):
        assert cs.new_topology(10, 13, 10, 42) == cs.new_topology(10, 13, 10, 42)

    def test_different_seeds_differ(self):
        assert cs.new_topology(10, 13, 10, 1) != cs.new_topology(10, 13, 10, 2)

    def test_default_sizes_name_spaces(self):
        topo = cs.new_topology(10, 13, 10, 7)
        assert (topo.n_apps, topo.n_params, topo.n_kpis) == (10, 13, 10)
        assert cs.app_name(topo.n_apps - 1) == "a10"
        assert cs.param_name(topo.n_params - 1) == "p13"
        assert cs.kpi_name(topo.n_kpis - 1) == "k10"

    @pytest.mark.parametrize("sizes", [(1, 13, 10), (2, 2, 10), (2, 3, 0)])
    def test_size_preconditions(self, sizes):
        with pytest.raises(SizeError):
            cs.new_topology(*sizes, seed=0)

    def test_minimal_sizes(self):
        topo = cs.new_topology(2, 3, 1, 5)
        assert topo.multi_controller_params
        assert topo.multi_source_kpis
        assert topo.multi_source_params

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants(self, seed):
        topo = cs.new_topology(10, 13, 10, seed)
        assert all((t != s) for t, s in topo.param_deps)
        assert all(topo.controllers_by_param[p] for p in range(topo.n_params))
        assert 1 <= max(len(c) for c in topo.controllers_by_param) <= 3
        assert 1 <= max(len(s) for s in topo.sources_by_kpi) <= 3
        # every parameter drives exactly one other parameter
        assert len(topo.param_deps) == topo.n_params
        assert sorted(src for _, src in topo.param_deps) == list(range(topo.n_params))


class TestTopologyValidation:
    def test_rejects_self_dependency(self):
        with pytest.raises(DomainError, match="depends on itself"):
            cs.Topology(2, 3, 1, ((0, 0), (0, 1), (1, 0), (2, 1)),
                        ((0, 0), (0, 1)), ((1, 1), (2, 0), (0, 2)), 0)

    def test_rejects_uncontrolled_parameter(self):
        with pytest.raises(DomainError, match="controlling app"):
            cs.Topology(2, 3, 1, ((0, 0), (0, 1), (1, 0)),
                        ((0, 0), (0, 1)), ((1, 0), (2, 1), (0, 2)), 0)


class TestLabelRow:
    def test_direct_two_controllers(self):
        row = row_with(DEMO_TOPOLOGY, apps=[0, 2], params=[11])
        assert cs.label_row(DEMO_TOPOLOGY, row) == cs.ConflictLabel.DIRECT

    def test_all_zero_row_is_normal(self):
        row = row_with(DEMO_TOPOLOGY)
        assert cs.label_row(DEMO_TOPOLOGY, row) == cs.ConflictLabel.NORMAL

    def test_implicit_two_sources(self):
        row = row_with(DEMO_TOPOLOGY, params=[0, 8], kpis=[9])
        assert cs.label_row(DEMO_TOPOLOGY, row) == cs.ConflictLabel.IMPLICIT

    def test_indirect_two_sources(self):
        row = row_with(DEMO_TOPOLOGY, params=[0, 2, 7])
        assert cs.label_row(DEMO_TOPOLOGY, row) == cs.ConflictLabel.INDIRECT

    def test_single_controller_stays_normal(self):
        row = row_with(DEMO_TOPOLOGY, apps=[0], params=[11])
        assert cs.label_row(DEMO_TOPOLOGY, row) == cs.ConflictLabel.NORMAL

    def test_priority_direct_over_implicit_over_indirect(self):
        everything = row_with(DEMO_TOPOLOGY, apps=[0, 2],
                              params=[0, 2, 7, 8, 11], kpis=[9])
        assert cs.label_row(DEMO_TOPOLOGY, everything) == cs.ConflictLabel.DIRECT
        no_direct = row_with(DEMO_TOPOLOGY, params=[0, 2, 7, 8], kpis=[9])
        assert cs.label_row(DEMO_TOPOLOGY, no_direct) == cs.ConflictLabel.IMPLICIT

    def test_width_mismatch(self):
        short = cs.BinaryStateRow((1, 0), (0,) * 13, (0,) * 10)
        with pytest.raises(ShapeError):
            cs.label_row(DEMO_TOPOLOGY, short)

    def test_exhaustive_small_topology(self):
        # independent rule check over every possible row of a 9-bit deployment
        topo = cs.new_topology(3, 4, 2, 11)
        width = topo.width
        for code in range(2 ** width):
            bits = [(code >> i) & 1 for i in range(width)]
            row = cs.BinaryStateRow(tuple(bits[:3]), tuple(bits[3:7]),
                                    tuple(bits[7:9]))
            assert cs.label_row(topo, row) == brute_force_label(topo, row)


def brute_force_label(topology, row):
    """Straight transcription of the conflict definitions, written against
    the raw relation pairs rather than the lookup tables."""
    app, par, kpi = row.app_states, row.param_states, row.kpi_states
    for p in range(topology.n_params):
        active = {a for (q, a) in topology.controls if q == p and app[a]}
        if par[p] and len(active) >= 2:
            return 1
    for k in range(topology.n_kpis):
        changed = {p for (m, p) in topology.kpi_deps if m == k and par[p]}
        if kpi[k] and len(changed) >= 2:
            return 2
    for t in range(topology.n_params):
        changed = {p for (u, p) in topology.param_deps if u == t and par[p]}
        if par[t] and len(changed) >= 2:
            return 3
    return 0


class TestStateRow:
    def test_rejects_non_binary(self):
        with pytest.raises(DomainError):
            cs.BinaryStateRow((2,), (0,), (0,))

    def test_rejects_bad_label(self):
        with pytest.raises(DomainError):
            cs.BinaryStateRow((0,), (0,), (0,), label=4)

    def test_width(self):
        row = row_with(DEMO_TOPOLOGY)
        assert row.width == DEMO_TOPOLOGY.width == 33
        assert len(row.bits()) == 33


@pytest.fixture(scope="module")
def topo():
    return cs.new_topology(10, 13, 10, 0)


class TestSynthDataset:
    def test_ten_percent_counts(self, topo):
        ds = cs.synth_dataset(topo, 570, 0.10, 7)
        assert cs.class_distribution(ds) == {0: 513, 1: 19, 2: 19, 3: 19}

    def test_balanced_counts(self, topo):
        ds = cs.synth_dataset(topo, 800, 0.75, 3)
        assert cs.class_distribution(ds) == {0: 200, 1: 200, 2: 200, 3: 200}

    def test_zero_conflict(self, topo):
        ds = cs.synth_dataset(topo, 24, 0.0, 9)
        assert all(row.label == 0 for row in ds.rows)

    def test_labels_round_trip_through_oracle(self, topo):
        ds = cs.synth_dataset(topo, 240, 0.4, 5)
        for row in ds.rows:
            assert cs.label_row(topo, row) == row.label

    def test_deterministic(self, topo):
        a = cs.synth_dataset(topo, 120, 0.25, 13)
        b = cs.synth_dataset(topo, 120, 0.25, 13)
        assert a.rows == b.rows

    def test_declared_mix_matches_counts(self, topo):
        ds = cs.synth_dataset(topo, 570, 0.10, 1)
        counts = cs.class_distribution(ds)
        for label, fraction in ds.class_mix.items():
            assert abs(counts[label] - fraction * 570) <= 1

    def test_too_few_rows(self, topo):
        with pytest.raises(SizeError):
            cs.synth_dataset(topo, 7, 0.5, 0)

    def test_fraction_bounds(self, topo):
        with pytest.raises(DomainError):
            cs.synth_dataset(topo, 100, 1.5, 0)

    def test_single_concentration_per_row(self, topo):
        # background never forms a second concurrent-influence concentration:
        # scanning with no exemptions flags nothing on normal rows and only
        # the injected node on conflict rows
        pairs = cs.synth_rows(topo, {0: 40, 1: 20, 2: 20, 3: 20}, 21)
        for row, injection in pairs:
            found = cs._find_violation(
                topo, list(row.app_states), list(row.param_states),
                list(row.kpi_states), cs.ConflictLabel.NORMAL, -1)
            if injection is None:
                assert found is None
            else:
                plane, _, node, _ = found
                assert plane == injection.label
                name = (cs.kpi_name(node) if plane == cs.ConflictLabel.IMPLICIT
                        else cs.param_name(node))
                assert name == injection.affected

    def test_injections_match_rows(self, topo):
        pairs = cs.synth_rows(topo, {0: 10, 1: 10, 2: 10, 3: 10}, 17)
        for row, injection in pairs:
            if row.label == 0:
                assert injection is None
            else:
                assert injection.label == row.label
                assert len(injection.sources) >= 2


class TestClassDistribution:
    def test_empty_dataset(self, topo):
        empty = cs.Dataset(topo, (), {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0})
        with pytest.raises(EmptyInputError):
            cs.class_distribution(empty)

    def test_sums_to_row_count(self, topo):
        ds = cs.synth_dataset(topo, 64, 0.5, 2)
        assert sum(cs.class_distribution(ds).values()) == 64


class TestSerialization:
    def test_topology_json_round_trip(self, topo, tmp_path):
        path = tmp_path / "topology.json"
        cs.save_topology(topo, path)
        assert cs.load_topology(path) == topo

    @pytest.mark.parametrize("key, what", [("controls", "control pair"),
                                           ("kpi_deps", "KPI dependency"),
                                           ("param_deps", "parameter dependency")])
    def test_duplicate_pair_is_rejected(self, topo, tmp_path, key, what):
        import json
        obj = json.loads(cs.topology_to_json(topo))
        pair = obj[key][0]
        obj[key].append(pair)
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match=rf"duplicate {what} \({pair[0]}, {pair[1]}\)"):
            cs.load_topology(path)

    def test_topology_json_keys(self, topo):
        import json
        obj = json.loads(cs.topology_to_json(topo))
        assert set(obj) == {"n_apps", "n_params", "n_kpis", "controls",
                            "kpi_deps", "param_deps", "seed"}

    def test_dataset_csv_round_trip(self, topo, tmp_path):
        ds = cs.synth_dataset(topo, 40, 0.5, 3)
        path = tmp_path / "dataset.csv"
        cs.save_dataset(ds, path)
        loaded = cs.load_dataset(path, topo)
        assert loaded.rows == ds.rows

    def test_dataset_csv_format(self, topo, tmp_path):
        ds = cs.synth_dataset(topo, 16, 0.25, 3)
        path = tmp_path / "dataset.csv"
        cs.save_dataset(ds, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        header = raw.decode().splitlines()[0]
        assert header.startswith("a1,") and header.endswith(",k10,label")

    def test_csv_header_mismatch(self, topo, tmp_path):
        other = cs.new_topology(4, 5, 2, 1)
        ds = cs.synth_dataset(other, 16, 0.5, 1)
        path = tmp_path / "dataset.csv"
        cs.save_dataset(ds, path)
        with pytest.raises(ShapeError):
            cs.load_dataset(path, topo)


@given(seed=st.integers(0, 10_000), code=st.integers(0, 2 ** 13 - 1))
@settings(max_examples=60, deadline=None)
def test_label_row_is_total_and_deterministic(seed, code):
    topo = cs.new_topology(3, 4, 2, seed % 7)
    bits = [(code >> i) & 1 for i in range(topo.width)]
    row = cs.BinaryStateRow(tuple(bits[:3]), tuple(bits[3:7]), tuple(bits[7:9]))
    first = cs.label_row(topo, row)
    assert first in (0, 1, 2, 3)
    assert cs.label_row(topo, row) == first
