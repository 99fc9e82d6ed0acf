"""Adam, and the dense reference (tests/reference.py) that the
classifier's batched forward pass is checked against."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphica import conflict_sim as cs
from graphica import numerics
from graphica.errors import DomainError, NumericError, ShapeError
from graphica.gsc import ConflictGraph, build_graph

import reference
from reference import batch_graphs


def make_batch(seed=0, n_graphs=3):
    topo = cs.new_topology(6, 7, 4, seed)
    ds = cs.synth_dataset(topo, max(8, n_graphs), 0.75, seed)
    return batch_graphs([build_graph(topo, r) for r in ds.rows[:n_graphs]])


class TestNormalizeAdjacency:
    def test_edgeless_graph_is_identity(self):
        batch = make_batch()
        empty = batch_graphs([build_graph(
            cs.new_topology(2, 3, 1, 3),
            cs.BinaryStateRow((0, 0), (0, 0, 0), (0,)))])
        out = reference.normalize_adjacency(empty, np.ones(3))
        assert np.array_equal(out, np.eye(6))

    def test_two_nodes_single_unit_edge(self):
        # hand-built graph carrying one PA edge between two nodes
        graph = ConflictGraph(
            n_apps=1, n_params=1, n_kpis=0,
            kinds=np.array([0, 1]), states=np.ones(2, dtype=np.int8),
            edge_src=np.array([0]), edge_dst=np.array([1]),
            edge_kind=np.array([0]), features=np.zeros((2, 5)))
        batch = batch_graphs([graph])
        out = reference.normalize_adjacency(batch, np.ones(3))
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_symmetric_and_bounded(self):
        for seed in range(4):
            batch = make_batch(seed, 4)
            out = reference.normalize_adjacency(batch, np.array([1.0, 2.0, 0.5]))
            assert np.allclose(out, out.T)
            assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12

    def test_isolated_rows_are_unit_self_loops(self):
        batch = make_batch(1, 2)
        out = reference.normalize_adjacency(batch, np.ones(3))
        degree = np.bincount(batch.edge_src, minlength=out.shape[0]) + \
            np.bincount(batch.edge_dst, minlength=out.shape[0])
        for i in np.flatnonzero(degree == 0):
            row = out[i].copy()
            assert row[i] == 1.0
            row[i] = 0.0
            assert np.all(row == 0.0)

    def test_spectral_radius_at_most_one(self):
        for seed in range(3):
            out = reference.normalize_adjacency(make_batch(seed, 2), np.ones(3))
            eigs = np.linalg.eigvalsh(out)
            assert eigs.max() <= 1.0 + 1e-9

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DomainError):
            reference.normalize_adjacency(make_batch(), np.array([1.0, 0.0, 1.0]))

    def test_weight_shape_rejected(self):
        with pytest.raises(ShapeError):
            reference.normalize_adjacency(make_batch(), np.ones(4))


class TestGcnLayer:
    def test_identity_propagation(self):
        h = np.abs(np.random.default_rng(0).normal(size=(5, 4)))
        out, pre = reference.gcn_layer(np.eye(5), h, np.eye(4), np.zeros(4))
        assert np.allclose(out, h)
        assert np.allclose(pre, h)

    def test_large_negative_bias_saturates(self):
        rng = np.random.default_rng(1)
        out, _ = reference.gcn_layer(np.eye(4), rng.normal(size=(4, 3)),
                                    rng.normal(size=(3, 2)),
                                    np.full(2, -1e9))
        assert np.all(out == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reference.gcn_layer(np.eye(3), np.zeros((4, 2)), np.zeros((2, 2)),
                               np.zeros(2))

    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        ahat = reference.normalize_adjacency(make_batch(2, 2), np.ones(3))
        h = rng.normal(size=(ahat.shape[0], 4))
        w0 = rng.normal(size=(4, 3))
        b = rng.normal(size=3) + 0.3

        def loss(w_flat):
            out, pre = reference.gcn_layer(ahat, h, w_flat.reshape(4, 3), b)
            grad_w = (ahat @ h).T @ np.where(pre > 0, 1.0, 0.0)
            return out.sum(), grad_w.ravel()

        err = reference.grad_check(loss, w0.ravel(), eps=1e-6)
        assert err < 1e-5


class TestGlobalMeanPool:
    def test_identical_rows(self):
        h = np.tile([1.0, 2.0, 3.0], (6, 1))
        out = reference.global_mean_pool(h, np.zeros(6, dtype=int), 1)
        assert np.allclose(out, [[1.0, 2.0, 3.0]])

    def test_two_graphs(self):
        h = np.array([[0.0], [2.0], [4.0]])
        out = reference.global_mean_pool(h, np.array([0, 0, 1]), 2)
        assert np.allclose(out, [[1.0], [4.0]])

    def test_permutation_invariant_within_graph(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(8, 5))
        member = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        base = reference.global_mean_pool(h, member, 2)
        perm = np.array([3, 1, 0, 2, 7, 5, 6, 4])
        again = reference.global_mean_pool(h[perm], member, 2)
        assert np.allclose(base, again)

    def test_empty_graph_rejected(self):
        with pytest.raises(DomainError):
            reference.global_mean_pool(np.zeros((3, 2)), np.array([0, 0, 2]), 3)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        params = np.array([1.0, -2.0, 3.0])
        state = numerics.AdamState.initial(3, learning_rate=0.01)
        out, _ = numerics.adam_step(params, np.zeros(3), state)
        assert np.array_equal(out, params)

    def test_first_step_magnitude_near_learning_rate(self):
        params = np.array([1.0])
        state = numerics.AdamState.initial(1, learning_rate=0.01)
        out, _ = numerics.adam_step(params, np.array([1.0]), state)
        assert abs((params[0] - out[0]) - 0.01) < 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        grads = [rng.normal(size=6) for _ in range(10)]

        def run():
            params = np.ones(6)
            state = numerics.AdamState.initial(6, 0.05, weight_decay=1e-3)
            for g in grads:
                params, state = numerics.adam_step(params, g, state)
            return params

        assert np.array_equal(run(), run())

    def test_weight_decay_shrinks_idle_parameters(self):
        params = np.array([2.0, -2.0])
        state = numerics.AdamState.initial(2, 0.01, weight_decay=0.1)
        for _ in range(20):
            new_params, state = numerics.adam_step(params, np.zeros(2), state)
            assert np.all(np.abs(new_params) < np.abs(params))
            params = new_params

    def test_nonfinite_gradient_rejected(self):
        state = numerics.AdamState.initial(2, 0.01)
        with pytest.raises(NumericError, match="index 1"):
            numerics.adam_step(np.zeros(2), np.array([0.0, np.nan]), state)


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        def loss(p):
            return 0.5 * float(p @ p), p.copy()

        err = reference.grad_check(loss, np.array([0.3, -1.2, 2.0]), eps=1e-4)
        assert err < 1e-8

    @pytest.mark.parametrize("eps", [1e-8, 1e-2])
    def test_eps_bounds(self, eps):
        with pytest.raises(DomainError):
            reference.grad_check(lambda p: (0.0, np.zeros_like(p)),
                                np.zeros(2), eps)

    def test_nonfinite_loss_rejected(self):
        with pytest.raises(NumericError):
            reference.grad_check(lambda p: (np.nan, np.zeros_like(p)),
                                np.zeros(2), 1e-5)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_normalized_adjacency_rows_of_active_nodes_sum_below_one(seed):
    batch = make_batch(seed % 5, 2)
    out = reference.normalize_adjacency(batch, np.ones(3))
    assert np.all(out.sum(axis=1) <= out.shape[0])
    assert np.allclose(out, out.T)
