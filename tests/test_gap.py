import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphica import conflict_sim as cs
from graphica import gap
from graphica.errors import (
    CompatibilityError,
    DomainError,
    StratificationError,
    TrainingError,
)
from graphica.gsc import ConflictGraph, build_graph

from reference import dense_probs, grad_check


@pytest.fixture(scope="module")
def topo():
    return cs.new_topology(10, 13, 10, 0)


@pytest.fixture(scope="module")
def small_ds(topo):
    return cs.synth_dataset(topo, 80, 0.75, 3)


def random_probs(rng, batch, classes=4):
    raw = rng.random((batch, classes)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


class TestComputeAlpha:
    def test_balanced_gives_ones(self):
        labels = [0, 1, 2, 3] * 25
        assert np.allclose(gap.compute_alpha(labels), np.ones(4))

    def test_imbalanced_counts(self):
        labels = [0] * 513 + [1] * 19 + [2] * 19 + [3] * 19
        alpha = gap.compute_alpha(labels)
        assert np.allclose(alpha, [570 / (4 * 513), 7.5, 7.5, 7.5])

    def test_missing_class(self):
        with pytest.raises(DomainError, match="class 3"):
            gap.compute_alpha([0, 1, 2, 0, 1, 2])


class TestFocalLoss:
    def test_gamma_zero_equals_cross_entropy(self):
        rng = np.random.default_rng(0)
        cfg = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))
        for _ in range(50):
            b = int(rng.integers(1, 40))
            probs = random_probs(rng, b)
            labels = rng.integers(0, 4, size=b)
            loss, _ = gap.focal_loss(probs, labels, cfg)
            ce = -np.mean(np.log(probs[np.arange(b), labels]))
            assert abs(loss - ce) < 1e-10

    def test_single_sample_reference_value(self):
        cfg = gap.FocalConfig(gamma=2.0, alpha=np.ones(4))
        probs = np.array([[0.5, 0.3, 0.1, 0.1]])
        loss, _ = gap.focal_loss(probs, np.array([0]), cfg)
        assert abs(loss - 0.25 * np.log(2.0)) < 1e-12

    def test_perfect_prediction_loss_vanishes(self):
        cfg = gap.FocalConfig(gamma=2.0, alpha=np.ones(4))
        probs = np.array([[1.0 - 3e-12, 1e-12, 1e-12, 1e-12]])
        loss, _ = gap.focal_loss(probs, np.array([0]), cfg)
        assert loss < 1e-10

    def test_monotone_in_true_probability(self):
        cfg = gap.FocalConfig(gamma=2.0, alpha=np.ones(4))
        losses = []
        for pt in np.linspace(0.05, 0.95, 10):
            rest = (1.0 - pt) / 3.0
            probs = np.array([[pt, rest, rest, rest]])
            losses.append(gap.focal_loss(probs, np.array([0]), cfg)[0])
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_loss_decreases_with_gamma(self):
        probs = np.array([[0.7, 0.1, 0.1, 0.1]])
        labels = np.array([0])
        losses = [
            gap.focal_loss(probs, labels,
                           gap.FocalConfig(gamma=g, alpha=np.ones(4)))[0]
            for g in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_non_stochastic_rows_rejected(self):
        cfg = gap.FocalConfig(gamma=1.0, alpha=np.ones(4))
        with pytest.raises(DomainError):
            gap.focal_loss(np.array([[0.5, 0.5, 0.5, 0.5]]), np.array([0]), cfg)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_gradient_matches_finite_differences(self, gamma):
        rng = np.random.default_rng(7)
        cfg = gap.FocalConfig(gamma=gamma, alpha=np.array([0.3, 2.0, 1.0, 4.0]))
        logits0 = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)

        def loss_fn(flat):
            logits = flat.reshape(5, 4)
            probs = gap._softmax(logits)
            loss, dlogits = gap.focal_loss(probs, labels, cfg)
            return loss, dlogits.ravel()

        assert grad_check(loss_fn, logits0.ravel(), eps=1e-6) < 1e-6

    def test_gamma_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            gap.FocalConfig(gamma=-0.5, alpha=np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gamma_must_be_finite(self, bad):
        with pytest.raises(DomainError, match="gamma"):
            gap.FocalConfig(gamma=bad, alpha=np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_alpha_must_be_finite(self, bad):
        with pytest.raises(DomainError, match="alpha"):
            gap.FocalConfig(gamma=2.0, alpha=[1.0, bad, 1.0, 1.0])


class TestForward:
    def test_rows_sum_to_one(self, topo, small_ds):
        model = gap.ModelParams.init(0)
        probs = gap.predict_rows(model, topo, small_ds.rows[:6])
        assert probs.shape == (6, 4)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.isfinite(probs))

    def test_matches_dense_reference_path(self, topo, small_ds):
        model = gap.ModelParams.init(1)
        rows = small_ds.rows[:5]
        fast = gap.predict_rows(model, topo, rows)
        ref = dense_probs(model, [build_graph(topo, r) for r in rows])
        assert np.allclose(fast, ref, rtol=0, atol=1e-12)

    def test_permutation_invariance(self, topo, small_ds):
        model = gap.ModelParams.init(2)
        graph = build_graph(topo, small_ds.rows[0])
        _, base = gap.predict(model, graph)
        rng = np.random.default_rng(5)
        perm = rng.permutation(graph.n_nodes)
        inverse = np.argsort(perm)
        permuted = ConflictGraph(
            n_apps=graph.n_apps, n_params=graph.n_params, n_kpis=graph.n_kpis,
            kinds=graph.kinds[perm],
            states=graph.states[perm],
            edge_src=inverse[graph.edge_src],
            edge_dst=inverse[graph.edge_dst],
            edge_kind=graph.edge_kind.copy(),
            features=graph.features[perm],
        )
        _, again = gap.predict(model, permuted)
        assert np.allclose(base, again, atol=1e-12)


class TestPredictRows:
    @pytest.fixture(scope="class")
    def rows(self, topo):
        edgeless = cs.BinaryStateRow((0,) * topo.n_apps, (0,) * topo.n_params,
                                     (0,) * topo.n_kpis, 0)
        return [edgeless] + list(cs.synth_dataset(topo, 40, 0.5, 21).rows[:39])

    def test_chunk_size_does_not_change_probabilities(self, topo, rows):
        model = gap.ModelParams.init(4)
        model.kind_weights[:] = [0.7, 1.3, 2.1]
        small = gap.predict_rows(model, topo, rows, chunk_size=7)
        large = gap.predict_rows(model, topo, rows, chunk_size=512)
        assert small.shape == (40, 4)
        assert np.array_equal(small, large)
        ref = dense_probs(model, [build_graph(topo, r) for r in rows])
        assert np.allclose(small, ref, rtol=0, atol=1e-12)
        assert np.allclose(large, ref, rtol=0, atol=1e-12)

    def test_chunks_share_one_buffer_set(self, topo, rows, monkeypatch):
        packed = []
        pack = gap.row_tensors

        def recording(topology, chunk):
            packed.append(pack(topology, chunk))
            return packed[-1]

        monkeypatch.setattr(gap, "row_tensors", recording)
        gap.predict_rows(gap.ModelParams.init(4), topo, rows, chunk_size=7)
        assert len(packed) == 6
        assert all(t.buffers is packed[0].buffers for t in packed)

    def test_zero_rows_give_empty_probabilities(self, topo):
        probs = gap.predict_rows(gap.ModelParams.init(4), topo, [])
        assert probs.shape == (0, gap.NUM_CLASSES)

    def test_agrees_with_single_graph_predict(self, topo, rows):
        model = gap.ModelParams.init(5)
        probs = gap.predict_rows(model, topo, rows[:8], chunk_size=3)
        for row, expected in zip(rows[:8], probs):
            label, single = gap.predict(model, build_graph(topo, row))
            assert np.allclose(single, expected, rtol=0, atol=1e-12)
            assert label == int(np.argmax(expected))


class TestPacking:
    """A row's kind-t adjacency is the kind mask gated by its active
    nodes; a mutual parameter pair counts twice."""

    def test_masks_and_degrees_match_the_graphs(self):
        topo = cs.Topology(3, 3, 2, ((0, 0), (0, 1), (1, 1), (2, 2)),
                           ((0, 0), (0, 1), (1, 2)), ((0, 1), (1, 0), (0, 2)), 0)
        rng = np.random.default_rng(8)
        rows = []
        for _ in range(60):
            bits = rng.integers(0, 2, topo.width).tolist()
            rows.append(cs.BinaryStateRow(tuple(bits[:3]), tuple(bits[3:6]),
                                          tuple(bits[6:])))
        tensors = gap.row_tensors(topo, rows)
        mutual = 0
        for r, row in enumerate(rows):
            g = build_graph(topo, row)
            counts = np.zeros((3, g.n_nodes, g.n_nodes))
            np.add.at(counts, (g.edge_kind, g.edge_src, g.edge_dst), 1.0)
            np.add.at(counts, (g.edge_kind, g.edge_dst, g.edge_src), 1.0)
            degrees = np.zeros((3, g.n_nodes))
            np.add.at(degrees, (g.edge_kind, g.edge_src), 1.0)
            np.add.at(degrees, (g.edge_kind, g.edge_dst), 1.0)
            x = tensors.states[r]
            assert np.array_equal(tensors.kind_masks * np.outer(x, x), counts), r
            assert np.array_equal(tensors.kind_degrees[r], degrees), r
            mutual += counts.max() == 2
        assert mutual > 0

    @pytest.mark.parametrize("shape, seed", [((10, 13, 10), 0), ((3, 4, 3), 1),
                                             ((6, 9, 5), 2), ((30, 40, 30), 3)])
    def test_inactive_nodes_are_role_one_hots_without_degree(self, shape, seed):
        """Compaction folds every inactive node of a role into one
        constant, which holds because such a node looks the same in
        every row."""
        topo = cs.new_topology(*shape, seed)
        tensors = gap.row_tensors(topo, cs.synth_dataset(topo, 60, 0.5, seed).rows)
        roles = np.repeat([0, 1, 2], shape)
        one_hots = np.eye(gap.NUM_FEATURES)[roles]
        idle = tensors.states == 0
        assert idle.any()
        rows, nodes = np.nonzero(idle)
        assert np.array_equal(tensors.features[rows, nodes], one_hots[nodes])
        assert not tensors.kind_degrees.transpose(0, 2, 1)[rows, nodes].any()


class TestPredict:
    def test_tie_breaks_to_smallest_index(self, topo, small_ds):
        model = gap.ModelParams.init(0)
        model.wc[:] = 0.0
        model.bc[:] = 0.0
        graph = build_graph(topo, small_ds.rows[0])
        label, probs = gap.predict(model, graph)
        assert np.allclose(probs, 0.25)
        assert label == cs.ConflictLabel.NORMAL

    def test_probabilities_sum_to_one(self, topo, small_ds):
        model = gap.ModelParams.init(3)
        for row in small_ds.rows[:5]:
            _, probs = gap.predict(model, build_graph(topo, row))
            assert abs(probs.sum() - 1.0) < 1e-12


class TestStratifiedKfold:
    def test_balanced_exact_split(self):
        labels = np.repeat([0, 1, 2, 3], 200)
        folds = gap.stratified_kfold(labels, 5, 0)
        for fold in folds:
            counts = np.bincount(labels[fold], minlength=4)
            assert np.all(counts == 40)

    def test_ten_percent_split(self, topo):
        ds = cs.synth_dataset(topo, 570, 0.10, 7)
        folds = gap.stratified_kfold(ds.labels(), 5, 7)
        for fold in folds:
            assert len(fold) == 114
            counts = np.bincount(ds.labels()[fold], minlength=4)
            assert 102 <= counts[0] <= 103
            assert all(3 <= counts[c] <= 4 for c in (1, 2, 3))

    def test_partition(self):
        labels = np.repeat([0, 1, 2, 3], 23)
        folds = gap.stratified_kfold(labels, 5, 3)
        merged = np.concatenate(folds)
        assert len(merged) == len(labels)
        assert len(np.unique(merged)) == len(labels)

    def test_deterministic(self):
        labels = np.repeat([0, 1, 2, 3], 23)
        a = gap.stratified_kfold(labels, 5, 9)
        b = gap.stratified_kfold(labels, 5, 9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_small_class_rejected(self):
        labels = np.array([0] * 50 + [1] * 3)
        with pytest.raises(StratificationError, match="class 1"):
            gap.stratified_kfold(labels, 5, 0)


def quick_cfg(**kw):
    base = dict(batch_size=32, max_epochs=60, patience=12, min_delta=1e-5,
                seed=0)
    base.update(kw)
    return gap.TrainConfig(**base)


class TestTrain:
    def test_default_patience_needs_larger_epoch_budget(self):
        with pytest.raises(DomainError, match="patience 200 .* max_epochs 200"):
            gap.TrainConfig(max_epochs=200)
        assert gap.TrainConfig(max_epochs=201).patience == 200

    def test_history_shapes_and_metrics(self, small_ds):
        cfg = quick_cfg()
        focal = gap.FocalConfig(gamma=0.0, alpha=gap.compute_alpha(small_ds.labels()))
        models, hist = gap.train(small_ds, cfg, focal)
        assert len(models) == 5
        assert len(hist.fold_metrics) == 5
        for fold in range(5):
            n = hist.stop_epochs[fold]
            assert len(hist.train_losses[fold]) == n <= cfg.max_epochs
            assert len(hist.val_losses[fold]) == n
            assert all(np.isfinite(hist.train_losses[fold]))
            assert hist.best_epochs[fold] <= n

    def test_returned_model_is_best_epoch(self, small_ds):
        cfg = quick_cfg()
        focal = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))
        _, hist = gap.train(small_ds, cfg, focal)
        for fold in range(5):
            best = hist.best_epochs[fold]
            assert hist.val_losses[fold][best - 1] == min(hist.val_losses[fold])

    def test_zero_learning_rate_stops_after_patience(self, small_ds):
        cfg = quick_cfg(learning_rate=0.0, patience=7, max_epochs=50)
        focal = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))
        _, hist = gap.train(small_ds, cfg, focal)
        for fold in range(5):
            assert hist.stop_epochs[fold] == hist.best_epochs[fold] + 7
            assert hist.best_epochs[fold] == 1

    def test_deterministic(self, small_ds):
        cfg = quick_cfg(max_epochs=25, patience=10)
        focal = gap.FocalConfig(gamma=2.0, alpha=gap.compute_alpha(small_ds.labels()))
        _, h1 = gap.train(small_ds, cfg, focal)
        _, h2 = gap.train(small_ds, cfg, focal)
        assert h1.train_losses == h2.train_losses
        assert h1.val_losses == h2.val_losses

    def test_divergence_raises_training_error(self, small_ds, in_process, monkeypatch):
        cfg = quick_cfg(max_epochs=20, patience=5)
        focal = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))

        def poisoned(model, tensors, indices, focal_cfg):
            return float("nan"), model

        monkeypatch.setattr(gap, "loss_and_grad", poisoned)
        with pytest.raises(TrainingError, match="epoch 1"):
            gap.train(small_ds, cfg, focal)

    def test_fold_predictions_cover_every_row(self, small_ds):
        cfg = quick_cfg(max_epochs=30, patience=10)
        focal = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))
        models, hist = gap.train(small_ds, cfg, focal)
        preds = gap.fold_predictions(small_ds, models, cfg)
        assert preds.shape == (80,)
        assert np.all((preds >= 0) & (preds <= 3))
        assert np.array_equal(hist.predictions, preds)


class TestScratchBuffers:
    """Batched passes write their large intermediates into buffers owned
    by the packed rows; reusing them must not change any number."""

    @pytest.fixture(scope="class")
    def reference(self, topo):
        ds = cs.synth_dataset(topo, 570, 0.10, 0)
        focal = gap.FocalConfig(gamma=2.0, alpha=gap.compute_alpha(ds.labels()))
        model = gap.ModelParams.init(3)
        model.kind_weights[:] = [0.7, 1.3, 2.1]
        model.b1[:] = 0.05
        model.b2[:] = -0.02
        return ds, focal, model

    def test_training_step_allocates_no_large_temporaries(self, topo, reference):
        ds, focal, model = reference
        tensors = gap.row_tensors(topo, ds.rows)
        idx = np.random.default_rng(0).permutation(len(ds.rows))[:128]
        gap.loss_and_grad(model, tensors, idx, focal)
        tracemalloc.start()
        try:
            gap.loss_and_grad(model, tensors, idx, focal)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One (128, 33, 33) float64 array alone is 1.1 MB.
        assert peak < 2 * 2**20

    def test_reuse_matches_fresh_packing(self, topo, reference):
        ds, focal, model = reference
        edgeless = cs.BinaryStateRow((0,) * topo.n_apps, (0,) * topo.n_params,
                                     (0,) * topo.n_kpis, 0)
        rows = list(ds.rows[:400]) + [edgeless] * 4
        tensors = gap.row_tensors(topo, rows)
        assert not tensors.states[400:].any()
        assert not tensors.kind_degrees[400:].any()
        order = np.random.default_rng(1).permutation(400)
        # A training batch, an epoch tail, a validation-sized batch, only
        # edgeless rows, then a batch larger than any before.
        batches = [order[:128], order[128:200], order[200:314],
                   np.arange(400, 404), order[:160]]
        blocks = [name for name, _ in gap.block_shapes()]
        for idx in batches:
            loss, grads = gap.loss_and_grad(model, tensors, idx, focal)
            probs = gap._probs_in_chunks(model, tensors, idx)
            batch_rows = [rows[i] for i in idx]
            fresh = gap.row_tensors(topo, batch_rows)
            loss_f, grads_f = gap.loss_and_grad(model, fresh, np.arange(idx.size),
                                                focal)
            assert loss == loss_f
            for name in blocks:
                assert np.array_equal(getattr(grads, name), getattr(grads_f, name)), name
            assert np.array_equal(probs, gap.predict_rows(model, topo, batch_rows))
            handed_out = [probs] + [getattr(grads, name) for name in blocks]
            assert not any(np.shares_memory(x, buf) for x in handed_out
                           for buf in tensors.buffers.values())

    def test_no_buffer_holds_a_node_pair_array(self, topo, reference, monkeypatch):
        """n = 33 exceeds H = 16, so a (B, n, n) buffer would be larger
        than any (B, n, H) one."""
        ds, focal, model = reference
        n, hidden = topo.width, model.hidden_dim
        assert n > hidden
        tensors = gap.row_tensors(topo, ds.rows)
        gap.loss_and_grad(model, tensors, np.arange(128), focal)
        assert tensors.buffers
        assert max(buf.size for buf in tensors.buffers.values()) <= 128 * n * hidden
        packed = []
        pack = gap.row_tensors

        def recording(topology, chunk):
            packed.append(pack(topology, chunk))
            return packed[-1]

        monkeypatch.setattr(gap, "row_tensors", recording)
        gap.predict_rows(model, topo, ds.rows[:100], chunk_size=64)
        buffers = packed[0].buffers
        assert buffers
        assert max(buf.size for buf in buffers.values()) <= 64 * n * hidden

    def test_cache_survives_a_pass_on_other_rows(self, topo, reference):
        ds, focal, model = reference
        first = gap.row_tensors(topo, ds.rows[:128])
        other = gap.row_tensors(topo, ds.rows[128:256])
        cache = gap._forward_pass(model, gap._gather_batch(first, np.arange(128)))
        kept = {k: v.copy() for k, v in cache.items() if isinstance(v, np.ndarray)}
        gap.loss_and_grad(model, other, np.arange(128), focal)
        for k, v in kept.items():
            assert np.array_equal(cache[k], v), k


class TestSlots:
    """A batch gives every row K slots, K being its largest active-node
    count; the inactive nodes are folded into one constant per role.  An
    all-active row makes K = n and uses no role constant."""

    @pytest.fixture(scope="class")
    def mixed(self, topo):
        rows = [r for r in cs.synth_dataset(topo, 40, 0.75, 13).rows if r.label != 3]
        edgeless = cs.BinaryStateRow((0,) * topo.n_apps, (0,) * topo.n_params,
                                     (0,) * topo.n_kpis, 3)
        active = cs.BinaryStateRow((1,) * topo.n_apps, (1,) * topo.n_params,
                                   (1,) * topo.n_kpis, 3)
        model = gap.ModelParams.init(12)
        model.kind_weights[:] = [0.7, 1.3, 2.1]
        model.b1[:] = 0.05
        model.b2[:] = -0.02
        return rows[:6], edgeless, active, model

    def test_all_active_row_changes_no_other_row(self, topo, mixed):
        rows, edgeless, active, model = mixed
        # Only the extra row has class 3, whose weight is 0, so it adds
        # nothing to the loss or the gradient.
        focal = gap.FocalConfig(gamma=2.0, alpha=np.array([0.4, 2.0, 2.0, 0.0]))
        idx = np.arange(len(rows) + 1)
        results = []
        for extra in (edgeless, active):
            tensors = gap.row_tensors(topo, rows + [extra])
            results.append((gap._gather_batch(tensors, idx).states.shape[1],
                            gap._probs_in_chunks(model, tensors, idx),
                            *gap.loss_and_grad(model, tensors, idx, focal)))
        (k_typical, probs, loss, grads), (k_full, probs_f, loss_f, grads_f) = results
        assert k_typical < k_full == topo.width
        assert np.array_equal(probs[:-1], probs_f[:-1])
        ref = dense_probs(model, [build_graph(topo, r) for r in rows + [active]])
        assert np.allclose(probs_f, ref, rtol=0, atol=1e-12)
        assert loss == loss_f
        for name, _ in gap.block_shapes():
            assert np.array_equal(getattr(grads, name), getattr(grads_f, name)), name

    def test_gradcheck_with_edgeless_and_all_active_rows(self, topo, mixed):
        rows, edgeless, active, _ = mixed
        tensors = gap.row_tensors(topo, rows[:3] + [edgeless, active])
        focal = gap.FocalConfig(gamma=2.0, alpha=np.array([0.4, 2.0, 2.0, 2.0]))
        idx = np.arange(5)
        for seed in range(20):  # the first model with no ReLU kink nearby
            model = gap.ModelParams.init([12, seed])
            model.b1[:] = 0.05
            model.b2[:] = -0.02
            cache = gap._forward_pass(model, gap._gather_batch(tensors, idx))
            if min(np.abs(cache[key]).min() for key in ("z1", "z2", "z1c", "z2c")) > 1e-3:
                break
        else:
            pytest.fail("no kink-free model")

        def loss_fn(flat):
            m = gap.ModelParams.from_flat(flat)
            loss, grads = gap.loss_and_grad(m, tensors, idx, focal)
            return loss, grads.to_flat()

        assert grad_check(loss_fn, model.to_flat(), eps=1e-5) < 1e-4


class TestEndToEndGradient:
    def test_full_model_gradcheck(self, topo):
        ds = cs.synth_dataset(topo, 12, 0.75, 5)
        tensors = gap.row_tensors(topo, ds.rows)
        focal = gap.FocalConfig(gamma=2.0,
                                alpha=np.array([0.4, 2.0, 2.0, 2.0]))
        model = gap.ModelParams.init(11)
        model.b1[:] = 0.07
        model.b2[:] = 0.07
        idx = np.arange(3)

        def loss_fn(flat):
            m = gap.ModelParams.from_flat(flat)
            loss, grads = gap.loss_and_grad(m, tensors, idx, focal)
            return loss, grads.to_flat()

        assert grad_check(loss_fn, model.to_flat(), eps=1e-5) < 1e-4

    def test_kind_weights_with_a_mutual_parameter_pair(self):
        """Parameters 0 and 1 drive each other, so their PP mask entry is
        2; the kind-weight gradient still matches central differences."""
        topo = cs.Topology(3, 4, 3, ((0, 0), (1, 0), (1, 1), (2, 2), (3, 2), (3, 1)),
                           ((0, 0), (0, 1), (1, 1), (2, 2), (2, 3)),
                           ((0, 1), (1, 0), (1, 2), (1, 3)), 0)
        rng = np.random.default_rng(8)
        rows = []
        for label in rng.integers(0, 4, 16):
            bits = (rng.random(topo.width) < 0.7).astype(int).tolist()
            bits[3] = bits[4] = 1  # both parameters of the pair are active
            rows.append(cs.BinaryStateRow(tuple(bits[:3]), tuple(bits[3:7]),
                                          tuple(bits[7:]), int(label)))
        tensors = gap.row_tensors(topo, rows)
        assert tensors.kind_masks[2, 3, 4] == 2
        idx = np.arange(16)
        focal = gap.FocalConfig(gamma=2.0, alpha=np.array([0.4, 2.0, 2.0, 2.0]))
        model = gap.ModelParams.init(9)
        model.kind_weights[:] = [0.7, 1.3, 2.1]
        model.b1[:] = 0.05
        model.b2[:] = -0.02
        _, grads = gap.loss_and_grad(model, tensors, idx, focal)
        eps = 1e-6
        for t in range(3):
            losses = []
            for step in (eps, -eps):
                shifted = gap.ModelParams.from_flat(model.to_flat())
                shifted.kind_weights[t] += step
                losses.append(gap.loss_and_grad(shifted, tensors, idx, focal)[0])
            numeric = (losses[0] - losses[1]) / (2 * eps)
            assert grads.kind_weights[t] == pytest.approx(numeric, rel=1e-5), t


class TestCheckpoints:
    def test_json_round_trip(self, tmp_path):
        model = gap.ModelParams.init(4)
        focal = gap.FocalConfig(gamma=1.5, alpha=np.array([0.3, 7.5, 7.5, 7.5]))
        path = tmp_path / "fold0.ckpt"
        gap.save_checkpoint(model, path, seed=9, focal=focal)
        loaded, focal2, seed = gap.load_checkpoint(path)
        assert np.array_equal(loaded.to_flat(), model.to_flat())
        assert focal2.gamma == 1.5
        assert np.array_equal(focal2.alpha, focal.alpha)
        assert seed == 9

    def test_binary_sidecar_round_trip(self, tmp_path):
        model = gap.ModelParams.init(5)
        focal = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))
        path = tmp_path / "fold1.ckpt"
        gap.save_checkpoint(model, path, seed=1, focal=focal, binary=True)
        assert (tmp_path / "fold1.ckpt.bin").exists()
        loaded, _, _ = gap.load_checkpoint(path)
        assert np.array_equal(loaded.to_flat(), model.to_flat())

    def test_ragged_sidecar_rejected(self, tmp_path):
        model = gap.ModelParams.init(5)
        focal = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))
        path = tmp_path / "fold1.ckpt"
        gap.save_checkpoint(model, path, seed=1, focal=focal, binary=True)
        sidecar = tmp_path / "fold1.ckpt.bin"
        sidecar.write_bytes(sidecar.read_bytes()[:-3])
        with pytest.raises(CompatibilityError, match="fold1.ckpt.bin"):
            gap.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inline_weights_rejected(self, tmp_path, bad):
        model = gap.ModelParams.init(5)
        model.w2[3, 4] = bad
        focal = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))
        path = tmp_path / "fold0.ckpt"
        gap.save_checkpoint(model, path, seed=1, focal=focal)
        with pytest.raises(CompatibilityError, match="fold0.ckpt: .*not all finite"):
            gap.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sidecar_weights_rejected(self, tmp_path, bad):
        model = gap.ModelParams.init(5)
        model.kind_weights[1] = bad
        focal = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))
        path = tmp_path / "fold1.ckpt"
        gap.save_checkpoint(model, path, seed=1, focal=focal, binary=True)
        with pytest.raises(CompatibilityError, match="fold1.ckpt.bin: .*not all finite"):
            gap.load_checkpoint(path)

    @pytest.mark.parametrize("key, bad", [("gamma", float("nan")),
                                          ("alpha", [1.0, float("nan"), 1.0, 1.0])])
    def test_non_finite_focal_header_rejected(self, tmp_path, key, bad):
        import json
        path = tmp_path / "fold0.ckpt"
        gap.save_checkpoint(gap.ModelParams.init(6), path, seed=0,
                            focal=gap.FocalConfig(gamma=2.0, alpha=np.ones(4)))
        obj = json.loads(path.read_text())
        obj[key] = bad
        path.write_text(json.dumps(obj))
        assert "NaN" in path.read_text()
        with pytest.raises(CompatibilityError, match=f"fold0.ckpt: {key}"):
            gap.load_checkpoint(path)

    def test_wrong_feature_count_rejected(self, tmp_path):
        import json
        model = gap.ModelParams.init(6)
        focal = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))
        path = tmp_path / "fold0.ckpt"
        gap.save_checkpoint(model, path, seed=0, focal=focal)
        obj = json.loads(path.read_text())
        obj["F"] = 9
        path.write_text(json.dumps(obj))
        with pytest.raises(CompatibilityError):
            gap.load_checkpoint(path)

    def test_truncated_weights_rejected(self, tmp_path):
        import json
        model = gap.ModelParams.init(7)
        focal = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))
        path = tmp_path / "fold0.ckpt"
        gap.save_checkpoint(model, path, seed=0, focal=focal)
        obj = json.loads(path.read_text())
        obj["weights"] = obj["weights"][:-3]
        path.write_text(json.dumps(obj))
        with pytest.raises(CompatibilityError):
            gap.load_checkpoint(path)

    def test_history_csv(self, small_ds, tmp_path):
        cfg = quick_cfg(max_epochs=10, patience=5)
        focal = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))
        _, hist = gap.train(small_ds, cfg, focal)
        path = tmp_path / "history.csv"
        gap.history_to_csv(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,fold,train_loss,val_loss"
        assert len(lines) == 1 + sum(hist.stop_epochs)


class TestFlatLayout:
    def test_round_trip(self):
        model = gap.ModelParams.init(8)
        again = gap.ModelParams.from_flat(model.to_flat())
        for name, _ in gap.block_shapes():
            assert np.array_equal(getattr(model, name), getattr(again, name))

    def test_block_order(self):
        sizes = [int(np.prod(shape)) for _, shape in gap.block_shapes()]
        assert sizes == [80, 16, 256, 16, 64, 4, 3]
        assert gap.flat_size() == sum(sizes)

    def test_kind_weights_initialized_to_one(self):
        model = gap.ModelParams.init(9)
        assert np.array_equal(model.kind_weights, np.ones(3))


@given(st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_focal_loss_nonnegative_and_finite(seed):
    rng = np.random.default_rng(seed)
    cfg = gap.FocalConfig(gamma=float(rng.integers(0, 5)),
                          alpha=rng.random(4) * 3 + 0.01)
    probs = random_probs(rng, int(rng.integers(1, 20)))
    labels = rng.integers(0, 4, size=probs.shape[0])
    loss, grad = gap.focal_loss(probs, labels, cfg)
    assert np.isfinite(loss) and loss >= 0.0
    assert np.all(np.isfinite(grad))
