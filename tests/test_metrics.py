import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphica import conflict_sim as cs
from graphica import gap, metrics, sweep
from graphica.errors import DomainError, EmptyInputError, ShapeError


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        cm = metrics.confusion(labels, labels)
        assert np.array_equal(cm, np.diag([2, 2, 2, 2]))

    def test_single_off_diagonal_error(self):
        truth = np.array([0] * 97 + [1] * 6 + [2] * 4 + [3] * 7)
        preds = truth.copy()
        preds[103] = 3  # one implicit mistaken for indirect
        cm = metrics.confusion(preds, truth)
        assert cm.sum() == 114
        assert cm[2, 3] == 1
        off = cm - np.diag(np.diag(cm))
        assert off.sum() == 1

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.confusion([0, 1], [0, 1, 2])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            metrics.confusion([], [])

    def test_out_of_range_labels(self):
        with pytest.raises(DomainError):
            metrics.confusion([0, 4], [0, 1])

    def test_alphabet_permutation_permutes_matrix(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, size=60)
        preds = rng.integers(0, 4, size=60)
        cm = metrics.confusion(preds, truth)
        perm = np.array([2, 0, 3, 1])
        cm2 = metrics.confusion(perm[preds], perm[truth])
        assert np.array_equal(cm2[np.ix_(perm, perm)], cm)


class TestPrf:
    def test_diagonal_is_perfect(self):
        assert metrics.prf(np.diag([5, 1, 9, 3])) == (1.0, 1.0, 1.0)

    def test_binary_toy_example(self):
        cm = np.array([[3, 1], [0, 4]])
        prec, rec, f1 = metrics.prf(cm)
        # class 0: P=1, R=0.75; class 1: P=0.8, R=1
        assert abs(prec - (4 * 1.0 + 4 * 0.8) / 8) < 1e-12
        assert abs(rec - (4 * 0.75 + 4 * 1.0) / 8) < 1e-12
        f0 = 2 * 1.0 * 0.75 / 1.75
        f1_cls = 2 * 0.8 * 1.0 / 1.8
        assert abs(f1 - (4 * f0 + 4 * f1_cls) / 8) < 1e-12
        assert round(f1, 3) == 0.873

    def test_zero_prediction_class_scores_zero(self):
        cm = np.array([[5, 0], [2, 0]])
        prec, rec, f1 = metrics.prf(cm)
        assert prec < 1.0 and np.isfinite(f1)

    def test_empty_matrix(self):
        with pytest.raises(DomainError):
            metrics.prf(np.zeros((4, 4), dtype=int))

    def test_non_square(self):
        with pytest.raises(ShapeError):
            metrics.prf(np.zeros((2, 3)))


@given(arrays(np.int64, (4, 4), elements=st.integers(0, 50)))
@settings(max_examples=80, deadline=None)
def test_weighted_recall_equals_accuracy(cm):
    if cm.sum() == 0:
        return
    _, rec, _ = metrics.prf(cm)
    accuracy = np.trace(cm) / cm.sum()
    assert abs(rec - accuracy) < 1e-12


class TestCsvExports:
    def test_metrics_csv(self, tmp_path):
        path = tmp_path / "metrics.csv"
        metrics.metrics_to_csv((0.98765, 1.0, 0.99544), path)
        assert path.read_text() == "precision,recall,f1\n0.9877,1.0000,0.9954\n"

    def test_confusion_csv(self, tmp_path):
        path = tmp_path / "confusion.csv"
        metrics.confusion_to_csv(np.diag([97, 6, 3, 7]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "97,0,0,0"
        assert len(lines) == 4


@pytest.fixture(scope="module")
def tiny_cfg():
    return gap.TrainConfig(batch_size=32, max_epochs=25, patience=8,
                           min_delta=1e-5, seed=0)


class TestGammaSweep:
    def test_single_cell(self, tiny_cfg):
        topo = cs.new_topology(10, 13, 10, 0)
        specs = [sweep.DatasetSpec("10%", 160, 0.10)]
        result = sweep.gamma_sweep(specs, [2.0], 1, tiny_cfg, topo)
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.dataset == "10%" and cell.gamma == 2.0
        assert 0.0 <= cell.f1 <= 1.0

    def test_balanced_spec_runs_gamma_zero_only(self, tiny_cfg):
        topo = cs.new_topology(10, 13, 10, 0)
        specs = [sweep.DatasetSpec("balanced", 80, 0.75, balanced=True),
                 sweep.DatasetSpec("40%", 80, 0.40)]
        result = sweep.gamma_sweep(specs, [0.0, 2.0], 1, tiny_cfg, topo)
        cells = {(c.dataset, c.gamma) for c in result.cells}
        assert cells == {("balanced", 0.0), ("40%", 0.0), ("40%", 2.0)}

    def test_deterministic(self, tiny_cfg):
        topo = cs.new_topology(10, 13, 10, 0)
        specs = [sweep.DatasetSpec("20%", 80, 0.20)]
        a = sweep.gamma_sweep(specs, [1.0], 1, tiny_cfg, topo)
        b = sweep.gamma_sweep(specs, [1.0], 1, tiny_cfg, topo)
        assert a.cells == b.cells

    def test_empty_grid_rejected(self, tiny_cfg):
        with pytest.raises(DomainError):
            sweep.gamma_sweep([sweep.DatasetSpec("10%", 160, 0.1)], [], 1, tiny_cfg)

    def test_bad_repetitions_rejected(self, tiny_cfg):
        with pytest.raises(DomainError):
            sweep.gamma_sweep([sweep.DatasetSpec("10%", 160, 0.1)], [0.0], 0,
                              tiny_cfg)

    def test_csv_format(self, tiny_cfg, tmp_path):
        result = sweep.SweepResult(
            cells=[sweep.SweepCell("10%", 2.0, 0.99601, 0.99556, 0.99544)],
            repetitions=10)
        path = tmp_path / "sweep.csv"
        sweep.sweep_to_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dataset,gamma,precision,recall,f1"
        assert lines[1] == "10%,2.0,0.9960,0.9956,0.9954"

    def test_default_specs_shape(self):
        specs = sweep.default_dataset_specs()
        assert [s.name for s in specs] == ["balanced", "40%", "30%", "20%", "10%"]
        assert specs[0].balanced and not specs[1].balanced
