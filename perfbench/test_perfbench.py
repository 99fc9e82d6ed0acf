"""Fast tests of the benchmark itself: the oracles on hand-worked cases and
against the program, the tracer, the metric names, and a tiny version of
every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

workloads.load_program()

from graphica import conflict_sim, gap  # noqa: E402


# ---------------------------------------------------------------------------
# oracles on hand-worked cases

#: 2 apps, 3 parameters, 1 KPI.  p1 is controlled by a1 and a2; k1 is
#: driven by p1 and p2; p3 is driven by p1 and p2.
TINY = {"n_apps": 2, "n_params": 3, "n_kpis": 1,
        "controls": [[0, 0], [0, 1], [1, 0], [2, 1]],
        "kpi_deps": [[0, 0], [0, 1]],
        "param_deps": [[2, 0], [2, 1]]}


@pytest.mark.parametrize("bits, label", [
    ([1, 1, 1, 0, 0, 0], 1),   # p1 changed with both controllers active: direct
    ([0, 0, 1, 1, 0, 1], 2),   # k1 changed with both sources changed: implicit
    ([0, 0, 1, 1, 1, 0], 3),   # p3 changed with both sources changed: indirect
    ([1, 1, 1, 1, 1, 1], 1),   # all three patterns: direct wins
    ([0, 0, 1, 1, 1, 1], 2),   # implicit before indirect
    ([1, 0, 1, 0, 0, 1], 0),   # one controller, one source: normal
])
def test_labeler_hand_cases(bits, label):
    masks = oracles.masks_from_json(TINY)
    assert oracles.label_rows(masks, np.array([bits])).tolist() == [label]


def test_declared_counts_and_all_normal_baseline():
    assert oracles.declared_counts(570, 0.10).tolist() == [513, 19, 19, 19]
    assert oracles.declared_counts(10, 0.5).tolist() == [5, 2, 2, 1]
    assert oracles.declared_counts(800, 0.75).tolist() == [200, 200, 200, 200]
    # 9 normal rows of 10: F1 of class 0 is 18/19, weighted by 0.9.
    assert oracles.all_normal_f1([9, 1, 0, 0]) == pytest.approx(0.9 * 18 / 19)
    assert oracles.all_normal_f1([200, 200, 200, 200]) == pytest.approx(0.25 * 0.4)


def test_confusion_and_weighted_f1_hand_case():
    cm = oracles.confusion_counts([0, 0, 1, 1], [0, 1, 1, 1])
    assert cm[:2, :2].tolist() == [[1, 1], [0, 2]]
    prec, rec, f1 = oracles.weighted_prf(cm)
    # class 0: P 1, R 1/2, F1 2/3; class 1: P 2/3, R 1, F1 4/5; half the rows each.
    assert prec == pytest.approx((1 + 2 / 3) / 2)
    assert rec == pytest.approx((0.5 + 1) / 2)
    assert f1 == pytest.approx((2 / 3 + 0.8) / 2)


def _three_node_params():
    """H = 1 model that sums features, passes them through both layers
    and puts the pooled sum on class 0."""
    return {"w1": np.ones((5, 1)), "b1": np.zeros(1), "w2": np.ones((1, 1)),
            "b2": np.zeros(1), "wc": np.array([[1.0, 0.0, 0.0, 0.0]]),
            "bc": np.zeros(4), "kind_weights": np.ones(3)}


def test_dense_forward_hand_case():
    # One app controlling one parameter, one KPI with no source: with every
    # bit on, a1 - p1 is the only edge.  A_hat = [[1/2, 1/2, 0], [1/2, 1/2, 0],
    # [0, 0, 1]]; feature row sums are 2.5, 2.5 and 2 (role, state, degree / 2),
    # both layers keep them, and the mean pool gives 7/3 on class 0.
    masks = oracles.masks_from_json({"n_apps": 1, "n_params": 1, "n_kpis": 1,
                                     "controls": [[0, 0]], "kpi_deps": [],
                                     "param_deps": []})
    probs = oracles.forward(_three_node_params(), masks, np.array([[1, 1, 1]]))
    z = math.exp(7 / 3)
    assert probs[0] == pytest.approx([z / (z + 3), 1 / (z + 3), 1 / (z + 3), 1 / (z + 3)])


def test_focal_loss_hand_case():
    probs = np.array([[0.5, 0.5, 0.0, 0.0]])
    assert oracles.focal_loss(probs, [0], 0.0, np.ones(4)) == pytest.approx(math.log(2))
    assert oracles.focal_loss(probs, [0], 2.0, np.ones(4)) == pytest.approx(0.25 * math.log(2))


def test_finite_differences_match_softmax_gradient():
    # With gamma 0 and unit alpha the loss is cross-entropy, whose gradient
    # for the head bias is p - onehot(y).
    masks = oracles.masks_from_json({"n_apps": 1, "n_params": 1, "n_kpis": 1,
                                     "controls": [[0, 0]], "kpi_deps": [],
                                     "param_deps": []})
    params = _three_node_params()
    bits = np.array([[1, 1, 1]])
    numeric = oracles.finite_difference_grad(params, masks, bits, [2], 0.0, np.ones(4))
    probs = oracles.forward(params, masks, bits)[0]
    bc = slice(5 + 1 + 1 + 1 + 4, 5 + 1 + 1 + 1 + 4 + 4)
    assert numeric[bc] == pytest.approx(probs - np.eye(4)[2], abs=1e-8)


# ---------------------------------------------------------------------------
# oracles against the program


@pytest.fixture(scope="module")
def small_data():
    topology = conflict_sim.new_topology(10, 13, 10, 3)
    dataset = conflict_sim.synth_dataset(topology, 120, 0.4, 3)
    masks = oracles.masks_from_json(json.loads(conflict_sim.topology_to_json(topology)))
    bits = np.array([row.bits() for row in dataset.rows])
    return topology, dataset, masks, bits


def test_labeler_agrees_with_rule_oracle(small_data):
    topology, dataset, masks, bits = small_data
    assert oracles.label_rows(masks, bits).tolist() == dataset.labels().tolist()
    flipped = bits.copy()
    flipped[:, :topology.n_apps] = 1  # every app active: many direct conflicts
    rows = [conflict_sim.BinaryStateRow(tuple(b[:10]), tuple(b[10:23]), tuple(b[23:]))
            for b in flipped.tolist()]
    assert oracles.label_rows(masks, flipped).tolist() == [
        int(conflict_sim.label_row(topology, row)) for row in rows]


def test_forward_and_gradient_agree_with_program(small_data, tmp_path):
    topology, dataset, masks, bits = small_data
    model = gap.ModelParams.init(5)
    model.kind_weights = np.array([0.7, 1.3, 2.1])
    focal = gap.FocalConfig(gamma=2.0, alpha=gap.compute_alpha(dataset.labels()))
    gap.save_checkpoint(model, tmp_path / "m.ckpt", 5, focal)
    ckpt = oracles.read_checkpoint(tmp_path / "m.ckpt")
    mine = oracles.forward(ckpt.params, masks, bits)
    assert workloads.check_probs(mine, gap.predict_rows(model, topology, dataset.rows), "") == []
    assert workloads.check_gradient(tmp_path / "m.ckpt", masks, bits, dataset.labels(),
                                    topology, dataset) == []


def test_gradient_check_catches_a_wrong_gradient(small_data, tmp_path, monkeypatch):
    topology, dataset, masks, bits = small_data
    model = gap.ModelParams.init(6)
    focal = gap.FocalConfig(gamma=2.0, alpha=gap.compute_alpha(dataset.labels()))
    gap.save_checkpoint(model, tmp_path / "m.ckpt", 6, focal)
    real = gap.loss_and_grad

    def skewed(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        grads.w2 = grads.w2 * 1.01
        return loss, grads

    monkeypatch.setattr(gap, "loss_and_grad", skewed)
    problems = workloads.check_gradient(tmp_path / "m.ckpt", masks, bits, dataset.labels(),
                                        topology, dataset)
    assert problems and "w2" in problems[0]


def test_sweep_check_flags_a_cell_at_the_baseline(tmp_path):
    (tmp_path / "sweep.csv").write_text(
        "dataset,gamma,precision,recall,f1\n"
        "balanced,0.0,0.9,0.9,0.9000\n10%,0.0,0.9,0.9,0.8526\n")
    baselines = {"balanced": 0.1, "10%": oracles.all_normal_f1([513, 19, 19, 19])}
    problems = workloads.check_sweep_cells(tmp_path / "sweep.csv", baselines,
                                           [("balanced", 0.0), ("10%", 0.0)], {})
    assert len(problems) == 1 and "10%" in problems[0]


# ---------------------------------------------------------------------------
# tracer and metric names


def test_tracer_self_times_add_up_and_uninstall_restores():
    from graphica import cli, gsc

    original = gsc.build_graph
    tracer = tracing.Tracer(run._hooks())
    tracer.install()
    try:
        assert gap.build_graph is not original and cli.build_graph is not original
        with tracer.root():
            topology = conflict_sim.new_topology(10, 13, 10, 1)
            dataset = conflict_sim.synth_dataset(topology, 40, 0.5, 1)
            gap.row_tensors(topology, dataset.rows)
    finally:
        tracer.uninstall()
    assert gsc.build_graph is original and gap.build_graph is original
    names = tracer.by_name("count")
    assert names["gsc.build_graph"] == 40 and names["gap.row_tensors"] == 1
    root = tracer.spans[0]
    assert sum(s[5] for s in tracer.spans) == pytest.approx(root[3] - root[2], abs=1e-9)
    assert tracer.counters["rows_synthesized"] == 40
    assert tracer.counters["rows_packed"] == 40


def test_benchmark_json_names_the_workloads():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in run.units(workloads.ROOT, 0)


# ---------------------------------------------------------------------------
# tiny workloads


TINY_WORKLOADS = [
    workloads.ReferenceCV(rows=120, conflict=0.4, n_folds=3,
                          train_flags=("--epochs", 4, "--patience", 3), f1_floor=0.0),
    workloads.SweepSlice(epochs=3, reps=1, rows=100, balanced_rows=100, n_folds=2),
    workloads.ScoreStream(sizes=(10, 13, 10), rows=300, scorer_rows=120, scorer_epochs=3),
]


@pytest.mark.parametrize("wl", TINY_WORKLOADS, ids=lambda w: w.name)
def test_tiny_workload_runs_and_checks(wl, tmp_path):
    rounds, problems, metrics, info, _ = run.run_plain(wl, 1, 0.0, tmp_path)
    assert [r.failed for r in rounds] == [0]
    assert set(metrics) == set(run.units(workloads.ROOT, 0))
    assert all(v > 0 for v in metrics.values())
    if wl.name == "sweep_slice":
        # Three epochs do not beat the all-normal baseline reliably; only
        # that check may fail.
        problems = [p for p in problems if "baseline" not in p]
    assert problems == []


def test_tiny_traced_run_reports_every_layer(tmp_path):
    wl = TINY_WORKLOADS[2]
    rounds, problems, metrics, _, _ = run.run_traced(wl, 2, tmp_path, tmp_path / "spans.csv")
    assert problems == [] and [r.failed for r in rounds] == [0, 0]
    assert set(metrics) == set(run.units(workloads.ROOT, 1))
    for layer in ("conflict_sim", "gsc", "gap", "numerics", "rca", "sweep", "cli"):
        assert metrics[f"{layer}.self_s"] > 0
    assert metrics["gsc.graphs_per_row"] >= 1
    assert metrics["trace.overhead_s"] == metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    lines = (tmp_path / "spans.csv").read_text().splitlines()
    assert len(lines) == metrics["trace.spans"] + 2  # header and root span


def test_a_failed_stage_makes_the_run_incorrect(tmp_path, monkeypatch):
    real = workloads.cli

    def failing(argv):
        if argv[0] == "train" and "--gamma" in argv:  # the round's train, not the warm-up's
            raise workloads.StageError("graphica train exited with 1")
        return real(argv)

    monkeypatch.setattr(workloads, "cli", failing)
    rounds, problems, metrics, _, _ = run.run_plain(TINY_WORKLOADS[0], 1, 0.0, tmp_path)
    out = run.result(rounds, problems, metrics, run.units(workloads.ROOT, 0))
    assert out["correct"] is False and out["failed"] > 0
    assert problems == ["round 0 failed: graphica train exited with 1"]
