"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The training-based criteria share session-scoped fixtures so
the whole suite trains 9 cross-validated models (3 seeds x 3 setups).
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from graphica import cli
from graphica import conflict_sim as cs
from graphica import gap, rca
from graphica.gsc import build_graph
from graphica.metrics import confusion, prf

from reference import grad_check

SEEDS = (0, 1, 2)


def report(line):
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# shared training runs


@dataclass
class Run:
    dataset: cs.Dataset
    cfg: gap.TrainConfig
    models: list
    history: gap.TrainHistory
    pooled_preds: np.ndarray


def execute_run(topology, n_rows, fraction, gamma, seed):
    dataset = cs.synth_dataset(topology, n_rows, fraction, seed)
    cfg = gap.TrainConfig(seed=seed)
    focal = gap.FocalConfig(gamma=gamma, alpha=gap.compute_alpha(dataset.labels()))
    models, history = gap.train(dataset, cfg, focal)
    preds = gap.fold_predictions(dataset, models, cfg)
    return Run(dataset, cfg, models, history, preds)


@pytest.fixture(scope="session")
def topology():
    return cs.new_topology(10, 13, 10, 0)


@pytest.fixture(scope="session")
def ten_pct_gamma2(topology):
    return [execute_run(topology, 570, 0.10, 2.0, s) for s in SEEDS]


@pytest.fixture(scope="session")
def ten_pct_gamma0(topology):
    return [execute_run(topology, 570, 0.10, 0.0, s) for s in SEEDS]


@pytest.fixture(scope="session")
def balanced_runs(topology):
    return [execute_run(topology, 800, 0.75, 0.0, s) for s in SEEDS]


def weighted_f1(run):
    return prf(confusion(run.pooled_preds, run.dataset.labels()))[2]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_oracle_equivalence():
    """label_row matches an independent brute-force labeler on every row
    of 20 random small deployments."""
    from test_conflict_sim import brute_force_label

    started = time.monotonic()
    rng = np.random.default_rng(1234)
    checked = 0
    for case in range(20):
        while True:
            a = int(rng.integers(2, 5))
            p = int(rng.integers(3, 7))
            k = int(rng.integers(1, 5))
            if a + p + k <= 12:
                break
        topo = cs.new_topology(a, p, k, int(rng.integers(0, 10_000)))
        width = topo.width
        for code in range(2 ** width):
            bits = tuple((code >> i) & 1 for i in range(width))
            row = cs.BinaryStateRow(bits[:a], bits[a:a + p], bits[a + p:])
            assert int(cs.label_row(topo, row)) == brute_force_label(topo, row)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    report(f"PASS criterion 1: oracle equivalence on {checked} rows across "
           f"20 topologies in {elapsed:.1f}s")


def test_criterion_02_end_to_end_gradients(topology):
    """Analytic gradients match central finite differences end to end."""
    started = time.monotonic()
    dataset = cs.synth_dataset(topology, 64, 0.75, 99)
    tensors = gap.row_tensors(topology, dataset.rows)
    focal = gap.FocalConfig(gamma=2.0, alpha=gap.compute_alpha(dataset.labels()))
    worst = 0.0
    batches = 0
    attempt = 0
    while batches < 10:
        attempt += 1
        assert attempt < 100, "could not find enough kink-free batches"
        rng = np.random.default_rng([77, attempt])
        idx = rng.choice(len(dataset.rows), size=3, replace=False)
        model = gap.ModelParams.init([55, attempt])
        model.b1[:] = 0.05
        model.b2[:] = 0.05
        cache = gap._forward_pass(model, gap._gather_batch(tensors, idx))
        # The role constants hold the inactive nodes' pre-activations.
        margin = min(np.abs(cache[key]).min() for key in ("z1", "z2", "z1c", "z2c"))
        if margin < 1e-3:
            continue  # a ReLU kink too close to the evaluation point

        def loss_fn(flat):
            m = gap.ModelParams.from_flat(flat)
            loss, grads = gap.loss_and_grad(m, tensors, idx, focal)
            return loss, grads.to_flat()

        worst = max(worst, grad_check(loss_fn, model.to_flat(), eps=1e-5))
        batches += 1
    elapsed = time.monotonic() - started
    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
    report(f"PASS criterion 2: max relative gradient error {worst:.2e} over "
           f"10 batches in {elapsed:.1f}s")


def test_criterion_03_focal_degenerates_to_cross_entropy():
    """gamma=0, alpha=1 focal loss equals cross-entropy within 1e-10."""
    rng = np.random.default_rng(42)
    cfg = gap.FocalConfig(gamma=0.0, alpha=np.ones(4))
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(1, 64))
        raw = rng.random((b, 4)) + 1e-4
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=b)
        loss, _ = gap.focal_loss(probs, labels, cfg)
        ce = -float(np.mean(np.log(probs[np.arange(b), labels])))
        worst = max(worst, abs(loss - ce))
    assert worst < 1e-10
    report(f"PASS criterion 3: focal(0, 1) vs cross-entropy max gap {worst:.2e} "
           f"over 100 batches")


def test_criterion_04_balanced_performance(balanced_runs):
    """Balanced 800-row dataset, gamma 0: mean weighted F1 >= 0.95."""
    scores = [weighted_f1(run) for run in balanced_runs]
    mean = float(np.mean(scores))
    assert mean >= 0.95, f"mean weighted F1 {mean:.4f}"
    report(f"PASS criterion 4: balanced weighted F1 {mean:.4f} "
           f"(seeds: {', '.join(f'{s:.4f}' for s in scores)})")


def test_criterion_05_imbalanced_performance(ten_pct_gamma2):
    """10%-conflict dataset, gamma 2: mean weighted F1 >= 0.95."""
    scores = [weighted_f1(run) for run in ten_pct_gamma2]
    mean = float(np.mean(scores))
    assert mean >= 0.95, f"mean weighted F1 {mean:.4f}"
    report(f"PASS criterion 5: 10%-conflict weighted F1 {mean:.4f} "
           f"(seeds: {', '.join(f'{s:.4f}' for s in scores)})")


def test_criterion_06_gamma_trend(ten_pct_gamma2, ten_pct_gamma0):
    """Mean F1 at gamma 2.0 is at least mean F1 at gamma 0.0."""
    scores2 = [weighted_f1(run) for run in ten_pct_gamma2]
    scores0 = [weighted_f1(run) for run in ten_pct_gamma0]
    at2 = float(np.mean(scores2))
    at0 = float(np.mean(scores0))
    seeds = (f"(seeds gamma2: {', '.join(f'{s:.4f}' for s in scores2)}; "
             f"gamma0: {', '.join(f'{s:.4f}' for s in scores0)})")
    assert at2 >= at0, f"F1 at gamma2 {at2:.4f} < gamma0 {at0:.4f} {seeds}"
    report(f"PASS criterion 6: F1 gamma2 {at2:.4f} >= gamma0 {at0:.4f} {seeds}")


def test_criterion_07_loss_convergence(ten_pct_gamma2):
    """Final (best-epoch) training and validation losses below 0.10."""
    worst_train, worst_val = 0.0, 0.0
    for run in ten_pct_gamma2:
        hist = run.history
        train = float(np.mean([curve[best - 1] for curve, best in
                               zip(hist.train_losses, hist.best_epochs)]))
        val = float(np.mean([curve[best - 1] for curve, best in
                             zip(hist.val_losses, hist.best_epochs)]))
        worst_train = max(worst_train, train)
        worst_val = max(worst_val, val)
    assert worst_train < 0.10, f"final training loss {worst_train:.4f}"
    assert worst_val < 0.10, f"final validation loss {worst_val:.4f}"
    report(f"PASS criterion 7: final losses train {worst_train:.4f} / "
           f"val {worst_val:.4f} (all < 0.10)")


def test_criterion_08_rca_ground_truth(topology):
    """With the true label, tracing recovers the injected affected node
    and exact source set for every synthesized conflict row."""
    per_class = 170
    pairs = cs.synth_rows(
        topology, {1: per_class, 2: per_class, 3: per_class}, 31)
    assert len(pairs) >= 500
    traced_rows = rca.build_report(
        [(row.label, build_graph(topology, row)) for row, _ in pairs], topology).rows
    assert len(traced_rows) == len(pairs)
    hits = sum(traced.affected_node == injection.affected
               and set(traced.root_cause_nodes) == set(injection.sources)
               for (_, injection), traced in zip(pairs, traced_rows))
    assert hits == len(pairs), f"{hits}/{len(pairs)} recovered"
    report(f"PASS criterion 8: RCA recovered {hits}/{len(pairs)} injected "
           f"conflicts exactly")


def test_criterion_09_confusion_sanity(ten_pct_gamma2):
    """Fold-0 (114 points) shows at most 3 errors in at least 2 of 3 seeds."""
    outcomes = []
    for run in ten_pct_gamma2:
        labels = run.dataset.labels()
        folds = gap.stratified_kfold(labels, run.cfg.n_folds, run.cfg.seed)
        hold = folds[0]
        assert len(hold) == 114
        cm = confusion(run.pooled_preds[hold], labels[hold])
        outcomes.append(int(cm.sum() - np.trace(cm)))
    good = sum(1 for errors in outcomes if errors <= 3)
    assert good >= 2, f"fold-0 errors per seed: {outcomes}"
    report(f"PASS criterion 9: fold-0 errors {outcomes}; {good}/3 seeds <= 3")


def test_criterion_10_pipeline_determinism(tmp_path):
    """Two identical synth -> train -> eval pipelines produce byte-identical
    metrics.csv (reduced size to keep the suite fast; the pipeline and
    formats are the full ones)."""
    outputs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        flags = ["--seed", "7", "-o", str(out), "--quiet"]
        assert cli.main(["synth", "--rows", "240", "--conflict", "0.25"]
                        + flags) == 0
        assert cli.main(["train", "-d", str(out / "dataset.csv"),
                         "-t", str(out / "topology.json"), "--gamma", "2.0",
                         "--epochs", "60", "--patience", "15"] + flags) == 0
        assert cli.main(["eval", "-d", str(out / "dataset.csv"),
                         "-t", str(out / "topology.json"),
                         "-m", str(out)] + flags) == 0
        outputs.append((out / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]
    report("PASS criterion 10: byte-identical metrics.csv across two runs")
