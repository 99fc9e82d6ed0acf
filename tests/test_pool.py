"""Fold jobs in a worker pool give the same numbers as in this process.

Training of small data stays in this process; these tests lower the
pool's work threshold so that tiny trainings run in spawned workers.
Every call into the pool runs under a time limit.
"""

import concurrent.futures
import multiprocessing
import os
import threading

import numpy as np
import pytest

from graphica import conflict_sim as cs
from graphica import gap, sweep
from graphica.errors import GraphicaError

LIMIT_S = 300


def within_limit(fn, *args, **kwargs):
    """fn(*args, **kwargs), failing the test if it does not return in
    LIMIT_S."""
    out = {}

    def target():
        try:
            out["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # handed to the caller below
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(LIMIT_S)
    assert not thread.is_alive(), f"no answer within {LIMIT_S} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


@pytest.fixture
def pools(monkeypatch):
    """Send every training to the worker pool, even on one CPU; returns
    the list of pools made."""
    made = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(gap, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return made


@pytest.fixture(scope="module")
def small_ds():
    return cs.synth_dataset(cs.new_topology(10, 13, 10, 0), 80, 0.75, 3)


def train_small(dataset, **kw):
    cfg = gap.TrainConfig(**{**dict(batch_size=32, max_epochs=30, patience=10,
                                    min_delta=1e-5), **kw})
    focal = gap.FocalConfig(gamma=2.0, alpha=gap.compute_alpha(dataset.labels()))
    return gap.train(dataset, cfg, focal)


def test_pool_trains_the_same_folds(small_ds, pools, monkeypatch):
    models, history = within_limit(train_small, small_ds)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(gap, "_POOL_MIN_WORK", float("inf"))
    here_models, here = train_small(small_ds)
    assert len(pools) == 1
    assert history.train_losses == here.train_losses
    assert history.val_losses == here.val_losses
    assert history.stop_epochs == here.stop_epochs
    assert history.best_epochs == here.best_epochs
    assert history.fold_metrics == here.fold_metrics
    assert np.array_equal(history.predictions, here.predictions)
    for pooled, local in zip(models, here_models, strict=True):
        assert pooled.to_flat().tobytes() == local.to_flat().tobytes()


def test_sweep_csv_is_the_same_from_the_pool(tmp_path, pools, monkeypatch):
    topo = cs.new_topology(10, 13, 10, 0)
    specs = [sweep.DatasetSpec("balanced", 80, 0.75, balanced=True),
             sweep.DatasetSpec("40%", 80, 0.40)]
    cfg = gap.TrainConfig(batch_size=32, max_epochs=12, patience=6, min_delta=1e-5)
    result = within_limit(sweep.gamma_sweep, specs, [2.0], 2, cfg, topo)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
    sweep.sweep_to_csv(result, tmp_path / "pool.csv")

    monkeypatch.setattr(gap, "_POOL_MIN_WORK", float("inf"))
    sweep.sweep_to_csv(sweep.gamma_sweep(specs, [2.0], 2, cfg, topo), tmp_path / "here.csv")
    assert len(pools) == 1
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


# The learning rate overflows on purpose; with the overflow warnings
# ignored, training's own finiteness checks raise on both paths.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_worker_error_reaches_the_caller(small_ds, pools, monkeypatch):
    with pytest.raises(GraphicaError) as pooled:
        within_limit(train_small, small_ds, learning_rate=1e150)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(gap, "_POOL_MIN_WORK", float("inf"))
    with pytest.raises(GraphicaError) as here:
        train_small(small_ds, learning_rate=1e150)
    assert type(pooled.value) is type(here.value)
    assert str(pooled.value) == str(here.value) == "training loss diverged at epoch 1"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_workers_take_the_callers_warning_filters(small_ds, pools, monkeypatch):
    with pytest.raises(RuntimeWarning) as pooled:
        within_limit(train_small, small_ds, learning_rate=1e150)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(gap, "_POOL_MIN_WORK", float("inf"))
    with pytest.raises(RuntimeWarning) as here:
        train_small(small_ds, learning_rate=1e150)
    assert str(pooled.value) == str(here.value)
