#!/usr/bin/env python3
"""Benchmark of the graphica pipeline: one workload per run.

    python3 perfbench/run.py --workload reference_cv --seed 1 --seconds 5 --trace 0

With ``--trace 0`` the run sets up the workload several times, repeats
whole rounds until ``--seconds`` have passed (a round is never cut
short, so a workload whose round is longer measures one round), checks
the first round's outputs against the oracles in ``oracles.py`` and
prints every end-to-end metric.  With ``--trace 1`` it sets up and runs
one round untraced, then sets up and runs one round again with every
layer boundary traced, and prints the per-layer metrics instead.  The
metric names and units are those of BENCHMARK.json at the repository
root.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 5


def units(root: Path, trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run prints, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def failures(rounds) -> list[str]:
    """One problem per round with a failed operation: no workload has an
    operation that is expected to fail, and a failed round's times cover
    only the stages before the failure."""
    return [f"round {i} failed: {r.info.get('error', f'{r.failed} operations failed')}"
            for i, r in enumerate(rounds) if r.failed]


def result(rounds, problems, metrics, names: dict[str, str]) -> dict:
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }


# ---------------------------------------------------------------------------
# untraced run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_plain(wl, seed: int, seconds: float, work: Path):
    setups, state = [], None
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(seed, work / f"setup{i}")
        setups.append(time.perf_counter() - t0)

    rounds = []
    start = time.perf_counter()
    while True:
        r = wl.round(state, work / f"round{len(rounds)}")
        rounds.append(r)
        if r.failed or time.perf_counter() - start >= seconds:
            break
        if len(rounds) > 1:  # only the first round's outputs are checked
            shutil.rmtree(r.out, ignore_errors=True)
            r.info.clear()
    peak = peak_rss_mb()

    first = rounds[0]
    problems = failures(rounds)
    if not first.failed:
        problems += wl.check(state, first)
    for i, r in enumerate(rounds[1:], 1):
        if not r.failed and r.digest != first.digest:
            problems.append(f"round {i} wrote different outputs than round 0")
    metrics = {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(r.seconds for r in rounds),
        "rows_per_s": statistics.median(r.rows_per_s for r in rounds),
        "peak_rss_mb": peak,
    }
    lines = [f"set-ups: {', '.join(f'{s:.3f}' for s in setups)} s",
             f"rounds: {len(rounds)}"]
    for name in first.stages:
        lines.append(f"stage {name}: median "
                     f"{statistics.median(r.stages.get(name, 0.0) for r in rounds):.4f} s")
    return rounds, problems, metrics, first.info, lines


# ---------------------------------------------------------------------------
# traced run


def _hooks():
    """Counters taken from the arguments and results of traced calls."""

    def synth_rows(c, args, kwargs, result):
        c["rows_synthesized"] += len(result)

    def load_dataset(c, args, kwargs, result):
        c["rows_loaded"] += len(result.rows)

    def row_tensors(c, args, kwargs, result):
        c["rows_packed"] += result.features.shape[0]

    def probs_in_chunks(c, args, kwargs, result):
        c["rows_predicted"] += result.shape[0]

    def train(c, args, kwargs, result):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        history = result[1]
        c["fold_epochs"] += sum(history.stop_epochs)
        c["best_epochs"] += sum(history.best_epochs)
        c["folds_at_budget"] += sum(e == cfg.max_epochs for e in history.stop_epochs)

    def build_report(c, args, kwargs, result):
        kind_of_label = {1: "PA", 2: "KP", 3: "PP"}
        for row in result.rows:
            c["rows_traced"] += 1
            if row.affected_node == "unlocalized":
                c["unlocalized"] += 1
                continue
            if row.affected_node.startswith("k"):
                kind = "KP"
            elif row.root_cause_nodes[0].startswith("a"):
                kind = "PA"
            else:
                kind = "PP"
            c["kind_fallbacks"] += kind != kind_of_label[row.predicted_label]

    def gamma_sweep(c, args, kwargs, result):
        c["sweep_runs"] += len(result.cells) * result.repetitions

    return {
        "conflict_sim.synth_rows": synth_rows,
        "conflict_sim.load_dataset": load_dataset,
        "gap.row_tensors": row_tensors,
        "gap._probs_in_chunks": probs_in_chunks,
        "gap.train": train,
        "rca.build_report": build_report,
        "sweep.gamma_sweep": gamma_sweep,
    }


def run_traced(wl, seed: int, work: Path, spans_path: Path):
    import tracing

    # The same set-up and round untraced first, in this process, so that
    # the tracing overhead is measured against it and not against other
    # runs on a host whose speed drifts.  An untimed set-up before it
    # pays the process's first-call costs (0.4 s of the first of
    # score_stream's set-ups), which would otherwise count against the
    # untraced pass.
    wl.setup(seed, work / "first-setup")
    t0 = time.perf_counter()
    plain_state = wl.setup(seed, work / "plain-setup")
    plain_setup_s = time.perf_counter() - t0
    plain = wl.round(plain_state, work / "plain-round")
    untraced_s = time.perf_counter() - t0

    tracer = tracing.Tracer(_hooks())
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    tracer.install()
    try:
        with tracer.root():
            state = wl.setup(seed, work / "setup")
            r = wl.round(state, work / "round")
    finally:
        tracer.uninstall()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    tracer.write(spans_path)

    problems = failures([plain, r])
    if not r.failed:
        problems += wl.check(state, r)
        if not plain.failed and plain.digest != r.digest:
            problems.append("the traced round wrote different outputs than the untraced one")
    root = tracer.spans[0]
    traced_s = root[3] - root[2]

    count = tracer.by_name("count")
    total = tracer.by_name("total")
    own = tracer.by_name("self")
    faults = tracer.by_name("faults")
    layer_self = tracer.self_by_layer()
    c = defaultdict(float, tracer.counters)
    n_spans = len(tracer.spans) - 1
    steps = count["gap.loss_and_grad"]
    rows = c["rows_synthesized"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "conflict_sim.synth_s": total["conflict_sim.synth_rows"],
        "conflict_sim.rows_synthesized": rows,
        "conflict_sim.csv_s": sum(total[f"conflict_sim.{n}"] for n in (
            "save_dataset", "load_dataset", "save_topology", "load_topology")),
        "conflict_sim.rows_loaded": c["rows_loaded"],
        "conflict_sim.self_s": layer_self["conflict_sim"],
        "gsc.build_graph_s": total["gsc.build_graph"],
        "gsc.graphs_built": count["gsc.build_graph"],
        "gsc.graphs_per_row": ratio(count["gsc.build_graph"], rows),
        "gsc.self_s": layer_self["gsc"],
        "gap.pack_s": own["gap.row_tensors"],
        "gap.rows_packed": c["rows_packed"],
        "gap.packs_per_row": ratio(c["rows_packed"], rows),
        "gap.step_s": total["gap.loss_and_grad"],
        "gap.steps": steps,
        "gap.step_ms": 1000.0 * ratio(total["gap.loss_and_grad"], steps),
        "gap.faults_per_step": ratio(faults["gap.loss_and_grad"], steps),
        "gap.focal_s": total["gap.focal_loss"],
        "gap.train_self_s": own["gap.train"],
        "gap.fold_epochs": c["fold_epochs"],
        "gap.useful_epoch_ratio": ratio(c["best_epochs"], c["fold_epochs"]),
        "gap.folds_at_budget": c["folds_at_budget"],
        "gap.predict_s": total["gap._probs_in_chunks"],
        "gap.rows_predicted": c["rows_predicted"],
        "gap.self_s": layer_self["gap"],
        "numerics.adam_s": total["numerics.adam_step"],
        "numerics.adam_steps": count["numerics.adam_step"],
        "numerics.self_s": layer_self["numerics"],
        "rca.report_s": total["rca.build_report"],
        "rca.rows_traced": c["rows_traced"],
        "rca.unlocalized": c["unlocalized"],
        "rca.kind_fallbacks": c["kind_fallbacks"],
        "rca.self_s": layer_self["rca"],
        "sweep.self_s": layer_self["sweep"],
        "sweep.runs": c["sweep_runs"],
        "cli.self_s": layer_self["cli"],
        "bench.self_s": layer_self["bench"],
        "process.user_s": usage1.ru_utime - usage0.ru_utime,
        "process.sys_s": usage1.ru_stime - usage0.ru_stime,
        "process.minor_faults": usage1.ru_minflt - usage0.ru_minflt,
        "process.peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "trace.spans": n_spans,
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    lines = [f"set-up + round: untraced {untraced_s:.3f} s (set-up {plain_setup_s:.3f} s), "
             f"traced {traced_s:.3f} s in {n_spans} spans",
             "self time by layer: " + ", ".join(
                 f"{k} {v:.3f} s" for k, v in sorted(layer_self.items()))]
    return [plain, r], problems, metrics, r.info, lines


# ---------------------------------------------------------------------------


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    try:
        workloads.load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    names = units(workloads.ROOT, args.trace)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        if args.trace:
            spans = OUT / f"{wl.name}-seed{args.seed}-spans.csv"
            rounds, problems, metrics, info, lines = run_traced(wl, args.seed, work, spans)
            lines.append(f"spans written to {spans.relative_to(workloads.ROOT)}")
        else:
            rounds, problems, metrics, info, lines = run_plain(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = result(rounds, problems, metrics, names)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for key, value in info.items():
        print(f"{key}: {value:.4f}" if isinstance(value, float) else f"{key}: {value}")
    print(f"operations: {out['attempted']} attempted, {out['failed']} failed")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, m in out["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
