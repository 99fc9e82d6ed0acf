"""Span tracing from outside the program.

``Tracer.install`` replaces selected ``graphica`` functions, in every
``graphica`` module namespace that holds them, with wrappers that record
a span (name, layer, start, end, parent) around each call; ``uninstall``
puts the originals back.  Spans stay in memory until ``write`` is
called.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict

#: Functions wrapped per layer (module of ``graphica``).  Calls are traced
#: where one layer calls into another; helpers a module only calls itself
#: stay inside their caller's span.
TARGETS = {
    "conflict_sim": ("new_topology", "synth_dataset", "synth_rows", "class_distribution",
                     "save_dataset", "load_dataset", "save_topology", "load_topology"),
    "gsc": ("build_graph",),
    "gap": ("compute_alpha", "stratified_kfold", "row_tensors", "loss_and_grad",
            "focal_loss", "_probs_in_chunks", "predict_rows", "train",
            "fold_predictions"),
    "numerics": ("adam_step",),
    "rca": ("build_report", "report_to_csv", "format_report_table"),
    "sweep": ("gamma_sweep", "cross_validated_metrics", "sweep_to_csv"),
    "cli": ("main", "cmd_synth", "cmd_train", "cmd_eval", "cmd_sweep", "cmd_report"),
}

#: The span whose calls also record the minor page faults they took.
FAULT_COUNTED = "gap.loss_and_grad"


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """In-memory span recorder.

    ``spans`` holds tuples (name, layer, start, end, parent, self_s,
    faults); ``parent`` is an index into ``spans`` or -1.  ``hooks`` maps
    a span name to a function called with (counters, args, kwargs,
    result) after the span closes, to count the work the call did.
    """

    def __init__(self, hooks=None):
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self._hooks = dict(hooks or {})
        self._stack: list[list] = []
        self._patched: list = []

    def _enter(self):
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, layer, start, end, faults):
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans[frame[0]] = (name, layer, start, end,
                                parent[0] if parent is not None else -1,
                                duration - frame[1], faults)

    def wrap(self, fn, name: str, layer: str):
        hook = self._hooks.get(name)
        count_faults = name == FAULT_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            faults = _minor_faults() if count_faults else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if count_faults:
                    faults = _minor_faults() - faults
                self._exit(frame, name, layer, start, end, faults)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def root(self):
        """Context manager for the root span ``bench.run`` (layer
        ``bench``) that the benchmark's own code runs under."""
        tracer = self

        class _Root:
            def __enter__(self):
                self.frame = tracer._enter()
                self.start = time.perf_counter()
                return self

            def __exit__(self, *exc):
                tracer._exit(self.frame, "bench.run", "bench", self.start,
                             time.perf_counter(), 0)
                return False

        return _Root()

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "graphica" or key.startswith("graphica."))]
        for layer, names in TARGETS.items():
            home = sys.modules[f"graphica.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(original, f"{layer}.{fname}", layer)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- summaries --------------------------------------------------------

    def by_name(self, field: str) -> dict[str, float]:
        """Sum of ``field`` ("count", "total", "self" or "faults") per span
        name."""
        out: dict[str, float] = defaultdict(float)
        for name, _, start, end, _, self_s, faults in self.spans:
            out[name] += {"count": 1.0, "total": end - start,
                          "self": self_s, "faults": faults}[field]
        return out

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for _, layer, _, _, _, self_s, _ in self.spans:
            out[layer] += self_s
        return out

    def write(self, path) -> None:
        """One CSV line per span: index, name, layer, start, end, parent,
        self time, minor faults (for fault-counted spans)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,layer,start_s,end_s,parent,self_s,minor_faults\n")
            for i, (name, layer, start, end, parent, self_s, faults) in enumerate(self.spans):
                fh.write(f"{i},{name},{layer},{start:.9f},{end:.9f},{parent},"
                         f"{self_s:.9f},{faults}\n")
