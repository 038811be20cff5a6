"""Per-layer spans recorded around the program's public entry points.

The traced run wraps each layer's entry point *where its caller looks it
up* — ``repro.tile.workloads.lower`` for the lowering that
``TileWorkload.generate_naive`` calls, the pass functions imported by
``repro.opt.pipeline``, ``KernelStore.load`` for store lookups — so no file
under ``src/`` changes.  Every span records its layer, start, end, parent
span and request; a layer's *self time* is its span's duration minus the
durations of the spans it wraps.  Spans stay in memory and are written out
as a Chrome trace when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

#: The root span of one request; its self time is the part of the request
#: no wrapped layer covers.
REQUEST = "request"


class SpanRecorder:
    """Nested spans with online self-time accounting."""

    def __init__(self) -> None:
        #: (layer, start, end, parent index or -1, request index) per span.
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._open: list[list] = []  # [span index, layer, start, child seconds]
        self.request = -1

    def begin(self, layer: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append((layer, 0.0, 0.0, parent, self.request))
        self._open.append([len(self.spans) - 1, layer, time.perf_counter(), 0.0])

    def end(self) -> float:
        end = time.perf_counter()
        index, layer, start, child_s = self._open.pop()
        duration = end - start
        self.spans[index] = (layer, start, end, *self.spans[index][3:])
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        if self._open:
            self._open[-1][3] += duration
        return duration

    @contextmanager
    def span(self, layer: str):
        self.begin(layer)
        try:
            yield
        finally:
            self.end()

    def wrap(self, layer: str, fn, on_result=None):
        """``fn`` timed as a ``layer`` span; ``on_result`` sees each result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def covered_share(self) -> float:
        """Share of request wall time that wrapped layers account for."""
        total = sum(end - start for layer, start, end, _, _ in self.spans if layer == REQUEST)
        if total <= 0.0:
            return 0.0
        return 1.0 - self.self_s[REQUEST] / total

    def dump(self, path: Path) -> None:
        """Write the spans as a Chrome trace (``chrome://tracing``)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"span": index, "parent": parent, "request": request},
            }
            for index, (layer, start, end, parent, request) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


class LayerTallies:
    """Work counts read off wrapped entry points' results."""

    def __init__(self) -> None:
        self.candidates_generated = 0
        self.candidates_kept = 0
        self.sass_instructions = 0

    def on_prune(self, report) -> None:
        self.candidates_generated += report.total
        self.candidates_kept += len(report.kept)

    def on_lower(self, kernel) -> None:
        self.sass_instructions += kernel.instruction_count


def _targets(tallies: LayerTallies):
    """(owner, attribute, layer, result hook) of every wrapped entry point."""
    from repro.kcache import KernelStore
    from repro.kernels.registry import get_workload

    # import_module, not ``import a.b as c``: packages re-export functions
    # that shadow their submodules' names (``repro.opt.autotune``).
    warmstart = import_module("repro.kcache.warmstart")
    opt_autotune = import_module("repro.opt.autotune")
    opt_pipeline = import_module("repro.opt.pipeline")
    rewrite = import_module("repro.opt.rewrite")
    tile_autotune = import_module("repro.tile.autotune")
    tile_workloads = import_module("repro.tile.workloads")

    targets = [
        (get_workload(name), "scheduled_proc", "tile.schedule", None)
        for name in ("tile_sgemm", "tile_sgemv", "tile_transpose")
    ]
    targets += [
        (tile_autotune, "prune_by_bound", "tile.autotune.prune", tallies.on_prune),
        (tile_workloads, "lower", "tile.lower", tallies.on_lower),
        (opt_pipeline, "analyse_liveness", "opt.liveness", None),
        (opt_pipeline, "reallocate_registers", "opt.reallocation", None),
        (opt_pipeline, "schedule_kernel", "opt.scheduling", None),
        (opt_pipeline, "assign_control_hints", "opt.control_hints", None),
        (opt_autotune, "simulate_one_block", "sim.timing", None),
        (KernelStore, "load", "kcache.lookup", None),
        (KernelStore, "compose", "kcache.publish", None),
        (KernelStore, "publish", "kcache.publish", None),
        (warmstart, "nearest_tuned", "kcache.warmstart", None),
        (warmstart, "warm_seed_configs", "kcache.warmstart", None),
        (warmstart, "block_cycle_floor", "kcache.warmstart", None),
        (rewrite, "kernel_hash", "kcache.hash", None),
        (opt_autotune, "kernel_hash", "kcache.hash", None),
    ]
    return targets


@contextmanager
def instrumented(recorder: SpanRecorder, tallies: LayerTallies):
    """Wrap every layer entry point for the ``with`` body, then restore them."""
    _MISSING = object()
    saved = []
    try:
        for owner, attribute, layer, hook in _targets(tallies):
            own = vars(owner).get(attribute, _MISSING)
            setattr(owner, attribute, recorder.wrap(layer, getattr(owner, attribute), hook))
            saved.append((owner, attribute, own))
        yield
    finally:
        for owner, attribute, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
