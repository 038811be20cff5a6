"""Set-up, closed loops, correctness gate and metrics of one benchmark run.

One client drives each workload as a closed loop in this process
(``workers=1``: the next request goes out when the previous reply is in
hand).  The run has four phases:

1. **set-up**, repeated :data:`SETUP_REPEATS` times from cleared memos into
   fresh store roots (``setup_s`` is the median);
2. **the timed loop**: :data:`ROUNDS` rounds over the seeded request stream,
   each from the same starting state (fresh store copies, cleared memos),
   so every request is served ``ROUNDS`` times doing identical work; its
   latency is the fastest of them.  The host's speed drifts by up to 1.7×
   over seconds (CPU time tracks wall time), and the fastest of a few
   identical repeats spread over the run is the figure that drift moves
   least.  Each latency is first scaled to the reference host speed
   (:mod:`perfbench.hostclock`), and the cyclic garbage collector is paused
   during each round.  A traced run makes one untraced and one traced
   round instead;
3. **the correctness gate**, outside any loop: every distinct served kernel
   is re-hashed against its committed ``kernel_hash`` and run over its full
   launch grid in functional mode against the workload's NumPy reference;
4. **served_gflops**: the occupancy-aware wave model of
   :class:`repro.sim.gpu_sim.GpuSimulator` prices each distinct served
   kernel's whole grid in simulated seconds.

Every store lives in a fresh directory under the run's work root; nothing
is written under ``.repro/``, no ledger or persistent autotune cache is
installed, and the schedule memos and degraded session store are cleared
wherever a request must start cold.
"""

from __future__ import annotations

import gc
import math
import shutil
import statistics
import tempfile
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from perfbench import hostclock, mixes
from perfbench.tracing import REQUEST, LayerTallies, SpanRecorder, instrumented

#: How many times set-up runs; ``setup_s`` reports the median.
SETUP_REPEATS = 3

#: Rounds of an untraced run over the same stream.
ROUNDS = 3

#: Cycle cap of every simulation the benchmark itself runs.
MAX_CYCLES = 20_000_000

#: Layers that do compile or simulation work; a store hit must touch none.
WORK_LAYERS = (
    "tile.schedule",
    "tile.lower",
    "opt.liveness",
    "opt.reallocation",
    "opt.scheduling",
    "opt.control_hints",
    "sim.timing",
)

#: Telemetry counters that tick only when compile or simulation work runs.
WORK_COUNTERS = (
    "tile.schedule_cache.misses",
    "opt.passes_run",
    "autotune.candidates_evaluated",
)


@dataclass
class Served:
    """One distinct served kernel: what the correctness gate checks.

    The kernel itself stays in its store until the gate reloads it: holding
    every served object graph through the loop would slow the collector's
    full passes and bias the latencies being measured.
    """

    key: str
    workload: str
    config: object  # the served schedule point (the tuned winner, if any)
    gpu: str
    store_root: Path
    kernel_hash: str
    winner: str


@dataclass
class PassResult:
    """Rounds of the closed loop over the request stream."""

    #: Each request's fastest latency over the rounds, at the reference host
    #: speed (:mod:`perfbench.hostclock`).
    latencies: list[float] = field(default_factory=list)
    #: The same, unscaled.
    raw_latencies: list[float] = field(default_factory=list)
    #: Wall time of each round's loop.
    round_wall_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Builds per round.
    built: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def requests_per_s(self) -> float:
        """Requests ÷ the sum of their fastest scaled latencies."""
        return len(self.latencies) / sum(self.latencies)

    @property
    def raw_requests_per_s(self) -> float:
        return len(self.raw_latencies) / sum(self.raw_latencies)


def counter_total(registry, name: str) -> float:
    """One telemetry counter summed over its label sets."""
    return sum(value for (series, _), value in registry.counters.items() if series == name)


def served_config(reply, requested):
    """The schedule point the reply's kernel was built at."""
    schedule = reply.entry.meta.get("winner_schedule")
    return replace(requested, **schedule) if schedule else requested


def primary_hash(meta: dict) -> str:
    hashes = meta.get("kernel_hashes", {})
    return hashes.get("kernel_opt") or hashes.get("kernel", "")


def clear_memos() -> None:
    """Drop the in-process schedule memos and degraded session entries."""
    from repro.kcache import clear_session_store
    from repro.tile.workloads import clear_schedule_caches

    clear_schedule_caches()
    clear_session_store()


class Workload:
    """A benchmark workload: seeded set-up plus a per-request body."""

    name = ""
    #: The source every reply must carry (None: decided per request).
    expected_source: str | None = None
    #: Reply sources that must do no compile or simulation work.
    zero_work_sources: tuple[str, ...] = ()

    def __init__(self, seed: int, count: int) -> None:
        self.seed = seed
        self.count = count
        self.requests: list[mixes.Request] = []
        self.served: dict[tuple[str, str], Served] = {}
        #: Requests served per routine key (a gate failure fails them all).
        self.uses: Counter[str] = Counter()

    # Set-up ------------------------------------------------------------ #

    def prepare(self, root: Path) -> None:
        """The timed set-up body: stores, pre-population and inputs."""
        raise NotImplementedError

    def begin_pass(self, root: Path) -> None:
        """Untimed per-pass state (fresh stores) before a loop starts."""

    def expected_builds(self) -> int:
        """Requests of one pass that must miss and build."""
        return 0

    # Requests ---------------------------------------------------------- #

    def before_request(self, request: mixes.Request) -> None:
        """Untimed per-request preparation."""

    def serve(self, request: mixes.Request, recorder) -> tuple[str | None, str, str]:
        """Serve one request; returns (failure reason or None, source, routine key)."""
        raise NotImplementedError

    def remember(self, reply, request: mixes.Request, store) -> None:
        """Record the reply's kernel for the gate (once per key and hash)."""
        digest = primary_hash(reply.entry.meta)
        if (reply.key, digest) in self.served:
            return
        self.served[(reply.key, digest)] = Served(
            key=reply.key,
            workload=request.workload,
            config=served_config(reply, request.config),
            gpu=request.gpu,
            store_root=store.root,
            kernel_hash=digest,
            winner=str(reply.entry.meta.get("winner_label", "direct")),
        )

    def get(self, request: mixes.Request, store, **kwargs):
        from repro.kcache import get_kernel

        return get_kernel(
            request.workload, request.config, request.gpu, store=store, workers=1, **kwargs
        )


class ColdTune(Workload):
    """Every request is a tuned cold build on an empty store, memos cleared."""

    name = "cold_tune"
    expected_source = "built"

    def prepare(self, root: Path) -> None:
        from repro.kcache import KernelStore
        from repro.tile.workloads import TileSgemmConfig, TileTransposeConfig

        self.requests = mixes.cold_tune_stream(self.seed, self.count)
        # Finish lazy imports and first-call set-up on a throwaway store, so
        # the first timed request pays only its own build.
        warm = KernelStore(root / "warmup")
        self.get(mixes.Request(0, "tile_transpose", TileTransposeConfig(), "gtx580"), warm, tune=True)
        self.get(mixes.Request(0, "tile_sgemm", TileSgemmConfig(), "gtx680"), warm)

    def begin_pass(self, root: Path) -> None:
        self.pass_root = root

    def expected_builds(self) -> int:
        return len(self.requests)

    def before_request(self, request):
        from repro.kcache import KernelStore

        clear_memos()
        self.store = KernelStore(tempfile.mkdtemp(dir=self.pass_root))

    def serve(self, request, recorder):
        reply = self.get(request, self.store, tune=True, warm_start=False)
        self.remember(reply, request, self.store)
        return None, reply.source, reply.key


class ServeMix(Workload):
    """A Zipf stream of hits over a pre-populated store, plus warm builds."""

    name = "serve_mix"
    zero_work_sources = ("hit",)

    def prepare(self, root: Path) -> None:
        from repro.kcache import KernelStore

        self.requests = mixes.serve_mix_stream(self.seed, self.count)
        self.template = KernelStore(root / "template")
        self.golden: dict[str, dict] = {}
        for workload, shape, gpu in mixes.SERVE_FAMILY:
            request = mixes.Request(0, workload, mixes.make_config(workload, shape), gpu)
            reply = self.get(request, self.template)
            if reply.source != "built":
                raise RuntimeError(f"pre-population of {reply.key} was a {reply.source}")
            self.golden[reply.key] = reply.entry.meta["kernel_hashes"]

    def begin_pass(self, root: Path) -> None:
        from repro.kcache import KernelStore

        clear_memos()
        shutil.copytree(self.template.root, root / "store")
        self.store = KernelStore(root / "store")
        self.hashes = dict(self.golden)
        self.hit_payload_bytes: list[int] = []

    def expected_builds(self) -> int:
        from repro.kcache import routine_key

        stored = {
            routine_key(workload, mixes.make_config(workload, shape), gpu)
            for workload, shape, gpu in mixes.SERVE_FAMILY
        }
        return len(
            {routine_key(r.workload, r.config, r.gpu) for r in self.requests} - stored
        )

    def serve(self, request, recorder):
        reply = self.get(request, self.store, tune=True, warm_start=True)
        hashes = reply.entry.meta["kernel_hashes"]
        known = self.hashes.get(reply.key)
        if known is None:
            if reply.source != "built":
                return f"first request of {reply.key} was a {reply.source}", reply.source, reply.key
            self.hashes[reply.key] = hashes
        elif reply.source != "hit":
            return f"stored key {reply.key} was a {reply.source}", reply.source, reply.key
        elif hashes != known:
            return (
                f"hit on {reply.key} carries hashes {hashes}, built {known}",
                reply.source,
                reply.key,
            )
        else:
            self.hit_payload_bytes.append(reply.entry.meta["payload_bytes"])
        self.remember(reply, request, self.store)
        return None, reply.source, reply.key


class GridValidate(Workload):
    """Full-grid functional simulation of kernels served during set-up."""

    name = "grid_validate"
    expected_source = "functional"
    zero_work_sources = ("functional",)

    def prepare(self, root: Path) -> None:
        from repro.kcache import KernelStore
        from repro.kernels.registry import get_workload

        self.requests = mixes.grid_validate_stream(self.seed, self.count)
        store = KernelStore(root / "store")
        self.kernels = {}
        for workload, shape, gpu in mixes.GRID_KERNELS:
            request = mixes.Request(0, workload, mixes.make_config(workload, shape), gpu)
            reply = self.get(request, store)
            self.remember(reply, request, store)
            self.kernels[(workload, request.config, gpu)] = (reply.key, reply.kernel)
            # Fill the launch-geometry memo, so the loop schedules nothing.
            obj = get_workload(workload)
            obj.build_launch(request.config, obj.prepare_inputs(request.config, seed=0))

    def serve(self, request, recorder):
        from repro.arch.specs import get_gpu_spec
        from repro.errors import ReproError
        from repro.kernels.registry import get_workload
        from repro.sim.launch import LaunchConfig
        from repro.sim.sm_sim import SmSimulator

        workload = get_workload(request.workload)
        key, kernel = self.kernels[(request.workload, request.config, request.gpu)]
        inputs = workload.prepare_inputs(request.config, seed=request.input_seed)
        launch = workload.build_launch(request.config, inputs)
        simulator = SmSimulator(
            get_gpu_spec(request.gpu), kernel, global_memory=launch.memory, params=launch.params
        )
        with recorder.span("sim.functional") if recorder else nullcontext():
            result = simulator.run(
                LaunchConfig(grid=launch.grid, functional=True, max_cycles=MAX_CYCLES),
                block_indices=launch.grid.block_indices(),
            )
        self.warp_instructions += result.warp_instructions
        output = workload.read_output(request.config, launch.memory)
        try:
            with recorder.span("kernels.oracle") if recorder else nullcontext():
                workload.validate(output, workload.reference(request.config, inputs))
        except ReproError as exc:
            return str(exc), "functional", key
        return None, "functional", key

    def begin_pass(self, root: Path) -> None:
        self.warp_instructions = 0


WORKLOADS = {cls.name: cls for cls in (ColdTune, ServeMix, GridValidate)}


# --------------------------------------------------------------------------- #
# Phases.                                                                      #
# --------------------------------------------------------------------------- #


def set_up(bench: Workload, work: Path) -> list[float]:
    """Run set-up :data:`SETUP_REPEATS` times; the last one's state is kept.

    Returns each repeat's time at the reference host speed.
    """
    times = []
    for repeat in range(SETUP_REPEATS):
        root = work / f"setup{repeat}"
        clear_memos()
        before = hostclock.probe()
        started = time.perf_counter()
        bench.prepare(root)
        elapsed = time.perf_counter() - started
        times.append(hostclock.scaled(elapsed, before, hostclock.probe()))
    return times


def run_pass(
    bench: Workload, root: Path, *, rounds: int = ROUNDS, traced: bool = False
) -> tuple[PassResult, dict]:
    """``rounds`` closed-loop rounds over the stream; traced ones return layer data."""
    from repro.telemetry.metrics import metrics_session

    result = PassResult()
    rounds_latencies = []
    rounds_raw = []
    layer: dict = {}
    for round_ in range(rounds):
        round_root = root / f"round{round_}"
        round_root.mkdir(parents=True)
        bench.begin_pass(round_root)
        recorder = SpanRecorder() if traced else None
        tallies = LayerTallies()
        latencies: list[float] = []
        raw: list[float] = []
        built = 0
        gc.collect()
        with (metrics_session() if traced else nullcontext()) as registry, (
            instrumented(recorder, tallies) if traced else nullcontext()
        ), _collector_paused():
            started = time.perf_counter()
            speed = hostclock.probe()
            for request in bench.requests:
                bench.before_request(request)
                if traced:
                    recorder.request = request.index
                    work_before = _work_done(recorder, registry)
                    recorder.begin(REQUEST)
                begun = time.perf_counter()
                try:
                    failure, source, key = bench.serve(request, recorder)
                except Exception as exc:  # a failed request is counted, not fatal
                    failure, source, key = f"{type(exc).__name__}: {exc}", "error", ""
                elapsed = time.perf_counter() - begun
                if traced:
                    recorder.end()
                    if source in bench.zero_work_sources and _work_done(recorder, registry) != work_before:
                        failure = failure or f"{source} request {request.index} did compile/sim work"
                speed_before, speed = speed, hostclock.probe()
                raw.append(elapsed)
                latencies.append(hostclock.scaled(elapsed, speed_before, speed))
                if bench.expected_source is not None and source != bench.expected_source:
                    failure = failure or f"request {request.index} was a {source}"
                bench.uses[key] += 1
                built += source == "built"
                result.attempted += 1
                if failure is not None:
                    result.failed += 1
                    result.errors.append(f"round {round_}: {failure}")
            result.round_wall_s.append(time.perf_counter() - started)
            result.built.append(built)
            rounds_latencies.append(latencies)
            rounds_raw.append(raw)
            if traced:
                layer = _layer_metrics(bench, recorder, tallies, registry, latencies)
    result.latencies = [min(samples) for samples in zip(*rounds_latencies)]
    result.raw_latencies = [min(samples) for samples in zip(*rounds_raw)]
    return result, layer


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for one timed round.

    Reference counting still frees memory; the cycles a round leaves are
    collected before the next one.  With the collector running, its full
    passes over the unpickled kernel graphs fire at points that depend on
    the request order, and moved serve_mix ``requests_per_s`` by 40%
    between seeds doing the same work (``timeit`` pauses it for the same
    reason).
    """
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _work_done(recorder: SpanRecorder, registry) -> tuple:
    return (
        *(recorder.calls[layer] for layer in WORK_LAYERS),
        *(counter_total(registry, name) for name in WORK_COUNTERS),
    )


def _layer_metrics(bench, recorder, tallies, registry, latencies) -> dict:
    """Per-layer figures of one traced round (``*.busy_s`` is self time per request)."""
    requests = len(latencies)
    busy = {layer: seconds / requests for layer, seconds in recorder.self_s.items()}
    hits = counter_total(registry, "kcache.hits")
    misses = counter_total(registry, "kcache.misses")
    functional_s = recorder.self_s.get("sim.functional", 0.0)
    payload = getattr(bench, "hit_payload_bytes", [])
    metrics = {
        "tile.schedule.busy_s": busy.get("tile.schedule", 0.0),
        "tile.schedule.calls": recorder.calls["tile.schedule"],
        "tile.autotune.prune_busy_s": busy.get("tile.autotune.prune", 0.0),
        "tile.autotune.kept_ratio": (
            tallies.candidates_kept / tallies.candidates_generated
            if tallies.candidates_generated
            else 0.0
        ),
        "tile.lower.busy_s": busy.get("tile.lower", 0.0),
        "tile.lower.calls": recorder.calls["tile.lower"],
        "tile.lower.sass_instructions": tallies.sass_instructions,
        "opt.liveness.busy_s": busy.get("opt.liveness", 0.0),
        "opt.reallocation.busy_s": busy.get("opt.reallocation", 0.0),
        "opt.scheduling.busy_s": busy.get("opt.scheduling", 0.0),
        "opt.control_hints.busy_s": busy.get("opt.control_hints", 0.0),
        "sim.timing.busy_s": busy.get("sim.timing", 0.0),
        "sim.timing.calls": recorder.calls["sim.timing"],
        "sim.functional.busy_s": busy.get("sim.functional", 0.0),
        "sim.warp_instr_per_s": (
            getattr(bench, "warp_instructions", 0) / functional_s if functional_s else 0.0
        ),
        "kernels.oracle.busy_s": busy.get("kernels.oracle", 0.0),
        "kcache.lookup.busy_s": busy.get("kcache.lookup", 0.0),
        "kcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "kcache.payload_bytes": statistics.fmean(payload) if payload else 0.0,
        "kcache.publish.busy_s": busy.get("kcache.publish", 0.0),
        "kcache.warmstart.busy_s": busy.get("kcache.warmstart", 0.0),
        "kcache.warm.seeds": counter_total(registry, "kcache.warm.seeds"),
        "kcache.warm.pruned": counter_total(registry, "kcache.warm.pruned"),
        "kcache.hash.busy_s": busy.get("kcache.hash", 0.0),
        "kcache.builds": counter_total(registry, "kcache.builds"),
        "kcache.retries": counter_total(registry, "kcache.retries"),
        "kcache.degraded": counter_total(registry, "kcache.degraded"),
        "trace.requests_per_s": requests / sum(latencies),
        "trace.covered_share": recorder.covered_share(),
    }
    return {"metrics": metrics, "recorder": recorder, "busy": busy}


def gate(bench: Workload, seed: int) -> tuple[dict[str, str], list[float], list[str]]:
    """Hash and oracle checks of every distinct served kernel, plus its GFLOP/s.

    Returns (failure per routine key, per-key whole-grid GFLOP/s, manifest
    lines: key, kernel_hash, winner label and whole-grid GFLOP/s).
    """
    failures: dict[str, str] = {}
    gflops: list[float] = []
    manifest: list[str] = []
    for (key, digest), served in sorted(bench.served.items()):
        failure, figure = _check_served(served, seed)
        if failure is not None:
            failures[key] = f"{key}: {failure}"
        if figure is not None:
            gflops.append(figure)
        shown = "-" if figure is None else f"{figure:.3f}"
        manifest.append(f"{key} {digest} {served.winner} {shown}")
    return failures, gflops, manifest


def _check_served(served: Served, seed: int) -> tuple[str | None, float | None]:
    """(failure or None, whole-grid GFLOP/s or None when flop-free or failed)."""
    from repro.arch.specs import get_gpu_spec
    from repro.errors import ReproError
    from repro.kcache import KernelReply, KernelStore
    from repro.kernels.registry import get_workload
    from repro.opt.rewrite import kernel_hash
    from repro.sim.gpu_sim import GpuSimulator
    from repro.sim.launch import LaunchConfig
    from repro.sim.sm_sim import SmSimulator

    entry = KernelStore(served.store_root).load(served.key)
    if entry is None or primary_hash(entry.meta) != served.kernel_hash:
        return "the store no longer holds the served entry", None
    kernel = KernelReply(key=served.key, source="hit", entry=entry).kernel
    if kernel_hash(kernel) != served.kernel_hash:
        return f"served kernel does not hash to its committed {served.kernel_hash}", None
    workload = get_workload(served.workload)
    spec = get_gpu_spec(served.gpu)
    try:
        inputs = workload.prepare_inputs(served.config, seed=seed)
        launch = workload.build_launch(served.config, inputs)
        SmSimulator(spec, kernel, global_memory=launch.memory, params=launch.params).run(
            LaunchConfig(grid=launch.grid, functional=True, max_cycles=MAX_CYCLES),
            block_indices=launch.grid.block_indices(),
        )
        workload.validate(
            workload.read_output(served.config, launch.memory),
            workload.reference(served.config, inputs),
        )
    except ReproError as exc:
        return f"oracle check failed: {exc}", None
    flops = workload.resources(served.config).flops
    if flops <= 0:
        return None, None
    estimate = GpuSimulator(spec).estimate_grid_time(
        kernel, launch.grid, useful_flops=flops, functional=False, max_cycles=MAX_CYCLES
    )
    return None, estimate.gflops


def requests_of(bench: Workload, failures: dict[str, str]) -> int:
    """Requests that served a kernel the gate failed."""
    return sum(bench.uses[key] for key in failures)


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))
