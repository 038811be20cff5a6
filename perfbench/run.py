"""Run one workload of the kernel-service benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_tune --seed 1 --seconds 20 --trace 0

Workloads: ``cold_tune``, ``serve_mix``, ``grid_validate`` (see
``perfbench/README.md``).  ``--trace 0`` times three untraced rounds over
the seeded stream and reports the end-to-end metrics; ``--trace 1`` runs
one untraced and then one traced round over the same stream and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One client, no helper threads: keep NumPy's BLAS single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import hostclock  # noqa: E402

#: Scratch space of every run (stores, spans); inside the checkout.
WORK = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_s_p50": "s",
    "served_gflops": "GFLOP/s",
    "peak_rss_mb": "MB",
}


def _stack_of(layer: str) -> str:
    """The stack a workload's "why" names for ``layer``.

    ``sim.timing`` and ``kcache.hash`` run inside tuned builds, so they
    count as compile stack.
    """
    if layer.startswith(("tile.", "opt.")) or layer in ("sim.timing", "kcache.hash"):
        return "compile stack"
    if layer.startswith("kcache."):
        return "kcache"
    return {"sim.functional": "functional simulation", "kernels.oracle": "oracle"}.get(
        layer, "unwrapped"
    )


def _layer_unit(name: str) -> str:
    if name.endswith("busy_s"):
        return "s/req"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def _import_program() -> tuple[float, float] | None:
    """Import the program from ``src/``: (scaled, raw) seconds, or None when absent."""
    package = ROOT / "src" / "repro"
    if not (package / "kcache" / "__init__.py").is_file():
        return None
    before = hostclock.probe()
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro.kcache
    import repro.kernels.registry  # noqa: F401
    import repro.sim.gpu_sim  # noqa: F401
    import repro.tile.autotune  # noqa: F401

    elapsed = time.perf_counter() - started
    if Path(repro.kcache.__file__).resolve().parent != (package / "kcache").resolve():
        return None
    return hostclock.scaled(elapsed, before, hostclock.probe()), elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("cold_tune", "serve_mix", "grid_validate")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    imported = _import_program()
    if imported is None:
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s, raw_import_s = imported

    from perfbench import harness, mixes

    traced = bool(args.trace)
    count = mixes.request_count(args.workload, args.seconds, harness.ROUNDS)
    bench = harness.WORKLOADS[args.workload](args.seed, count)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        phases = [time.perf_counter()]
        setup_times = harness.set_up(bench, work)
        gc.collect()
        phases.append(time.perf_counter())
        rounds = 1 if traced else harness.ROUNDS
        passes = [harness.run_pass(bench, work / "pass0", rounds=rounds)[0]]
        layer: dict = {}
        if traced:
            result, layer = harness.run_pass(bench, work / "pass1", rounds=1, traced=True)
            passes.append(result)
        phases.append(time.perf_counter())
        gate_failures, gflops, manifest = harness.gate(bench, args.seed)
        phases.append(time.perf_counter())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(gate_failures.values())
    for index, result in enumerate(passes):
        problems += [f"pass {index}: {error}" for error in result.errors]
        if any(built != bench.expected_builds() for built in result.built):
            problems.append(
                f"pass {index}: {result.built} builds per round, the stream seeds "
                f"{bench.expected_builds()} misses"
            )
    if traced:
        counts = layer["metrics"]
        if counts["kcache.builds"] != bench.expected_builds():
            problems.append(f"telemetry counted {counts['kcache.builds']:.0f} builds")
        for name in ("kcache.retries", "kcache.degraded"):
            if counts[name]:
                problems.append(f"telemetry counted {counts[name]:.0f} {name}")
        if args.workload == "cold_tune" and counts["kcache.hit_ratio"]:
            problems.append("a cold_tune request hit a store")

    attempted = sum(result.attempted for result in passes)
    failed = min(
        attempted,
        sum(result.failed for result in passes) + harness.requests_of(bench, gate_failures),
    )
    untraced = passes[0]
    latencies = sorted(untraced.latencies)
    end_to_end = {
        "setup_s": import_s + statistics.median(setup_times),
        "requests_per_s": untraced.requests_per_s,
        "request_s_p50": statistics.median(latencies),
        "served_gflops": harness.geomean(gflops) if gflops else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    print(f"workload {args.workload} seed {args.seed}: {len(latencies)} requests, "
          f"closed loop, 1 client; round wall times "
          + ", ".join(f"{t:.2f}" for result in passes for t in result.round_wall_s) + " s")
    print(f"setup: import {import_s:.3f} s, set-up repeats "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s (reference host speed)")
    print("phases: set-up {:.1f} s, loop {:.1f} s, gate {:.1f} s".format(
        *(end - start for start, end in zip(phases, phases[1:]))))
    for name, value in end_to_end.items():
        print(f"  {name:16s} {value:14.6f} {END_TO_END_UNITS[name]}")
    beyond = len(latencies) - int(0.9 * len(latencies))
    if beyond >= 10:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        print(f"  {'request_s_p90':16s} {p90:14.6f} s ({beyond} samples beyond)")
    else:
        print(f"  request_s_p90    not reported: {beyond} samples beyond it, fewer than 10")
    print(f"  {'failed_fraction':16s} {failed / attempted:14.6f} ratio ({failed}/{attempted})")
    raw = sorted(untraced.raw_latencies)
    print(f"unscaled: import {raw_import_s:.3f} s, requests_per_s "
          f"{untraced.raw_requests_per_s:.6f} 1/s, request_s_p50 {statistics.median(raw):.6f} s")
    print(f"served kernels ({len(manifest)}), key kernel_hash winner GFLOP/s:")
    for line in manifest:
        print(f"  manifest {line}")
    for problem in problems:
        print(f"FAIL {problem}")

    if traced:
        metrics = dict(layer["metrics"])
        metrics["trace.untraced_requests_per_s"] = untraced.requests_per_s
        metrics["trace.overhead_ratio"] = untraced.requests_per_s / passes[1].requests_per_s
        busy = sorted(layer["busy"].items(), key=lambda item: -item[1])
        print("traced pass, self time per request by layer:")
        for name, seconds in busy:
            print(f"  {name:22s} {seconds:12.6f} s/req")
        dominant = next(name for name, _ in busy if name != "request")
        print(f"dominant layer: {dominant}; layers cover {metrics['trace.covered_share']:.1%} "
              f"of request wall time; tracing overhead {metrics['trace.overhead_ratio']:.3f}x")
        total = sum(seconds for _, seconds in busy)
        shares = {}
        for name, seconds in busy:
            stack = _stack_of(name)
            shares[stack] = shares.get(stack, 0.0) + seconds / total
        print("share of request time by stack: " + ", ".join(
            f"{stack} {share:.1%}" for stack, share in sorted(shares.items(), key=lambda i: -i[1])))
        spans = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        layer["recorder"].dump(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS

    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
