"""The get_kernel front-end: hits do no work, misses build-and-publish."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.errors import KernelCacheError
from repro.kcache import KernelStore, get_kernel, install_store, routine_key, store_session
from repro.opt.rewrite import kernel_hash
from repro.telemetry.metrics import metrics_session
from repro.tile.workloads import TileSgemmConfig, clear_schedule_caches

TINY = TileSgemmConfig(m=16, n=16, k=8, tile=8, register_blocking=2, stride=2, b_window=1)
TINY_SPACE = {"tiles": (4, 8), "register_blockings": (2, 4),
              "strides": (2, 4), "b_windows": (1, 2)}


@pytest.fixture(autouse=True)
def _cold_memos():
    clear_schedule_caches()
    yield
    clear_schedule_caches()


class TestColdMiss:
    def test_cold_miss_builds_and_publishes(self, tmp_path, fermi):
        store = KernelStore(tmp_path / "kcache")
        reply = get_kernel("tile_sgemm", TINY, fermi, store=store)
        assert reply.source == "built"
        assert reply.key == routine_key("tile_sgemm", TINY, fermi.name)
        assert reply.proc is not None
        assert reply.kernel is reply.entry.artifacts["kernel_opt"]
        assert reply.cycles is not None and reply.cycles > 0
        assert store.load(reply.key) is not None
        # The entry carries what the warm-start policy needs.
        assert reply.entry.meta["winner_schedule"]["tile"] == 8
        assert reply.entry.meta["shape"] == [["m", 16], ["n", 16], ["k", 8]]

    def test_miss_counters_fire(self, tmp_path, fermi):
        store = KernelStore(tmp_path / "kcache")
        with metrics_session() as registry:
            get_kernel("tile_sgemm", TINY, fermi, store=store)
        snapshot = registry.snapshot()
        assert snapshot.counter_total("kcache.misses") >= 1
        assert snapshot.counter_total("kcache.builds") == 1
        assert snapshot.counter_total("kcache.store.puts") >= 1


class TestWarmHit:
    def test_warm_hit_does_no_scheduling_lowering_or_simulation(self, tmp_path, fermi):
        """The acceptance pin: a hit is pure lookup, telemetry-asserted."""
        store = KernelStore(tmp_path / "kcache")
        built = get_kernel("tile_sgemm", TINY, fermi, store=store)
        clear_schedule_caches()
        with metrics_session() as registry:
            reply = get_kernel("tile_sgemm", TINY, fermi, store=store)
        assert reply.source == "hit"
        snapshot = registry.snapshot()
        assert snapshot.counter_total("kcache.hits") == 1
        assert snapshot.counter_total("kcache.builds") == 0
        # No schedule application, no lowering, no simulation happened:
        assert snapshot.counter_total("tile.schedule_cache.misses") == 0
        assert snapshot.counter_total("autotune.candidates_evaluated") == 0
        assert kernel_hash(reply.kernel) == kernel_hash(built.kernel)
        assert reply.cycles == built.cycles

    def test_default_store_is_the_installed_one(self, tmp_path, fermi):
        with store_session(tmp_path / "kcache") as store:
            built = get_kernel("tile_sgemm", TINY, fermi)
            assert built.source == "built"
            assert store.load(built.key) is not None
            assert get_kernel("tile_sgemm", TINY, fermi).source == "hit"
        assert install_store(None) is None  # session restored the previous store


class TestMemoStoreTier:
    def test_new_process_equivalent_starts_warm_from_the_store(self, tmp_path, fermi):
        """Clearing the memos (a fresh process) still avoids re-scheduling."""
        from repro.kernels.registry import get_workload

        workload = get_workload("tile_sgemm")
        with store_session(tmp_path / "kcache"):
            first = workload.generate_naive(TINY)
            clear_schedule_caches()  # simulate a brand-new process
            with metrics_session() as registry:
                second = workload.generate_naive(TINY)
            snapshot = registry.snapshot()
            assert snapshot.counter_total("kcache.hits") >= 1
        assert kernel_hash(first) == kernel_hash(second)

    def test_without_a_store_memos_behave_as_before(self, fermi):
        from repro.kernels.registry import get_workload

        workload = get_workload("tile_sgemm")
        with metrics_session() as registry:
            workload.generate_naive(TINY)
            workload.generate_naive(TINY)
        snapshot = registry.snapshot()
        assert snapshot.counter_total("tile.schedule_cache.hits") >= 1
        assert snapshot.counter_total("kcache.hits") == 0
        assert snapshot.counter_total("kcache.misses") == 0


class TestTunedRequests:
    def test_tuned_miss_records_winner_and_sweep_economics(self, tmp_path, fermi):
        store = KernelStore(tmp_path / "kcache")
        space = {"tiles": (4, 8), "register_blockings": (2, 4),
                 "strides": (2, 4), "b_windows": (1, 2)}
        reply = get_kernel(
            "tile_sgemm", TINY, fermi, store=store, tune=True, warm_start=False,
            space=space,
        )
        assert reply.source == "built"
        meta = reply.entry.meta
        assert meta["tune_mode"] == "sweep"
        assert meta["winner_label"]
        assert set(meta["winner_schedule"]) >= {"tile", "register_blocking", "stride"}
        metrics = meta["metrics"]
        assert metrics["sweep_candidates"] >= metrics["sweep_simulated"] > 0
        # A tuned hit afterwards is served without a sweep.
        again = get_kernel("tile_sgemm", TINY, fermi, store=store, tune=True)
        assert again.source == "hit"

    def test_winner_metrics_come_from_the_sweep_without_resimulating(
        self, tmp_path, fermi, monkeypatch
    ):
        autotune = importlib.import_module("repro.opt.autotune")
        simulations = []
        real_simulate = autotune.simulate_one_block

        def counting_simulate(*args, **kwargs):
            simulations.append(args[1])
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(autotune, "simulate_one_block", counting_simulate)
        reply = get_kernel(
            "tile_sgemm", TINY, fermi, store=KernelStore(tmp_path / "kcache"),
            tune=True, warm_start=False, space=TINY_SPACE,
        )
        metrics = reply.entry.meta["metrics"]
        # One simulation per swept candidate, none for the published winner.
        assert len(simulations) == metrics["sweep_simulated"]
        # The published figures are the ones a fresh simulation of the served
        # kernel gives (what the service used to re-measure).
        fresh = real_simulate(fermi, reply.kernel)
        assert metrics["cycles"] == float(fresh.cycles)
        assert metrics["gflops"] == float(fresh.gflops(fermi))
        assert metrics["efficiency"] == float(fresh.efficiency(fermi))
        assert reply.entry.meta["kernel_hashes"]["kernel_opt"] == kernel_hash(reply.kernel)

    def test_regenerated_winner_must_hash_to_the_measured_kernel(
        self, tmp_path, fermi, monkeypatch
    ):
        from repro.kernels.registry import get_workload

        tile_autotune = importlib.import_module("repro.tile.autotune")
        workload = get_workload("tile_sgemm")
        swept = []
        real_sweep = tile_autotune.run_generative_sweep
        real_generate = workload.generate_optimized

        def sweep(*args, **kwargs):
            report = real_sweep(*args, **kwargs)
            swept.append(report)
            return report

        def generate_optimized(config, gpu):
            kernel, info = real_generate(config, gpu)
            if swept:  # the regeneration after the sweep comes out different
                kernel = dataclasses.replace(
                    kernel, shared_memory_bytes=kernel.shared_memory_bytes + 4
                )
            return kernel, info

        monkeypatch.setattr(tile_autotune, "run_generative_sweep", sweep)
        monkeypatch.setattr(workload, "generate_optimized", generate_optimized)
        with pytest.raises(KernelCacheError, match="not the measured"):
            get_kernel(
                "tile_sgemm", TINY, fermi, store=KernelStore(tmp_path / "kcache"),
                tune=True, warm_start=False, space=TINY_SPACE,
            )
