"""Kernel-hash manifest: the compiler's differential gate.

A seeded sample of :func:`repro.tile.autotune.schedule_space` candidates is
lowered and optimized, and the ``kernel_hash`` of every naive and optimized
kernel must equal the one recorded in ``kernel_hash_manifest.json``.  The
sample spans both GPUs (the opt pipeline is GPU-dependent), perfect and
prime problem shapes (predicate-tail guards on every dimension), plain and
double-buffered schedules, plus the transpose and SGEMV goldens.

A speed-up anywhere in the compile stack (scheduling, lowering, the opt
passes) must leave this file alone.  Regenerate it only for a change that is
*meant* to alter emitted kernels, and say so::

    PYTHONPATH=src python tests/opt/test_kernel_hash_manifest.py --write
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.arch.specs import get_gpu_spec
from repro.kernels.registry import get_workload
from repro.opt.rewrite import kernel_hash
from repro.tile.autotune import schedule_space
from repro.tile.workloads import TileSgemmConfig

MANIFEST = Path(__file__).with_name("kernel_hash_manifest.json")

SEED = 13
GPUS = ("gtx580", "gtx680")
SHAPES = ((96, 96, 16), (97, 89, 23), (101, 103, 23))


def manifest_sample():
    """(entry id, candidate, gpu) of every manifest entry, in a fixed order.

    Per shape: the golden schedule, one seeded plain point and two seeded
    double-buffered points, alternating GPUs; then the transpose and SGEMV
    goldens of the default space.
    """
    rng = random.Random(SEED)
    picks = []
    for m, n, k in SHAPES:
        space = [
            c
            for c in schedule_space(sgemm=TileSgemmConfig(m=m, n=n, k=k), tail_sizes=())
            if c.workload == "tile_sgemm"
        ]
        golden = space[0]
        plain = [c for c in space[1:] if not c.config.double_buffer]
        double = [c for c in space if c.config.double_buffer]
        for candidate in [golden, *rng.sample(plain, 1), *rng.sample(double, 2)]:
            picks.append((f"{m}x{n}x{k}", candidate))
    for candidate in schedule_space(tail_sizes=()):
        if candidate.workload != "tile_sgemm" and candidate.label.endswith(":golden"):
            picks.append(("default", candidate))
    return [
        (f"{shape}/{candidate.label}/{GPUS[i % 2]}", candidate, GPUS[i % 2])
        for i, (shape, candidate) in enumerate(picks)
    ]


def kernel_hashes(candidate, gpu: str) -> dict[str, str]:
    """kernel_hash of the candidate's naive and optimized kernels on ``gpu``."""
    workload = get_workload(candidate.workload)
    naive = workload.generate_naive(candidate.config)
    optimized, _ = workload.generate_optimized(candidate.config, get_gpu_spec(gpu))
    return {"naive": kernel_hash(naive), "optimized": kernel_hash(optimized)}


def compute_manifest() -> dict[str, dict[str, str]]:
    return {
        entry: kernel_hashes(candidate, gpu) for entry, candidate, gpu in manifest_sample()
    }


def _recorded() -> dict[str, dict[str, str]]:
    return json.loads(MANIFEST.read_text())


def test_sample_covers_the_gate():
    sample = manifest_sample()
    assert len(sample) == len(_recorded()) == 14
    assert [entry for entry, _, _ in sample] == list(_recorded())
    assert {gpu for _, _, gpu in sample} == set(GPUS)
    sgemm = [c for _, c, _ in sample if c.workload == "tile_sgemm"]
    assert {(c.config.m, c.config.n, c.config.k) for c in sgemm} == set(SHAPES)
    assert {c.config.double_buffer for c in sgemm} == {False, True}
    assert {c.workload for _, c, _ in sample} == {"tile_sgemm", "tile_transpose", "tile_sgemv"}


@pytest.mark.parametrize(
    "entry,candidate,gpu", manifest_sample(), ids=[e for e, _, _ in manifest_sample()]
)
def test_kernel_hash_matches_manifest(entry, candidate, gpu):
    assert kernel_hashes(candidate, gpu) == _recorded()[entry]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_kernel_hash_manifest.py --write")
    MANIFEST.write_text(json.dumps(compute_manifest(), indent=2) + "\n")
    print(f"wrote {MANIFEST}")
