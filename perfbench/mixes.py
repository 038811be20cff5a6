"""Seeded request streams of the three workloads.

Every stream is a pure function of ``(seed, count)``: the request count is
fixed before the timed loop starts (``--seconds`` sets it through a nominal
rate, never through the wall clock), so the set of served keys — and with it
``served_gflops`` and every per-layer count — repeats exactly at one seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Nominal requests per second of each timed loop on a 2-core x86 container;
#: ``--seconds`` times this rate is the number of requests a run serves,
#: over all its rounds.
NOMINAL_RATE = {"cold_tune": 0.4, "serve_mix": 48.0, "grid_validate": 13.0}

#: Request counts are whole multiples of this, so every pass holds each
#: cold_tune stratum and each grid_validate kernel equally often.
GRANULE = {"cold_tune": 4, "serve_mix": 40, "grid_validate": 7}

# cold_tune strata.  Perfect shapes tile the 96-wide base tile 2×2 or 4×1;
# clipped shapes are primes just above it, so every one schedules
# predicate-tail guards on all three dimensions.  Within a stratum the seed
# moves the shape but neither K nor the number of tiles along M and N: those
# set the grid's block count and the per-block work, and with them most of
# the whole-grid GFLOP/s and of the build's cost.
PERFECT_MN = ((192, 192), (384, 96), (96, 384))
PERFECT_K = 48
CLIPPED_MN = (97, 101, 103, 107)
CLIPPED_K = 23
COLD_STRATA = (
    ("gtx580", "perfect"),
    ("gtx680", "perfect"),
    ("gtx580", "clipped"),
    ("gtx680", "clipped"),
)

# serve_mix: the stored key family in Zipf rank order, hottest first.  The
# ranks are fixed, not seeded, so every seed serves the same payload mix:
# SGEMM kernels (580-730 KB payloads) interleave with SGEMV (41 KB) and
# transpose (11-20 KB) ones, and the two 96x96x16 SGEMM entries are hot
# enough that the median request falls inside their latency band.
SERVE_FAMILY = (
    ("tile_sgemm", (96, 96, 16), "gtx580"),
    ("tile_sgemm", (96, 96, 16), "gtx680"),
    ("tile_sgemv", (64, 64), "gtx580"),
    ("tile_sgemv", (64, 64), "gtx680"),
    ("tile_sgemm", (100, 92, 20), "gtx580"),
    ("tile_sgemv", (128, 64), "gtx580"),
    ("tile_sgemm", (100, 92, 20), "gtx680"),
    ("tile_sgemv", (128, 64), "gtx680"),
    ("tile_sgemm", (192, 96, 32), "gtx580"),
    ("tile_sgemv", (96, 128), "gtx580"),
    ("tile_sgemm", (192, 96, 32), "gtx680"),
    ("tile_sgemv", (96, 128), "gtx680"),
    ("tile_sgemm", (97, 89, 23), "gtx580"),
    ("tile_transpose", (32, 32), "gtx580"),
    ("tile_sgemm", (97, 89, 23), "gtx680"),
    ("tile_transpose", (32, 32), "gtx680"),
    ("tile_transpose", (29, 23), "gtx580"),
    ("tile_transpose", (29, 23), "gtx680"),
    ("tile_transpose", (64, 48), "gtx580"),
    ("tile_transpose", (64, 48), "gtx680"),
)
ZIPF_EXPONENT = 1.0
#: Zipf rank (0-based) the unseen neighbour shape takes once requested.
NEIGHBOUR_RANK = 3
#: The unseen neighbour: the stored 96x96x16 gtx580 entry with N and K
#: moved.  It is fixed, not seeded: warm builds of shapes around it cost
#: 1.2-4.5 s (9 or 19 simulated candidates), and a seeded pick moved
#: requests_per_s by a third between seeds.  The seed places its requests.
NEIGHBOUR = ("tile_sgemm", (96, 92, 24), "gtx580")

# grid_validate: the kernels whose full grids each request simulates.
GRID_KERNELS = (
    ("tile_sgemm", (96, 96, 16), "gtx580"),
    ("tile_sgemm", (100, 92, 20), "gtx680"),
    ("tile_sgemv", (128, 64), "gtx580"),
    ("tile_sgemv", (96, 128), "gtx680"),
    ("tile_transpose", (32, 32), "gtx580"),
    ("tile_transpose", (29, 23), "gtx680"),
    ("sgemm", (96, 96, 16), "gtx680"),
)


@dataclass(frozen=True)
class Request:
    """One request of a stream: a registry workload, its config and a GPU."""

    index: int
    workload: str
    config: object
    gpu: str
    #: Seed of the inputs a grid_validate request generates.
    input_seed: int = 0


def request_count(workload: str, seconds: float, rounds: int) -> int:
    """Requests in the stream, so that ``rounds`` rounds fill ``seconds``."""
    granule = GRANULE[workload]
    return granule * max(1, round(seconds * NOMINAL_RATE[workload] / (rounds * granule)))


def make_config(workload: str, shape: tuple[int, ...]):
    """The default schedule of ``workload`` at ``shape``."""
    from repro.sgemm.config import SgemmKernelConfig
    from repro.tile.workloads import TileSgemmConfig, TileSgemvConfig, TileTransposeConfig

    if workload == "tile_sgemm":
        m, n, k = shape
        return TileSgemmConfig(m=m, n=n, k=k)
    if workload == "tile_sgemv":
        m, k = shape
        return TileSgemvConfig(m=m, k=k)
    if workload == "tile_transpose":
        m, n = shape
        return TileTransposeConfig(m=m, n=n)
    if workload == "sgemm":
        m, n, k = shape
        return SgemmKernelConfig(m=m, n=n, k=k, conflict_free_allocation=False)
    raise ValueError(f"no config rule for workload {workload!r}")


def cold_tune_stream(seed: int, count: int) -> list[Request]:
    """Distinct tile_sgemm shapes, round-robin over the four strata."""
    rng = random.Random(f"cold_tune:{seed}")
    seen: set[tuple] = set()
    requests: list[Request] = []
    for index in range(count):
        gpu, kind = COLD_STRATA[index % len(COLD_STRATA)]
        for _ in range(100):  # a long stream may exhaust a stratum: repeat then
            if kind == "perfect":
                shape = (*rng.choice(PERFECT_MN), PERFECT_K)
            else:
                shape = (rng.choice(CLIPPED_MN), rng.choice(CLIPPED_MN), CLIPPED_K)
            if (gpu, shape) not in seen:
                break
        seen.add((gpu, shape))
        requests.append(
            Request(index, "tile_sgemm", make_config("tile_sgemm", shape), gpu)
        )
    return requests


def serve_mix_stream(seed: int, count: int) -> list[Request]:
    """A Zipf stream over the stored family plus one unseen neighbour.

    The neighbour holds a fixed hot rank: its first request misses and
    builds through the warm-start policy, later ones hit.
    """
    ranked = list(SERVE_FAMILY)
    ranked.insert(NEIGHBOUR_RANK, NEIGHBOUR)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
    rng = random.Random(f"serve_mix:{seed}")
    picks = rng.choices(range(len(ranked)), weights=weights, k=count)
    return [
        Request(index, ranked[pick][0], make_config(ranked[pick][0], ranked[pick][1]), ranked[pick][2])
        for index, pick in enumerate(picks)
    ]


def grid_validate_stream(seed: int, count: int) -> list[Request]:
    """Seeded shuffles of the kernel set, each request with fresh inputs."""
    rng = random.Random(f"grid_validate:{seed}")
    requests: list[Request] = []
    while len(requests) < count:
        round_ = list(GRID_KERNELS)
        rng.shuffle(round_)
        for workload, shape, gpu in round_[: count - len(requests)]:
            requests.append(
                Request(
                    len(requests),
                    workload,
                    make_config(workload, shape),
                    gpu,
                    input_seed=rng.randrange(1 << 31),
                )
            )
    return requests
