"""Host-speed probe: express timings at one reference host speed.

The container this benchmark was built on drifts in speed by up to 2×
over seconds to minutes, with CPU time tracking wall time: a pure-Python
loop ran between 0.151 and 0.256 s per repeat in one 10 s window, and
whole runs of identical work differed by 40%.  Nothing inside the process
causes it, and neither more requests per run nor repeating them removes
it when a slow stretch outlasts the run.

So every timed interval is bracketed by :func:`probe`, which times a fixed
pure-Python routine that shares no code with the program, and is scaled by
``REFERENCE_S`` over the mean of the two probes: a request that took 30 ms
while the probe ran at half speed counts 15 ms.  A change to the program
moves the scaled figures exactly as it moves the raw ones, because the
probe does not run the program; a change in host speed moves the probe
with them and cancels.  Over 1000 bracketed samples of store hits and
direct builds, scaling cut the interquartile spread (over the median) of
8-sample medians from 0.33 to 0.04; a probe of dictionary and string work
alone, without the unpickling, reached only 0.10.  Raw figures are printed
beside the scaled ones.
"""

from __future__ import annotations

import pickle
import time

#: The probe's fastest-of-three time on the 2-core x86 container the
#: nominal rates were measured on; it sets the unit, not the spread.
REFERENCE_S = 0.0008


#: A pickled object graph for the probe to load: unpickling allocates and
#: links many small objects, as store hits and the compile stack do.
_GRAPH = pickle.dumps([(index, str(index), float(index), {"k": index}) for index in range(1500)])


def _routine() -> int:
    """Interpreter and allocator work of the kind the program does."""
    table: dict[int, tuple[int, str]] = {}
    total = 0
    for index in range(700):
        table[index & 127] = (index, str(index))
        total += len(table[index & 127][1])
    return total + len(pickle.loads(_GRAPH))


def probe() -> float:
    """Seconds the routine takes now (fastest of three back-to-back runs)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _routine()
        best = min(best, time.perf_counter() - started)
    return best


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` expressed at the reference host speed."""
    return elapsed * REFERENCE_S * 2.0 / (before + after)
