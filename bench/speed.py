"""Host speed probe: every reported time is scaled to one fixed host speed.

The host this benchmark was built on runs the same code at several speed
levels, up to 1.8x apart, that change every few seconds with load from
outside the machine's own processes.  The probe is a fixed integer loop
owned by the benchmark; it shares no code with invbell, so no change to the
program can move it.  Work timed between two probes is multiplied by
REF_NS / (mean of the two probe times): the result is the time the work
would take on a host where the probe takes REF_NS.  Unscaled times stay in
the raw output file.
"""

from __future__ import annotations

import time

REF_NS = 500_000
_MASK = (1 << 64) - 1


def probe_ns() -> int:
    """Median of three timings of a fixed integer loop (about half a millisecond each)."""
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        z, acc = 0x9E3779B97F4A7C15, 0
        for _ in range(2000):
            z = (z * 6364136223846793005 + 1442695040888963407) & _MASK
            acc ^= z >> 33
        times.append(time.perf_counter_ns() - start)
    return sorted(times)[1]


def scale(before_ns: int, after_ns: int) -> float:
    """Factor that takes work timed between two probes to the reference speed."""
    return REF_NS / ((before_ns + after_ns) / 2)


def scaled_s(fn) -> tuple[float, float]:
    """Run fn once; return (scaled seconds, unscaled seconds)."""
    before = probe_ns()
    start = time.perf_counter_ns()
    fn()
    elapsed = time.perf_counter_ns() - start
    return elapsed * scale(before, probe_ns()) / 1e9, elapsed / 1e9
