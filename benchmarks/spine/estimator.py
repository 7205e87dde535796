"""The floor-latency estimator of the benchmark spine.

A workload is a fixed *lap* — an ordered list of operations — replayed K
times.  Every replay does identical work, so the only thing that differs
between two timings of the same lap position is what the host added on top
(scheduler, other tenants, GC): noise is additive and one-sided.  The
estimator therefore keeps, per lap position, the **minimum** over the K
replays (``floor_i``) and takes percentiles *across positions* of those
floors, not across time.  A real slowdown of one position raises that
position's floor in every replay and so moves the percentile; a noisy replay
does not.

Floors remove what a host adds to single requests, not a host that is
slower as a whole for a while: on the shared 2-core host the same commit
measured floors 25 % apart between two launches, and more laps did not help
(the spread of ten runs was 5-6 % at 4 laps and at 16).  So every lap also
holds *reference slots*, where the server times a fixed kernel that touches
nothing of the library; the slots get the same estimator
(:func:`host_reference`: per-slot floors over the replays, p50 across slots),
and timings are reported at the speed of a host on which the kernel takes
``REFERENCE_KERNEL_S`` (measured x ``REFERENCE_KERNEL_S`` / kernel time).  A
change to the library moves the latencies and not the kernel, so it shows in
full.

Pure functions over plain lists, no clocks and no I/O, so
``test_spine.py`` can pin the behaviour on synthetic laps.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

__all__ = [
    "REFERENCE_KERNEL_S",
    "percentile",
    "position_floors",
    "lap_drift",
    "relative_spread",
    "summarize_laps",
    "host_reference",
]

#: The reference kernel's floor on the host of ``baseline/BENCH_spine.json``
#: in a calm phase.  It only fixes the scale of the reported numbers.
REFERENCE_KERNEL_S = 0.0053


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def position_floors(laps: Sequence[Sequence[float]]) -> List[float]:
    """``floor_i``: per lap position, the minimum over the replays."""
    if not laps:
        raise ValueError("no laps to take floors over")
    length = len(laps[0])
    if any(len(lap) != length for lap in laps):
        raise ValueError("laps differ in length; every replay must run the same ops")
    return [min(lap[i] for lap in laps) for i in range(length)]


def lap_drift(laps: Sequence[Sequence[float]], positions: Sequence[int]) -> float:
    """Last raw lap's p50 over the first's: 1.0 means stationary laps."""
    first = percentile([laps[0][i] for i in positions], 50)
    last = percentile([laps[-1][i] for i in positions], 50)
    return last / first


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the acceptance
    check's spread: ``statistics.quantiles(values, n=4)``)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def host_reference(reference_laps: Sequence[Sequence[float]]) -> float:
    """Seconds the reference kernel takes on this host during this run: the
    latency estimator applied to the reference slots of the laps."""
    return percentile(position_floors(reference_laps), 50)


def summarize_laps(
    laps: Sequence[Sequence[float]],
    read_positions: Sequence[int],
    request_positions: Sequence[int],
    reference_laps: Sequence[Sequence[float]],
) -> Dict[str, float]:
    """The end-to-end latency/throughput numbers of one workload run, at
    reference host speed.

    ``laps`` holds seconds per position per replay and ``reference_laps``
    seconds per reference slot per replay; ``read_positions`` indexes the
    GETs and ``request_positions`` the GETs and write commands.  Throughput
    is the closed-loop rate of those requests at floor cost.  A lap's tuning
    epoch and checkpoint are left out of it: each is one position whose work
    differs from replay to replay, so its floor is the luckiest of K
    different jobs (they are per-layer metrics instead).
    """
    floors = position_floors(laps)
    reads = [floors[i] for i in read_positions]
    reference = host_reference(reference_laps)
    scale = REFERENCE_KERNEL_S / reference
    return {
        "latency_p50_ms": percentile(reads, 50) * 1e3 * scale,
        "latency_p95_ms": percentile(reads, 95) * 1e3 * scale,
        "throughput_rps": len(request_positions) / (sum(floors[i] for i in request_positions) * scale),
        "host_reference_ms": reference * 1e3,
        "lap_drift": lap_drift(laps, read_positions),
    }
