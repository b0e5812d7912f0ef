"""Helpers of the repo benchmark: percentiles, phase verdicts, banners, RSS.

Nothing here imports :mod:`repro` or starts a process, so the helpers
are unit-tested directly (``test_perfbench.py``).
"""

from __future__ import annotations

import math
import os
import platform
import re
import resource
from typing import Any, Iterable, Mapping, Sequence

#: Tail percentiles tried from the highest down. A percentile is
#: reported only when at least :data:`TAIL_BEYOND` samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

#: The serve latency limit on the tail percentile (ms).
LATENCY_LIMIT_MS = 50.0
#: A phase's backlog "grows" when the median send lateness of its last
#: quarter exceeds that of its first quarter by more than this (ms):
#: a saturated phase grows by hundreds, a busy but stable one by a few.
BACKLOG_GROWTH_MS = 20.0

_BANNER = re.compile(r"repro serve listening on http://(?P<host>[^\s:/]+):(?P<port>\d+)")


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean, 0.0 for an empty sample."""
    return sum(values) / len(values) if values else 0.0


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile: the smallest value with at
    least ``q`` percent of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest percentile of :data:`TAIL_LADDER` that has at least
    :data:`TAIL_BEYOND` of ``count`` samples beyond it.

    Below 20 samples not even the median has ten beyond it; the median
    is returned anyway and the run records the sample count, so the
    reader sees how thin the tail estimate is.
    """
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100.0 * count - 1e-9))
        if count - rank >= TAIL_BEYOND:
            return q
    return 50.0


def tail(values: Sequence[float]) -> "tuple[float, float]":
    """``(percentile, value)``: the highest well-supported tail percentile."""
    q = tail_percentile(len(values))
    return q, median(values) if q == 50.0 else nearest_rank(values, q)


def latencies_from_due(records: Iterable[Mapping[str, Any]]) -> list[float]:
    """Open-loop latencies in seconds: completion time minus due time.

    Timing from the due time, not the send time, charges a stall to
    every request queued behind it. A request that failed counts as
    infinitely late, so it misses any latency limit.
    """
    return [
        math.inf if not record["ok"] else record["done"] - record["due"]
        for record in records
    ]


def backlog_growth_ms(records: Sequence[Mapping[str, Any]]) -> float:
    """Growth of send lateness (send minus due) across a phase, in ms.

    Median lateness of the last quarter of requests minus that of the
    first quarter: near zero while the service keeps up, growing with
    the backlog once offered load exceeds what it can answer.
    """
    if len(records) < 8:
        return 0.0
    quarter = len(records) // 4
    first = [r["sent"] - r["due"] for r in records[:quarter]]
    last = [r["sent"] - r["due"] for r in records[-quarter:]]
    return (median(last) - median(first)) * 1e3


def phase_summary(rate: float, records: Sequence[Mapping[str, Any]]) -> dict:
    """Summarize one open-loop phase of API requests (scrapes excluded)."""
    ordered = sorted(records, key=lambda record: record["due"])
    latencies = latencies_from_due(ordered)
    q, tail_s = tail(latencies)
    ok = [record for record in ordered if record["ok"]]
    span = (
        max(record["done"] for record in ok) - ordered[0]["due"]
        if ok
        else math.inf
    )
    return {
        "rate": rate,
        "requests": len(ordered),
        "failed": len(ordered) - len(ok),
        "p50_ms": median(latencies) * 1e3,
        "tail_q": q,
        "tail_ms": tail_s * 1e3,
        "backlog_growth_ms": backlog_growth_ms(ordered),
        "achieved_rps": len(ok) / span if span > 0 else 0.0,
    }


def phase_passes(phase: Mapping[str, Any]) -> bool:
    """Whether a phase meets the latency limit without a growing backlog."""
    return (
        phase["tail_ms"] <= LATENCY_LIMIT_MS
        and phase["backlog_growth_ms"] <= BACKLOG_GROWTH_MS
    )


def max_rate(phases: Sequence[Mapping[str, Any]]) -> float:
    """The highest rate that meets the latency limit without a growing
    backlog, from phases in increasing rate order.

    Below the first failing phase, every phase must pass. When it fails
    on latency, the rate where the tail crosses the limit is
    interpolated between it and the last passing phase, in log latency:
    near the limit a phase's verdict flips with the machine's speed, and
    interpolation turns that flip into a small move. When it fails only
    on backlog, or every phase passes, the last passing phase's achieved
    rate is returned; 0.0 when the first phase already fails.
    """
    last = None
    for phase in phases:
        if phase_passes(phase):
            last = phase
            continue
        if last is None:
            return 0.0
        if phase["tail_ms"] <= LATENCY_LIMIT_MS:
            return last["achieved_rps"]
        low, high = math.log(last["tail_ms"]), math.log(phase["tail_ms"])
        share = (math.log(LATENCY_LIMIT_MS) - low) / (high - low)
        return last["rate"] + share * (phase["rate"] - last["rate"])
    return last["achieved_rps"] if last else 0.0


def parse_banner(line: str) -> "tuple[str, int] | None":
    """``(host, port)`` from ``repro serve``'s listening banner, else None."""
    match = _BANNER.search(line)
    if match is None:
        return None
    return match.group("host"), int(match.group("port"))


def self_peak_rss_mb() -> float:
    """This process's peak resident set size in MB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """The largest peak RSS among waited-for child processes, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB (0.0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def machine() -> dict:
    """The machine facts a result needs so nothing unmeasured looks measured."""
    import numpy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
