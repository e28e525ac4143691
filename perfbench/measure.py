"""Timing, statistics and resource helpers shared by the workloads."""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

now_ns = time.perf_counter_ns  # wall clock: deadlines, spans, throughput
# CPU time of the calling thread. The kernel leaves out time the thread was
# not running, including time the host took the virtual CPU away (steal), so
# a busy neighbour on a shared host does not count as the program's cost.
cpu_ns = time.thread_time_ns


def ms(ns: float) -> float:
    return ns / 1e6


def median(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    """90th percentile, interpolated; the median when there are fewer than
    two samples to interpolate between."""
    if len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=10)[-1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def ref_loop_ms(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop.

    It touches none of the program, so its drift between runs is the
    machine's, not the program's.
    """
    times = []
    for _ in range(repeats):
        start = now_ns()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append(ms(now_ns() - start))
    return median(times)


class _Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi


def _reference_data() -> tuple[list[dict[str, _Interval]], list[tuple[str, float, float]]]:
    rng = random.Random("cbrdiag-bench-reference")
    keys = [f"d{i:03d}" for i in range(400)]
    records = []
    for _ in range(REFERENCE_RECORDS):
        record = {}
        for key in rng.sample(keys, 30):
            lo = rng.uniform(0.0, 80.0)
            record[key] = _Interval(lo, lo + rng.uniform(1.0, 20.0))
        records.append(record)
    probe = []
    for key in rng.sample(keys, 30):
        lo = rng.uniform(0.0, 80.0)
        probe.append((key, lo, lo + rng.uniform(1.0, 20.0)))
    return records, probe


REFERENCE_RECORDS = 4000
_REFERENCE = _reference_data()
# The reference kernel's CPU time on an unloaded 2-vCPU Xeon virtual
# machine under CPython 3.11: the constant that turns reference units back
# into seconds for ``setup_s``, whose unit is fixed.
REFERENCE_NOMINAL_S = 0.016


def reference_kernel() -> float:
    """A fixed pure-Python scoring loop that touches none of the program.

    It does what the program's inner loops do (dict lookups by descriptor
    id, attribute reads, float min/max and division) over fixed records, and
    creates no object the collector tracks, so no collection runs inside it.
    Its CPU time, taken next to every timed request, is the unit that the
    ``request_rel_*`` metrics count in: the host's speed changes both alike,
    and a change to the program changes only the request.
    """
    records, probe = _REFERENCE
    best = -1.0
    for record in records:
        acc = 0.0
        n = 0
        for key, lo, hi in probe:
            other = record.get(key)
            if other is None:
                continue
            acc += (min(hi, other.hi) - max(lo, other.lo)) / max(hi - lo, other.hi - other.lo)
            n += 1
        if n and acc / n > best:
            best = acc / n
    return best


def reference_cpu_ns() -> int:
    start = cpu_ns()
    reference_kernel()
    return cpu_ns() - start


@dataclass
class GcMeter:
    """Collector pauses and gen-2 collections, read through ``gc.callbacks``.

    The collector keeps running as it would for any user; the meter only
    watches it.
    """

    pause_ns: int = 0
    gen2: int = 0
    _start: int = field(default=0, repr=False)

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = now_ns()
            return
        self.pause_ns += now_ns() - self._start
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)


@dataclass
class Metric:
    """One reported number with its unit and the samples it comes from."""

    value: float
    unit: str
    samples: int = 1

    def entry(self) -> dict:
        return {"value": self.value, "unit": self.unit}


@dataclass(frozen=True)
class Workload:
    shape: str  # generator shape, see gen.SHAPES
    cold: bool  # requests are CLI processes
    typical: bool  # warm requests add a typical-mode retrieve
    setup_repeats: int
    save_repeats: int
    oracle_sample: int  # answered requests compared with the reference


@dataclass
class Result:
    """What one run measured and checked."""

    metrics: dict[str, Metric]  # the metrics this mode reports on its last line
    report: dict[str, Metric]  # everything shown in the readable report
    attempted: int
    failed: int
    problems: list[str]
    exact: Optional[dict[str, int]] = None  # exact counts, traced runs only


def relative(work_ns: list[int], refs_ns: list[int]) -> list[float]:
    """Each request's CPU time in reference units: over the mean of the
    reference timings taken just before and just after it (``refs_ns`` has
    one more entry than ``work_ns``)."""
    return [work / ((refs_ns[i] + refs_ns[i + 1]) / 2) for i, work in enumerate(work_ns)]


def end_to_end(setup_rel: list[float], rel: list[float], rss_mb: float, rss_samples: int) -> dict[str, Metric]:
    """The end-to-end metrics every workload reports, for its own request.

    ``setup_s`` is the median set-up in reference units, given in seconds
    at the reference kernel's nominal speed.
    """
    return {
        "setup_s": Metric(median(setup_rel) * REFERENCE_NOMINAL_S, "s", len(setup_rel)),
        "request_rel_p50": Metric(median(rel), "ref", len(rel)),
        "request_rel_mean": Metric(statistics.fmean(rel), "ref", len(rel)),
        "peak_rss_mb": Metric(rss_mb, "MB", rss_samples),
    }
