"""Pure helpers shared by the benchmark: percentiles, machine speed,
output checks, RSS.

Nothing here imports ``repro``; the unit tests in ``perfbench/tests``
exercise these functions without building an engine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


def percentile(samples: Sequence[float], q: float) -> tuple[float, int]:
    """The ``q``-th percentile (0..100) of *samples* and the sample count.

    Linear interpolation between closest ranks (numpy's default, and
    ``statistics.quantiles(method="inclusive")``).  The count travels with
    the value so that no percentile is reported without the number of
    samples behind it.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within 0..100, got {q}")
    n = len(samples)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = (n - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return value, n


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)[0]


def supported_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """The highest of p50/p90/p95/p99 with at least *beyond* samples above
    it in a sample of *n*, or None when not even the median qualifies."""
    best = None
    for q in (50.0, 90.0, 95.0, 99.0):
        if n * (100.0 - q) / 100.0 >= beyond:
            best = q
    return best


#: the calibration kernel's usual time on the machine the bounds were set on
#: (2 vCPUs, Python 3.11); scaled timings read in that machine's seconds
NOMINAL_KERNEL_S = 0.015

_KERNEL_ARRAY = np.random.default_rng(0).random(200_000)


def kernel_s() -> float:
    """Seconds for a fixed mix of interpreter and numpy work: the machine's
    current speed, the same way the workloads spend their time."""
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    np.argsort(_KERNEL_ARRAY)
    return time.perf_counter() - started


class MachineSpeed:
    """Calibration samples taken between the timed parts of one run.

    The shared machine this benchmark runs on drifts: the same loop takes
    up to a third longer for minutes at a time, on every core, in CPU time
    as well as wall time.  A run that samples the kernel next to its work
    and divides its timings by the kernel's median reports them in the
    seconds of a machine running at :data:`NOMINAL_KERNEL_S`, which cancels
    most of that drift.  The raw timings are reported alongside.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, server=None) -> None:
        """Time the kernel here and, given a server process, there too:
        the server's core may be the one slowed down."""
        self.samples.append(median([kernel_s() for _ in range(3)]))
        if server is not None:
            self.samples.append(server.kernel_s())

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the machine ran (1.0 = nominal)."""
        return median(self.samples) / NOMINAL_KERNEL_S

    def seconds(self, raw: float) -> float:
        """A measured duration in nominal-machine seconds."""
        return raw / self.slowdown

    def rate(self, raw: float) -> float:
        """A measured rate in nominal-machine units."""
        return raw * self.slowdown


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``VmHWM``), in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


# -- oltp-mix output checks ------------------------------------------------


@dataclass
class MixLedger:
    """What the oltp-mix clients did, as far as the final state depends on
    it.  Each client keeps its own ledger; :meth:`merge` combines them."""

    inserts: int = 0
    inserted_balance: int = 0
    update_delta: int = 0
    #: human-readable description of every wrong reply, one per operation
    wrong: list[str] = field(default_factory=list)

    def merge(self, other: "MixLedger") -> "MixLedger":
        return MixLedger(
            self.inserts + other.inserts,
            self.inserted_balance + other.inserted_balance,
            self.update_delta + other.update_delta,
            self.wrong + other.wrong,
        )


def check_mix_invariants(
    loaded_rows: int,
    loaded_sum: int,
    ledger: MixLedger,
    final_count: int,
    final_sum: float,
) -> list[str]:
    """Mismatches between the table's final state and the operations the
    clients saw acknowledged; empty when the state is exactly right.

    ``count(*)`` must equal the loaded rows plus the inserts, and
    ``sum(balance)`` the loaded sum plus every update delta plus every
    inserted balance (all integers, so the comparison is exact).
    """
    problems = []
    want_count = loaded_rows + ledger.inserts
    if final_count != want_count:
        problems.append(
            f"count(*) is {final_count}, expected {loaded_rows} loaded + "
            f"{ledger.inserts} inserted = {want_count}"
        )
    want_sum = loaded_sum + ledger.update_delta + ledger.inserted_balance
    if final_sum != want_sum:
        problems.append(
            f"sum(balance) is {final_sum}, expected {loaded_sum} loaded + "
            f"{ledger.update_delta} updated + {ledger.inserted_balance} "
            f"inserted = {want_sum}"
        )
    return problems
