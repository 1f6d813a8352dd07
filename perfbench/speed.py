"""Host-speed normalisation of measured times.

The benchmark runs on shared hosts whose CPU speed moves by tens of percent
from one second to the next (other tenants on the same cores and caches).
Wall time and CPU time move together, so neither can filter it out. What
does: a fixed pure-Python reference loop, timed between the measured
operations, slows down with the host at the same moment as the program.

Every measured region is kept as a ``Region`` (wall start and end, CPU
seconds used). Its reported time is its waiting time as measured plus its
CPU time scaled to a host on which one reference slice takes
``REFERENCE_S``::

    scaled = (wall - cpu) + cpu * REFERENCE_S / reference

where ``reference`` is the median of the reference slices timed within
``WINDOW_S`` of the region. CPU-bound work is thus reported at the
reference host's speed, and sleeping (a fake endpoint's latency) is
reported as it is. A change to the program moves its own time, not the
reference loop's, so it still shows in full.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from dataclasses import dataclass

clock = time.perf_counter
cpu_clock = time.process_time

REFERENCE_S = 0.0011  # one reference slice on an uncontended 2.1 GHz Xeon core; only sets the scale
WINDOW_S = 0.1  # reference slices this close to a region set its speed
MIN_SLICES = 2  # fewer slices in the window: take the nearest ones instead
SLICES_AROUND = 3  # slices before and after a region timed with ``measure``


@dataclass(frozen=True)
class Region:
    """One measured region: wall-clock start and end, and CPU seconds used."""

    start: float
    end: float
    cpu: float

    @property
    def wall(self) -> float:
        return self.end - self.start


class _Walker:
    """A small fixed graph the reference loop walks, like the program's search."""

    def __init__(self):
        rng = random.Random("perfbench-reference")
        self.out: list[list[tuple[int, str, float]]] = [[] for _ in range(300)]
        for _ in range(1200):
            self.out[rng.randrange(300)].append((rng.randrange(300), f"P{rng.randrange(8)}", rng.random()))
        self.words = [f"{label}:{i}" for i, label in enumerate(("cause", "treat", "affect") * 400)]

    def run(self) -> int:
        out = self.out
        seen: set[tuple[int, int, str]] = set()
        total = 0
        for source in range(0, 300, 10):
            stack = [(source, (source,))]
            while stack:
                node, path = stack.pop()
                if len(path) > 3:
                    continue
                for nxt, label, weight in out[node]:
                    if nxt in path:
                        continue
                    key = (node, nxt, label)
                    if weight > 0.3 and key not in seen:
                        seen.add(key)
                        total += 1
                    stack.append((nxt, path + (nxt,)))
        counts: dict[str, int] = {}
        for word in sorted(self.words):
            counts[word[:4]] = counts.get(word[:4], 0) + 1
        return total + len(counts)


class Speed:
    """Reference slices over a run, and the scaling of regions by them."""

    def __init__(self):
        self._walker = _Walker()
        self._at: list[float] = []  # midpoints, in time order
        self._took: list[float] = []

    def sample(self, slices: int = 1) -> None:
        """Time reference slices now."""
        for _ in range(slices):
            start = clock()
            self._walker.run()
            end = clock()
            self._at.append((start + end) / 2)
            self._took.append(end - start)

    def measure(self, fn, *args, **kwargs):
        """Run ``fn`` between reference slices; return (result, region).

        For regions longer than a step; several slices on each side steady
        the speed estimate of a long region.
        """
        self.sample(SLICES_AROUND)
        start, cpu = clock(), cpu_clock()
        result = fn(*args, **kwargs)
        region = Region(start, clock(), cpu_clock() - cpu)
        self.sample(SLICES_AROUND)
        return result, region

    @property
    def slices(self) -> int:
        return len(self._took)

    def reference(self, region: Region) -> float:
        """Median reference slice time around ``region``."""
        lo = bisect.bisect_left(self._at, region.start - WINDOW_S)
        hi = bisect.bisect_right(self._at, region.end + WINDOW_S)
        while hi - lo < MIN_SLICES and (lo > 0 or hi < len(self._at)):
            before = region.start - self._at[lo - 1] if lo > 0 else float("inf")
            after = self._at[hi] - region.end if hi < len(self._at) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return statistics.median(self._took[lo:hi])

    def scaled(self, region: Region) -> float:
        """The region's time at the reference host's speed."""
        cpu = min(region.cpu, region.wall)
        return region.wall - cpu + cpu * REFERENCE_S / self.reference(region)
