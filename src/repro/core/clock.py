"""One injectable time source for everything that reads a clock.

The codebase needs time for two distinct purposes and historically
reached for two different stdlib calls ad hoc:

* **Epoch time** (``time.time()``) — compared against file mtimes by the
  disk store's TTL/GC maintenance and the CLI's entry-age display.
* **Monotonic time** (``time.perf_counter()``) — wall-clock intervals in
  the pipeline, service and DSE runner.

Mixing the raw calls into the logic makes age-based behaviour untestable
without real sleeps.  :class:`Clock` bundles both readings behind one
small object that tests can replace: production code holds a clock and
asks it, tests hand in a :class:`ManualClock` and advance it by hand, so
a "prune everything older than an hour" test runs in microseconds.

The default :data:`SYSTEM_CLOCK` is shared and stateless — injecting a
clock is opt-in, and code that never cared keeps working unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Clock", "ManualClock", "SYSTEM_CLOCK"]


@dataclass(frozen=True)
class Clock:
    """A pair of time sources: epoch ``now`` and monotonic ``perf``.

    Attributes:
        now: Returns seconds since the epoch (comparable with file
            mtimes).  Defaults to :func:`time.time`.
        perf: Returns a monotonic reading for measuring intervals.
            Defaults to :func:`time.perf_counter`.
    """

    now: Callable[[], float] = field(default=time.time)
    perf: Callable[[], float] = field(default=time.perf_counter)


#: The process-wide default clock (real system time).
SYSTEM_CLOCK = Clock()


class ManualClock:
    """A deterministic clock for tests: time moves only when told to.

    Duck-types :class:`Clock` (``now()`` / ``perf()`` callables) with a
    single hand-advanced reading backing both, so TTL and interval logic
    can be exercised without sleeping.

    Usage::

        clock = ManualClock(start=1_000_000.0)
        store = DiskCacheStore(root, clock=clock)
        clock.advance_to(clock.now() + 3600)  # one "hour" passes instantly
        store.prune(max_age_seconds=1800)
    """

    def __init__(self, start: float = 0.0) -> None:
        self._t = float(start)

    def now(self) -> float:
        """Current (manual) epoch reading."""
        return self._t

    def perf(self) -> float:
        """Current (manual) monotonic reading — same hand as :meth:`now`."""
        return self._t

    def advance_to(self, t: float) -> None:
        """Move time forward to exactly ``t``; an earlier ``t`` is rejected."""
        if t < self._t:
            raise ValueError("cannot advance a clock backwards")
        self._t = float(t)
