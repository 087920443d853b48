"""The daemon's request table: in-flight coalescing plus retained answers.

A cold compile costs seconds and hundreds of allocator solves; the
caches only help *after* it finishes.  When N clients ask for the same
program concurrently — a fleet booting onto one model, a sweep fanning
out — the cache alone would run N cold compiles.  :class:`SingleFlight`
closes that window: the first request for a key becomes the **leader**
and computes; every request arriving while it is in flight becomes a
**follower** and waits for the leader's result.  Same
fingerprint-determining inputs → one compile, many waiters.  A settled
flight the caller asks to keep stays in the table as a bounded LRU
entry, and a later request for its key is a **hit**: it reads the
settled outcome without waiting or computing.  Both halves sit under
the table's one lock, so a request always finds the flight in the air
or its retained answer — never a gap in which it would compute twice.

The table is keyed like the allocation cache is — by a structural
digest of the compile-determining inputs
(:func:`repro.serve.wire.request_fingerprint`: graph identity × DEHA
fingerprint × options) — and deliberately generic: values are opaque,
so tests drive it with stub work.

Waiting is bounded per follower: a follower that times out abandons the
flight (raising :class:`CoalesceTimeout`) without disturbing the leader
or the other followers, so one slow compile can never wedge the accept
loop.  A leader that fails propagates its exception object to every
follower; the flight is then retired and never retained, so the *next*
request for the key starts a fresh attempt instead of replaying a stale
failure.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from ..core.lru import BoundedLRU

__all__ = ["CoalesceTimeout", "Flight", "SingleFlight", "LEAD", "FOLLOW", "HIT"]

#: Bounds of the settled flights a table retains (fixed, like
#: ``MAX_BODY_BYTES``: hygiene limits on daemon memory, not tuning
#: knobs).  The daemon weighs a flight by the bytes of its encoded
#: answer; bodies of the paper's models are 8-30 KB without generated
#: code, so the entry bound binds first and the byte bound is for the rest.
RESULT_TABLE_ENTRIES = 256
RESULT_TABLE_BYTES = 64 * 1024 * 1024

#: What :meth:`SingleFlight.begin` made of its caller.
LEAD, FOLLOW, HIT = "lead", "follow", "hit"


class CoalesceTimeout(TimeoutError):
    """A follower's bounded wait expired before the leader finished."""


class Flight:
    """One in-flight computation and the latch its followers wait on."""

    __slots__ = ("key", "done", "value", "error")

    def __init__(self, key) -> None:
        self.key = key
        self.done = threading.Event()
        self.value = None
        self.error: Optional[BaseException] = None

    def settle(self, value=None, error: Optional[BaseException] = None) -> None:
        """Publish the outcome and release every waiter (idempotent)."""
        if not self.done.is_set():
            self.value = value
            self.error = error
            self.done.set()


class SingleFlight:
    """Keyed duplicate suppression for concurrent and repeated identical requests.

    Thread-safe.  Usage (what the daemon's request path does)::

        flight, role = flights.begin(key)
        if role == HIT:
            return flight.value                     # settled and retained
        if role == LEAD:
            try:
                result = compute()
            except Exception as exc:
                flights.finish(flight, error=exc)
                raise
            flights.finish(flight, value=result, weight=1)   # retain it
            return result
        return flights.wait(flight, timeout=30.0)   # a follower

    The table counts nothing itself: its caller knows from ``role``
    which of the three happened (the daemon counts
    ``serve.flights_started``, ``serve.coalesced_hits`` and
    ``serve.result_hits``) and moves its gauges by what :meth:`finish`
    returns.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[object, Flight] = {}
        #: Settled flights kept for later requests (see :meth:`finish`).
        self.retained = BoundedLRU(RESULT_TABLE_ENTRIES, RESULT_TABLE_BYTES)

    def __len__(self) -> int:
        """Flights in the air (retained ones are settled and not counted)."""
        with self._lock:
            return len(self._flights)

    def begin(self, key) -> Tuple[Flight, str]:
        """Join the flight for ``key``, read its retained answer, or start it.

        Returns:
            ``(flight, role)``.  ``FOLLOW``: the flight is in the air —
            :meth:`wait` on it.  ``HIT``: the flight is settled and was
            retained — its ``value`` is the answer.  ``LEAD``: a new
            flight; exactly one concurrent caller per key leads, and it
            *must* eventually call :meth:`finish` on the flight (also on
            failure), or followers will wait out their timeouts.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                return flight, FOLLOW
            flight = self.retained.get(key)
            if flight is not None:
                return flight, HIT
            flight = self._flights[key] = Flight(key)
            return flight, LEAD

    def finish(
        self,
        flight: Flight,
        value=None,
        error: Optional[BaseException] = None,
        weight: Optional[int] = None,
    ) -> Tuple[int, int, int]:
        """Settle a flight and retire it from the air, waking every follower.

        With a ``weight`` and no ``error`` the settled flight is retained
        in the same step, so later requests hit it; without one (and
        always on failure) the key is free for the next request to lead
        afresh — failures are never replayed, and a long-lived daemon
        cannot leak settled flights beyond the retained table's bounds.

        Returns:
            The retained table's ``(entries, weight, evictions)`` deltas.
        """
        with self._lock:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
            flight.settle(value=value, error=error)
            if weight is None or error is not None:
                return 0, 0, 0
            return self.retained.put(flight.key, flight, weight)

    def wait(self, flight: Flight, timeout: Optional[float] = None):
        """Block until the flight settles; return or re-raise its outcome.

        Raises:
            CoalesceTimeout: The bounded wait expired.  The flight keeps
                flying for everyone else.
            BaseException: Whatever the leader's computation raised.
        """
        if not flight.done.wait(timeout):
            raise CoalesceTimeout(
                f"gave up waiting on in-flight request {flight.key!r} "
                f"after {timeout:.1f}s (the compile keeps running)"
            )
        if flight.error is not None:
            raise flight.error
        return flight.value
