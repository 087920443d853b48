"""In-flight request coalescing (the daemon's single-flight table).

A cold compile costs seconds and hundreds of allocator solves; the
caches only help *after* it finishes.  When N clients ask for the same
program concurrently — a fleet booting onto one model, a sweep fanning
out — the cache alone would run N cold compiles.  :class:`SingleFlight`
closes that window: the first request for a key becomes the **leader**
and computes; every request arriving while it is in flight becomes a
**follower** and waits for the leader's result.  Same
fingerprint-determining inputs → one compile, many waiters.

The table is keyed like the allocation cache is — by a structural
digest of the compile-determining inputs
(:func:`repro.serve.wire.request_fingerprint`: graph identity × DEHA
fingerprint × options) — and deliberately generic: values are opaque,
so tests drive it with stub work.

Waiting is bounded per follower: a follower that times out abandons the
flight (raising :class:`CoalesceTimeout`) without disturbing the leader
or the other followers, so one slow compile can never wedge the accept
loop.  A leader that fails propagates its exception object to every
follower; the flight is then retired, so the *next* request for the key
starts a fresh attempt instead of replaying a stale failure.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

__all__ = ["CoalesceTimeout", "Flight", "SingleFlight"]


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
    """Keyed duplicate suppression for concurrent identical requests.

    Thread-safe.  Usage (what the daemon's request path does)::

        flight, leader = flights.begin(key)
        if leader:
            try:
                result = compute()
            except Exception as exc:
                flights.finish(flight, error=exc)
                raise
            flights.finish(flight, value=result)
            return result
        return flights.wait(flight, timeout=30.0)   # a follower

    The table counts nothing itself: its caller knows from ``leader``
    which of the two happened (the daemon counts
    ``serve.flights_started`` and ``serve.coalesced_hits``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[object, Flight] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._flights)

    def begin(self, key) -> Tuple[Flight, bool]:
        """Join the flight for ``key``, creating it if none is in the air.

        Returns:
            ``(flight, leader)`` — ``leader`` is True for exactly one
            concurrent caller per key; that caller *must* eventually call
            :meth:`finish` on the flight (also on failure), or followers
            will wait out their timeouts.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                return flight, False
            flight = Flight(key)
            self._flights[key] = flight
            return flight, True

    def finish(
        self, flight: Flight, value=None, error: Optional[BaseException] = None
    ) -> None:
        """Retire a flight with its outcome, waking every follower.

        The key is freed *before* waiters run, so a request arriving
        after the outcome is published starts a fresh flight — failures
        are never replayed to future callers, and long-lived daemons
        cannot leak settled flights.
        """
        with self._lock:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
        flight.settle(value=value, error=error)

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

    def do(self, key, fn: Callable[[], object], timeout: Optional[float] = None):
        """Convenience wrapper: run ``fn`` once per key, share the result.

        Returns:
            ``(value, coalesced)`` — ``coalesced`` is True when this call
            waited on another caller's computation instead of running.
        """
        flight, leader = self.begin(key)
        if leader:
            try:
                value = fn()
            except BaseException as exc:
                self.finish(flight, error=exc)
                raise
            self.finish(flight, value=value)
            return value, False
        return self.wait(flight, timeout=timeout), True
