"""Discrete-event simulation engine.

The engine is a classic priority-queue event loop.  Everything in the
reproduction -- frame airtime, backhaul latency, protocol timeouts, TCP
retransmission timers -- is expressed as callbacks scheduled on a single
:class:`Simulator` instance.

Design notes
------------
* Time is a ``float`` in **seconds**.  Sub-microsecond deltas occur (OFDM
  symbol boundaries), so callers should never compare times with ``==``;
  use :func:`repro.sim.engine.time_close` instead.
* Events scheduled for the same instant fire in scheduling order (a
  monotonically increasing sequence number breaks ties), which makes the
  simulation fully deterministic for a fixed RNG seed.
* Events are cancellable: :meth:`Simulator.schedule` returns an
  :class:`EventHandle` whose :meth:`~EventHandle.cancel` marks the heap
  entry dead.  Dead entries are skipped on pop (lazy deletion), and a
  purge rebuilds the heap whenever dead entries outnumber live ones --
  cancellation-heavy workloads (BA timers, periodic re-arms) stay O(live)
  in memory instead of accumulating garbage for the life of a drive.
* The hot loop is allocation-light: fired :class:`EventHandle` objects
  are recycled through a freelist when (and only when) no caller still
  holds a reference, so steady-state event churn does not touch the
  allocator at all.
* Batching: :meth:`Simulator.schedule_batch` coalesces same-instant
  callbacks that share a key into one heap entry, and
  :meth:`Simulator.periodic_group` does the same for periodic work on a
  shared cadence.  Both count each *callback* as one fired event, so
  ``events_fired`` is invariant under coalescing -- a batched run reports
  the same event count as the equivalent unbatched run.
"""

from __future__ import annotations

import heapq
import itertools
import math
from sys import getrefcount
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "BatchEntry",
    "EventHandle",
    "GroupMember",
    "PeriodicGroup",
    "PeriodicTask",
    "Simulator",
    "SimulationError",
    "time_close",
]

#: The engine's single timestamp tolerance, used both for comparing
#: timestamps (:func:`time_close`) and for the scheduling-in-the-past
#: guard.  1e-9 s (one nanosecond) sits three orders of magnitude below
#: the shortest physical interval in the simulation (a 4 us OFDM symbol)
#: yet comfortably above accumulated float64 rounding error at realistic
#: simulation times (ulp(100 s) ~ 1.4e-14 s), so genuinely distinct
#: instants never compare equal and floating-point noise never compares
#: distinct.  Historically ``time_close`` defaulted to 1e-9 while the
#: scheduling guard used 1e-12; they are now one constant.
TIME_EPSILON = 1e-9

#: Upper bound on recycled EventHandle objects kept around.  Beyond this
#: the steady-state pool is large enough that allocation is off the hot
#: path; keeping more would just pin memory.
_FREELIST_MAX = 512

#: Dead heap entries are purged when they outnumber live ones and the
#: heap is at least this large (tiny heaps are cheaper to drain lazily).
_PURGE_MIN_HEAP = 64


def time_close(a: float, b: float, eps: float = TIME_EPSILON) -> bool:
    """Return True when two simulation timestamps are effectively equal."""
    return abs(a - b) <= eps


class SimulationError(RuntimeError):
    """Raised on misuse of the simulation engine (e.g. scheduling in the past)."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    Instances are returned by :meth:`Simulator.schedule`; user code should
    never construct them directly.  Fired handles are recycled into a
    freelist *only* when the engine holds the last reference, so a handle
    a caller kept (e.g. a stored timer) is never resurrected as a
    different event: ``cancel`` on a stale handle is always a no-op.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Cancel the event.  Safe to call more than once or after firing."""
        if self.fn is not None and not self.cancelled:
            sim = self._sim
            if sim is not None:
                sim._note_cancel()
        self.cancelled = True
        self.fn = None  # break reference cycles early
        self.args = ()

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not self.cancelled and self.fn is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"<EventHandle t={self.time:.9f} {name} {state}>"


class BatchEntry:
    """One callback inside a coalesced batch (see ``schedule_batch``)."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Optional[Callable[..., Any]], args: Tuple[Any, ...]):
        self.fn = fn
        self.args = args

    def cancel(self) -> None:
        """Remove this callback from its batch.  Safe to call repeatedly."""
        self.fn = None
        self.args = ()

    @property
    def pending(self) -> bool:
        return self.fn is not None


class _Batch:
    """Shared state of one coalesced same-instant event."""

    __slots__ = ("entries", "fired")

    def __init__(self) -> None:
        self.entries: List[BatchEntry] = []
        self.fired = False


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (1.5, ['hello'])
    """

    def __init__(self) -> None:
        #: Current simulation time in seconds.  A plain attribute, not a
        #: property, because callbacks read it on nearly every event; only
        #: run() and step() advance it.
        self.now = 0.0
        #: Heap of (time, seq, handle) tuples: the (float, int) prefix
        #: keeps heapq comparisons at C speed instead of dispatching a
        #: Python-level __lt__ per sift (the hot loop's dominant cost at
        #: city scale), with the exact same (time, seq) ordering.
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_fired = 0
        #: Live (scheduled, neither fired nor cancelled) event count,
        #: maintained incrementally -- ``pending_events`` is O(1).
        self._live = 0
        #: Cancelled entries still sitting in the heap awaiting lazy
        #: deletion; drives the purge threshold.
        self._dead = 0
        #: Recycled EventHandle pool (see EventHandle docstring).
        self._free: List[EventHandle] = []
        #: (key, time) -> open batch for schedule_batch coalescing.
        self._batches: Dict[Tuple[Any, float], _Batch] = {}
        #: (key, interval) -> shared periodic group.
        self._groups: Dict[Tuple[Any, float], "PeriodicGroup"] = {}

    # ------------------------------------------------------------------ time
    @property
    def events_fired(self) -> int:
        """Number of callbacks executed so far (for budget accounting/tests).

        Coalesced batches count one per callback run, so the number is
        identical whether or not same-instant work was batched.
        """
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live

    # ------------------------------------------------------------ scheduling
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback after
        all events already scheduled at the current instant.
        """
        if delay < 0:
            if delay < -TIME_EPSILON:
                raise SimulationError(f"cannot schedule {delay} s in the past")
            delay = 0.0
        if not callable(fn):
            raise TypeError(f"event callback must be callable, got {fn!r}")
        # Inlined schedule_at body (this is the hottest API entry point).
        when = self.now + delay
        seq = next(self._seq)
        free = self._free
        if free:
            handle = free.pop()
            handle.time = when
            handle.seq = seq
            handle.fn = fn
            handle.args = args
            handle.cancelled = False
        else:
            handle = EventHandle(when, seq, fn, args)
            handle._sim = self
        heapq.heappush(self._heap, (when, seq, handle))
        self._live += 1
        return handle

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulation time ``when``."""
        if when < self.now - TIME_EPSILON:
            raise SimulationError(
                f"cannot schedule at t={when} (now is t={self.now})"
            )
        if not callable(fn):
            raise TypeError(f"event callback must be callable, got {fn!r}")
        if when < self.now:
            when = self.now
        seq = next(self._seq)
        free = self._free
        if free:
            handle = free.pop()
            handle.time = when
            handle.seq = seq
            handle.fn = fn
            handle.args = args
            handle.cancelled = False
        else:
            handle = EventHandle(when, seq, fn, args)
            handle._sim = self
        heapq.heappush(self._heap, (when, seq, handle))
        self._live += 1
        return handle

    def _note_cancel(self) -> None:
        """Bookkeeping for EventHandle.cancel: count + maybe purge."""
        self._live -= 1
        self._dead += 1
        heap = self._heap
        if self._dead * 2 > len(heap) and len(heap) >= _PURGE_MIN_HEAP:
            # More garbage than live events: rebuild in place (the run
            # loop holds an alias to the list).  (time, seq) is a total
            # order, so heapify preserves pop order exactly.
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._dead = 0

    # ------------------------------------------------------------- batching
    def schedule_batch(
        self, delay: float, fn: Callable[..., Any], *args: Any, key: Any = None
    ) -> BatchEntry:
        """Schedule ``fn(*args)`` at ``now + delay``, coalescing with any
        other callback scheduled through this method for the *same key and
        instant* into a single heap event.

        Callbacks inside a batch fire in the order they were added, each
        counted as one fired event, so a batched schedule is
        behaviour- and accounting-equivalent to N plain ``schedule`` calls
        -- minus N-1 heap operations.  Use it for wake-ups that are known
        to share an instant (contention-round deferrals, heartbeat fans).

        Note the ordering contract: a callback appended to an existing
        batch fires at the *batch's* queue position, not at the position a
        fresh event would get.  Only coalesce work whose relative order
        with other same-instant events is immaterial.

        Returns a :class:`BatchEntry` whose ``cancel`` removes just this
        callback from the batch.
        """
        if delay < 0:
            if delay < -TIME_EPSILON:
                raise SimulationError(f"cannot schedule {delay} s in the past")
            delay = 0.0
        return self.schedule_batch_at(self.now + delay, fn, *args, key=key)

    def schedule_batch_at(
        self, when: float, fn: Callable[..., Any], *args: Any, key: Any = None
    ) -> BatchEntry:
        """Absolute-time variant of :meth:`schedule_batch`.

        Callers that coalesce on an externally computed instant (e.g. every
        deferred station waking at the same NAV edge) must use this form:
        round-tripping through a delay can perturb the last float ulp and
        silently split the batch.
        """
        if when < self.now - TIME_EPSILON:
            raise SimulationError(
                f"cannot schedule at t={when} (now is t={self.now})"
            )
        if not callable(fn):
            raise TypeError(f"event callback must be callable, got {fn!r}")
        if when < self.now:
            when = self.now
        bkey = (key, when)
        batch = self._batches.get(bkey)
        if batch is None or batch.fired:
            batch = _Batch()
            self._batches[bkey] = batch
            self.schedule_at(when, self._fire_batch, bkey, batch)
        entry = BatchEntry(fn, args)
        batch.entries.append(entry)
        return entry

    def _fire_batch(self, bkey: Tuple[Any, float], batch: _Batch) -> None:
        batch.fired = True
        if self._batches.get(bkey) is batch:
            del self._batches[bkey]
        executed = 0
        for entry in batch.entries:
            fn = entry.fn
            if fn is None:
                continue
            args = entry.args
            entry.fn, entry.args = None, ()
            fn(*args)
            executed += 1
        # The run loop counted the batch itself as one event; correct the
        # total so it equals "one per callback executed" (an all-cancelled
        # batch counts zero, exactly like N cancelled plain events).
        self._events_fired += executed - 1

    def periodic_group(
        self, interval: float, key: Any = None, until: Optional[float] = None
    ) -> "PeriodicGroup":
        """A shared periodic cadence: all members fire from one heap event.

        Repeated calls with the same ``(key, interval)`` return the same
        group, so independent subsystems (e.g. every AP's degraded-mode
        evaluator) can pool their ticks without knowing about each other.
        Members added mid-cycle first fire on the group's next tick.
        """
        if interval <= 0 or not math.isfinite(interval):
            raise SimulationError(f"interval must be positive and finite, got {interval}")
        gkey = (key, interval)
        group = self._groups.get(gkey)
        if group is None or group.stopped:
            group = PeriodicGroup(self, interval, until=until)
            self._groups[gkey] = group
        return group

    # --------------------------------------------------------------- running
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, mirroring how a wall-clock
        experiment of fixed duration behaves.  A coalesced batch counts as
        a single event against ``max_events`` (it is atomic).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        free = self._free
        # Hoist the per-iteration None checks out of the loop: an infinite
        # bound compares identically to "no bound".
        until_bound = math.inf if until is None else until + TIME_EPSILON
        limit = math.inf if max_events is None else max_events
        try:
            while heap:
                when, _, ev = heap[0]
                if ev.cancelled:
                    pop(heap)
                    self._dead -= 1
                    if len(free) < _FREELIST_MAX and getrefcount(ev) == 2:
                        ev.cancelled = False
                        free.append(ev)
                    continue
                if when > until_bound:
                    break
                pop(heap)
                if when > self.now:
                    self.now = when
                fn, args = ev.fn, ev.args
                ev.fn, ev.args = None, ()  # mark as fired
                assert fn is not None
                self._live -= 1
                fn(*args)
                self._events_fired += 1
                fired += 1
                # Recycle the handle iff nothing outside the engine still
                # references it (refs here: local ``ev`` + getrefcount arg).
                if len(free) < _FREELIST_MAX and getrefcount(ev) == 2:
                    free.append(ev)
                if fired >= limit:
                    break
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none remain."""
        while self._heap:
            when, _, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                self._dead -= 1
                continue
            if when > self.now:
                self.now = when
            fn, args = ev.fn, ev.args
            ev.fn, ev.args = None, ()
            assert fn is not None
            self._live -= 1
            fn(*args)
            self._events_fired += 1
            return True
        return False

    def clear(self) -> None:
        """Drop every pending event (the clock is left where it is)."""
        for _, _, ev in self._heap:
            ev.cancel()
        self._heap.clear()
        self._live = 0
        self._dead = 0
        self._batches.clear()

    # ------------------------------------------------------------- utilities
    def call_every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        jitter: float = 0.0,
        rng: Any = None,
        until: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run ``fn(*args)`` every ``interval`` seconds (plus optional
        uniform jitter drawn from ``rng``), starting one interval from now.

        Returns a :class:`PeriodicTask` that can be stopped.
        """
        if interval <= 0 or not math.isfinite(interval):
            raise SimulationError(f"interval must be positive and finite, got {interval}")
        return PeriodicTask(self, interval, fn, args, jitter=jitter, rng=rng, until=until)


class PeriodicTask:
    """Helper that reschedules a callback on a fixed cadence.

    Created through :meth:`Simulator.call_every`.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        jitter: float = 0.0,
        rng: Any = None,
        until: Optional[float] = None,
    ):
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._args = args
        self._jitter = jitter
        self._rng = rng
        self._until = until
        self._stopped = False
        self._handle: Optional[EventHandle] = None
        self._arm()

    def _arm(self) -> None:
        delay = self._interval
        if self._jitter > 0.0 and self._rng is not None:
            delay += self._rng.uniform(0.0, self._jitter)
        when = self._sim.now + delay
        if self._until is not None and when > self._until:
            self._stopped = True
            return
        self._handle = self._sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        self._handle = None
        if self._stopped:
            return
        self._fn(*self._args)
        if not self._stopped:
            self._arm()

    def stop(self) -> None:
        """Stop the periodic task; pending firing is cancelled."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def stopped(self) -> bool:
        return self._stopped


class GroupMember:
    """One callback registered on a :class:`PeriodicGroup`."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Optional[Callable[..., Any]], args: Tuple[Any, ...]):
        self.fn = fn
        self.args = args

    def stop(self) -> None:
        """Unsubscribe from the group.  Safe to call repeatedly, including
        from inside the member's own callback."""
        self.fn = None
        self.args = ()

    @property
    def stopped(self) -> bool:
        return self.fn is None


class PeriodicGroup:
    """Many callbacks, one cadence, one heap event per tick.

    Where N :class:`PeriodicTask` objects on the same interval cost N heap
    pushes and N pops per cycle, a group costs one of each; members fire
    back-to-back in registration order and each execution counts as one
    fired event (same accounting as unpooled tasks).  Created through
    :meth:`Simulator.periodic_group`.
    """

    def __init__(self, sim: Simulator, interval: float, until: Optional[float] = None):
        self._sim = sim
        self._interval = interval
        self._until = until
        self._members: List[GroupMember] = []
        self._stopped = False
        self._handle: Optional[EventHandle] = None
        self._arm()

    def add(self, fn: Callable[..., Any], *args: Any) -> GroupMember:
        """Register a callback; it first fires on the group's next tick."""
        if self._stopped:
            raise SimulationError("cannot add to a stopped PeriodicGroup")
        member = GroupMember(fn, args)
        self._members.append(member)
        return member

    def _arm(self) -> None:
        when = self._sim.now + self._interval
        if self._until is not None and when > self._until:
            self._stopped = True
            return
        self._handle = self._sim.schedule(self._interval, self._tick)

    def _tick(self) -> None:
        self._handle = None
        if self._stopped:
            return
        executed = 0
        live: List[GroupMember] = []
        for member in self._members:
            fn = member.fn
            if fn is None:
                continue
            fn(*member.args)
            executed += 1
            if member.fn is not None:  # may have stopped itself
                live.append(member)
        self._members = live
        # The engine counted this tick as one event; make the total equal
        # one per member executed (an empty tick counts zero).
        self._sim._events_fired += executed - 1
        if not self._stopped:
            self._arm()

    def stop(self) -> None:
        """Stop the whole group; pending tick is cancelled."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def size(self) -> int:
        """Live member count."""
        return sum(1 for m in self._members if m.fn is not None)
