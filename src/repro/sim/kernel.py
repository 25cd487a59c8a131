"""Deterministic discrete-event simulation kernel.

This module provides the substrate on which every protocol in this
repository runs: a simulated clock, an event queue, and lightweight
generator-based *processes* that can wait on :class:`Future` objects.

The kernel is deliberately small and fully deterministic:

* every event carries a global sequence number, and events execute in
  strict ``(time, sequence_number)`` order, so two events scheduled for
  the same simulated instant always fire in the order they were
  scheduled;
* all randomness used by a simulation flows through ``Simulator.rng``,
  a single seeded :class:`random.Random`;
* nothing in the kernel reads the wall clock.

Internally there are two lanes.  Zero-delay work — ``call_soon``,
future-callback firing, process resumption — goes on a FIFO *ready
deque* (asyncio style); entries on the deque are always due at the
current instant, so FIFO order *is* sequence order within the lane.

Real timers (``delay > 0``) live on a **hierarchical timing wheel**
keyed by the integer millisecond of their deadline:

* level 0: 1024 slots of 1 ms — the current 1.024 s window;
* level 1: 256 slots of 1.024 s — up to ~4.4 min ahead;
* level 2: 64 slots of ~4.4 min — up to ~4.66 h ahead;
* beyond that, a small overflow heap (far-future deadlines are rare).

Insertion is O(1) (an append to a slot list); the run loop advances a
cursor through level-0 slots and *cascades* coarser slots down as the
cursor enters their span.  Each entry still carries its ``(time, seq)``
pair; a slot is sorted on dispatch (slots are tiny), so the observable
execution order is **identical** to a single global ``(time, seq)``
priority queue — the golden trace in ``tests/test_sim_kernel.py`` locks
this in byte-for-byte.  Cancellation leaves a tombstone in place;
tombstones past a threshold trigger a compaction sweep, so cancel-heavy
workloads (lease renewal keepers) keep the pending set bounded.
:meth:`Simulator.schedule_many` and :meth:`Simulator.schedule_each` are
conveniences equivalent to a loop of single schedules.

The canonical order is a *choice* among many legal ones: two events due
at the same instant have no causal order.  Installing a
:class:`ScheduleController` (``sim.controller = ...``) switches the run
loop onto a slower controlled path that exposes exactly those choices to
a schedule-space explorer (:mod:`repro.mc`); with no controller — the
default — the fast path below is untouched.

Processes are written as plain Python generators.  A process *yields*
awaitables to suspend itself::

    def handler(env):
        yield env.sleep(5.0)              # wait 5 simulated ms
        reply = yield rpc_future          # wait for a Future to resolve
        result = yield env.spawn(child()) # wait for a child process

Time units are **milliseconds** throughout the repository, matching the
paper's delay parameters (8 ms LAN, 86 ms client WAN, 80 ms server WAN).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Any, Callable, Generator, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "SimulationError",
    "ProcessFailure",
    "Future",
    "Process",
    "Timer",
    "ScheduleController",
    "Simulator",
    "all_of",
    "any_of",
]

# -- timing-wheel geometry -----------------------------------------------------
#
# Level 0 is indexed by the integer millisecond directly (1 ms / slot);
# levels 1 and 2 are indexed by progressively coarser bit slices.  All
# sizes are powers of two so slot indexing is a shift and a mask.
_L0_BITS = 10                      # 1024 slots of 1 ms
_L0_SLOTS = 1 << _L0_BITS
_L0_MASK = _L0_SLOTS - 1
_L1_BITS = 8                       # 256 slots of 1.024 s
_L1_SLOTS = 1 << _L1_BITS
_L1_MASK = _L1_SLOTS - 1
_L1_SPAN = 1 << (_L0_BITS + _L1_BITS)          # 262144 ms ≈ 4.4 min
_L2_BITS = 6                       # 64 slots of ~4.4 min
_L2_SLOTS = 1 << _L2_BITS
_L2_MASK = _L2_SLOTS - 1
_L2_SHIFT = _L0_BITS + _L1_BITS
_WHEEL_SPAN = 1 << (_L0_BITS + _L1_BITS + _L2_BITS)  # ≈ 4.66 h

#: compaction trigger: at least this many tombstones, *and* tombstones
#: outnumbering live entries (see Timer.cancel)
_COMPACT_MIN_TOMBSTONES = 512


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class ProcessFailure(SimulationError):
    """Raised when waiting on a process that terminated with an exception."""

    def __init__(self, process: "Process", cause: BaseException):
        super().__init__(f"process {process.name!r} failed: {cause!r}")
        self.process = process
        self.cause = cause


class Future:
    """A one-shot container for a value produced at a later simulated time.

    A future starts *pending* and transitions exactly once to either
    *resolved* (with a value) or *failed* (with an exception).  Processes
    wait on futures by yielding them; plain callbacks can be attached with
    :meth:`add_callback`.
    """

    __slots__ = (
        "_sim", "_done", "_value", "_exception", "_callbacks", "name", "label",
    )

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []
        self.name = name
        #: ownership label inherited from the event being executed when
        #: the future was created (``Simulator.exec_label``).  ``None``
        #: outside controlled runs; the schedule explorer's
        #: partial-order reduction uses it to attribute sleep wake-ups
        #: and process resumptions to the node whose code created them
        #: (see :mod:`repro.mc.por`).
        self.label = sim.exec_label

    # -- state inspection -------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the future has been resolved or failed."""
        return self._done

    @property
    def failed(self) -> bool:
        """True if the future completed with an exception."""
        return self._done and self._exception is not None

    @property
    def value(self) -> Any:
        """The resolved value.

        Raises the stored exception if the future failed, and
        :class:`SimulationError` if it is still pending.
        """
        if not self._done:
            raise SimulationError(f"future {self.name!r} is still pending")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The stored exception, or ``None``."""
        return self._exception

    # -- completion -------------------------------------------------------

    def resolve(self, value: Any = None) -> None:
        """Complete the future with *value* and fire callbacks."""
        if self._done:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._done = True
        self._value = value
        self._fire()

    def fail(self, exception: BaseException) -> None:
        """Complete the future with an exception and fire callbacks."""
        if self._done:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._done = True
        self._exception = exception
        self._fire()

    def try_resolve(self, value: Any = None) -> bool:
        """Resolve if still pending; return whether this call completed it."""
        if self._done:
            return False
        self.resolve(value)
        return True

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        """Call ``fn(self)`` when the future completes.

        If the future is already complete, the callback is scheduled to run
        at the current simulated time (never synchronously), which keeps
        event ordering deterministic.
        """
        if self._done:
            self._sim.call_soon(fn, self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        if not callbacks:
            return
        # Fast lane: enqueue directly on the ready deque (equivalent to
        # one call_soon per callback, minus the method dispatch).
        args = (self,)
        ready = self._sim._ready
        for fn in callbacks:
            ready.append((None, fn, args))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._done:
            state = "failed" if self._exception is not None else "resolved"
        return f"<Future {self.name!r} {state}>"


class Process(Future):
    """A running generator coroutine.

    A process is itself a :class:`Future` that resolves with the
    generator's return value (or fails with its uncaught exception), so
    processes can wait on each other simply by yielding.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        self._generator = generator
        sim.call_soon(self._step, None, None)

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        """Advance the generator by one yield."""
        try:
            if throw_exc is not None:
                yielded = self._generator.throw(throw_exc)
            else:
                yielded = self._generator.send(send_value)
        except StopIteration as stop:
            self.resolve(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into the future
            self.fail(exc)
            return

        if not isinstance(yielded, Future):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {yielded!r}; "
                    "processes may only yield Future/Process objects"
                )
            )
            return
        yielded.add_callback(self._resume)

    def _resume(self, future: Future) -> None:
        if future.failed:
            exc = future.exception
            if isinstance(future, Process) and not isinstance(exc, ProcessFailure):
                exc = ProcessFailure(future, exc)
            self._step(None, exc)
        else:
            self._step(future._value, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'done' if self.done else 'running'}>"


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Wheel-resident timers carry a back-reference to their simulator so
    cancellation can maintain the tombstone count that drives compaction;
    the kernel clears it once the timer leaves the wheel.  Ready-lane
    (zero-delay) timers drain within the current instant and are not
    tracked.
    """

    __slots__ = ("_cancelled", "when", "_sim")

    def __init__(self, when: float, sim: Optional["Simulator"] = None) -> None:
        self.when = when
        self._cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if not self._cancelled:
            self._cancelled = True
            sim = self._sim
            if sim is not None:
                # Still on the wheel: count the tombstone.  Once tombstones
                # both exceed a floor and outnumber live entries, compaction
                # sweeps them out, so the pending set stays bounded by ~2x
                # the live timer count even under cancel/renew churn (the
                # renewal-keeper pattern).
                sim._cancelled_pending = pending = sim._cancelled_pending + 1
                if (pending >= _COMPACT_MIN_TOMBSTONES
                        and pending * 2 > sim._timer_count):
                    sim._compact()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class ScheduleController:
    """Pluggable same-instant scheduling hook — the schedule-space
    explorer's entry point (see :mod:`repro.mc`).

    Installing a controller (``sim.controller = ctl``) switches
    :meth:`Simulator.run` onto a *controlled* loop: whenever more than
    one event is runnable at the current simulated instant — ready-lane
    entries and due wheel timers together — the controller picks which
    executes next, so an explorer can permute exactly the orderings the
    canonical ``(time, seq)`` merge fixes arbitrarily.  The
    :class:`~repro.sim.network.Network` additionally consults
    :meth:`message_delay` for every accepted message, letting a
    controller defer individual deliveries — legal behaviour under the
    paper's asynchronous network model, which permits arbitrary message
    delay and reordering, so any safety violation found this way is a
    real protocol bug, not an artifact.

    The base implementation reproduces the canonical order exactly
    (``tests/test_mc_kernel.py`` locks this in); ``repro.mc`` builds
    recording, replaying, and exploring controllers on top of it.
    """

    #: opt-in: controllers that need the slot *contents* (not just its
    #: size) — e.g. to derive per-event footprints for partial-order
    #: reduction — set this True, and the controlled loop consults
    #: :meth:`choose_event_slot` / :meth:`note_executed` instead of the
    #: plain :meth:`choose_event`.  Default False keeps every existing
    #: controller (and its ``choose_event`` signature) working untouched.
    wants_slot = False

    def choose_event(self, n: int) -> int:
        """Index (``0 <= i < n``) of the next event to execute among the
        *n* runnable at this instant, presented in canonical order."""
        return 0

    def choose_event_slot(self, slot: List[tuple]) -> int:
        """Slot-aware variant of :meth:`choose_event`, consulted instead
        when :attr:`wants_slot` is True.  *slot* is the list of
        ``(timer_or_None, fn, args)`` entries runnable at this instant,
        in canonical order; the controller may inspect (but must not
        mutate) it.  The default delegates to :meth:`choose_event`."""
        return self.choose_event(len(slot))

    def note_executed(self, entry: tuple) -> Optional[str]:
        """Called (only when :attr:`wants_slot` is True) immediately
        before each controlled event executes — including singleton
        slots that never reach :meth:`choose_event_slot`.  Returns an
        optional ownership label; the kernel publishes it as
        ``Simulator.exec_label`` for the duration of the event, so
        futures created during execution inherit their owner."""
        return None

    def message_delay(self, message: Any, delay: float) -> float:
        """Delivery delay for *message*; *delay* is the delay-model draw
        (plus link degradation).  Must return a value ``>= 0``."""
        return delay


class Simulator:
    """The event loop: simulated clock plus a deterministic event queue.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random number generator.  Two runs
        with the same seed and the same inputs produce identical traces.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: float = 0.0
        #: zero-delay fast lane: FIFO of ``(timer_or_None, fn, args)``
        #: entries, all due at the current instant.  Invariant: whenever
        #: the deque is non-empty, every wheel entry is due strictly
        #: later than ``now`` (the run loop drains due timers into the
        #: deque before executing anything at a new instant), so FIFO
        #: order is schedule order and no per-entry sequence number is
        #: needed.
        self._ready: deque = deque()
        #: hierarchical timing wheel.  Each slot is an unsorted list of
        #: ``(when, seq, timer_or_None, fn, args)`` entries; level-0
        #: slots are sorted on dispatch.  ``_cur`` is the level-0 cursor
        #: (integer ms).  It may sit *ahead* of ``int(now)`` after an
        #: advance jumped to the earliest pending deadline and the run
        #: stopped short (``until``/``max_events``): the span between is
        #: guaranteed empty, and inserts below the cursor clamp into the
        #: cursor's own slot — the entry keeps its true ``when``, so the
        #: per-slot sort restores dispatch order.  The cursor must never
        #: be moved backward: a cross-window jump cascades that window's
        #: level-1 slot into level 0, and rewinding would strand those
        #: entries where :meth:`_advance` (which only consults the
        #: coarser levels) cannot see them.
        self._l0: List[list] = [[] for _ in range(_L0_SLOTS)]
        self._l1: List[list] = [[] for _ in range(_L1_SLOTS)]
        self._l2: List[list] = [[] for _ in range(_L2_SLOTS)]
        self._overflow: List = []          # heap, deadlines beyond the wheel
        self._cur = 0
        #: pending wheel entries (wheel + overflow), including
        #: not-yet-collected tombstones
        self._timer_count = 0
        #: cancelled-but-still-resident entries; drives compaction
        self._cancelled_pending = 0
        self._sequence = 0
        self.rng = random.Random(seed)
        self.seed = seed
        self._events_processed = 0
        #: optional :class:`ScheduleController`; ``None`` (the default)
        #: keeps the fast two-lane run loop
        self.controller: Optional[ScheduleController] = None
        #: ownership label of the event currently executing on the
        #: controlled path (set from ``controller.note_executed`` when
        #: the controller opts in via ``wants_slot``); always ``None``
        #: on the fast path.  Freshly created futures snapshot it.
        self.exec_label: Optional[str] = None

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for budget assertions)."""
        return self._events_processed

    @property
    def timer_depth(self) -> int:
        """Pending timer-lane entries (wheel + overflow), including
        cancellation tombstones not yet collected.  A timer leaves the
        count when it is dispatched or its tombstone is swept, so
        cancelling a handle after it fired changes nothing.  The ready
        lane is not included (see ``len(sim._ready)``)."""
        return self._timer_count

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Run ``fn(*args)`` after *delay* milliseconds; return a Timer.

        Zero-delay events go on the ready deque (no wheel traffic) but
        still get a :class:`Timer`, so they stay cancellable up to the
        instant they fire.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        when = self._now + delay
        if delay == 0:
            timer = Timer(when)
            self._ready.append((timer, fn, args))
            return timer
        timer = Timer(when, self)
        self._sequence = seq = self._sequence + 1
        self._insert((when, seq, timer, fn, args))
        return timer

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current simulated time.

        The fast lane: no :class:`Timer` is allocated and no handle is
        returned — ``call_soon`` events are not cancellable.  Use
        ``schedule(0.0, ...)`` when cancellation is needed.
        """
        self._ready.append((None, fn, args))

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after *delay* ms without a cancellation handle.

        The timer-lane sibling of :meth:`call_soon`: no :class:`Timer`
        is allocated, so fire-and-forget deadlines (network deliveries,
        one-shot protocol steps) cost one wheel append and nothing else.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if delay == 0:
            self._ready.append((None, fn, args))
            return
        self._sequence = seq = self._sequence + 1
        self._insert((self._now + delay, seq, None, fn, args))

    def schedule_many(
        self, delays: Sequence[float], fn: Callable, *args: Any,
        handles: bool = True,
    ) -> Optional[List[Timer]]:
        """Schedule ``fn(*args)`` once per delay in *delays*.

        Equivalent to calling :meth:`schedule` (or, with
        ``handles=False``, :meth:`call_later`) once per delay in list
        order, so sequence numbers — and with them execution order — are
        assigned in list order.  Returns the :class:`Timer` list, or
        ``None`` with ``handles=False``.  All delays must be positive:
        batch members land on the wheel, never on the ready lane.
        """
        if not delays:
            return [] if handles else None
        lo = min(delays)
        if lo <= 0:
            raise SimulationError(
                f"schedule_many requires positive delays (got {lo})"
            )
        if handles:
            return [self.schedule(d, fn, *args) for d in delays]
        for d in delays:
            self.call_later(d, fn, *args)
        return None

    def schedule_each(
        self, delays: Sequence[float], fn: Callable, items: Sequence[Any],
    ) -> None:
        """Batch variant of :meth:`call_later` with one argument per entry:
        ``fn(items[i])`` runs after ``delays[i]`` ms.

        Equivalent to a loop of ``call_later(delays[i], fn, items[i])``
        in list order.  No handles are returned; all delays must be
        positive.
        """
        if len(delays) != len(items):
            raise SimulationError("schedule_each requires len(delays) == len(items)")
        if not delays:
            return
        lo = min(delays)
        if lo <= 0:
            raise SimulationError(
                f"schedule_each requires positive delays (got {lo})"
            )
        for d, item in zip(delays, items):
            self.call_later(d, fn, item)

    def sleep(self, delay: float) -> Future:
        """Return a future that resolves after *delay* milliseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        future = Future(self, name=f"sleep({delay})")
        # Sleeps are never cancelled: skip the Timer allocation.
        if delay == 0:
            self._ready.append((None, future.resolve, (None,)))
        else:
            self._sequence += 1
            self._insert(
                (self._now + delay, self._sequence, None, future.resolve, (None,))
            )
        return future

    def future(self, name: str = "") -> Future:
        """Create a fresh pending future bound to this simulator."""
        return Future(self, name)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a generator as a process; returns the Process future."""
        return Process(self, generator, name)

    # -- wheel internals --------------------------------------------------

    def _insert(self, entry: tuple) -> None:
        """Place one ``(when, seq, timer, fn, args)`` entry on the wheel."""
        t = int(entry[0])
        cur = self._cur
        if t < cur:
            t = cur
        if (t | _L0_MASK) == (cur | _L0_MASK):
            self._l0[t & _L0_MASK].append(entry)
        else:
            d = t - cur
            if d < _L1_SPAN:
                self._l1[(t >> _L0_BITS) & _L1_MASK].append(entry)
            elif d < _WHEEL_SPAN:
                self._l2[(t >> _L2_SHIFT) & _L2_MASK].append(entry)
            else:
                heapq.heappush(self._overflow, entry)
        self._timer_count += 1

    def _scatter(self, batch: List[tuple]) -> None:
        """Re-distribute cascaded entries relative to the current cursor,
        dropping cancellation tombstones."""
        for entry in batch:
            timer = entry[2]
            if timer is not None and timer._cancelled:
                self._cancelled_pending -= 1
                self._timer_count -= 1
                continue
            self._timer_count -= 1  # _insert re-counts it
            self._insert(entry)

    def _advance(self) -> bool:
        """Move the cursor to the next span with pending work, cascading
        coarser wheel levels down.  Returns False when the timer lane is
        completely empty (the run loop then stops)."""
        cur = self._cur
        overflow = self._overflow
        if overflow:
            # Far-future deadlines re-enter the wheel as soon as the
            # cursor is within a wheel span of them.
            lim = cur + _WHEEL_SPAN
            popped = False
            while overflow and int(overflow[0][0]) < lim:
                entry = heapq.heappop(overflow)
                self._timer_count -= 1
                self._insert(entry)
                popped = True
            if popped:
                # A popped entry may have landed in the *current* level-0
                # window (the cursor was already moved to its deadline by
                # a previous advance), which the occupancy scan below
                # never consults — let the run loop re-scan level 0
                # first; the next advance call sees the rest on the
                # coarser levels.
                return True
        best: Optional[int] = None
        base1 = cur & ~(_L1_SPAN - 1)
        l1 = self._l1
        for j in range(_L1_SLOTS):
            if l1[j]:
                occ = base1 | (j << _L0_BITS)
                if occ <= cur:
                    occ += _L1_SPAN
                if best is None or occ < best:
                    best = occ
        base2 = cur & ~(_WHEEL_SPAN - 1)
        l2 = self._l2
        for k in range(_L2_SLOTS):
            if l2[k]:
                occ = base2 | (k << _L2_SHIFT)
                if occ <= cur:
                    occ += _WHEEL_SPAN
                if best is None or occ < best:
                    best = occ
        if overflow:
            occ = int(overflow[0][0])
            if best is None or occ < best:
                best = occ
        if best is None:
            return False
        nxt = (cur | _L0_MASK) + 1
        if best < nxt:
            best = nxt
        self._cur = best
        k = (best >> _L2_SHIFT) & _L2_MASK
        if l2[k]:
            batch = l2[k]
            l2[k] = []
            self._scatter(batch)
        j = (best >> _L0_BITS) & _L1_MASK
        if l1[j]:
            batch = l1[j]
            l1[j] = []
            self._scatter(batch)
        return True

    def _compact(self) -> None:
        """Sweep cancellation tombstones out of every wheel level: each
        slot and the overflow heap are filtered in place."""
        dropped = 0
        for level in (self._l0, self._l1, self._l2):
            for idx in range(len(level)):
                slot = level[idx]
                if not slot:
                    continue
                keep = []
                ka = keep.append
                for entry in slot:
                    timer = entry[2]
                    if timer is not None and timer._cancelled:
                        dropped += 1
                    else:
                        ka(entry)
                if len(keep) != len(slot):
                    level[idx] = keep
        if self._overflow:
            keep = []
            for entry in self._overflow:
                timer = entry[2]
                if timer is not None and timer._cancelled:
                    dropped += 1
                else:
                    keep.append(entry)
            heapq.heapify(keep)
            self._overflow = keep
        self._timer_count -= dropped
        self._cancelled_pending = 0

    def iter_pending(self) -> Iterator[Tuple[Optional[Timer], Callable, tuple]]:
        """Iterate live pending callbacks as ``(timer, fn, args)`` triples.

        Covers both lanes — the ready deque, every wheel level, and the
        overflow heap — in no particular order.  Cancelled entries are
        skipped.  Introspection only (liveness oracles, debugging);
        mutating the kernel while iterating is undefined.
        """
        for timer, fn, args in self._ready:
            if timer is not None and timer._cancelled:
                continue
            yield (timer, fn, args)
        for level in (self._l0, self._l1, self._l2):
            for slot in level:
                for entry in slot:
                    timer = entry[2]
                    if timer is not None and timer._cancelled:
                        continue
                    yield (timer, entry[3], entry[4])
        for entry in self._overflow:
            timer = entry[2]
            if timer is not None and timer._cancelled:
                continue
            yield (timer, entry[3], entry[4])

    # -- execution --------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Execute events until the queue drains, *until* is reached, or
        *max_events* have run.  Returns the simulated time afterwards.

        When stopped by *until*, the clock is advanced exactly to *until*
        so a subsequent ``run`` continues from there.

        The loop preserves strict global ``(time, seq)`` order across the
        two lanes: the ready deque is always drained before the clock
        advances, and when it does advance, *all* timers due at the new
        instant are moved onto the deque (in ``(time, seq)`` order)
        before anything at that instant executes, so later ``call_soon``
        work lands behind them — exactly the old single-queue
        interleaving.  ``events_processed`` is flushed when the loop
        exits, not per event.
        """
        if self.controller is not None:
            return self._run_controlled(until, max_events)
        processed = 0
        ready = self._ready
        l0 = self._l0
        counted = max_events is not None
        try:
            while True:
                if ready:
                    if until is not None and self._now > until:
                        self._now = until
                        return self._now
                    if counted:
                        while ready:
                            if processed >= max_events:
                                return self._now
                            timer, fn, args = ready.popleft()
                            if timer is not None and timer._cancelled:
                                continue
                            processed += 1
                            fn(*args)
                    else:
                        while ready:
                            timer, fn, args = ready.popleft()
                            if timer is not None and timer._cancelled:
                                continue
                            processed += 1
                            fn(*args)
                # -- timer lane: walk the wheel to the next pending slot
                if not self._timer_count:
                    break
                cur = self._cur
                base = cur & ~_L0_MASK
                s = cur - base
                while s < _L0_SLOTS and not l0[s]:
                    s += 1
                if s == _L0_SLOTS:
                    if not self._advance():
                        break
                    continue
                s_abs = base + s
                self._cur = s_abs
                slot = l0[s]
                n = len(slot)
                if n > 1:
                    slot.sort()
                if until is not None and slot[0][0] > until:
                    self._now = until
                    return self._now
                # Dispatch the whole slot inline.  Between entries only a
                # cheap emptiness probe is needed: work scheduled *during*
                # an entry's execution can only precede the slot's
                # remaining entries by landing on the ready deque or in this
                # very slot (inserts below the cursor clamp here) — anything
                # later can wait.  When the probe fires, the unexecuted
                # suffix is pushed back and the outer loop re-sorts, exactly
                # reproducing the global ``(time, seq)`` merge.
                l0[s] = []
                self._timer_count -= n
                # ``until`` can only cut inside this slot if it lies before
                # the slot's end; otherwise skip the per-entry compare.
                guard = until is not None and until < s_abs + 1
                i = 0
                while i < n:
                    entry = slot[i]
                    when = entry[0]
                    if guard and when > until:
                        self._now = until
                        rest = slot[i:]
                        self._timer_count += n - i
                        if l0[s]:
                            rest.extend(l0[s])
                        l0[s] = rest
                        return self._now
                    if counted and processed >= max_events:
                        rest = slot[i:]
                        self._timer_count += n - i
                        if l0[s]:
                            rest.extend(l0[s])
                        l0[s] = rest
                        return self._now
                    timer = entry[2]
                    i += 1
                    if timer is not None and timer._cancelled:
                        self._cancelled_pending -= 1
                        continue
                    if i < n and slot[i][0] == when:
                        # Same-instant group: move the rest of the instant
                        # to the ready lane (already in seq order) so later
                        # call_soon work lands behind it.
                        k = i + 1
                        while k < n and slot[k][0] == when:
                            k += 1
                        for j in range(i, k):
                            later = slot[j]
                            t2 = later[2]
                            if t2 is not None:
                                # leaving the wheel: tombstone accounting is
                                # the ready lane's (purge-on-pop) from here
                                t2._sim = None
                                if t2._cancelled:
                                    self._cancelled_pending -= 1
                            ready.append((t2, later[3], later[4]))
                        i = k
                    self._now = when
                    processed += 1
                    entry[3](*entry[4])
                    if timer is not None:
                        # off the wheel: a later cancel must not count a
                        # tombstone
                        timer._sim = None
                    if ready or l0[s]:
                        if i < n:
                            rest = slot[i:]
                            self._timer_count += n - i
                            if l0[s]:
                                rest.extend(l0[s])
                            l0[s] = rest
                        break
        finally:
            self._events_processed += processed
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _take_instant(self, until: Optional[float]):
        """Controlled-path helper: remove and return the next same-instant
        group of live timer entries as ``(when, [(timer, fn, args), ...])``.

        Returns ``None`` when the timer lane is empty and ``"until"``
        when the next live instant lies beyond *until*.
        """
        l0 = self._l0
        while True:
            cur = self._cur
            base = cur & ~_L0_MASK
            s = cur - base
            while s < _L0_SLOTS and not l0[s]:
                s += 1
            if s == _L0_SLOTS:
                if not self._advance():
                    return None
                continue
            self._cur = base + s
            slot = l0[s]
            live = []
            dropped = 0
            for entry in slot:
                timer = entry[2]
                if timer is not None and timer._cancelled:
                    self._cancelled_pending -= 1
                    dropped += 1
                else:
                    live.append(entry)
            self._timer_count -= dropped
            if not live:
                l0[s] = []
                continue
            live.sort()
            when = live[0][0]
            if until is not None and when > until:
                l0[s] = live
                return "until"
            k = 1
            n = len(live)
            while k < n and live[k][0] == when:
                k += 1
            l0[s] = live[k:]
            self._timer_count -= k
            group = []
            for entry in live[:k]:
                timer = entry[2]
                if timer is not None:
                    timer._sim = None
                group.append((timer, entry[3], entry[4]))
            return (when, group)

    def _run_controlled(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> float:
        """The controller path: single-slot scheduling with explicit choice.

        Maintains *slot*, the list of events runnable at the current
        instant in canonical arrival order (wheel timers due at the
        instant first, in ``(time, seq)`` order, then ready-lane work in
        FIFO order as it appears), and asks the controller which to run
        whenever there is more than one.  Under the base
        :class:`ScheduleController` this executes the exact canonical
        order; the fast two-lane path in :meth:`run` is untouched when no
        controller is installed.  Cancelled timers are purged from the
        slot before every choice, so ``n`` only ever counts live events.
        """
        processed = 0
        ready = self._ready
        controller = self.controller
        wants_slot = getattr(controller, "wants_slot", False)
        slot: List[tuple] = []
        try:
            while True:
                if ready:
                    slot.extend(ready)
                    ready.clear()
                if slot:
                    slot[:] = [
                        e for e in slot if e[0] is None or not e[0]._cancelled
                    ]
                if not slot:
                    taken = self._take_instant(until)
                    if taken is None:
                        break
                    if taken == "until":
                        self._now = until
                        return self._now
                    self._now = taken[0]
                    slot.extend(taken[1])
                    continue
                if until is not None and self._now > until:
                    self._now = until
                    return self._now
                if max_events is not None and processed >= max_events:
                    return self._now
                if len(slot) > 1:
                    if wants_slot:
                        index = controller.choose_event_slot(slot)
                    else:
                        index = controller.choose_event(len(slot))
                else:
                    index = 0
                if not 0 <= index < len(slot):
                    index = 0
                entry = slot.pop(index)
                processed += 1
                if wants_slot:
                    self.exec_label = controller.note_executed(entry)
                entry[1](*entry[2])
        finally:
            self._events_processed += processed
            if wants_slot:
                self.exec_label = None
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_process(self, generator: Generator, name: str = "",
                    until: Optional[float] = None) -> Any:
        """Spawn *generator*, run the simulation, and return its result.

        Convenience wrapper for tests and examples.  Raises the process's
        exception if it failed, and :class:`SimulationError` if the event
        queue drained before the process finished.
        """
        process = self.spawn(generator, name=name)
        self.run(until=until)
        if not process.done:
            raise SimulationError(
                f"process {process.name!r} did not finish "
                f"(simulation {'reached time limit' if until is not None else 'drained'})"
            )
        return process.value


def all_of(sim: Simulator, futures: Iterable[Future]) -> Future:
    """Return a future resolving with a list of values once *all* complete.

    If any input fails, the combined future fails with the first failure
    (in completion order).
    """
    futures = list(futures)
    result = Future(sim, name="all_of")
    if not futures:
        sim.call_soon(result.resolve, [])
        return result
    remaining = [len(futures)]

    def on_done(_f: Future) -> None:
        if result.done:
            return
        if _f.failed:
            result.fail(_f.exception)
            return
        remaining[0] -= 1
        if remaining[0] == 0:
            result.resolve([f.value for f in futures])

    for f in futures:
        f.add_callback(on_done)
    return result


def any_of(sim: Simulator, futures: Iterable[Future]) -> Future:
    """Return a future resolving with ``(index, value)`` of the first
    completed input.  A failing input fails the combined future if nothing
    has completed yet.
    """
    futures = list(futures)
    if not futures:
        raise SimulationError("any_of requires at least one future")
    result = Future(sim, name="any_of")

    def make_callback(index: int) -> Callable[[Future], None]:
        def on_done(f: Future) -> None:
            if result.done:
                return
            if f.failed:
                result.fail(f.exception)
            else:
                result.resolve((index, f.value))

        return on_done

    for i, f in enumerate(futures):
        f.add_callback(make_callback(i))
    return result
