"""Hierarchical timing-wheel satellites: batch scheduling equivalence,
tombstone compaction bounds, same-instant merge order on wheel-resident
timers, and mid-slot ``until`` semantics.

The golden-trace byte-identity tests in ``test_sim_kernel.py`` and
``test_mc_kernel.py`` pin the canonical order itself; this module pins
the wheel-specific machinery added around it.
"""

import random

import pytest

from repro.sim.kernel import (
    ScheduleController,
    SimulationError,
    Simulator,
)


# -- batch scheduling equivalence ---------------------------------------------


def _fire_log(sim, log, tag):
    log.append((round(sim.now, 6), tag))


class TestBatchScheduling:
    def test_schedule_many_matches_schedule_loop(self):
        """A batch fires identically to N individual schedules,
        including interleaved cancellation of half the handles."""
        rng = random.Random(5)
        delays = [rng.uniform(0.5, 5000.0) for _ in range(300)]

        def scripted(batch):
            sim = Simulator(seed=0)
            log = []
            if batch:
                timers = sim.schedule_many(delays, _fire_log, sim, log, "t")
            else:
                timers = [sim.schedule(d, _fire_log, sim, log, "t") for d in delays]
            for t in timers[::2]:
                t.cancel()
            sim.run(until=2500.0)
            mid = len(log)
            sim.run()
            return log, mid, sim.now

        assert scripted(True) == scripted(False)

    def test_schedule_each_matches_call_later_loop(self):
        rng = random.Random(9)
        delays = [rng.uniform(0.5, 900.0) for _ in range(128)]
        items = list(range(128))

        def scripted(batch):
            sim = Simulator(seed=0)
            log = []
            if batch:
                sim.schedule_each(delays, log.append, items)
            else:
                for d, item in zip(delays, items):
                    sim.call_later(d, log.append, item)
            sim.run()
            return log, sim.now

        assert scripted(True) == scripted(False)

    def test_batch_interleaves_with_later_singles_by_sequence(self):
        """Sequence numbers span batch and non-batch scheduling: a batch
        member and a single timer due at the same instant fire in the
        order they were scheduled."""
        sim = Simulator(seed=0)
        log = []
        sim.schedule_many([5.0, 5.0], log.append, "batch")
        sim.schedule(5.0, log.append, "single")
        sim.run()
        assert log == ["batch", "batch", "single"]

        sim = Simulator(seed=0)
        log = []
        sim.schedule(5.0, log.append, "single")
        sim.schedule_many([5.0, 5.0], log.append, "batch")
        sim.run()
        assert log == ["single", "batch", "batch"]

    def test_batch_spanning_all_levels_and_overflow(self):
        """One batch scattering over L0, L1, L2 and the overflow heap
        still fires in global time order."""
        sim = Simulator(seed=0)
        log = []
        delays = [3.0, 1500.0, 400_000.0, 20_000_000.0, 7.0]
        sim.schedule_many(delays, _fire_log, sim, log, "x")
        sim.run()
        assert [t for t, _ in log] == sorted(t for t, _ in log)
        assert len(log) == len(delays)
        assert sim.now == pytest.approx(20_000_000.0)

    def test_non_positive_batch_delays_rejected(self):
        sim = Simulator(seed=0)
        with pytest.raises(SimulationError):
            sim.schedule_many([1.0, 0.0], lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_each([1.0, -2.0], lambda x: None, [1, 2])
        with pytest.raises(SimulationError):
            sim.schedule_each([1.0], lambda x: None, [1, 2])

    def test_empty_batches_are_noops(self):
        sim = Simulator(seed=0)
        assert sim.schedule_many([], lambda: None) == []
        assert sim.schedule_many([], lambda: None, handles=False) is None
        sim.schedule_each([], lambda x: None, [])
        assert sim.timer_depth == 0

    def test_cancelled_batch_handles_never_fire(self):
        """Cancelling every handle a batch returned leaves tombstones
        that never fire and are all collected by the run."""
        sim = Simulator(seed=0)
        log = []
        timers = sim.schedule_many([50.0] * 10, log.append, "t")
        for t in timers:
            t.cancel()
        assert sim.timer_depth == 10  # tombstones until swept
        sim.run()
        assert log == []
        assert sim.timer_depth == 0


# -- tombstone compaction ------------------------------------------------------


class TestTombstoneCompaction:
    def test_cancel_heavy_pending_set_stays_bounded(self):
        """The renewal-keeper workload: every operation cancels a pending
        timer and schedules a replacement.  Compaction keeps the pending
        set (live + tombstones) bounded near 2x the live population —
        the legacy heap would retain all ~40k tombstones here."""
        sim = Simulator(seed=0)
        keepers = 400
        rng = random.Random(3)
        pending = [sim.schedule(rng.uniform(300.0, 500.0), lambda: None)
                   for _ in range(keepers)]
        max_depth = sim.timer_depth
        for _ in range(100):
            for i in range(keepers):
                pending[i].cancel()
                pending[i] = sim.schedule(rng.uniform(300.0, 500.0), lambda: None)
            sim.run(until=sim.now + 1.0)
            max_depth = max(max_depth, sim.timer_depth)
        # Policy: compact once tombstones exceed both the 512 floor and
        # the live count, so depth stays under 2*live + floor (+ one
        # round of slack for the trigger granularity).
        bound = 2 * keepers + 512 + keepers
        assert max_depth <= bound, f"pending set grew to {max_depth} > {bound}"
        assert sim.timer_depth <= bound

    @pytest.mark.parametrize("controlled", [False, True])
    def test_cancel_after_fire_leaves_no_tombstones(self, controlled):
        """Cancelling caller-held handles after they fired is a no-op for
        the kernel: no tombstone is counted and the pending count stays
        0, on every route a timer leaves the wheel (lone dispatch, a
        same-instant group moved to the ready lane, cascade from L1/L2,
        the overflow heap, the controlled loop) — and enough late cancels
        to pass the compaction floor trigger no sweep."""
        sim = Simulator(seed=0)
        if controlled:
            sim.controller = ScheduleController()
        log = []
        delays = [3.0, 5.0, 5.0, 5.0, 1500.0, 400_000.0, 20_000_000.0]
        delays += [7.0 + i * 0.25 for i in range(600)]
        handles = [sim.schedule(d, log.append, d) for d in delays]
        sim.run()
        assert len(log) == len(delays)
        assert sim.timer_depth == 0
        for t in handles:
            t.cancel()
            assert t.cancelled
        assert sim.timer_depth == 0
        assert sim._cancelled_pending == 0

    def test_compaction_preserves_live_timers(self):
        """A compaction sweep triggered by mass cancellation must not
        disturb live timers anywhere on the wheel."""
        sim = Simulator(seed=0)
        log = []
        live = [(d, sim.schedule(d, _fire_log, sim, log, "live"))
                for d in (5.0, 900.0, 2_000.0, 300_000.0, 17_000_000.0)]
        doomed = [sim.schedule(100.0 + i * 0.01, lambda: None)
                  for i in range(2000)]
        for t in doomed:
            t.cancel()  # tombstones > live triggers a sweep
        assert sim.timer_depth <= len(live) + 512 + 1
        sim.run()
        assert len(log) == len(live)
        assert [t for t, _ in log] == sorted(round(d, 6) for d, _ in live)


# -- same-instant merge order on wheel-resident timers -------------------------


class _Recorder(ScheduleController):
    """Canonical order, recording the slot sizes offered."""

    def __init__(self):
        self.offered = []

    def choose_event(self, n):
        self.offered.append(n)
        return 0


class _Reverser(ScheduleController):
    def choose_event(self, n):
        return n - 1


class TestControlledWheel:
    def _populate(self, sim, log):
        # Three wheel-resident timers due at the same instant (one from a
        # batch), plus one a millisecond later.
        sim.schedule(5.0, log.append, "a")
        sim.schedule_many([5.0], log.append, "b")
        sim.schedule(5.0, log.append, "c")
        sim.schedule(6.0, log.append, "d")

    def test_base_controller_matches_fast_path(self):
        fast_log, ctl_log = [], []
        sim = Simulator(seed=0)
        self._populate(sim, fast_log)
        sim.run()

        sim = Simulator(seed=0)
        sim.controller = ScheduleController()
        self._populate(sim, ctl_log)
        sim.run()
        assert ctl_log == fast_log == ["a", "b", "c", "d"]

    def test_same_instant_wheel_timers_offered_as_one_slot(self):
        sim = Simulator(seed=0)
        rec = _Recorder()
        sim.controller = rec
        log = []
        self._populate(sim, log)
        sim.run()
        # One 3-way choice for t=5; the singleton at t=6 is not offered.
        assert rec.offered == [3, 2]
        assert log == ["a", "b", "c", "d"]

    def test_reversed_choice_permutes_only_the_instant(self):
        sim = Simulator(seed=0)
        sim.controller = _Reverser()
        log = []
        self._populate(sim, log)
        sim.run()
        assert log == ["c", "b", "a", "d"]


# -- run(until=...) boundary semantics on the wheel ----------------------------


class TestUntilBoundaries:
    def test_until_cuts_inside_a_slot(self):
        """Two timers in the same 1 ms slot on either side of ``until``:
        the run stops exactly between them and a later run resumes."""
        sim = Simulator(seed=0)
        log = []
        sim.schedule(5.2, log.append, "early")
        sim.schedule(5.8, log.append, "late")
        sim.run(until=5.5)
        assert log == ["early"]
        assert sim.now == 5.5
        assert sim.timer_depth == 1
        sim.run()
        assert log == ["early", "late"]

    def test_chunked_runs_match_single_run(self):
        """Many 1 ms-sliced runs (the repro.mc runner pattern) produce the
        same dispatch order and times as one uninterrupted run."""
        rng = random.Random(21)
        delays = [rng.uniform(0.1, 80.0) for _ in range(200)]

        def scripted(chunked):
            sim = Simulator(seed=0)
            log = []
            timers = sim.schedule_many(delays, _fire_log, sim, log, "t")
            for t in timers[::3]:
                t.cancel()
            if chunked:
                while sim.timer_depth:
                    sim.run(until=sim.now + 1.0)
            else:
                sim.run()
            return log

        assert scripted(True) == scripted(False)

    def test_schedule_after_stopped_run_lands_behind_cursor(self):
        """After a run stops with the cursor ahead of the clock, a new
        short-delay timer still fires at its true time (the clamped-slot
        re-sort path)."""
        sim = Simulator(seed=0)
        log = []
        sim.schedule(100.0, log.append, "far")
        sim.run(until=50.0)  # cursor may sit ahead of int(now)
        sim.schedule(1.0, log.append, "near")
        sim.run()
        assert log == ["near", "far"]


# -- misc wheel internals ------------------------------------------------------


class TestWheelInternals:
    def test_timer_depth_counts_all_residences(self):
        sim = Simulator(seed=0)
        sim.schedule(5.0, lambda: None)                  # L0
        sim.schedule(5_000.0, lambda: None)              # L1
        sim.schedule(500_000.0, lambda: None)            # L2
        sim.schedule(30_000_000.0, lambda: None)         # overflow
        sim.schedule_many([42.0, 43.0], lambda: None)    # batch
        assert sim.timer_depth == 6
        sim.run()
        assert sim.timer_depth == 0

    def test_iter_pending_covers_batches_and_wheel(self):
        sim = Simulator(seed=0)
        fn = lambda: None  # noqa: E731
        sim.schedule(5.0, fn)
        sim.schedule_many([10.0, 20.0], fn)
        sim.schedule_each([30.0], fn, ["x"])
        cancelled = sim.schedule(40.0, fn)
        cancelled.cancel()
        pending = list(sim.iter_pending())
        assert len(pending) == 4
        assert all(cb is fn for _, cb, _ in pending)

    def test_events_processed_counts_wheel_dispatch(self):
        sim = Simulator(seed=0)
        sim.schedule_many([1.0, 2.0, 3.0], lambda: None)
        sim.call_soon(lambda: None)
        sim.run()
        assert sim.events_processed == 4
