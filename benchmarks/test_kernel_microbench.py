"""Kernel micro-benchmark — events/sec and per-event overhead.

Measures the simulation kernel's raw event throughput on four
workloads and compares it, in the same process on the same hardware,
against ``LegacySimulator`` — a faithful copy of the pre-fast-lane
kernel (single ``(time, seq)`` heap, one ``Timer`` allocation per
event) kept here as the permanent "before" baseline:

* ``soon_storm``   — bursts of ``call_soon`` no-ops: the pure
  zero-delay lane (future callbacks, process trampolining);
* ``trampoline``   — each event schedules the next via ``call_soon``:
  the generator micro-step pattern;
* ``timer_wheel``  — the steady-state timer mix of a running protocol
  sim: a large standing lease population, with rounds of short-delay
  deliveries, scheduled-then-cancelled retransmissions, and lease
  renewals replacing cancelled standing timers.  The hierarchical
  wheel inserts in O(1) and sorts only the slot being dispatched; the
  legacy heap pays O(log population) per operation on a 100k+ heap;
* ``lease_churn``  — cancel-heavy keeper renewal: every operation
  cancels a pending timer and schedules its replacement.  Exercises
  tombstone compaction (the wheel's pending set stays bounded; the
  legacy heap accumulates every tombstone until its deadline).

Results are written to ``BENCH_kernel.json`` at the repo root so the
perf trajectory is tracked across PRs.  Headline assertion: ≥ 3× on
the zero-delay lane; ``timer_wheel`` is held by the smoke regression
gate below, not by a fixed floor.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) runs a smaller event
count, does not rewrite the baseline file, and fails if any workload's
measured speedup ratio degrades more than 20 % against the committed
``BENCH_kernel.json``.  The ratio — not absolute events/sec — is the
regression metric because it is measured against the legacy kernel on
the *same* machine in the *same* run, so it transfers across hardware;
absolute numbers are recorded for trajectory plots only.
"""

import heapq
import json
import os
import random
import subprocess
import sys
import time

from repro.sim.kernel import Simulator

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BENCH_FILE = os.path.join(REPO_ROOT, "BENCH_kernel.json")

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SCALE = 0.25 if SMOKE else 1.0
# Smoke runs gate a ratio against a committed floor, so they need the
# tighter best-of estimate more than they need the wall-clock; at 0.25
# scale the extra rounds are still cheap.
ROUNDS = 7 if SMOKE else 3

MIN_SPEEDUP_READY = 3.0
REGRESSION_TOLERANCE = 0.20


# -- the pre-change kernel, kept verbatim as the measurement baseline ---------

class _LegacyTimer:
    __slots__ = ("_cancelled", "when")

    def __init__(self, when):
        self.when = when
        self._cancelled = False

    def cancel(self):
        self._cancelled = True

    @property
    def cancelled(self):
        return self._cancelled


class LegacySimulator:
    """The kernel before the fast lane: one heap, a Timer per event."""

    def __init__(self, seed=0):
        self._now = 0.0
        self._queue = []
        self._sequence = 0
        self.rng = random.Random(seed)
        self._events_processed = 0

    @property
    def now(self):
        return self._now

    def schedule(self, delay, fn, *args):
        timer = _LegacyTimer(self._now + delay)
        self._sequence += 1
        heapq.heappush(self._queue, (timer.when, self._sequence, timer, fn, args))
        return timer

    def call_soon(self, fn, *args):
        return self.schedule(0.0, fn, *args)

    def run(self, until=None):
        queue = self._queue
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return self._now
            when, _seq, timer, fn, args = heapq.heappop(queue)
            if timer.cancelled:
                continue
            self._now = when
            self._events_processed += 1
            fn(*args)
        if until is not None and until > self._now:
            self._now = until
        return self._now


# -- workloads ----------------------------------------------------------------

def _noop():
    pass


def _soon_storm(make_sim, total_events):
    """Repeated bursts of 1000 pre-loaded zero-delay no-ops."""
    sim = make_sim()
    burst = 1000
    rounds = max(1, total_events // burst)
    start = time.perf_counter()
    for _ in range(rounds):
        for _ in range(burst):
            sim.call_soon(_noop)
        sim.run()
    return rounds * burst / (time.perf_counter() - start)


def _trampoline(make_sim, total_events):
    """A chain where each event schedules the next (generator stepping)."""
    sim = make_sim()
    remaining = [total_events]

    def step():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.call_soon(step)

    sim.call_soon(step)
    start = time.perf_counter()
    sim.run()
    return total_events / (time.perf_counter() - start)


def _timer_wheel(make_sim, total_events):
    """Steady-state timer mix over a large standing lease population.

    Each round: 400 short-delay deliveries (no cancellation handle
    needed), 500 retransmission timers that are scheduled and then
    immediately cancelled (the reply-arrived pattern), and 100 lease
    renewals that replace cancelled standing timers; then the sim runs
    10 ms forward.  The new kernel goes through ``schedule_many``
    (a loop of single wheel insertions); the legacy kernel pays one
    heap push per timer.  The pre-built standing population is untimed
    setup.
    """
    rng = random.Random(7)
    pop = max(1000, int(200_000 * SCALE))
    rounds = max(10, total_events // 1000)
    lease_pre = [rng.uniform(30_000.0, 100_000.0) for _ in range(pop)]
    deliver_d = [[rng.uniform(8.0, 200.0) for _ in range(400)] for _ in range(rounds)]
    retrans_d = [[rng.uniform(100.0, 900.0) for _ in range(500)] for _ in range(rounds)]
    renew_d = [[rng.uniform(30_000.0, 100_000.0) for _ in range(100)] for _ in range(rounds)]

    sim = make_sim()
    batched = hasattr(sim, "schedule_many")
    if batched:
        standing = sim.schedule_many(lease_pre, _noop)
    else:
        standing = [sim.schedule(d, _noop) for d in lease_pre]
    si = 0
    start = time.perf_counter()
    for r in range(rounds):
        if batched:
            sim.schedule_many(deliver_d[r], _noop, handles=False)
            retrans = sim.schedule_many(retrans_d[r], _noop)
            renewed = sim.schedule_many(renew_d[r], _noop)
        else:
            sched = sim.schedule
            for d in deliver_d[r]:
                sched(d, _noop)
            retrans = [sched(d, _noop) for d in retrans_d[r]]
            renewed = [sched(d, _noop) for d in renew_d[r]]
        for t in retrans:
            t.cancel()
        retrans = None
        for k in range(100):
            standing[si].cancel()
            standing[si] = renewed[k]
            si += 1
            if si == pop:
                si = 0
        renewed = None
        sim.run(until=sim.now + 10.0)
    return rounds * 1000 / (time.perf_counter() - start)


def _lease_churn(make_sim, total_events):
    """Cancel-heavy keeper renewal: every operation cancels a pending
    timer and schedules its replacement, then the sim creeps forward.

    Almost nothing ever fires — the workload is pure schedule/cancel
    churn.  The wheel's tombstone compaction keeps its pending set
    bounded near the live keeper count; the legacy heap retains every
    tombstone until its deadline would have arrived.
    """
    keepers = max(100, int(2_000 * SCALE))
    rounds = max(1, total_events // keepers)
    rng = random.Random(11)
    delays = [rng.uniform(300.0, 500.0) for _ in range(4096)]

    sim = make_sim()
    pending = [sim.schedule(delays[i & 4095], _noop) for i in range(keepers)]
    di = 0
    start = time.perf_counter()
    for _ in range(rounds):
        for i in range(keepers):
            pending[i].cancel()
            pending[i] = sim.schedule(delays[di & 4095], _noop)
            di += 1
        sim.run(until=sim.now + 1.0)
    return rounds * keepers / (time.perf_counter() - start)


WORKLOADS = {
    "soon_storm": (_soon_storm, 200_000),
    "trampoline": (_trampoline, 200_000),
    "timer_wheel": (_timer_wheel, 300_000),
    "lease_churn": (_lease_churn, 100_000),
}


_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import test_kernel_microbench as bench
from repro.sim.kernel import Simulator
kernel, name = sys.argv[3], sys.argv[4]
workload, events = bench.WORKLOADS[name]
n = max(1000, int(events * bench.SCALE))
if kernel == "both":
    # Interleave fast/legacy rounds so CPU-clock drift on a shared host
    # hits both sides of the ratio and cancels; used by the smoke gate,
    # where the *ratio* is the gated quantity.
    f = l = 0.0
    for _ in range(bench.ROUNDS):
        f = max(f, workload(Simulator, n))
        l = max(l, workload(bench.LegacySimulator, n))
    print(json.dumps([f, l]))
else:
    make_sim = Simulator if kernel == "fast" else bench.LegacySimulator
    print(json.dumps(max(workload(make_sim, n) for _ in range(bench.ROUNDS))))
"""


def _measure(kernel, smoke_scale=SMOKE):
    """Best-of-N events/sec per workload, each (kernel, workload) pair in
    a fresh subprocess.

    Isolation matters on both axes: the 200k-timer workload fragments
    the allocator enough to skew whatever is measured after it in the
    same process, and GC stays *enabled* — it is part of the cost under
    measurement (the legacy heap retains every tombstone until its
    deadline, and that garbage taxes every collection pass; disabling
    GC would hide a real cost of the legacy design).  Best-of-N (max)
    filters scheduler noise within each subprocess.
    """
    env = dict(os.environ)
    if smoke_scale:
        env["REPRO_BENCH_SMOKE"] = "1"
    else:
        env.pop("REPRO_BENCH_SMOKE", None)
    rates = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, "-c", _CHILD,
             os.path.join(REPO_ROOT, "src"), os.path.dirname(__file__),
             kernel, name],
            capture_output=True, text=True, check=True, cwd=REPO_ROOT,
            env=env,
        )
        rates[name] = json.loads(out.stdout)
    return rates


def _measure_smoke_ratios():
    """Smoke-scale speedup ratios, one paired subprocess per workload.

    Fast and legacy rounds are interleaved inside the same child (the
    ``both`` child mode) so frequency scaling and host contention move
    both sides of the ratio together; measuring the two kernels in
    subprocesses half a minute apart makes the ratio swing ±40% on a
    busy host even at best-of-7.
    """
    env = dict(os.environ)
    env["REPRO_BENCH_SMOKE"] = "1"
    fast, legacy = {}, {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, "-c", _CHILD,
             os.path.join(REPO_ROOT, "src"), os.path.dirname(__file__),
             "both", name],
            capture_output=True, text=True, check=True, cwd=REPO_ROOT,
            env=env,
        )
        fast[name], legacy[name] = json.loads(out.stdout)
    return fast, legacy


def test_kernel_events_per_second(emit):
    if SMOKE:
        fast, legacy = _measure_smoke_ratios()
    else:
        fast = _measure("fast")
        legacy = _measure("legacy")
    speedup = {k: fast[k] / legacy[k] for k in WORKLOADS}

    rows = [
        [name, round(legacy[name]), round(fast[name]),
         round(speedup[name], 2),
         round(1e9 / fast[name]), round(1e9 / legacy[name])]
        for name in WORKLOADS
    ]
    from repro.harness import format_table

    table = format_table(
        ["workload", "legacy ev/s", "fast ev/s", "speedup",
         "fast ns/ev", "legacy ns/ev"],
        rows,
        title="Kernel two-lane wheel: events/sec vs the pre-change kernel",
    )
    if SMOKE:
        # Show the numbers in the CI log, but leave the committed
        # results/ table alone — it records the full-scale run.
        print(f"\n=== kernel_microbench (smoke) ===\n{table}")
    else:
        emit("kernel_microbench", table)

    if SMOKE:
        # Leave the committed baseline untouched, but record what this
        # run measured next to it — CI uploads both as the bench
        # artifact, so a regression report always carries its numbers.
        with open(BENCH_FILE + ".smoke", "w") as fh:
            json.dump(
                {
                    "smoke": True,
                    "events_per_sec": {"fast": fast, "legacy": legacy},
                    "speedup": speedup,
                },
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        # CI regression gate against the committed baseline: every
        # workload present in both runs must hold its ratio.  Smoke runs
        # compare against the baseline's *smoke-scale* ratios — the
        # speedups are scale-dependent (at smoke scale the legacy heap
        # never grows enough for its O(log n) and GC costs to bite), so
        # full-scale ratios are not the right reference.
        if os.path.exists(BENCH_FILE):
            with open(BENCH_FILE) as fh:
                baseline = json.load(fh)
            reference = baseline.get("speedup_smoke", baseline.get("speedup", {}))
            for name, base in reference.items():
                if name not in speedup or not base:
                    continue
                floor = base * (1.0 - REGRESSION_TOLERANCE)
                assert speedup[name] >= floor, (
                    f"{name}: speedup {speedup[name]:.2f}x regressed >20% "
                    f"below the BENCH_kernel.json smoke baseline {base:.2f}x"
                )
    else:
        # Also record smoke-scale ratios so CI smoke runs have a
        # like-for-like reference.  The reference is the per-workload
        # *minimum* over independent passes: ratios on the near-parity
        # workloads (lease_churn is parity by design) swing run to run
        # with GC/allocator timing, so a single lucky pass would set a
        # baseline the gate can never reliably hold.  A conservative
        # floor trips on real regressions, not measurement noise.
        smoke_ratios = []
        for _ in range(3):
            smoke_fast, smoke_legacy = _measure_smoke_ratios()
            smoke_ratios.append(
                {k: smoke_fast[k] / smoke_legacy[k] for k in WORKLOADS})
        payload = {
            "smoke": False,
            "events_per_sec": {"fast": fast, "legacy": legacy},
            "speedup": speedup,
            "speedup_smoke": {
                k: min(r[k] for r in smoke_ratios) for k in WORKLOADS},
            "per_event_overhead_ns": {k: 1e9 / fast[k] for k in WORKLOADS},
        }
        with open(BENCH_FILE, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # Tentpole target: ≥3× on the zero-delay lane.  Full scale only —
    # the ratios are scale-dependent, so smoke mode is covered by the
    # like-for-like regression gate above instead.  timer_wheel has no
    # fixed floor: the wheel's O(1) insertion is held by that gate.
    if not SMOKE:
        assert speedup["soon_storm"] >= MIN_SPEEDUP_READY
        assert speedup["trampoline"] >= MIN_SPEEDUP_READY
        # lease_churn is the wheel's worst case: almost nothing ever
        # fires, so the legacy side is a raw C heappush per operation,
        # while the wheel pays Python-level slot placement plus periodic
        # tombstone compaction to keep its pending set bounded (the
        # legacy heap retains every tombstone until its deadline; see
        # test_cancel_heavy_pending_set_stays_bounded).  The two land
        # near parity — the legacy heap's retained garbage taxes GC as
        # its heap grows — so require parity within noise, not a
        # speedup.
        assert speedup["lease_churn"] >= 0.7


def test_fast_lane_semantics_match_legacy():
    """Both kernels execute an identical interleaving (spot check)."""

    def scripted(sim):
        order = []
        sim.schedule(5.0, order.append, "t5-a")
        sim.schedule(1.0, order.append, "t1")
        sim.schedule(5.0, order.append, "t5-b")
        cancelled = sim.schedule(3.0, order.append, "t3")
        cancelled.cancel()

        def chain(n):
            order.append(f"c{n}")
            if n < 2:
                sim.call_soon(chain, n + 1)

        sim.schedule(5.0, chain, 0)
        sim.schedule(5.0, order.append, "t5-c")
        sim.run()
        return order

    assert scripted(Simulator(seed=0)) == scripted(LegacySimulator(seed=0))


def test_steady_state_workload_equivalence():
    """The timer_wheel workload dispatches the same events at the same
    times on both kernels (locks the benchmark itself as a fair
    comparison, ``schedule_many`` included)."""

    def scripted(sim):
        fired = []
        batched = hasattr(sim, "schedule_many")
        rng = random.Random(3)
        delays = [rng.uniform(1.0, 50.0) for _ in range(64)]
        if batched:
            standing = sim.schedule_many(delays, fired.append, "lease")
            sim.schedule_many([d + 0.5 for d in delays], fired.append,
                              "deliver", handles=False)
        else:
            standing = [sim.schedule(d, fired.append, "lease") for d in delays]
            for d in delays:
                sim.schedule(d + 0.5, fired.append, "deliver")
        for t in standing[::2]:
            t.cancel()
        sim.run(until=25.0)
        mid = len(fired)
        sim.run()
        return fired, mid, sim.now

    assert scripted(Simulator(seed=0)) == scripted(LegacySimulator(seed=0))


def test_process_pingpong_throughput():
    """End-to-end micro-step cost (generator + future + kernel), fast
    kernel only — the legacy baseline cannot host Process objects."""
    sim = Simulator(seed=0)
    n = max(1000, int(50_000 * SCALE))

    def proc():
        for _ in range(n):
            yield sim.sleep(0.0)

    sim.spawn(proc())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    rate = sim.events_processed / elapsed
    # Loose sanity floor: a micro-step should stay deep in sub-10µs land.
    assert rate > 100_000, f"process micro-steps too slow: {rate:,.0f} ev/s"
