"""The benchmark's four workloads: build, run, gate and measure one repetition.

A *repetition* runs one workload instance through a public runner
(``run_response_time``, ``run_cdn`` or ``run_chaos``) in this process,
single-threaded, with no sweep cache and no worker pool.  Three small
hooks are installed into the runner modules' namespaces, because the
runners do not return everything the benchmark needs:

* the runner's ``Simulator`` becomes a subclass that notes the host time
  of its first ``run`` call (the first simulated event, where set-up
  ends) and, in untraced runs, runs its events in chunks with host-speed
  calibration slices between them (``hostspeed.py``);
* ``EdgeTopology`` becomes a subclass that remembers the instance, for
  the network's message counters;
* ``History`` becomes a subclass that remembers every instance, because
  ``run_chaos`` keeps its history to itself.

Nothing else is installed unless the run is traced (see ``layers.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import hostspeed
from repro.chaos import campaign
from repro.chaos.campaign import ChaosRunConfig, run_chaos
from repro.chaos.nemesis import NemesisContext, build_schedule
from repro.consistency import regular
from repro.consistency.history import History, READ, WRITE
from repro.edge import cdn
from repro.edge.cdn import CdnScenarioConfig, run_cdn
from repro.edge.topology import EdgeTopology, EdgeTopologyConfig
from repro.harness import experiment
from repro.harness.experiment import ExperimentConfig, run_response_time
from repro.sim.kernel import Simulator

#: workload name -> (runner kind, protocol)
WORKLOADS = {
    "fig6-dqvl": ("fig6", "dqvl"),
    "fig6-majority": ("fig6", "majority"),
    "cdn-dqvl": ("cdn", "dqvl"),
    "crash-storm-dqvl": ("chaos", "dqvl"),
}

#: uniform per-message jitter on top of the paper's 8/86/80 ms delays, so
#: simulated latencies are not the same constant for every seed
JITTER_MS = 2.0

#: the simulated metrics each repetition reports; with the counts in
#: ``Rep.sim`` they must repeat exactly for one seed
SIM_METRICS = (
    "read_p50_ms", "read_p99_ms", "write_p50_ms", "write_p90_ms",
    "msgs_per_op", "availability",
)

#: percentile metric -> (op kind, quantile)
PERCENTILES = {
    "read_p50_ms": (READ, 0.50),
    "read_p99_ms": (READ, 0.99),
    "write_p50_ms": (WRITE, 0.50),
    "write_p90_ms": (WRITE, 0.90),
}

#: every percentile must leave this many samples above it
MIN_TAIL_SAMPLES = 10

#: events per kernel ``run`` call between calibration checks
CHUNK_EVENTS = 1000


def fig6_config(protocol: str, seed: int, tiny: bool, trace: bool) -> ExperimentConfig:
    """The paper's Fig 6 point: 9 edges, 3 closed-loop clients on their
    own objects, w=0.05, locality 1.0, direct mode."""
    return ExperimentConfig(
        protocol=protocol,
        write_ratio=0.05,
        locality=1.0,
        num_edges=9,
        num_clients=3,
        ops_per_client=20 if tiny else 1000,
        warmup_ops=10,
        seed=seed,
        mode="direct",
        topology=EdgeTopologyConfig(jitter_ms=JITTER_MS),
        trace=trace,
    )


def cdn_config(seed: int, tiny: bool, trace: bool) -> CdnScenarioConfig:
    """10^6 modelled users at 200 req/s (Poisson), 2 regions x 2 PoPs,
    16 issuers per PoP, Zipf s=0.9 over 100k objects in 16 volumes,
    w=0.05, 14 s of arrivals.

    At s=1.3 the hottest object draws a quarter of all requests and its
    writes queue, so the read p99 moved between 1.2 and 2.6 s from seed
    to seed.  Keeper cost grows with the volume count and faster than
    the horizon (64 volumes took about 50 s of host time for 20 s of
    arrivals), and each keeper's share of it varies from seed to seed,
    so more volumes average it out: over 8 seeds the host time had a
    relative standard deviation of 0.056 with 16 volumes over 14 s,
    against about 0.13 with 8 volumes over 20 s at about the same cost.
    14 s of arrivals leave ten write samples beyond the p90.
    """
    return CdnScenarioConfig(
        protocol="dqvl",
        seed=seed,
        regions=2,
        pops_per_region=2,
        jitter_ms=JITTER_MS,
        users=1_000_000,
        ops_per_user_per_s=0.0002,
        write_ratio=0.05,
        num_objects=100_000,
        num_volumes=16,
        zipf_s=0.9,
        issuers_per_pop=16,
        horizon_ms=300.0 if tiny else 14_000.0,
        trace=trace,
    )


def chaos_config(seed: int, tiny: bool, trace: bool) -> ChaosRunConfig:
    """DQVL with the resilience layer, through the front ends, under a
    crash storm (see :func:`crash_storm`); the fault horizon covers the
    workload.

    At w=0.3 about half the reads hit, so the read p50 jumped between
    the hit (~30 ms) and miss (~185 ms) latencies from seed to seed;
    at w=0.15 about 70% hit.
    """
    return ChaosRunConfig(
        protocol="dqvl",
        seed=seed,
        nemeses=("crash_storm",),
        num_edges=3,
        num_clients=3,
        ops_per_client=20 if tiny else 600,
        write_ratio=0.15,
        num_keys=4,
        horizon_ms=5_000.0 if tiny else 150_000.0,
        client_max_attempts=4,
        mode="frontend",
        resilience=True,
        trace=trace,
    )


#: every crash-storm-dqvl run replays the crash_storm nemesis drawn with
#: this seed; --seed varies the op streams and message jitter.  With a
#: schedule per seed, how many reads met a crash, and so the read
#: percentiles and availability, varied more than any bound allows.
FAULT_SEED = 7

#: the server nodes of the 3-edge DQVL deployment (IQS and OQS replicas)
CHAOS_SERVERS = ("iqs0", "iqs1", "iqs2", "oqs0", "oqs1", "oqs2")


def crash_storm(config: ChaosRunConfig):
    """The fixed fault schedule for *config*'s nemeses and horizon."""
    context = NemesisContext(servers=CHAOS_SERVERS, horizon_ms=config.horizon_ms,
                             max_drift=config.max_drift)
    return build_schedule(FAULT_SEED, config.nemeses, context)


# -- capture hooks ----------------------------------------------------------


class _Captured:
    """Objects the last repetition's runner built."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.sim: Optional["ProbeSimulator"] = None
        self.topology: Optional[EdgeTopology] = None
        self.histories: List[History] = []
        self.meter: Optional[hostspeed.Meter] = None


CAPTURED = _Captured()


class ProbeSimulator(Simulator):
    """Notes the host time of the first simulated event.

    In a set-up probe the process ends right there; in a traced run the
    simulation RNG is swapped for one that counts its draws.  When the
    repetition has a calibration meter, events run in chunks of
    :data:`CHUNK_EVENTS`, the meter getting its turn between chunks; the
    kernel resumes a ``max_events`` stop exactly where it left off.
    """

    #: set by run.py: exit at the first event (set-up probe)
    exit_at_first_event = False
    #: set by run.py: give each repetition a calibration meter
    calibrate = False
    #: set by layers.install(): factory for a draw-counting RNG
    rng_factory = None

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.first_event_at: Optional[float] = None
        if ProbeSimulator.rng_factory is not None:
            self.rng = ProbeSimulator.rng_factory(seed)
        CAPTURED.sim = self

    def run(self, until=None, max_events=None):
        if self.first_event_at is None:
            self.first_event_at = time.perf_counter()
            if ProbeSimulator.exit_at_first_event:
                raise FirstEvent(self.first_event_at)
        meter = CAPTURED.meter
        if meter is None or max_events is not None:
            return super().run(until=until, max_events=max_events)
        while True:
            before = self.events_processed
            now = super().run(until=until, max_events=CHUNK_EVENTS)
            meter.tick()
            if self.events_processed - before < CHUNK_EVENTS:
                return now


class FirstEvent(BaseException):
    """Raised out of a set-up probe at the first simulated event; a
    ``BaseException`` so that no ``except Exception`` in the program
    catches it."""

    def __init__(self, at: float) -> None:
        super().__init__(at)
        self.at = at


class _CapturedTopology(EdgeTopology):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        CAPTURED.topology = self


class _CapturedHistory(History):
    def __init__(self) -> None:
        super().__init__()
        CAPTURED.histories.append(self)


def install_capture() -> None:
    for module in (experiment, cdn, campaign):
        module.Simulator = ProbeSimulator
        module.EdgeTopology = _CapturedTopology
    campaign.History = _CapturedHistory


# -- one repetition ---------------------------------------------------------


@dataclass
class Rep:
    """What one repetition measured."""

    #: host seconds from the first simulated event to the verdict, less
    #: the calibration slices run in between
    host_s: float
    #: reference seconds per host second (``hostspeed``), or None when
    #: the repetition ran without calibration
    scale: Optional[float]
    #: client operations the workload attempted (arrivals, open loop)
    attempted: int
    #: simulated metrics and counts; must repeat exactly for one seed
    sim: Dict[str, Any]
    #: correctness-gate failures; empty when the repetition passed
    problems: List[str]
    #: fingerprint of the generated op stream (and fault schedule)
    inputs: str
    #: raw material for the per-layer metrics of a traced run
    layer: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """:attr:`host_s` in reference seconds."""
        return self.host_s * self.scale


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of a sorted sample."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_samples(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank *q* percentile of *n*."""
    return n - max(1, math.ceil(q * n))


def _fingerprint(ops, extra: Any = None) -> str:
    stream = sorted(
        (op.client, op.start, op.kind, op.key, op.value if op.kind == WRITE else None)
        for op in ops
    )
    blob = json.dumps([stream, extra], default=repr, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _latency_metrics(ops, tiny: bool, problems: List[str]) -> Dict[str, float]:
    """Percentiles over the operations that returned a value, each timed
    from when the op was due (its arrival, for the open loop)."""
    samples = {
        READ: sorted(op.latency for op in ops if op.ok and op.kind == READ),
        WRITE: sorted(op.latency for op in ops if op.ok and op.kind == WRITE),
    }
    out: Dict[str, float] = {}
    for name, (kind, q) in PERCENTILES.items():
        ordered = samples[kind]
        if not ordered:
            problems.append(f"{name}: no successful {kind}s")
            out[name] = 0.0
            continue
        if not tiny and tail_samples(len(ordered), q) < MIN_TAIL_SAMPLES:
            problems.append(
                f"{name}: only {tail_samples(len(ordered), q)} of "
                f"{len(ordered)} samples beyond the percentile"
            )
        out[name] = percentile(ordered, q)
    return out


def _backlog_growing(ops, horizon_ms: float, issuers: int) -> bool:
    """Is the issuer backlog still growing at the end of the horizon?

    The arrivals in the system (queued or in service) are sampled at 50
    points over the second half of the horizon.  The backlog is growing
    when their least-squares trend adds more than a quarter of the
    issuer pool across that half and, over the last tenth of the
    horizon, more arrivals are in the system than there are issuers, so
    some are queued.
    """
    times = [horizon_ms * (0.5 + (i + 0.5) / 100.0) for i in range(50)]
    in_system = [sum(1 for op in ops if op.start <= t < op.end) for t in times]
    trend = statistics.linear_regression(times, in_system).slope
    return (trend * horizon_ms / 2.0 > issuers / 4.0
            and statistics.fmean(in_system[-10:]) > issuers)


def _network_counts(stats) -> Dict[str, Any]:
    return {
        "messages": stats.total_messages,
        "dropped": stats.dropped,
        "by_kind": {k: stats.by_kind[k] for k in sorted(stats.by_kind)},
    }


def run_rep(workload: str, seed: int, tiny: bool = False, trace: bool = False) -> Rep:
    """Run one repetition of *workload* and gate it."""
    kind, protocol = WORKLOADS[workload]
    CAPTURED.clear()
    if ProbeSimulator.calibrate:
        CAPTURED.meter = hostspeed.Meter()
    problems: List[str] = []
    violations: List[str] = []
    layer: Dict[str, Any] = {}
    extra_inputs: Any = None

    if kind == "fig6":
        result = run_response_time(fig6_config(protocol, seed, tiny, trace))
        full = result.full_history()
        violations = [f"regular: {v}" for v in regular.check_regular(full)]
        verdict_at = time.perf_counter()
        all_ops, timed_ops = full.ops, result.history.ops
        attempted = len(all_ops)
        deployment = result.deployment
        layer["obs_budget"] = _budget(result.obs)
    elif kind == "cdn":
        config = cdn_config(seed, tiny, trace)
        result = run_cdn(config)
        violations = [f"regular: {v}" for v in regular.check_regular(result.history)]
        verdict_at = time.perf_counter()
        stats = result.stats
        saturated = stats.dropped > 0 or _backlog_growing(
            result.history.ops, config.horizon_ms,
            config.issuers_per_pop * config.num_pops)
        if saturated:
            problems.append(
                f"saturated: offered {stats.arrivals}, completed {stats.completed}, "
                f"dropped {stats.dropped}, queue peak {stats.queue_peak}"
            )
        all_ops = timed_ops = result.history.ops
        attempted = stats.arrivals
        deployment = result.deployment
        layer["population"] = stats.to_json_obj()
        layer["saturated"] = saturated
        layer["obs_budget"] = result.budget
    else:
        config = chaos_config(seed, tiny, trace)
        result = run_chaos(config, schedule=crash_storm(config))
        # regular checker over the whole history plus the invariant monitor
        violations = [f"{v['type']}: {v.get('detail', v)}" for v in result.violations]
        verdict_at = time.perf_counter()
        nodes = set(CAPTURED.topology.network.node_ids)
        missing = {n for f in result.schedule.faults for n in f.nodes} - nodes
        if missing:
            problems.append(f"fault schedule names unknown nodes {sorted(missing)}")
        all_ops = timed_ops = [op for h in CAPTURED.histories for op in h.ops]
        attempted = len(all_ops)
        deployment = None
        layer["chaos"] = {k: result.stats[k] for k in ("invariant_samples",)}
        report = result.stats["availability"]
        layer["front_ends"] = report["front_ends"]
        layer["resilience"] = report["resilience"]
        layer["obs_budget"] = report.get("phase_budgets")
        extra_inputs = result.schedule.to_json_obj()

    sim = CAPTURED.sim
    meter = CAPTURED.meter
    host_s = verdict_at - sim.first_event_at
    scale = None
    if meter is not None:
        host_s -= meter.slice_s
        meter.slice()
        scale = meter.scale()
    failed = sum(1 for op in all_ops if not op.ok)
    if kind == "cdn":
        failed += result.stats.dropped
    completed = len(all_ops)
    net = _network_counts(CAPTURED.topology.network.stats)
    sim_metrics = _latency_metrics(timed_ops, tiny, problems)
    sim_metrics["msgs_per_op"] = net["messages"] / completed if completed else 0.0
    sim_metrics["availability"] = 1.0 - failed / attempted if attempted else 0.0
    record = {
        **sim_metrics,
        "attempted": attempted,
        "completed": completed,
        "failed": failed,
        "writes": sum(1 for op in all_ops if op.kind == WRITE),
        "read_hits": sum(1 for op in all_ops if op.kind == READ and op.hit),
        "reads": sum(1 for op in all_ops if op.kind == READ),
        "events": sim.events_processed,
        "sim_time_ms": sim.now,
        "network": net,
    }
    if deployment is not None:
        layer["front_ends"] = _front_end_counts(deployment)
    layer["violations"] = len(violations)
    return Rep(
        host_s=host_s,
        scale=scale,
        attempted=attempted,
        sim=record,
        problems=violations + problems,
        inputs=_fingerprint(all_ops, extra_inputs),
        layer=layer,
    )


def _front_end_counts(deployment) -> Dict[str, int]:
    counts = {"requests_failed": 0, "degraded_reads": 0, "breaker_trips": 0}
    for fe in deployment.front_ends:
        counts["requests_failed"] += fe.requests_failed
        counts["degraded_reads"] += fe.degraded_reads
        for breaker in (fe._read_breaker, fe._write_breaker):
            if breaker is not None:
                counts["breaker_trips"] += breaker.trips
    return counts


def _budget(obs) -> Optional[Dict[str, Any]]:
    if obs is None:
        return None
    return obs.latency_budget().to_json_obj()
