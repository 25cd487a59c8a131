"""Scenario benchmark for the dual-quorum reproduction.

Runs one workload (see ``workloads.json``) in this process and prints its
metrics, by name and with their units, as named in ``BENCHMARK.json``::

    python3 perfbench/run.py --workload fig6-dqvl --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload with the given seed until ``--seconds``
have passed (at least twice) and reports the end-to-end metrics: host
time as medians over the repetitions, simulated metrics from the first
repetition.  ``setup_s`` is the median over separate set-up probes, each
a fresh process that stops at its first simulated event.  Host times
are in reference seconds: host seconds scaled by calibration work run
alongside (``hostspeed.py``), so that the drifting speed of a shared
host cancels out; the printed table also shows the unscaled host
seconds.

``--trace 1`` runs the workload once untraced and once with every layer
wrapped (``layers.py``) and the program's own tracing on, reports the
per-layer metrics, and writes the traced run's spans to
``.perfbench-out/``.

Every repetition passes a correctness gate or the run reports
``"correct": false``: the regular-semantics checker over the whole
history, the chaos invariant monitor (``crash-storm-dqvl``), the CDN
saturation guard, the percentile sample sizes, and a determinism check
that all repetitions of a seed give identical simulated metrics and
counts.

``--workload all`` runs the four workloads one after another, each in
its own process, and adds the fig6 DQVL/majority wall ratio.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench-out"

#: set-up probes per run; setup_s is their median
SETUP_PROBES = 9
#: every run repeats its workload at least this often (determinism check)
MIN_REPS = 2


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _die(f"{path.name} not found at the repository root")
    return json.loads(path.read_text())


def _import_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _die("src/repro not found: run from a checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    workloads.install_capture()
    return workloads


def _setup_probe(workload: str, seed: int, tiny: bool) -> None:
    """Child side: build the workload and stop at its first event."""
    wl = _import_program()
    wl.ProbeSimulator.exit_at_first_event = True
    try:
        wl.run_rep(workload, seed, tiny=tiny)
    except wl.FirstEvent as first:
        print(repr(first.at), flush=True)
        return
    _die("the workload finished without a simulated event")


def _measure_setup(workload: str, seed: int, tiny: bool) -> tuple:
    """Reference seconds from process start to the first simulated event:
    each probe's host seconds scaled by the start-up slices run just
    before and after it."""
    raw = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    slices = [hostspeed.startup_slice(ROOT)]
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _die(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        raw.append(float(proc.stdout.split()[-1]) - started)
        slices.append(hostspeed.startup_slice(ROOT))
    scaled = [r * 2 * hostspeed.REFERENCE_STARTUP_S / (before + after)
              for r, before, after in zip(raw, slices, slices[1:])]
    return scaled, raw


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _problems(reps, traced: bool) -> list:
    """Gate failures of every repetition, plus any repetition whose
    simulated metrics and counts differ from the first one's.  The
    program's own tracing schedules sampling events, so a traced
    repetition's event count is left out of the comparison."""
    problems = [f"rep {i}: {p}" for i, rep in enumerate(reps) for p in rep.problems]
    first = reps[0]
    for i, rep in enumerate(reps[1:], 1):
        skip = ("events",) if traced and i == len(reps) - 1 else ()
        diff = sorted(k for k in first.sim
                      if k not in skip and rep.sim.get(k) != first.sim[k])
        if diff or rep.inputs != first.inputs:
            problems.append(f"rep {i}: not deterministic (differs in {diff or 'inputs'})")
    return problems


def end_to_end(reps, setup: list, sim_metrics) -> dict:
    walls = [rep.wall_s for rep in reps]
    first = reps[0].sim
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(first["completed"] / w for w in walls),
        "peak_rss_mb": _rss_mb(),
    }
    metrics.update((name, first[name]) for name in sim_metrics)
    return metrics


def per_layer(untraced, rep, rec, kinds: list) -> dict:
    """The traced repetition's per-layer metrics; the kernel's event count
    comes from the *untraced* repetition, without the program's tracing."""
    sim = rep.sim
    ops = sim["completed"] or 1
    self_s = rec.layer_self_s()
    calls = dict(zip(rec.layers, rec.calls))
    counts = rec.counts
    layer = rep.layer
    by_kind = sim["network"]["by_kind"]
    pop = layer.get("population") or {}
    fe = layer.get("front_ends") or {}
    res = layer.get("resilience") or {}
    out = {
        "sim.kernel.events_per_op": untraced.sim["events"] / ops,
        "sim.kernel.sleeps_per_op": counts.get("kernel.sleeps", 0) / ops,
        "sim.kernel.self_s": self_s["sim.kernel"],
        "sim.rng.draws_per_op": counts.get("rng.draws", 0) / ops,
        "sim.network.self_s": self_s["sim.network"],
        "sim.node.self_s": self_s["sim.node"],
        "sim.network.dropped": sim["network"]["dropped"],
        "sim.network.kind.other_per_op":
            sum(n for k, n in by_kind.items() if k not in kinds) / ops,
        "quorum.qrpc.calls_per_op": counts.get("qrpc.calls", 0) / ops,
        "quorum.qrpc.self_s": self_s["quorum.qrpc"],
        "quorum.qrpc.rounds_per_call":
            counts.get("qrpc.rounds", 0) / max(1, counts.get("qrpc.useful", 0)),
        "core.leases.calls_per_op": calls["core.leases"] / ops,
        "core.leases.self_s": self_s["core.leases"],
        "core.dqvl.self_s": self_s["core.dqvl"],
        "core.dqvl.read_hit_rate": sim["read_hits"] / max(1, sim["reads"]),
        "core.dqvl.renewals_per_op": counts.get("dqvl.renewals", 0) / ops,
        "core.dqvl.invals_per_write": counts.get("dqvl.invals", 0) / max(1, sim["writes"]),
        "protocols.majority.self_s": self_s["protocols.majority"],
        "edge.frontend.self_s": self_s["edge.frontend"],
        "edge.frontend.failed": fe.get("requests_failed", 0),
        "edge.frontend.degraded_reads": fe.get("degraded_reads", 0),
        "edge.frontend.breaker_trips": fe.get("breaker_trips", 0),
        "workload.self_s": self_s["workload"],
        "workload.population.queue_wait_ms":
            pop.get("queue_wait_ms", 0.0) / max(1, pop.get("dispatched", 0)),
        "workload.population.queue_peak": pop.get("queue_peak", 0),
        "workload.population.dropped": pop.get("dropped", 0),
        "resilience.self_s": self_s["resilience"],
        "resilience.suspicions": res.get("suspicions", 0),
        "resilience.hedges_per_op": res.get("hedges_sent", 0) / ops,
        "resilience.adaptive_rounds_per_op": res.get("adaptive_rounds", 0) / ops,
        "chaos.invariants.self_s": self_s["chaos.invariants"],
        "chaos.invariants.samples": (layer.get("chaos") or {}).get("invariant_samples", 0),
        "consistency.check_s": self_s["consistency"],
        "consistency.violations": layer.get("violations", 0),
        "obs.self_s": self_s["obs"],
        "trace.overhead": rep.host_s / untraced.host_s,
        "trace.spans": rec.total_spans,
    }
    for kind in kinds:
        out[f"sim.network.kind.{kind}_per_op"] = by_kind.get(kind, 0) / ops
    out.update(_obs_waits(layer.get("obs_budget") or {}))
    return out


def _obs_waits(budget: dict) -> dict:
    """Mean simulated phase time per read and per write, over the
    program's own latency budget (all op groups of that kind)."""
    out = {}
    for kind, phases in (("read", ("quorum_wait", "lease")),
                         ("write", ("quorum_wait", "inval"))):
        groups = [g for name, g in budget.items()
                  if name.removeprefix("app.").split("[")[0] == kind]
        count = sum(g["total"]["count"] for g in groups)
        for phase in phases:
            total = sum(g[phase]["sum"] for g in groups if phase in g)
            out[f"obs.{kind}.{phase}_ms"] = total / count if count else 0.0
    return out


def run_one(args, spec: dict) -> int:
    wl = _import_program()
    setup, setup_raw = ([], []) if args.trace else _measure_setup(
        args.workload, args.seed, args.tiny)
    wl.ProbeSimulator.calibrate = not args.trace
    reps = []
    started = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(wl.run_rep(args.workload, args.seed, tiny=args.tiny))
        if args.trace:
            break
        elapsed = time.perf_counter() - started
        per_rep = time.perf_counter() - rep_start
        if len(reps) >= MIN_REPS and elapsed + per_rep > args.seconds:
            break

    names = "end_to_end" if not args.trace else "per_layer"
    wanted = {m["name"]: m["unit"] for m in spec[names]}
    if args.trace:
        import layers

        rec = layers.Recorder()
        layers.install(rec, wl.ProbeSimulator)
        traced = wl.run_rep(args.workload, args.seed, tiny=args.tiny, trace=True)
        reps.append(traced)
        kinds = [n.removeprefix("sim.network.kind.").removesuffix("_per_op")
                 for n in wanted if n.startswith("sim.network.kind.")]
        kinds.remove("other")
        values = per_layer(reps[0], traced, rec, kinds)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        rec.write_spans(str(span_file), {"workload": args.workload, "seed": args.seed})
        print(f"spans: {rec.total_spans} recorded, {len(rec.s_layer)} kept in "
              f"{span_file.relative_to(ROOT)}")
    else:
        values = end_to_end(reps, setup, wl.SIM_METRICS)

    problems = _problems(reps, bool(args.trace))
    first = reps[0]
    attempted = sum(rep.attempted for rep in reps)
    # a run that fails its gate reports all its operations as failed
    failed = attempted if problems else 0

    print(f"workload {args.workload}  seed {args.seed}  reps {len(reps)}  "
          f"inputs {first.inputs}")
    sim = first.sim
    print(f"  ops: attempted {sim['attempted']}, completed {sim['completed']}, "
          f"failed {sim['failed']} (fail_frac {sim['failed'] / sim['attempted']:.6f}), "
          f"violations {first.layer.get('violations', 0)}")
    if "population" in first.layer:
        pop = first.layer["population"]
        print(f"  saturation: offered {pop['arrivals']}, completed {pop['completed']}, "
              f"dropped {pop['dropped']}, queue peak {pop['queue_peak']}, "
              f"backlog growing {'yes' if first.layer['saturated'] else 'no'}")
    print(f"  host seconds per rep: {', '.join(f'{r.host_s:.3f}' for r in reps)}")
    if not args.trace:
        print(f"  reference s per host s: {', '.join(f'{r.scale:.3f}' for r in reps)}")
        print(f"  setup host seconds per probe: {', '.join(f'{r:.3f}' for r in setup_raw)}")
    for name, unit in wanted.items():
        print(f"  {name:<40} {values[name]:>14.6f} {unit}")
    for problem in problems:
        print(f"  FAILED: {problem}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, then the fig6 wall ratio."""
    results = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        dqvl = results["fig6-dqvl"]["metrics"]["wall_s"]["value"]
        majority = results["fig6-majority"]["metrics"]["wall_s"]["value"]
        print(f"fig6 wall ratio dqvl/majority: {dqvl / majority:.2f}x "
              f"(fig6-dqvl wall_s {dqvl:.3f} s / fig6-majority wall_s {majority:.3f} s)")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.tiny)
        return 0
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
