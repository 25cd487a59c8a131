"""Self-test of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json`` it checks that:

* an untraced and a traced tiny run each end with the result object
  (keys ``correct``, ``attempted``, ``failed``, ``metrics``), pass the
  correctness gate, and report exactly the ``end_to_end`` (untraced) or
  ``per_layer`` (traced) metrics, each with its unit, in the JSON and in
  the printed table;
* a second seed changes the generated inputs but not the set of metrics;
* where the span file kept every span, the per-layer self times
  recomputed from it match the reported ones.

It also checks that ``workloads.json`` documents exactly the workloads
of ``BENCHMARK.json`` with metrics that exist there, and that the
benchmark fails without printing a result in a directory holding only
``BENCHMARK.json`` and the benchmark's files.  Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def checked_run(workload: str, seed: int, trace: int, wanted: dict):
    proc = run(workload, seed, trace)
    if proc.returncode != 0:
        fail(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: "
             f"{proc.stderr.strip()[-400:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} seed {seed} trace {trace} failed its gate:\n{proc.stdout}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"{workload}: metrics {sorted(set(got) ^ set(wanted))} differ from BENCHMARK.json")
    table = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in wanted.items():
        if (name, unit) not in table:
            fail(f"{workload}: '{name}' with unit '{unit}' not in the printed table")
    inputs = next(line.split("inputs ")[1] for line in lines if line.startswith("workload "))
    return result, inputs


def check_span_file(workload: str, seed: int, result: dict) -> None:
    path = ROOT / ".perfbench-out" / f"{workload}-seed{seed}.spans.jsonl"
    with open(path) as fh:
        header = json.loads(fh.readline())
    if header["spans_kept"] != header["spans_total"]:
        return
    recomputed = layers.self_times(str(path))
    for name in header["layers"]:
        metric = "consistency.check_s" if name == "consistency" else f"{name}.self_s"
        if metric not in result["metrics"]:
            continue
        reported = result["metrics"][metric]["value"]
        if abs(recomputed.get(name, 0.0) - reported) > 1e-6:
            fail(f"{workload}: {name} self time {reported} vs {recomputed.get(name)} from spans")


def check_docs(spec: dict) -> None:
    docs = json.loads((HERE / "workloads.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(docs) != sorted(names):
        fail(f"workloads.json documents {sorted(docs)}, BENCHMARK.json has {sorted(names)}")
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    for name, doc in docs.items():
        for key in ("runner", "protocol", "loop", "inputs", "seed", "why"):
            if not doc.get(key):
                fail(f"workloads.json: {name} has no {key}")
        named = set(doc["moves"]) | set(doc["does_not_move"])
        named |= {m for targets in doc["moves"].values() for m in targets}
        if named - known:
            fail(f"workloads.json: {name} names unknown metrics {sorted(named - known)}")


def check_bare(spec: dict) -> None:
    """Without the program's sources the benchmark must fail, silently."""
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], 1, 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_docs(spec)
    check_bare(spec)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        _, inputs_1 = checked_run(name, 1, 0, e2e)
        _, inputs_2 = checked_run(name, 2, 0, e2e)
        if inputs_1 == inputs_2:
            fail(f"{name}: seeds 1 and 2 generated the same inputs")
        traced, _ = checked_run(name, 1, 1, per_layer)
        check_span_file(name, 1, traced)
        print(f"ok  {name}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
