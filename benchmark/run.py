"""Seeded closed-loop benchmark for netupgrade.

Run from the repository root:

    python3 benchmark/run.py --workload dag-wide --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one fixed
cycle of the workload four times in fresh processes (untraced and traced,
alternating) and prints the per-layer metrics.  The last line of stdout is the
result object; the line before it reports the result digest and the tail
percentile.  README.md describes every workload and metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "success_ratio": "ratio",
    "peak_rss_mb": "MB", "quality_ratio": "ratio", "setup_s": "s",
}
PER_LAYER = {
    "serialization.parse_ms": "ms", "serialization.parse.calls": "count",
    "serialization.bytes_in": "bytes", "cli.self_ms": "ms",
    "instances.validate_ms": "ms", "instances.validate.calls": "count",
    "instances.reach_ms": "ms", "instances.reach.calls": "count",
    "instances.topo_ms": "ms", "instances.expand_ms": "ms",
    "dag_dp.solve_ms": "ms", "dag_dp.self_ms": "ms", "dag_dp.table_cells": "count",
    "dag_dp.fptas_scaled_cells": "count",
    "two_cost.solve_ms": "ms", "two_cost.self_ms": "ms",
    "two_cost.lagrangian_tree.calls": "count", "two_cost.lagrangian_tree_ms": "ms",
    "two_cost.lambda_search.calls": "count", "two_cost.lambda_search_ms": "ms",
    "two_cost.swap_chain.steps": "count", "two_cost.swap_chain_ms": "ms",
    "two_cost.heavy_copies": "count",
    "imst_random.solve_ms": "ms", "imst_random.solves": "count",
    "imst_random.relax.calls": "count", "imst_random.cache_hit_ratio": "ratio",
    "imst_random.sample_ms": "ms", "imst_random.trials": "count",
    "mst_uniform.solve_ms": "ms", "mst_uniform.mst.calls": "count",
    "trace.overhead_ms": "ms", "trace.base_wall_ms": "ms",
}

SETUP_REPEATS = 7          # setup_s is the median of these
MIN_CYCLES = 3             # the timed phase runs at least this many cycles
TAIL_MIN_BEYOND = 10       # samples that must lie above the tail percentile
TAIL_FALLBACK = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 40       # per traced-run child; four run in sequence
# End-to-end times are scaled to a reference machine speed.  On a shared VM
# the whole machine drifts by 30% and more over minutes, far beyond any
# bound; a fixed interpreter loop timed next to the work drifts with it.
CALIBRATION_ADDS = 300_000
CALIBRATION_REF_S = 0.015  # the loop's time at the reference speed
CALIBRATE_EVERY_S = 0.5


def machine_speed() -> float:
    """Reference time of a fixed pure-Python loop over its best of three
    measured times: 2.0 means the machine runs twice the reference speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(CALIBRATION_ADDS):
            x += i
        best = min(best, time.perf_counter() - t0)
    return CALIBRATION_REF_S / best


def load_package() -> None:
    """Put ./src first on the path; refuse to run without the sources."""
    if not os.path.isfile(os.path.join(SRC, "netupgrade", "__init__.py")):
        sys.exit("error: src/netupgrade not found; run from the repository root")
    sys.path.insert(0, SRC)
    import netupgrade
    if not os.path.abspath(netupgrade.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported netupgrade from {netupgrade.__file__}, not ./src")


def run_cycles(corpus, gate, stop, scaled: bool) -> tuple[list, list, list]:
    """Run whole cycles until stop(cycles, ops, seconds) or the pool ends;
    the seconds are the wall-clock time of the ops so far.

    Each cycle is graded after its clock stops, so grading is never timed
    and a run holds one cycle's outputs at a time.  With ``scaled`` the
    machine speed is read between ops every CALIBRATE_EVERY_S, untimed, and
    each op's latency is multiplied by the mean of the readings around it.
    Returns the latencies in ms of each op slot over the cycles, each
    cycle's timed seconds (the sum of its op latencies), and the readings.
    """
    from workloads import run_op

    per_slot, cycle_s, wall_s = [], [], 0.0
    speeds = [machine_speed()] if scaled else []

    def rescale(latencies, pending):
        speeds.append(machine_speed())
        for i in pending:
            latencies[i] *= (speeds[-2] + speeds[-1]) / 2
        pending.clear()

    while not stop(len(cycle_s), len(cycle_s) * len(per_slot), wall_s):
        ops = corpus.cycle(len(cycle_s))
        if ops is None:
            break
        results, latencies, pending = [], [], []
        read_at = time.perf_counter()
        for op in ops:
            if scaled and time.perf_counter() - read_at >= CALIBRATE_EVERY_S:
                rescale(latencies, pending)
                read_at = time.perf_counter()
            t0 = time.perf_counter_ns()
            try:
                raw = run_op(op)
            except Exception as exc:  # one failed op must not end the run
                raw = exc
            latencies.append((time.perf_counter_ns() - t0) / 1e6)
            pending.append(len(results))
            results.append((op, raw))
        wall_s += sum(latencies) / 1000
        if scaled:
            rescale(latencies, pending)
        cycle_s.append(sum(latencies) / 1000)
        if not per_slot:
            per_slot = [[] for _ in results]
        for slot, ms in zip(per_slot, latencies):
            slot.append(ms)
        gate.grade_cycle(len(cycle_s) - 1, results)
    return per_slot, cycle_s, speeds


def tail_latency(sorted_ms: list, percentile: float) -> tuple[float, float, int]:
    """Nearest-rank latency at the workload's percentile, or the highest lower
    one that leaves TAIL_MIN_BEYOND samples above it."""
    n = len(sorted_ms)
    for p in (percentile,) + tuple(x for x in TAIL_FALLBACK if x < percentile):
        rank = max(1, -(-int(p * n) // 100))
        if n - rank >= TAIL_MIN_BEYOND or p == TAIL_FALLBACK[-1]:
            return p, sorted_ms[rank - 1], n - rank
    raise AssertionError("unreachable")


def end_to_end(workload, seed: int, seconds: float, workdir: str) -> dict:
    from workloads import Gate, run_op

    setup_s, before = [], machine_speed()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        corpus = workload.setup(seed, workdir)
        elapsed = time.perf_counter() - t0
        after = machine_speed()
        setup_s.append(elapsed * (before + after) / 2)
        before = after
    for op in corpus.warmup:
        run_op(op)
    gate = Gate(workload, corpus.repeat)
    gc.collect()
    # enough samples that TAIL_MIN_BEYOND lie above the tail percentile
    min_ops = math.ceil(100 * TAIL_MIN_BEYOND / (100 - workload.tail_percentile))
    per_slot, cycle_s, speeds = run_cycles(
        corpus, gate, lambda cycles, ops, wall: (
            cycles >= MIN_CYCLES and ops >= min_ops and wall >= seconds), scaled=True)
    quality = gate.finish()

    latencies = sorted(ms for slot in per_slot for ms in slot)
    tail_p, tail_ms, beyond = tail_latency(latencies, workload.tail_percentile)
    attempted = len(latencies)
    failed = min(len(gate.failures), attempted)
    print(json.dumps({
        "workload": workload.name, "seed": seed, "result_digest": gate.digest(),
        "digest_ops": len(per_slot), "cycle_s": [round(x, 3) for x in cycle_s],
        "machine_speed": [round(x, 3) for x in speeds],
        "tail_percentile": tail_p, "tail_samples": attempted, "tail_beyond": beyond,
        "failures": gate.failures[:5],
    }))
    values = {
        "ops_per_s": attempted / sum(cycle_s),
        # median over op slots of each slot's median over the cycles: every
        # cycle runs the same slots, and this keeps a slow cycle from moving
        # the median onto a neighbouring slot
        "op_p50_ms": statistics.median(statistics.median(slot) for slot in per_slot),
        "op_tail_ms": tail_ms,
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "quality_ratio": quality,
        "setup_s": statistics.median(setup_s),
    }
    return {"correct": not gate.failures, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}


def trace_child(workload, seed: int, traced: bool, workdir: str) -> dict:
    """One pass over cycle 0 in this fresh process, traced or not."""
    from tracing import Tracer
    from workloads import Gate, run_op

    corpus = workload.setup(seed, workdir)
    for op in corpus.warmup:
        run_op(op)
    gate = Gate(workload, corpus.repeat)
    tracer = Tracer()
    gc.collect()
    if traced:
        tracer.install()
    try:
        per_slot, cycle_s, _ = run_cycles(corpus, gate, lambda cycles, *_: cycles >= 1,
                                          scaled=False)
    finally:
        tracer.uninstall()
    gate.finish()
    times, counts, hit_ratio = tracer.metrics()
    return {"wall_ms": cycle_s[0] * 1000, "attempted": len(per_slot),
            "failures": gate.failures, "digest": gate.digest(),
            "times": times, "counts": counts, "hit_ratio": hit_ratio}


def traced_run(args) -> dict:
    """Untraced and traced passes, alternating, each in a fresh process so
    that module caches start cold.  The traced passes must count alike."""
    runs = []
    for mode in ("plain", "traced", "plain", "traced"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "1", "--child", mode]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: {mode} trace pass exited with {proc.returncode}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    plain, traced = runs[0::2], runs[1::2]
    failures = [f for r in runs for f in r["failures"]]
    if traced[0]["counts"] != traced[1]["counts"]:
        failures.append("deterministic counts differ between the two traced passes: "
                        f"{traced[0]['counts']} vs {traced[1]['counts']}")
    if len({r["digest"] for r in runs}) != 1:
        failures.append("result digests differ between trace passes")
    base_wall = statistics.mean(r["wall_ms"] for r in plain)
    values = {name: statistics.mean(r["times"][name] for r in traced)
              for name in traced[0]["times"]}
    values.update(traced[0]["counts"])
    values["imst_random.cache_hit_ratio"] = traced[0]["hit_ratio"]
    values["trace.overhead_ms"] = statistics.mean(r["wall_ms"] for r in traced) - base_wall
    values["trace.base_wall_ms"] = base_wall
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "result_digest": runs[0]["digest"], "failures": failures[:5]}))
    attempted = sum(r["attempted"] for r in runs)
    return {"correct": not failures, "attempted": attempted,
            "failed": min(len(failures), attempted),
            "metrics": {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.child:
            result = trace_child(workload, args.seed, args.child == "traced", workdir)
        elif args.trace:
            result = traced_run(args)
        else:
            result = end_to_end(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # absent, or still holds another run's files
            pass
    print(json.dumps(result))
    return 0 if args.child or result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
