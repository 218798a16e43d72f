"""Run one benchmark workload on one seed and print its metrics.

    python3 perfbench/run.py --workload road-tcp --seed 0 --seconds 15 --trace 0

Every operation (a drive, or a sweep's cold and warm passes) runs in its
own process (``child.py``).  ``--trace 0`` repeats rounds of operations
until ``--seconds`` have passed and prints the end-to-end metrics, with
each operation's times scaled to nominal host speed by reference slices
run in turns with it (``hostref.py``).  ``--trace 1`` runs the workload's
first operation three ways -- untraced, traced and with the invariant
monitors armed -- and prints the per-layer metrics.  Metric names, units
and directions come from ``BENCHMARK.json``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a correctness check
failed, 2 when the source tree or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostref import (  # noqa: E402
    Reference, Slice, host_speed, run_interleaved, stopped_s)
from workloads import WORKLOADS, op_specs  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Whole-run budget; the contract allows 180 s.
BUDGET_S = 170.0
#: Stop starting measurement rounds once this much of the budget is gone,
#: leaving room for the set-up probes.
MEASURE_BUDGET_S = 120.0
#: Set-up time is the median of at least this many process starts.
MIN_SETUPS = 5


class Operations:
    """Spawns child processes and tallies attempted and failed operations.

    With a ``reference`` (untraced runs), each child runs in turns with
    slices of the host reference kernel (``hostref.py``): its record's
    wall-clock fields lose the time it spent stopped, and ``wall_scale``
    and ``cpu_scale`` give the host's speed relative to nominal while it
    ran.
    """

    def __init__(self, deadline: float, reference: Optional[Reference] = None):
        self.deadline = deadline
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.problems.append(why)

    def spawn(self, spec: dict, mode: str, out: Optional[str] = None
              ) -> Tuple[Optional[dict], str]:
        """Run ``child.py`` once; returns (record or None, error text)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            return None, "run time budget exhausted"
        cmd = [sys.executable, CHILD, "--mode", mode, "--spec", json.dumps(spec)]
        if out is not None:
            cmd += ["--out", out]
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        cmd += ["--spawned", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        slices: List[Slice] = []
        try:
            if self.reference is None:
                stdout, stderr = proc.communicate(timeout=timeout)
            else:
                stdout, stderr, slices = run_interleaved(
                    proc, self.reference, timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            return None, f"{mode} {spec['kind']} timed out"
        except BaseException:
            _kill_group(proc)
            raise
        _kill_group(proc)  # stragglers a crashed child left behind
        if proc.returncode != 0:
            tail = " | ".join(stderr.strip().splitlines()[-3:])
            return None, f"{mode} {spec['kind']} exited {proc.returncode}: {tail}"
        try:
            rec = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return None, f"{mode} {spec['kind']} printed no result"
        rec["wall_scale"] = rec["cpu_scale"] = 1.0
        if self.reference is not None:
            for key, (start, end) in rec["windows"].items():
                rec[key] -= stopped_s(slices, start, end)
            rec["wall_scale"], rec["cpu_scale"] = host_speed(
                slices, self.reference)
        print(f"{mode} {spec['kind']} seed {spec.get('seed', spec.get('seeds'))}: "
              + ", ".join(f"{k} {v:.6g}" for k, v in rec.items()
                          if isinstance(v, (int, float)) and not isinstance(v, bool)),
              f"({len(slices)} reference slices)", file=sys.stderr)
        return rec, ""

    def drive(self, spec: dict, mode: str, out: Optional[str] = None
              ) -> Optional[dict]:
        """One drive: one operation, failed when the child fails."""
        self.attempted += 1
        rec, error = self.spawn(spec, mode, out)
        if rec is None:
            self.fail(1, error)
        elif rec.get("golden_ok") is False:
            self.fail(1, f"seed {spec['seed']}: digests differ from golden "
                         f"{spec['golden']!r}")
            return None
        return rec

    def sweep(self, spec: dict, mode: str, out: Optional[str] = None
              ) -> Optional[dict]:
        """Cold and warm passes: one operation per job answered."""
        rec, error = self.spawn(spec, mode, out)
        if rec is None:
            self.attempted += 1
            self.fail(1, error)
            return None
        self.attempted += rec["attempted"]
        if rec["failed"]:
            self.fail(rec["failed"], f"{mode} sweep: {rec['failed']} jobs failed "
                                     "or were not answered from the cache")
        if any(rec["exit_codes"]) and not rec["failed"]:
            self.fail(1, f"sweep CLI exit codes {rec['exit_codes']}")
        return rec


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------- untraced runs
def measure(workload: dict, seed: int, seconds: float, ops: Operations
            ) -> Dict[str, float]:
    """End-to-end metrics: rounds of operations for ``seconds`` (and at
    least the workload's ``min_rounds``).

    Each operation's times come scaled to nominal host speed, as measured
    by the reference slices run in turns with it (``hostref.py``).
    """
    specs = op_specs(workload, seed)
    sweep = workload["kind"] == "sweep"
    run_op = ops.sweep if sweep else ops.drive
    records: List[Tuple[dict, dict]] = []
    started = time.monotonic()
    rounds = 0
    while True:
        round_start = time.monotonic()
        for spec in specs:
            rec = run_op(spec, "plain")
            if rec is not None:
                records.append((spec, rec))
        rounds += 1
        now = time.monotonic()
        if ((now - started >= seconds
             and rounds >= workload.get("min_rounds", 1))
                or now - started + (now - round_start) > MEASURE_BUDGET_S):
            break
    check_repeats(records, ops, sweep)

    setups = [rec["setup_s"] * rec["wall_scale"] for _, rec in records]
    probe = 0
    while len(setups) < MIN_SETUPS and time.monotonic() < ops.deadline - 10:
        rec, error = ops.spawn(specs[probe % len(specs)], "setup")
        probe += 1
        if rec is None:
            ops.problems.append(f"set-up probe: {error}")
            break
        setups.append(rec["setup_s"] * rec["wall_scale"])

    # Throughput is work over scaled time, summed over the run's operations
    # less the quarter that ran fastest and the quarter that ran slowest:
    # one road's work varies by up to 1.5x from seed to seed.
    elapsed = ((lambda rec: rec["cold_wall_s"] + rec["warm_wall_s"]) if sweep
               else (lambda rec: rec["wall_s"]))
    kept = sorted((rec for _, rec in records),
                  key=lambda rec: elapsed(rec) * rec["wall_scale"])
    trim = len(kept) // 4
    kept = kept[trim:len(kept) - trim]
    sim_s = sum(rec["sim_client_s"] for rec in kept)
    cpu = sum(rec["cpu_s"] * rec["cpu_scale"] for rec in kept)
    both = sum(elapsed(rec) * rec["wall_scale"] for rec in kept)
    if sweep:
        jobs = sum(rec["attempted"] - rec["failed"] for rec in kept)
        wall = sum(rec["cold_wall_s"] * rec["wall_scale"] for rec in kept)
    else:
        jobs, wall = len(kept), both
    metrics = {
        "setup_s": _median(setups),
        "sim_s_per_s": sim_s / wall if wall else 0.0,
        "sim_s_per_cpu_s": sim_s / cpu if cpu else 0.0,
        "jobs_per_s": jobs / both if both else 0.0,
        "peak_rss_mb": _median([rec["peak_rss_mb"] for _, rec in records]),
    }
    # Goodput is simulated, so one value per distinct input; average them.
    goodput = {json.dumps(spec, sort_keys=True): rec["goodput_mbps"]
               for spec, rec in records}
    metrics["goodput_mbps"] = (sum(goodput.values()) / len(goodput)
                               if goodput else 0.0)
    scales = [rec["wall_scale"] for _, rec in records]
    if scales:
        print(f"host: the reference kernel ran at {_median(scales):.3f}x "
              f"nominal speed (range {min(scales):.3f}-{max(scales):.3f}); "
              "every timing is scaled to nominal speed", file=sys.stderr)
    return metrics


def check_repeats(records: List[Tuple[dict, dict]], ops: Operations,
                  sweep: bool) -> None:
    """Every run of one input must reproduce the first run's digest."""
    first: Dict[str, str] = {}
    for spec, rec in records:
        key = json.dumps(spec, sort_keys=True)
        digest = first.setdefault(key, rec["digest"])
        if rec["digest"] != digest:
            ops.fail(rec["attempted"] if sweep else 1,
                     f"digest of {spec['kind']} seed "
                     f"{spec.get('seed', spec.get('seeds'))} changed between runs")


# ------------------------------------------------------------- traced runs
def trace(workload: dict, seed: int, name: str, ops: Operations
          ) -> Dict[str, float]:
    """Per-layer metrics from one untraced, one traced and (drives) one
    invariant-checked run of the workload's first operation."""
    spec = dict(op_specs(workload, seed)[0], full_digest=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{name}-seed{seed}.npz")
    sweep = workload["kind"] == "sweep"
    run_op = ops.sweep if sweep else ops.drive
    ref = run_op(spec, "plain")
    traced = run_op(spec, "traced", out)
    inv = None if sweep else ops.drive(spec, "invariants")
    if ref is None or traced is None:
        return {}
    if (traced["digest"], traced.get("trace_digest")) != \
            (ref["digest"], ref.get("trace_digest")):
        ops.fail(traced.get("attempted", 1), "tracing changed the digests")
    if inv is not None and (inv["digest"] != ref["digest"]
                            or inv["invariant_violations"]):
        ops.fail(1, f"invariant-checked run: {inv['invariant_violations']} "
                    "violations, digest "
                    f"{'unchanged' if inv['digest'] == ref['digest'] else 'changed'}")
    return layer_metrics(traced["trace"], ref, traced, inv, sweep)


def layer_metrics(summary: dict, ref: dict, traced: dict, inv: Optional[dict],
                  sweep: bool) -> Dict[str, float]:
    layers = summary["layers"]
    counts = summary["counts"]
    calls = summary["call_counts"]
    perf = summary["perf"]
    names = summary["names"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def kind_total(kind: str) -> float:
        return sum(e["total_s"] for e in names.values() if e["kind"] == kind)

    def mean_ms(label: str) -> float:
        entry = names.get(label)
        return 1e3 * ratio(entry["total_s"], entry["count"]) if entry else 0.0

    m: Dict[str, float] = {}
    for layer in ("sim", "sim.trace", "phy", "mac", "net", "core", "transport",
                  "policies", "mobility", "city", "experiments",
                  "orchestration"):
        m[f"{layer}.self_s"] = layers[layer]["self_s"]
    for layer in ("phy", "mac", "core", "transport", "policies", "mobility"):
        m[f"{layer}.calls"] = layers[layer]["calls"]
    pushes = summary["heap_pushes"]
    events = counts.get("sim.events", 0)
    m["sim.heap_pushes"] = pushes
    m["sim.callbacks_per_push"] = ratio(events, pushes)
    m["sim.cancels"] = counts.get("sim.cancels", 0)
    m["sim.events"] = events
    m["sim.events_per_s"] = (ratio(ref["events"], ref["job_wall_s"]) if sweep
                             else ratio(ref["events"], ref["run_s"]))
    m["sim.trace.records"] = calls.get("TraceRecorder.emit", 0)
    hits, misses = perf.get("link.memo_hits", 0), perf.get("link.memo_misses", 0)
    m["phy.memo_hit_ratio"] = ratio(hits, hits + misses)
    m["phy.tap_eval_points"] = perf.get("phy.tap_eval_points", 0)
    m["phy.esnr_inversions"] = (perf.get("esnr.invert_lut", 0)
                                + perf.get("esnr.invert_bisect", 0))
    tx = counts.get("mac.transmissions", 0)
    m["mac.transmissions"] = tx
    m["mac.receivers_per_tx"] = ratio(calls.get("Radio.on_frame", 0), tx)
    m["mac.collisions"] = counts.get("mac.collisions", 0)
    sends = calls.get("Backhaul.send", 0)
    m["net.backhaul_sends"] = sends
    m["net.us_per_send"] = 1e6 * ratio(layers["net"]["self_s"], sends)
    m["core.fanout_copies_per_delivery"] = ratio(
        counts.get("core.cyclic_inserts", 0), counts.get("deliveries", 0))
    accepted = counts.get("core.dedup_accepted", 0)
    duplicates = counts.get("core.dedup_duplicates", 0)
    m["core.uplink_dup_ratio"] = ratio(duplicates, accepted + duplicates)
    m["core.switches"] = counts.get("core.switches", 0)
    m["transport.tcp_retransmits"] = counts.get("transport.tcp_retransmits", 0)
    for key in ("links", "occupied_shards", "max_radios_per_shard", "rebuckets"):
        m[f"city.{key}"] = counts.get(f"city.{key}", 0)
    m["experiments.build_s"] = kind_total("build")
    m["experiments.post_s"] = kind_total("post")
    m["orchestration.worker_busy_ratio"] = ref.get("worker_busy_ratio", 0.0)
    m["orchestration.first_result_s"] = ref.get("first_result_s", 0.0)
    m["orchestration.cache_get_ms"] = mean_ms("ResultCache.get")
    m["orchestration.cache_put_ms"] = mean_ms("ResultCache.put")
    m["orchestration.cache_hit_ratio"] = ratio(
        counts.get("orchestration.cache_hits", 0),
        calls.get("ResultCache.get", 0))
    m["invariants.checks"] = inv["invariant_checks"] if inv else 0
    m["invariants.violations"] = inv["invariant_violations"] if inv else 0
    m["invariants.overhead_ratio"] = (ratio(inv["wall_s"], ref["wall_s"])
                                      if inv else 0.0)
    # The traced sweep runs its jobs in-process, so compare it with the
    # untraced jobs' own wall clocks, not the two-worker pass.
    m["trace_overhead"] = (ratio(traced["cold_wall_s"], ref["job_wall_s"])
                           if sweep else ratio(traced["wall_s"], ref["wall_s"]))
    m["layers.self_sum_ratio"] = summary["self_sum_ratio"]
    m["tracer.spans"] = summary["spans"]
    return m


# -------------------------------------------------------------------- main
def load_declared() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def report(metrics: Dict[str, float], declared: List[dict], ops: Operations,
           correct: bool) -> dict:
    """Print the table, then the result object as the last line."""
    for problem in ops.problems:
        print(f"FAILED: {problem}")
    print(f"{'metric':<36} {'value':>16}  {'unit':<12} better")
    result = {}
    for entry in declared:
        value = metrics.get(entry["name"], 0.0)
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<36} {value:>16.6g}  {entry['unit']:<12} "
              f"{entry['better']}")
    failed_ratio = ops.failed / ops.attempted if ops.attempted else 1.0
    print(f"{'failed_ratio':<36} {failed_ratio:>16.6g}  {'ratio':<12} lower "
          f"({ops.failed} of {ops.attempted} operations)")
    line = {"correct": correct, "attempted": max(ops.attempted, 1),
            "failed": ops.failed, "metrics": result}
    print(json.dumps(line))
    return line


def run(workload: dict, name: str, seed: int, seconds: float, traced: bool,
        declared: dict) -> dict:
    deadline = time.monotonic() + BUDGET_S
    if traced:
        ops = Operations(deadline)
        metrics = trace(workload, seed, name, ops)
        wanted = declared["per_layer"]
    else:
        ops = Operations(deadline, Reference())
        metrics = measure(workload, seed, seconds, ops)
        wanted = declared["end_to_end"]
    correct = ops.failed == 0 and ops.attempted > 0 and bool(metrics)
    return report(metrics, wanted, ops, correct)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="minimum measuring time (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no source tree at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    try:
        declared = load_declared()
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    line = run(WORKLOADS[args.workload], args.workload, args.seed,
               args.seconds, bool(args.trace), declared)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
