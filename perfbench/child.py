"""Run one benchmark operation in this process and print its result.

Usage (``run.py`` does this; one process per operation, so peak memory
and set-up time belong to that operation alone)::

    python3 perfbench/child.py --mode plain --spec '{"kind": "road", ...}' \
        --spawned <time.monotonic() just before the spawn>

Modes:

``plain``       the untraced measurement;
``setup``       stop at the start of the timed phase (a set-up probe);
``traced``      install the span tracer (``layers.py``) first, and write
                the spans and per-layer summary to ``--out``;
``invariants``  arm the runtime invariant monitors (drives only).

The last line of standard output is one JSON object.  A drive's timed
phase runs from its first entry into ``Simulator.run`` to the runner's
return; a sweep pass is timed from the CLI entry to its return.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

GOLDEN_PATH = os.path.join(ROOT, "tests", "golden", "drive_digests.json")


class SetupDone(Exception):
    """Raised at the start of the timed phase in ``setup`` mode."""


def cpu_s() -> float:
    """CPU seconds of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def install_tracer():
    from layers import Tracer, install

    tracer = Tracer()
    return tracer, install(tracer)


def finish_trace(tracer, phase_start: float, phase_end: float, out: str,
                 extra: dict) -> dict:
    summary = tracer.summary(phase_start, phase_end)
    summary.update(extra)
    tracer.write(out, summary, phase_start)
    return summary


# --------------------------------------------------------------------- drives
def run_drive(spec: dict, mode: str, spawned: float, out: str) -> dict:
    from repro.city import runner as city_runner
    from repro.experiments import runners
    from repro.experiments.digest import deliveries_digest, trace_digest
    from repro.perf import PERF
    from repro.sim.engine import Simulator

    tracer = uninstall = None
    if mode == "traced":
        tracer, uninstall = install_tracer()

    marks: dict = {}
    sim_run = Simulator.run

    def timed_run(self, *args, **kwargs):
        if "t0" not in marks:
            marks["m0"] = time.monotonic()
            marks["setup_s"] = marks["m0"] - spawned
            if mode == "setup":
                raise SetupDone
            marks["perf0"] = PERF.snapshot()["counters"]
            marks["cpu0"] = cpu_s()
            marks["t0"] = time.perf_counter()
        try:
            return sim_run(self, *args, **kwargs)
        finally:
            marks["run_end"] = time.perf_counter()

    Simulator.run = timed_run
    # Flow ids come from a module-global counter; pin it the way the
    # golden digests were recorded.
    runners._next_flow_id[0] = 1
    invariants = mode == "invariants"
    try:
        if spec["kind"] == "city":
            from repro.city import CityConfig
            from repro.experiments.builder import ExperimentConfig

            config = ExperimentConfig(
                seed=spec["seed"], city=CityConfig(**spec["city"]),
                check_invariants=invariants,
            )
            result = city_runner.run_city_drive(
                config, traffic=spec["traffic"],
                udp_rate_mbps=spec["udp_rate_mbps"],
                duration_s=spec["duration_s"], warmup_s=spec["warmup_s"],
            )
            n_clients = result.extras["n_vehicles"]
        else:
            kwargs = dict(spec["kwargs"])
            if "n_aps" in kwargs:
                from repro.mobility.trajectory import RoadLayout

                kwargs["road"] = RoadLayout.uniform(kwargs.pop("n_aps"))
            if invariants:
                kwargs["check_invariants"] = True
            result = runners.run_single_drive(seed=spec["seed"], **kwargs)
            n_clients = 1
    except SetupDone:
        return {"ok": True, "setup_s": marks["setup_s"],
                "windows": {"setup_s": [spawned, marks["m0"]]}}
    t1 = time.perf_counter()
    m1 = time.monotonic()
    cpu1 = cpu_s()
    perf1 = PERF.snapshot()["counters"]
    if uninstall is not None:
        uninstall()

    wall = t1 - marks["t0"]
    net = result.net
    out_rec = {
        "ok": True,
        "setup_s": marks["setup_s"],
        "wall_s": wall,
        "run_s": marks["run_end"] - marks["t0"],
        "cpu_s": cpu1 - marks["cpu0"],
        "sim_client_s": result.duration_s * n_clients,
        "events": net.sim.events_fired,
        "deliveries": len(result.deliveries),
        "digest": deliveries_digest(result.deliveries),
        "peak_rss_mb": peak_rss_mb(),
        "windows": {"setup_s": [spawned, marks["m0"]],
                    "wall_s": [marks["m0"], m1]},
    }
    if spec["kind"] == "city":
        out_rec["goodput_mbps"] = result.throughput_mbps
    else:
        out_rec["goodput_mbps"] = result.summarize(
            speed_mph=spec["kwargs"]["speed_mph"]).coverage_throughput_mbps
    if spec.get("full_digest") or spec.get("golden"):
        out_rec["trace_digest"] = trace_digest(result.trace)
    if spec.get("golden"):
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)[spec["golden"]]
        out_rec["golden_ok"] = (
            golden["deliveries"] == out_rec["digest"]
            and golden["trace"] == out_rec["trace_digest"]
            and golden["events_fired"] == out_rec["events"]
        )
    if invariants:
        suite = net.invariants
        out_rec["invariant_checks"] = suite.checks
        out_rec["invariant_violations"] = suite.violation_count
    if tracer is not None:
        perf = {k: perf1.get(k, 0) - marks["perf0"].get(k, 0) for k in perf1}
        out_rec["trace"] = finish_trace(
            tracer, marks["t0"], t1, out, {"perf": perf})
    return out_rec


# ---------------------------------------------------------------------- sweep
def sweep_digest(result) -> str:
    """SHA-256 over the deterministic part of every job summary."""
    payload = [s.deterministic_dict() if s is not None else None
               for s in result.summaries]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_sweep(spec: dict, mode: str, spawned: float, out: str) -> dict:
    from repro.experiments import cli
    from repro.orchestration.cache import ResultCache
    from repro.perf import PERF

    setup_end = time.monotonic()
    if mode == "setup":
        return {"ok": True, "setup_s": setup_end - spawned,
                "windows": {"setup_s": [spawned, setup_end]}}
    tracer = uninstall = None
    if mode == "traced":
        tracer, uninstall = install_tracer()

    captured = []
    run_sweep_fn = cli.run_sweep

    def capture(*args, **kwargs):
        result = run_sweep_fn(*args, **kwargs)
        captured.append(result)
        return result

    first_put: list = []
    cache_put = ResultCache.put

    def put(self, job, summary):
        cache_put(self, job, summary)
        if not first_put:
            first_put.append(time.perf_counter())

    cli.run_sweep = capture
    ResultCache.put = put
    jobs = 1 if mode == "traced" else spec["jobs"]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-",
                                 dir=os.path.join(HERE, "out"))
    argv = ["sweep", *spec["argv"],
            "--seeds", ",".join(str(s) for s in spec["seeds"]),
            "--jobs", str(jobs), "--cache-dir", cache_dir]
    passes = []
    setup_s = setup_end - spawned
    perf0 = PERF.snapshot()["counters"]
    try:
        for _ in ("cold", "warm"):
            printed = io.StringIO()
            c0 = cpu_s()
            m0, t0 = time.monotonic(), time.perf_counter()
            with contextlib.redirect_stdout(printed):
                code = cli.main(argv)
            t1, m1 = time.perf_counter(), time.monotonic()
            passes.append({"code": code, "t0": t0, "wall_s": t1 - t0,
                           "cpu_s": cpu_s() - c0, "window": [m0, m1]})
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    perf1 = PERF.snapshot()["counters"]
    if uninstall is not None:
        uninstall()

    cold, warm = captured
    summaries = [s for s in cold.summaries if s is not None]
    # A warm answer counts only if it came from the cache and equals the
    # cold pass's summary.
    warm_unequal = sum(
        a is None or b is None
        or a.deterministic_dict() != b.deterministic_dict()
        for a, b in zip(cold.summaries, warm.summaries)
    )
    failed = (len(cold.jobs) - len(summaries)
              + max(warm_unequal, len(warm.jobs) - warm.stats.cached))
    job_wall = sum(s.wall_clock_s for s in summaries)
    rec = {
        "ok": True,
        "setup_s": setup_s,
        "attempted": len(cold.jobs) + len(warm.jobs),
        "failed": failed,
        "exit_codes": [p["code"] for p in passes],
        "cold_wall_s": passes[0]["wall_s"],
        "warm_wall_s": passes[1]["wall_s"],
        "cpu_s": passes[0]["cpu_s"],
        "sim_client_s": sum(s.duration_s * max(1, s.n_vehicles)
                            for s in summaries),
        "goodput_mbps": (sum(s.coverage_throughput_mbps for s in summaries)
                         / max(1, len(summaries))),
        "events": sum(s.events_fired for s in summaries),
        "job_wall_s": job_wall,
        "worker_busy_ratio": job_wall / (jobs * passes[0]["wall_s"]),
        "first_result_s": (first_put[0] - passes[0]["t0"]
                           if first_put else 0.0),
        "digest": sweep_digest(cold),
        "peak_rss_mb": peak_rss_mb(),
        "windows": {"setup_s": [spawned, setup_end],
                    "cold_wall_s": passes[0]["window"],
                    "warm_wall_s": passes[1]["window"]},
    }
    if tracer is not None:
        perf = {k: perf1.get(k, 0) - perf0.get(k, 0) for k in perf1}
        rec["trace"] = finish_trace(
            tracer, passes[0]["t0"], passes[1]["t0"] + passes[1]["wall_s"],
            out, {"perf": perf})
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("plain", "setup", "traced", "invariants"))
    parser.add_argument("--spec", required=True, help="operation spec (JSON)")
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--out", default=os.path.join(HERE, "out", "trace.npz"),
                        help="span file of a traced run (.npz)")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)
    run = run_sweep if spec["kind"] == "sweep" else run_drive
    print(json.dumps(run(spec, args.mode, args.spawned, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
