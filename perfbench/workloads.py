"""The benchmark's workloads and how each turns ``--seed`` into inputs.

A workload is a list of *operation specs*, one round of work.  Each spec
is a JSON-able dict that ``child.py`` runs in a fresh process:

* ``{"kind": "road", "seed": n, "kwargs": {...}}`` --
  ``run_single_drive(seed=n, **kwargs)``; ``kwargs["n_aps"]`` builds a
  uniform road of that many APs.
* ``{"kind": "city", "seed": n, "city": {...CityConfig...}, ...}`` --
  ``run_city_drive`` on ``ExperimentConfig(seed=n, city=...)``.
* ``{"kind": "sweep", "seeds": [...], "argv": [...], "jobs": 2}`` -- the
  CLI ``sweep`` subcommand, run twice against one fresh cache directory
  (a cold pass, then a warm pass).

``golden`` names the entry of ``tests/golden/drive_digests.json`` a road
drive must reproduce exactly.
"""

from __future__ import annotations

from typing import Dict, List

#: Seeds a road or city run adds to ``--seed``: one road's goodput and
#: event count differ by ~10% from seed to seed (and its run time by up
#: to 1.5x), so a run takes six drives (three fleets) whose seeds are
#: 1000 apart, and the seed-0 run still contains the golden drive.
SEED_STRIDE = 1000

ROAD_TCP = {
    "kind": "road",
    "kwargs": {"mode": "wgtt", "speed_mph": 15.0, "traffic": "tcp"},
    "drives": 6,
    "golden": {0: "default_tcp"},
}

CITY_UPLINK = {
    "kind": "city",
    "city": {"rows": 1, "cols": 9, "aps_per_segment": 4, "n_vehicles": 64,
             "cell_m": 45.0},
    "traffic": "udp-up",
    "udp_rate_mbps": 5.0,
    "duration_s": 2.5,
    "warmup_s": 0.25,
    "drives": 3,
}

SWEEP = {
    "kind": "sweep",
    "argv": ["--modes", "wgtt,baseline", "--speeds", "25,35",
             "--traffic", "udp", "--udp-rate", "10", "--n-aps", "3"],
    "n_seeds": 8,
    "jobs": 2,
    # One cold pass is a single sample of a two-process pass; take two.
    "min_rounds": 2,
}

WORKLOADS: Dict[str, dict] = {
    "road-tcp": ROAD_TCP,
    "city-uplink": CITY_UPLINK,
    "sweep": SWEEP,
}


def op_specs(workload: dict, seed: int) -> List[dict]:
    """One round of operation specs for ``workload`` on ``seed``."""
    if workload["kind"] == "sweep":
        spec = {k: v for k, v in workload.items()
                if k not in ("n_seeds", "min_rounds")}
        spec["seeds"] = list(range(seed, seed + workload["n_seeds"]))
        return [spec]
    specs = []
    for i in range(workload.get("drives", 1)):
        drive_seed = seed + SEED_STRIDE * i
        spec = {k: v for k, v in workload.items()
                if k not in ("drives", "golden")}
        spec["seed"] = drive_seed
        golden = workload.get("golden", {}).get(drive_seed)
        if golden is not None:
            spec["golden"] = golden
        specs.append(spec)
    return specs
