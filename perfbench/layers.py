"""Span tracer for the benchmark's traced run, installed from outside ``src``.

Nothing in ``repro`` knows about this module.  :func:`install` replaces a
fixed list of functions and methods with wrappers that open a span, call
the original and close the span; :func:`uninstall` puts the originals
back.  The simulation itself is untouched, so a traced drive produces the
same deliveries and trace digests as an untraced one.

Layers are the ``repro`` subpackages, with three module-level exceptions
(see :data:`MODULE_LAYERS`): ``repro.sim.trace`` is its own layer,
``repro.city.medium`` (the sharded medium's overrides) belongs to ``mac``
and ``repro.city.mobility`` (vehicle routes) to ``mobility``.

Where spans open
----------------
* Every callback handed to ``Simulator.schedule``/``schedule_at``/
  ``schedule_batch_at``/``call_every`` or ``PeriodicGroup.add`` runs in a
  span of the layer whose module defined it (tagged at schedule time).
* The calls in :data:`CALLS` -- public entry points one layer calls on
  another, plus the hooks a subclass in one layer overrides for a base
  class in another -- open a span of the callee's layer.
* A span opens only where the layer changes: a wrapped call made from a
  span of the same layer runs bare.  This keeps call-heavy layers from
  being inflated by the wrapper itself.  The cache's ``get``/``put`` and
  each sweep job (:data:`FORCED`) always open a span.

Each span records its name, start, end, parent and root.  The root is the
span's own dispatched event: a child of a top-level ``Simulator.run`` is a
root, and so is each sweep job (every span under one job shares its id).
A layer's self time is its spans' durations minus their children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer the benchmark reports, in report order.
LAYERS = (
    "sim", "sim.trace", "phy", "mac", "net", "core", "transport",
    "policies", "mobility", "city", "experiments", "orchestration",
    "invariants",
)

#: Modules whose layer is not their subpackage.
MODULE_LAYERS = {
    "repro.sim.trace": "sim.trace",
    "repro.city.medium": "mac",
    "repro.city.mobility": "mobility",
}

#: (module, class or None, names, layer or None) -- the cross-layer entry
#: points.  ``layer=None`` means the defining module's layer.
CALLS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], Optional[str]], ...] = (
    ("repro.sim.trace", "TraceRecorder", ("emit",), None),
    ("repro.phy.channel", "Link", (
        "mean_snr_db", "rx_power_dbm", "csi", "subcarrier_snr_db", "esnr_db",
        "rssi_db", "capacity_mbps", "mpdu_success_probability",
        "measure_csi"), None),
    ("repro.phy.csi", "CSIReading", ("esnr_db",), None),
    ("repro.mobility.trajectory", "StationaryTrajectory", ("position",), None),
    ("repro.mobility.trajectory", "LinearTrajectory", ("position",), None),
    ("repro.mobility.trajectory", "WaypointTrajectory", ("position",), None),
    ("repro.city.mobility", "VehiclePlan", ("leg_at", "segment_at"), None),
    ("repro.mac.radio", "Radio", (
        "kick", "send_mgmt", "send_beacon", "on_frame",
        "apply_forwarded_block_ack", "flush_retries", "power_off",
        "power_on"), None),
    ("repro.mac.rate_control", "EsnrRateControl", ("on_esnr",), None),
    ("repro.net.ethernet", "Backhaul", ("send", "broadcast"), None),
    ("repro.core.controller", "WgttController", (
        "send_downlink", "on_backhaul"), None),
    ("repro.core.baseline", "BaselineController", (
        "send_downlink", "on_backhaul"), None),
    ("repro.core.ap", "BaseAp", ("on_backhaul",), None),
    ("repro.core.client", "MobileClient", (
        "uplink_send", "on_downlink", "position"), None),
    ("repro.core.ap_selection", "ApSelector", (
        "update", "in_range_aps", "best_ap", "candidates", "drop_ap"), None),
    ("repro.core.dedup", "Deduplicator", ("accept",), None),
    ("repro.transport.tcp", "TcpSender", ("start", "on_packet"), None),
    ("repro.transport.tcp", "TcpReceiver", ("on_packet",), None),
    ("repro.transport.udp", "UdpSender", ("start",), None),
    ("repro.transport.udp", "UdpReceiver", ("on_packet",), None),
    ("repro.policies.baseline80211r", "ThresholdScanRule", ("pick_target",),
     None),
    ("repro.city.medium", "ShardedMedium", ("_rebucket_mobile", "rebucket"),
     "city"),
    ("repro.city.spatial", "SpatialIndex", ("query", "query_path"), None),
    ("repro.experiments.runners", None, ("run_drive_summary",), None),
    ("repro.orchestration.runner", "SweepRunner", ("run",), None),
    ("repro.orchestration.runner", None, ("execute_job_inline",), None),
    ("repro.orchestration.cache", "ResultCache", ("get", "put"), None),
    ("repro.orchestration.summary", "DriveSummary", (
        "from_drive_result", "to_dict", "from_dict"), None),
    ("repro.experiments.cli", None, ("main", "run_sweep"), None),
)

#: Calls that always open a span, even from their own layer.
FORCED = {"ResultCache.get", "ResultCache.put", "execute_job_inline"}

#: Calls whose span is a sweep job: the root of everything beneath it.
JOBS = {"execute_job_inline"}

#: Handover policies override these hooks; each override is an entry
#: point from ``core``.
POLICY_HOOKS = ("observe", "select", "in_range_aps", "on_switch", "drop_ap")

#: Base classes whose hook overrides, in a subclass from another layer,
#: are entry points back into that subclass's layer (mac calls the core
#: radios' hooks, core calls the city segment controller's).
HOOK_BASES = (
    ("repro.mac.radio", "Radio", ("repro.core.ap", "repro.core.client")),
    ("repro.core.controller", "WgttController", ("repro.city.builder",)),
)

def layer_of_module(module: Optional[str]) -> str:
    """The layer a module belongs to (``other`` outside ``repro``)."""
    layer = MODULE_LAYERS.get(module or "")
    if layer is not None:
        return layer
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "other"


class Tracer:
    """In-memory span store: five parallel typed arrays plus a name table."""

    def __init__(self):
        self.clock = time.perf_counter
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self.name_kind: List[str] = []
        self._name_ids: Dict[Tuple[str, str, str], int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_root = array("i")
        #: Open spans: (index, layer, root handed to children or -1).
        self.stack: List[Tuple[int, str, int]] = []
        self.counts: Dict[str, float] = {}
        #: label -> one-element call counter, bumped whether or not the
        #: call opened a span.
        self.call_counts: Dict[str, List[int]] = {}
        self.heap_pushes = [0]
        self._callback_ids: Dict[object, Tuple[int, str]] = {}
        self._layer_override: Dict[object, str] = {}

    # ----------------------------------------------------------- recording
    def name_id(self, name: str, layer: str, kind: str = "call") -> int:
        key = (name, layer, kind)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.name_kind.append(kind)
        return nid

    def open(self, nid: int, layer: str, job: bool = False,
             fan_out: bool = False) -> int:
        """Start a span; returns its index for :meth:`close`.

        ``job`` makes the span a root for everything beneath it;
        ``fan_out`` makes each direct child its own root (a top-level
        ``Simulator.run`` dispatching events).
        """
        idx = len(self.span_name)
        stack = self.stack
        if stack:
            parent, _, inherited = stack[-1]
            root = idx if (job or inherited < 0) else inherited
        else:
            parent, root = -1, idx
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_root.append(root)
        self.span_end.append(0.0)
        stack.append((idx, layer, -1 if fan_out else root))
        self.span_start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        stack = self.stack
        while stack and stack[-1][0] != idx:
            stack.pop()  # a span left open by an exception
        if stack:
            stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def in_job(self) -> bool:
        return any(self.name_kind[self.span_name[i]] == "job"
                   for i, _, _ in self.stack)

    # ------------------------------------------------------------- wrapping
    def span_call(self, fn: Callable, name: str, layer: str,
                  kind: str = "call", forced: bool = False) -> Callable:
        """``fn`` wrapped in a span (skipped when called from ``layer``)."""
        nid = self.name_id(name, layer, kind)
        stack, open_, close = self.stack, self.open, self.close
        job = kind == "job"
        ncalls = self.call_counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            ncalls[0] += 1
            if not forced and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            idx = open_(nid, layer, job=job)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return functools.update_wrapper(wrapper, fn)

    def callback(self, fn: Callable) -> Callable:
        """A scheduled callback wrapped in a span of its defining layer."""
        target = getattr(fn, "__func__", fn)
        if isinstance(target, functools.partial):
            target = target.func
        target = getattr(target, "__wrapped__", target)  # a span_call
        module = getattr(target, "__module__", None)
        qualname = getattr(target, "__qualname__", type(target).__qualname__)
        # Closures share their code object, so one key serves them all.
        key = getattr(target, "__code__", None) or (module, qualname)
        cached = self._callback_ids.get(key)
        if cached is None:
            layer = self._layer_override.get(key) or layer_of_module(module)
            cached = (self.name_id(f"{module}.{qualname}", layer, "callback"),
                      layer)
            self._callback_ids[key] = cached
        nid, layer = cached
        stack, open_, close = self.stack, self.open, self.close

        def cb(*args):
            if stack and stack[-1][1] == layer:
                return fn(*args)
            idx = open_(nid, layer)
            try:
                return fn(*args)
            finally:
                close(idx)

        return cb

    # -------------------------------------------------------------- summary
    def summary(self, phase_start: float, phase_end: float) -> Dict:
        """Per-layer self time and span count over the spans that start
        inside ``[phase_start, phase_end]``, and per-name totals over all."""
        import numpy as np

        names = np.frombuffer(self.span_name, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        n = len(names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_t = dur - child
        in_phase = (start >= phase_start) & (start <= phase_end)
        layer_list = sorted(set(self.name_layer) | set(LAYERS))
        layer_idx = {layer: i for i, layer in enumerate(layer_list)}
        name_layer = np.array([layer_idx[l] for l in self.name_layer] or [0],
                              dtype=np.int64)
        span_layer = name_layer[names[in_phase]] if n else np.zeros(0, int)
        self_by_layer = np.bincount(span_layer, weights=self_t[in_phase],
                                    minlength=len(layer_list))
        calls_by_layer = np.bincount(span_layer, minlength=len(layer_list))
        per_name_total = np.bincount(names, weights=dur,
                                     minlength=len(self.names))
        per_name_count = np.bincount(names, minlength=len(self.names))
        phase_s = phase_end - phase_start
        self_sum = float(self_by_layer.sum())
        return {
            "phase_s": phase_s,
            "spans": int(n),
            "self_sum_s": self_sum,
            "self_sum_ratio": self_sum / phase_s if phase_s > 0 else 0.0,
            "layers": {
                layer: {"self_s": float(self_by_layer[i]),
                        "calls": int(calls_by_layer[i])}
                for layer, i in layer_idx.items()
            },
            "names": {
                name: {"layer": self.name_layer[i], "kind": self.name_kind[i],
                       "total_s": float(per_name_total[i]),
                       "count": int(per_name_count[i])}
                for i, name in enumerate(self.names)
            },
            "counts": dict(self.counts),
            "call_counts": {k: v[0] for k, v in self.call_counts.items()},
            "heap_pushes": self.heap_pushes[0],
        }

    def write(self, path: str, summary: Dict, phase_start: float) -> None:
        """Spans to ``path`` (``.npz``) and the summary next to it (``.json``).

        Times in the span file are seconds from the traced phase's start.
        """
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64) - phase_start,
            end=np.frombuffer(self.span_end, dtype=np.float64) - phase_start,
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            root=np.frombuffer(self.span_root, dtype=np.int32),
            names=np.array(self.names, dtype=str),
            layers=np.array(self.name_layer, dtype=str),
            kinds=np.array(self.name_kind, dtype=str),
        )
        with open(path[:-len(".npz")] + ".json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)


def _resolve(module: str, cls: Optional[str]):
    """The class ``cls`` of ``module``, or the module itself."""
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the engine, the entry points and the drive phases; returns
    the function that restores every original."""
    from repro.sim import engine

    saved: List[Tuple[object, str, object]] = []

    def replace(owner, attr: str, new) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # Explicit layers for callbacks whose module says otherwise.
    for module, cls, names, layer in CALLS:
        if layer is None or cls is None:
            continue
        owner = _resolve(module, cls)
        for name in names:
            tracer._layer_override[owner.__dict__[name].__code__] = layer

    # ---- cross-layer entry points
    def wrap(owner, name: str, layer: str, label: str) -> None:
        fn = owner.__dict__[name]
        kind = "job" if label in JOBS else "call"
        binder = type(fn) if isinstance(fn, (classmethod, staticmethod)) else None
        wrapped = tracer.span_call(getattr(fn, "__func__", fn) if binder else fn,
                                   label, layer, kind=kind,
                                   forced=label in FORCED)
        replace(owner, name, binder(wrapped) if binder else wrapped)

    for module, cls, names, layer in CALLS:
        owner = _resolve(module, cls)
        for name in names:
            label = f"{cls}.{name}" if cls else name
            defined_in = getattr(owner.__dict__[name], "__module__", module)
            wrap(owner, name, layer or layer_of_module(defined_in), label)

    import repro.policies  # noqa: F401 - registers every policy class
    from repro.policies.base import HandoverPolicy

    pending = list(HandoverPolicy.__subclasses__()) + [HandoverPolicy]
    seen = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        for name in POLICY_HOOKS:
            if name in cls.__dict__:
                wrap(cls, name, layer_of_module(cls.__module__),
                     f"{cls.__name__}.{name}")

    for module, cls, sub_modules in HOOK_BASES:
        base = _resolve(module, cls)
        hooks = {name for klass in base.__mro__ for name, value in
                 vars(klass).items() if callable(value)}
        for sub_module in sub_modules:
            mod = importlib.import_module(sub_module)
            for sub in vars(mod).values():
                if (isinstance(sub, type) and issubclass(sub, base)
                        and sub.__module__ == sub_module):
                    for name, value in list(vars(sub).items()):
                        if (name in hooks and callable(value)
                                and not name.startswith("__")):
                            wrap(sub, name, layer_of_module(sub_module),
                                 f"{sub.__name__}.{name}")

    # ---- counters that need no span
    from repro.core.cyclic_queue import CyclicQueue
    from repro.orchestration.cache import ResultCache

    cancel, insert = engine.EventHandle.cancel, CyclicQueue.insert
    cache_get = ResultCache.get

    def counted_cancel(self):
        if self.fn is not None and not self.cancelled:
            tracer.count("sim.cancels")
        return cancel(self)

    def counted_insert(self, packet):
        tracer.count("core.cyclic_inserts")
        return insert(self, packet)

    def counted_get(self, job):
        summary = cache_get(self, job)
        tracer.count("orchestration.cache_hits", summary is not None)
        return summary

    replace(engine.EventHandle, "cancel", counted_cancel)
    replace(CyclicQueue, "insert", counted_insert)
    replace(ResultCache, "get", counted_get)

    # ---- the engine: callbacks tagged at schedule time, heap pushes
    sim_cls = engine.Simulator
    callback = tracer.callback
    schedule, schedule_at = sim_cls.schedule, sim_cls.schedule_at
    batch_at, call_every = sim_cls.schedule_batch_at, sim_cls.call_every
    group_add = engine.PeriodicGroup.add
    pushes = tracer.heap_pushes

    def t_schedule(self, delay, fn, *args):
        pushes[0] += 1
        return schedule(self, delay, callback(fn) if callable(fn) else fn, *args)

    def t_schedule_at(self, when, fn, *args):
        pushes[0] += 1
        return schedule_at(self, when, callback(fn) if callable(fn) else fn,
                           *args)

    def t_batch_at(self, when, fn, *args, key=None):
        return batch_at(self, when, callback(fn) if callable(fn) else fn,
                        *args, key=key)

    def t_call_every(self, interval, fn, *args, **kwargs):
        return call_every(self, interval, callback(fn), *args, **kwargs)

    def t_group_add(self, fn, *args):
        return group_add(self, callback(fn), *args)

    replace(sim_cls, "schedule", t_schedule)
    replace(sim_cls, "schedule_at", t_schedule_at)
    replace(sim_cls, "schedule_batch_at", t_batch_at)
    replace(sim_cls, "call_every", t_call_every)
    replace(engine.PeriodicGroup, "add", t_group_add)

    # ---- drive phases: Simulator.run, then result extraction ("post")
    run_nid = tracer.name_id("Simulator.run", "sim", "run")
    post_nid = tracer.name_id("post", "experiments", "post")
    sim_run = sim_cls.run
    post_open: List[int] = []
    runner_depth = [0]

    def t_run(self, *args, **kwargs):
        idx = tracer.open(run_nid, "sim", fan_out=not tracer.in_job())
        try:
            return sim_run(self, *args, **kwargs)
        finally:
            tracer.close(idx)
            if runner_depth[0] and not post_open:
                post_open.append(tracer.open(post_nid, "experiments"))

    replace(sim_cls, "run", t_run)

    from repro.city import runner as city_runner
    from repro.experiments import runners

    def phase_runner(fn, label: str):
        nid = tracer.name_id(label, "experiments", "call")

        def wrapper(*args, **kwargs):
            # A drive the benchmark calls directly is not a span (its
            # set-up is outside the traced phase); one another layer
            # calls, as a sweep job does, is.
            idx = tracer.open(nid, "experiments") if tracer.stack else None
            runner_depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                runner_depth[0] -= 1
                if post_open:
                    tracer.close(post_open.pop())
                if idx is not None:
                    tracer.close(idx)
            harvest(tracer, result)
            return result

        return wrapper

    replace(runners, "run_single_drive",
            phase_runner(runners.run_single_drive, "run_single_drive"))
    replace(city_runner, "run_city_drive",
            phase_runner(city_runner.run_city_drive, "run_city_drive"))
    replace(runners, "build_network", tracer.span_call(
        runners.build_network, "build_network", "experiments", kind="build",
        forced=True))
    replace(city_runner, "build_city_network", tracer.span_call(
        city_runner.build_city_network, "build_city_network", "city",
        kind="build", forced=True))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def harvest(tracer: Tracer, result) -> None:
    """Add one finished drive's simulated counters to ``tracer.counts``."""
    net = result.net
    medium = net.medium
    trace = net.trace
    tracer.count("drives")
    tracer.count("sim.events", net.sim.events_fired)
    tracer.count("deliveries", len(result.deliveries))
    tracer.count("mac.transmissions",
                 medium.data_transmissions + medium.response_transmissions)
    tracer.count("mac.collisions", medium.collisions)
    tracer.count("core.switches", trace.counters.get("ap_switch", 0))
    tracer.count("transport.tcp_retransmits",
                 getattr(result.sender, "retransmissions", 0) or 0)
    controllers = getattr(net, "controllers", None) or [net.controller]
    dedups = {id(d): d for d in (getattr(c, "dedup", None) for c in controllers)
              if d is not None}
    for dedup in dedups.values():
        tracer.count("core.dedup_accepted", dedup.accepted)
        tracer.count("core.dedup_duplicates", dedup.duplicates)
    vehicles = getattr(net, "vehicles", None)
    if vehicles is not None:
        tracer.count("city.links",
                     sum(len(v.linked_ap_ids) for v in vehicles))
        stats = result.extras.get("shard_stats", {})
        for key in ("occupied_shards", "max_radios_per_shard", "rebuckets"):
            tracer.count(f"city.{key}", stats.get(key, 0))
