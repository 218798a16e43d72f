"""Sweep execution through a work queue, with caching and fault tolerance.

:class:`SweepRunner` answers cache hits, enqueues the misses on a
:class:`~repro.orchestration.queue.WorkQueue` and drains it: inline for
``jobs=1``, or with ``jobs`` spawned pull workers
(:func:`queue_worker_main`) on a ``FileQueue``.  Each job ships back a
:class:`~repro.orchestration.summary.DriveSummary` -- never the live
``Network`` -- which is cached, stored and aggregated as it lands.

Fault model
-----------
* An exception inside a job is caught where the job runs and fails that
  attempt (crash isolation: one bad job cannot take down the sweep).
* A hard worker death (``os._exit``, OOM-kill, segfault) wakes the
  coordinator, which releases the dead worker's lease at once and spawns
  a replacement; a worker that stops heartbeating loses its lease after
  ``lease_timeout_s``.
* Every job gets ``max_retries`` extra attempts; a job that exhausts
  them becomes a :class:`JobFailure` in the report -- the sweep still
  completes and returns every other result.
* ``timeout_s`` arms a per-job wall-clock alarm where the job runs
  (POSIX ``SIGALRM``; silently unavailable elsewhere), so a hung drive
  is a retryable failure, not a stuck sweep.

Determinism: each job builds its own ``Network`` from its own seed, so
results are bit-identical for any ``jobs`` value, pull order or
crash/requeue schedule.

Test hooks (used by the fault-tolerance tests only): setting
``REPRO_SWEEP_TEST_CRASH`` to ``exception`` or ``exit`` makes workers
crash on jobs whose key contains ``REPRO_SWEEP_TEST_MATCH``; with
``REPRO_SWEEP_TEST_CRASH_ONCE_DIR`` set, each job crashes only on its
first attempt (a marker file is dropped in that directory).
``REPRO_SWEEP_TEST_SLEEP_S`` delays matching jobs, for timeout tests.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import signal
import tempfile
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from time import monotonic, sleep
from typing import Dict, Iterable, List, Optional, Union

from .cache import ResultCache
from .progress import ProgressReporter, SweepStats
from .queue import DEFAULT_LEASE_TIMEOUT_S, Claim, FileQueue, MemoryQueue, WorkQueue
from .spec import JobSpec, SweepSpec
from .summary import DriveSummary

__all__ = ["JobFailure", "SweepResult", "SweepRunner", "run_sweep",
           "queue_worker_main", "execute_job_inline"]

#: The coordinator's longest sleep while workers run: it also wakes at
#: once when a worker exits, so this bounds only how stale progress and
#: streamed results can get.
POLL_S = 0.05


# ------------------------------------------------------------------ worker
def _apply_test_hooks(job: JobSpec) -> None:
    """Crash/delay injection for the fault-tolerance tests (no-op otherwise)."""
    crash_mode = os.environ.get("REPRO_SWEEP_TEST_CRASH")
    sleep_s = os.environ.get("REPRO_SWEEP_TEST_SLEEP_S")
    if not crash_mode and not sleep_s:
        return
    match = os.environ.get("REPRO_SWEEP_TEST_MATCH", "")
    if match not in job.key():
        return
    if sleep_s:
        sleep(float(sleep_s))
    if not crash_mode:
        return
    once_dir = os.environ.get("REPRO_SWEEP_TEST_CRASH_ONCE_DIR")
    if once_dir:
        marker = os.path.join(
            once_dir, "crashed_" + job.key().replace(":", "_").replace("=", "-")
        )
        if os.path.exists(marker):
            return  # already crashed once; let the retry succeed
        with open(marker, "w") as fh:
            fh.write(job.key())
    if crash_mode == "exit":
        os._exit(13)  # hard death: the coordinator reaps the worker
    raise RuntimeError(f"injected test crash for {job.key()}")


def execute_job_inline(job: JobSpec) -> DriveSummary:
    """Run one job in this process and extract its summary."""
    from ..experiments.runners import run_drive_summary

    summary = run_drive_summary(**job.run_kwargs())
    summary.job_key = job.key()
    return summary


def _run_claim(queue: WorkQueue, claim: Claim,
               timeout_s: Optional[float]) -> None:
    """Execute one claimed job and release it (complete or fail).

    Shared by the worker process loop and the inline drain: test hooks
    and the SIGALRM wall-clock guard apply identically, so a timeout or
    injected crash behaves the same wherever the job runs.
    """
    alarm_armed = False
    try:
        if timeout_s and hasattr(signal, "SIGALRM"):
            def _on_alarm(_sig, _frame):
                raise TimeoutError(f"job exceeded {timeout_s}s wall clock")
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
            alarm_armed = True
        _apply_test_hooks(claim.job)
        summary = execute_job_inline(claim.job)
        queue.complete(claim, summary.to_dict())
    except BaseException as exc:  # noqa: BLE001 - isolation is the point
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        queue.fail(claim, f"{type(exc).__name__}: {exc}")
    finally:
        if alarm_armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)


def queue_worker_main(
    root: str,
    worker_id: str,
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    max_retries: int = 2,
    timeout_s: Optional[float] = None,
) -> None:
    """A pull worker: claim, heartbeat, run, push, until nothing is claimable.

    This is the entry point a worker *process* runs (the coordinator
    spawns ``jobs`` of them; on a shared filesystem any number of hosts
    could run it against the same root).  A heartbeat thread renews the
    lease at a quarter of the expiry period while the drive runs.  The
    worker exits as soon as every remaining job is leased by someone
    else; if a lease frees up later (its holder died), the coordinator
    spawns a replacement.
    """
    import threading

    queue = FileQueue(root, lease_timeout_s=lease_timeout_s,
                      max_retries=max_retries)
    while True:
        claim = queue.claim(worker_id)
        if claim is None:
            return
        stop = threading.Event()

        def _beat(claim=claim, stop=stop):
            while not stop.wait(lease_timeout_s / 4.0):
                try:
                    queue.heartbeat(claim)
                except OSError:  # pragma: no cover - fs went away
                    return

        beater = threading.Thread(target=_beat, daemon=True)
        beater.start()
        try:
            _run_claim(queue, claim, timeout_s)
        finally:
            stop.set()


# ------------------------------------------------------------------ results
@dataclass
class JobFailure:
    """One job that exhausted its retry budget."""

    job: JobSpec
    attempts: int
    error: str


@dataclass
class SweepResult:
    """Everything a sweep produced, in the spec's expansion order."""

    jobs: List[JobSpec]
    #: Aligned with ``jobs``; None where the job ultimately failed.
    summaries: List[Optional[DriveSummary]]
    failures: List[JobFailure] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    @property
    def ok(self) -> bool:
        return not self.failures

    def by_key(self) -> Dict[str, DriveSummary]:
        return {
            job.key(): summary
            for job, summary in zip(self.jobs, self.summaries)
            if summary is not None
        }


# ------------------------------------------------------------------ runner
class SweepRunner:
    """Executes a sweep through a work queue with caching and retries.

    ``jobs=1`` drains a :class:`MemoryQueue` in this process; a higher
    count spawns that many pull workers on a :class:`FileQueue` in a
    temporary directory, removed afterwards.  ``queue_dir`` (empty or
    absent) keeps a :class:`FileQueue` there instead, for
    ``sweep-status`` and workers on other hosts; ``queue`` injects one
    (the determinism battery scripts a :class:`MemoryQueue`'s pull
    order).  Results are identical either way.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        timeout_s: Optional[float] = None,
        max_retries: int = 2,
        reporter: Optional[ProgressReporter] = None,
        store=None,
        aggregator=None,
        queue: Optional[WorkQueue] = None,
        queue_dir: Optional[str] = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if timeout_s is not None and not timeout_s > 0:
            raise ValueError("timeout_s must be > 0 (None means no timeout)")
        if not lease_timeout_s > 0:
            raise ValueError("lease_timeout_s must be > 0")
        if jobs > 1 and queue is not None and not isinstance(queue, FileQueue):
            raise ValueError("spawned workers need a FileQueue; use jobs=1 "
                             "to drain an in-process queue inline")
        self.jobs = jobs
        self.cache = cache
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.reporter = reporter or ProgressReporter(verbose=False)
        #: Optional ColumnarStore / SweepAggregator fed as results land
        #: (cached and fresh alike), so figures can stream mid-sweep.
        self.store = store
        self.aggregator = aggregator
        self.queue = queue
        self.queue_dir = queue_dir
        self.lease_timeout_s = lease_timeout_s

    def _publish(self, summary: DriveSummary) -> None:
        if self.store is not None:
            self.store.append(summary)
        if self.aggregator is not None:
            self.aggregator.add(summary)

    # ---------------------------------------------------------------- run
    def run(self, sweep: Union[SweepSpec, Iterable[JobSpec]]) -> SweepResult:
        jobs = sweep.expand() if isinstance(sweep, SweepSpec) else list(sweep)
        if self.queue_dir is not None and os.path.isdir(self.queue_dir) \
                and os.listdir(self.queue_dir):
            # Its old spool lines would answer this run's jobs.
            raise ValueError(f"queue dir {self.queue_dir} is not empty; "
                             "give a fresh or absent directory")
        self.reporter.begin(len(jobs))

        # Duplicate jobs (identical grid points) simulate once, and cache
        # hits never enter the queue.
        self._summaries: Dict[JobSpec, DriveSummary] = {}
        self._failures: List[JobFailure] = []
        pending: List[JobSpec] = []
        for job in dict.fromkeys(jobs):
            cached = self.cache.get(job) if self.cache is not None else None
            if cached is None:
                pending.append(job)
                continue
            self._summaries[job] = cached
            self._publish(cached)
            self.reporter.job_done(job.key(), 0, 0.0, cached=True)

        queue, own_dir = self.queue, None
        if queue is None and self.queue_dir is None and self.jobs > 1:
            own_dir = tempfile.mkdtemp(prefix="repro-queue-")
        try:
            if queue is None:
                root = self.queue_dir or own_dir
                queue = (MemoryQueue(max_retries=self.max_retries)
                         if root is None else
                         FileQueue(root, lease_timeout_s=self.lease_timeout_s,
                                   max_retries=self.max_retries))
            self._by_name = dict(zip(queue.enqueue(pending), pending))
            self._accounted: set = set()
            if self.jobs == 1:
                self._drain_inline(queue)
            else:
                self._drain_with_workers(queue)
            self._collect(queue)
            # Anything still unaccounted is a hard failure (crash-loop cap).
            for name, job in self._by_name.items():
                if name not in self._accounted:
                    self._failures.append(JobFailure(
                        job=job, attempts=queue.max_retries + 1,
                        error="job never completed (worker crash loop)",
                    ))
            if self.store is not None:
                self.store.flush()
            self._snapshot(queue)
            # Requeues happened in the queue, not through the reporter;
            # fold its count in before the closing line prints.
            self.reporter.stats.retries = int(queue.status()["requeued"])
        finally:
            if own_dir is not None:
                shutil.rmtree(own_dir, ignore_errors=True)
        stats = self.reporter.end()
        return SweepResult(
            jobs=jobs,
            summaries=[self._summaries.get(job) for job in jobs],
            failures=self._failures,
            stats=stats,
        )

    # ------------------------------------------------------------ results
    def _collect(self, queue: WorkQueue) -> None:
        """Fold newly landed results and terminal failures in, once each."""
        landed = False
        for name, summary_dict in queue.drain_results():
            job = self._by_name.get(name)
            if job is None or name in self._accounted:
                continue
            self._accounted.add(name)
            landed = True
            summary = DriveSummary.from_dict(summary_dict)
            self._summaries[job] = summary
            if self.cache is not None:
                self.cache.put(job, summary)
            self._publish(summary)
            self.reporter.job_done(job.key(), summary.events_fired,
                                   summary.wall_clock_s, cached=False)
        for name, payload in queue.failures().items():
            if name not in self._by_name or name in self._accounted:
                continue
            self._accounted.add(name)
            job = self._by_name[name]
            self.reporter.job_failed(job.key(), payload["attempts"],
                                     payload["error"])
            self._failures.append(JobFailure(
                job=job, attempts=payload["attempts"], error=payload["error"],
            ))
        if landed:
            self._snapshot(queue)

    def _snapshot(self, queue: WorkQueue) -> None:
        """Republish the aggregator's per-cell stats next to the results."""
        if self.aggregator is None:
            return
        root = getattr(self.store, "root", None) or getattr(queue, "root", None)
        if root is not None:
            self.aggregator.write_snapshot(os.path.join(str(root),
                                                        "aggregate.json"))

    # ------------------------------------------------------------- drains
    def _drain_inline(self, queue: WorkQueue) -> None:
        """This process is the only worker: run jobs until none is left."""
        while (claim := queue.claim("inline-0")) is not None:
            _run_claim(queue, claim, self.timeout_s)
            self._collect(queue)

    def _drain_with_workers(self, queue: FileQueue) -> None:
        """Run up to ``jobs`` pull workers until every job is accounted.

        A worker exits once nothing is left to claim, so a replacement
        starts only for work freed later: by a worker that died (its
        lease is released at once) or by a stale lease.  The loop sleeps
        on the workers' process sentinels, so a worker's exit -- a crash
        or the end of the sweep -- wakes it at once.
        """
        ctx = mp.get_context()
        procs: Dict[str, mp.Process] = {}
        spawned = 0
        # Enough headroom to survive every allowed crash-retry, bounded
        # so a pathological crash loop cannot fork forever.
        spawn_budget = self.jobs + (queue.max_retries + 1) * len(self._by_name)
        owed = min(self.jobs, len(self._by_name))
        expiry_due = 0.0
        try:
            while len(self._accounted) < len(self._by_name):
                while owed > 0 and len(procs) < self.jobs \
                        and spawned < spawn_budget:
                    worker_id = f"worker-{spawned}"
                    procs[worker_id] = ctx.Process(
                        target=queue_worker_main,
                        args=(str(queue.root), worker_id,
                              queue.lease_timeout_s, queue.max_retries,
                              self.timeout_s),
                        daemon=True,
                    )
                    procs[worker_id].start()
                    spawned += 1
                    owed -= 1
                if not procs and spawned >= spawn_budget:
                    break  # crash loop: report what we have
                # With no worker alive this only sleeps, while peers on
                # other hosts finish or their leases go stale.
                wait([proc.sentinel for proc in procs.values()], POLL_S)
                owed = 0
                for worker_id, proc in list(procs.items()):
                    if not proc.is_alive():
                        proc.join()
                        del procs[worker_id]
                        if proc.exitcode:
                            # It died: free its lease now, not on expiry.
                            queue.requeue_expired(worker=worker_id)
                            owed += 1
                if monotonic() >= expiry_due:
                    # A lease goes stale no sooner than heartbeats lapse.
                    owed += queue.requeue_expired()
                    expiry_due = monotonic() + queue.lease_timeout_s / 4.0
                self._collect(queue)
        except BaseException:
            for proc in procs.values():
                proc.terminate()  # the sweep is abandoned; stop its work
            raise
        finally:
            for proc in procs.values():
                proc.join(timeout=max(queue.lease_timeout_s, 5.0))
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()


def run_sweep(sweep: Union[SweepSpec, Iterable[JobSpec]],
              verbose: bool = False, **runner_kwargs) -> SweepResult:
    """One-call sweep execution (the CLI and benchmarks go through this);
    ``runner_kwargs`` are :class:`SweepRunner`'s."""
    runner = SweepRunner(reporter=ProgressReporter(verbose=verbose),
                         **runner_kwargs)
    return runner.run(sweep)
