"""Pluggable point executors: serial, and parallel on a worker pool.

Both executors evaluate the same list of ``(fn, config)`` tasks and
return per-point :class:`PointOutcome` records in task order.  Because
every point carries its own seed and builds its own simulation, the
parallel executor is bit-identical to the serial one -- the workers
only change *where* each point runs, never what it computes, and
re-running a point after a worker crash recomputes the same value.

:class:`WorkerPool` is the one worker-process model, under the
parallel executor and the city's shard workers alike.  Its workers
exit on EOF, so a killed parent leaves no orphans.

Resilience (driven by :class:`~repro.engine.policy.RunPolicy`):

* **retries** -- a point that raises is retried with exponential
  backoff until its attempt budget (``1 + retries``) is spent, then
  salvaged as a structured :class:`~repro.engine.policy.PointFailure`
  (or raised immediately under ``fail_fast``).
* **timeouts** (parallel only) -- a point running longer than
  ``timeout_s`` is charged a failed attempt, and its worker is killed
  and respawned; the other in-flight points keep running.
* **worker-crash recovery** -- a point whose worker died re-runs for
  free on a respawned worker.  Respawns are bounded by
  ``RESPAWN_SLACK + len(tasks)`` so a task that kills its worker on
  every attempt cannot loop forever.
* **Ctrl-C** -- a ``KeyboardInterrupt``, here or raised by a task,
  kills every worker and propagates from ``map``.
"""

from __future__ import annotations

import heapq
import multiprocessing
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.policy import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    FAILURE_TIMEOUT,
    PointFailure,
    PointFailureError,
    RunPolicy,
)

Task = Tuple[Callable[[Any], Any], Any]
#: A worker's request handler: one request in, one reply out.
Handler = Callable[[Any], Any]

#: Worker respawns allowed beyond one per point -- a backstop against a
#: pathological task that kills its worker on every attempt.
RESPAWN_SLACK = 8


def invoke(fn: Callable[[Any], Any], config: Any) -> Tuple[Any, float]:
    """Run one task, timing it in the process that executes it."""
    started = time.perf_counter()
    value = fn(config)
    return value, time.perf_counter() - started


@dataclass
class PointOutcome:
    """What happened to one task: a value or a structured failure."""

    index: int
    value: Any = None
    seconds: float = 0.0
    attempts: int = 1
    failure: Optional[PointFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class MapReport:
    """One ``map`` call's outcomes plus resilience accounting."""

    outcomes: List[PointOutcome] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    respawns: int = 0

    @property
    def failures(self) -> List[PointFailure]:
        return [outcome.failure for outcome in self.outcomes
                if outcome.failure is not None]


class SerialExecutor:
    """In-process, one point at a time (retries; no preemption)."""

    jobs = 1

    def map(self, tasks: Sequence[Task],
            policy: Optional[RunPolicy] = None,
            on_outcome: Optional[Callable[[PointOutcome], None]] = None,
            ) -> MapReport:
        policy = policy or RunPolicy()
        report = MapReport()
        for index, (fn, config) in enumerate(tasks):
            outcome = self._run_point(index, fn, config, policy, report)
            report.outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
            if outcome.failure is not None and policy.fail_fast:
                raise PointFailureError(outcome.failure)
        return report

    @staticmethod
    def _run_point(index: int, fn: Callable[[Any], Any], config: Any,
                   policy: RunPolicy, report: MapReport) -> PointOutcome:
        begun = time.monotonic()
        error: Optional[BaseException] = None
        for attempt in range(1, policy.attempts + 1):
            try:
                value, seconds = invoke(fn, config)
            except Exception as exc:
                error = exc
                if attempt < policy.attempts:
                    report.retries += 1
                    delay = policy.backoff(attempt)
                    if delay:
                        time.sleep(delay)
            else:
                return PointOutcome(index=index, value=value,
                                    seconds=seconds, attempts=attempt)
        return PointOutcome(
            index=index, attempts=policy.attempts,
            failure=PointFailure(
                index=index, kind=FAILURE_EXCEPTION,
                error=type(error).__name__, message=str(error),
                attempts=policy.attempts,
                elapsed_s=time.monotonic() - begun))


# -- the worker pool ---------------------------------------------------------


def serve(conn: Connection, inherited: Sequence[Connection],
          setup: Callable[..., Handler], args: Sequence[Any]) -> None:
    """Worker process target: build the handler once with
    ``setup(*args)``, then answer one request per message until EOF.

    ``inherited`` are the parent's ends of every worker pipe, including
    this one's; a forked child holds copies, and closing them is what
    lets EOF on ``conn`` mean the parent is gone.
    """
    for other in inherited:
        other.close()
    # Ctrl-C reaches the whole process group; the parent handles it
    # and tears the workers down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    handler = setup(*args)
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        reply = handler(request)
        try:
            conn.send(reply)
        except OSError:
            return


def point_runner() -> Handler:
    """Engine worker set-up.  The handler runs one attempt at one point
    and replies ``("ok", (value, seconds))``, ``("error", (error,
    message))``, or ``("interrupt", None)`` when the task raised
    ``KeyboardInterrupt``."""

    def run_point(request: Task) -> Tuple[str, Any]:
        try:
            return "ok", invoke(*request)
        except Exception as exc:
            return "error", (type(exc).__name__, str(exc))
        except KeyboardInterrupt:
            return "interrupt", None

    return run_point


class WorkerPool:
    """``count`` long-lived worker processes, each on its own pipe.

    Worker ``i`` runs :func:`serve` in the default
    :mod:`multiprocessing` context and builds its handler with
    ``setup(*self._setup_args(i))``.  :meth:`close` reaps the workers,
    which also adds their CPU time to this process's
    ``RUSAGE_CHILDREN``.
    """

    def __init__(self, count: int, setup: Callable[..., Handler],
                 name: str):
        self.count = count
        self.setup = setup
        self.name = name
        self._processes: List[BaseProcess] = []
        self._pipes: List[Connection] = []
        for worker in range(count):
            process, pipe = self._start(worker)
            self._processes.append(process)
            self._pipes.append(pipe)

    def _setup_args(self, worker: int) -> Tuple[Any, ...]:
        """The arguments ``worker`` passes to ``setup``."""
        return ()

    def _start(self, worker: int) -> Tuple[BaseProcess, Connection]:
        pipe, child = multiprocessing.Pipe()
        inherited = [other for other in self._pipes if not other.closed]
        process = multiprocessing.Process(
            target=serve,
            args=(child, inherited + [pipe], self.setup,
                  self._setup_args(worker)),
            name=f"{self.name}-{worker}", daemon=True)
        process.start()
        # Once only the worker holds this end, EOF on ``pipe`` means the
        # worker is gone.
        child.close()
        return process, pipe

    def send(self, worker: int, request: Any) -> None:
        try:
            self._pipes[worker].send(request)
        except OSError:
            pass  # the worker is gone; ``recv`` sees EOF

    def recv(self, worker: int) -> Any:
        """The worker's reply; raises ``EOFError`` if it died."""
        try:
            return self._pipes[worker].recv()
        except OSError as exc:
            raise EOFError(str(exc)) from exc

    def ready(self, workers: Sequence[int],
              timeout: Optional[float]) -> List[int]:
        """The ``workers`` whose reply (or EOF) is waiting, after at
        most ``timeout`` seconds (``None``: until there is one)."""
        waiting = wait([self._pipes[worker] for worker in workers],
                       timeout)
        return [worker for worker in workers
                if self._pipes[worker] in waiting]

    def restart(self, worker: int) -> None:
        """Kill ``worker`` if it still runs and start a fresh one."""
        self._pipes[worker].close()
        dead = self._processes[worker]
        dead.kill()
        dead.join()
        self._processes[worker], self._pipes[worker] = self._start(worker)

    def close(self, kill: bool = False) -> None:
        """Close every pipe and reap every worker.  Idle workers exit on
        EOF; with ``kill`` busy ones are not waited for."""
        for pipe in self._pipes:
            pipe.close()
        for process in self._processes:
            if kill:
                process.kill()
            process.join()


# -- the parallel executor ---------------------------------------------------


class ParallelExecutor:
    """Points on a :class:`WorkerPool`: largest work first, results in
    task order.

    Task functions must be module-level (picklable by reference) and
    configs must be picklable -- true for every experiment task in
    :mod:`repro.experiments`.  Idle workers take the pending point with
    the largest ``config.work`` (see :class:`~repro.engine.spec.Point`),
    so a heavy point does not start last; outcomes still come back in
    task order.  A crash or a timeout replaces only the worker that
    owns the point, and a re-run point joins the back of the queue.
    """

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ValueError("ParallelExecutor needs jobs >= 2; "
                             "use SerialExecutor for jobs=1")
        self.jobs = jobs

    def map(self, tasks: Sequence[Task],
            policy: Optional[RunPolicy] = None,
            on_outcome: Optional[Callable[[PointOutcome], None]] = None,
            ) -> MapReport:
        if not tasks:
            return MapReport()
        pool = WorkerPool(min(self.jobs, len(tasks)), point_runner,
                          "engine-worker")
        try:
            report = _Dispatch(pool, list(tasks), policy or RunPolicy(),
                               on_outcome).run()
        except BaseException:
            pool.close(kill=True)
            raise
        pool.close()
        return report


class _Dispatch:
    """Drives one parallel ``map``: hand-outs, retries, respawns."""

    def __init__(self, pool: WorkerPool, tasks: List[Task],
                 policy: RunPolicy,
                 on_outcome: Optional[Callable[[PointOutcome], None]]):
        count = len(tasks)
        self.pool = pool
        self.tasks = tasks
        self.policy = policy
        self.on_outcome = on_outcome
        self.report = MapReport()
        self.done: List[Optional[PointOutcome]] = [None] * count
        self.remaining = count
        #: Hand-outs per point.
        self.submits = [0] * count
        #: Attempts charged against the retry budget (exceptions and
        #: timeouts; crash-lost runs are re-run for free).
        self.charged = [0] * count
        self.last_error: List[Tuple[str, str, str]] = \
            [("", "", "")] * count
        self.begun = [0.0] * count
        #: Largest ``config.work`` first, so the heaviest points do not
        #: start last and leave the other workers idle.  The sort is
        #: stable: ties and configs without ``work`` keep task order.
        work = [getattr(config, "work", 0) for _, config in tasks]
        self.ready = deque(sorted(range(count), key=work.__getitem__,
                                  reverse=True))
        #: min-heap of ``(due_monotonic, index)`` backoff waits.
        self.delayed: List[Tuple[float, int]] = []
        #: worker -> ``(index, monotonic hand-out time)`` of its point.
        self.busy: Dict[int, Tuple[int, float]] = {}
        self.respawn_budget = RESPAWN_SLACK + count

    def run(self) -> MapReport:
        while self.remaining:
            now = time.monotonic()
            while self.delayed and self.delayed[0][0] <= now:
                self.ready.append(heapq.heappop(self.delayed)[1])
            self._hand_out()
            if self.busy:
                self._collect()
                self._check_timeouts()
            elif self.delayed:
                time.sleep(max(0.0, self.delayed[0][0] - now))
        self.report.outcomes = [outcome for outcome in self.done
                                if outcome is not None]
        return self.report

    def _hand_out(self) -> None:
        idle = [worker for worker in range(self.pool.count)
                if worker not in self.busy]
        while self.ready and idle:
            index = self.ready.popleft()
            self.submits[index] += 1
            self.begun[index] = self.begun[index] or time.monotonic()
            try:
                self.pool.send(idle[-1], self.tasks[index])
            except Exception as exc:  # e.g. a task that does not pickle
                self._attempt_failed(index, FAILURE_EXCEPTION,
                                     type(exc).__name__, str(exc))
            else:
                self.busy[idle.pop()] = (index, time.monotonic())

    def _wait_s(self) -> Optional[float]:
        """Seconds until the next deadline or backoff is due."""
        due = [self.delayed[0][0]] if self.delayed else []
        if self.policy.timeout_s is not None:
            due += [since + self.policy.timeout_s
                    for _, since in self.busy.values()]
        return max(0.0, min(due) - time.monotonic()) if due else None

    def _collect(self) -> None:
        for worker in self.pool.ready(list(self.busy), self._wait_s()):
            index, _ = self.busy.pop(worker)
            try:
                status, payload = self.pool.recv(worker)
            except EOFError:
                self._crashed(worker, index)
                continue
            if status == "interrupt":
                raise KeyboardInterrupt
            if status == "error":
                self._attempt_failed(index, FAILURE_EXCEPTION, *payload)
            else:
                value, seconds = payload
                self._store(PointOutcome(index=index, value=value,
                                         seconds=seconds,
                                         attempts=self.submits[index]))

    def _check_timeouts(self) -> None:
        limit = self.policy.timeout_s
        if limit is None:
            return
        now = time.monotonic()
        for worker, (index, since) in list(self.busy.items()):
            if now - since >= limit:
                # A hung worker can only be reclaimed by killing it.
                del self.busy[worker]
                self._respawn(worker)
                self.report.timeouts += 1
                self._attempt_failed(
                    index, FAILURE_TIMEOUT, "PointTimeout",
                    f"exceeded the {limit:g}s per-point wall-clock limit")

    def _crashed(self, worker: int, index: int) -> None:
        """``worker`` died running ``index``: replace it and re-run the
        point for free while the respawn budget lasts."""
        self._respawn(worker)
        self.respawn_budget -= 1
        self.last_error[index] = (
            FAILURE_CRASH, "WorkerDied",
            "worker process died before the point finished")
        if self.respawn_budget >= 0:
            self.ready.append(index)
        else:
            self._finalize_failure(index)

    def _respawn(self, worker: int) -> None:
        self.pool.restart(worker)
        self.report.respawns += 1

    def _attempt_failed(self, index: int, kind: str, error: str,
                        message: str) -> None:
        self.charged[index] += 1
        self.last_error[index] = (kind, error, message)
        if self.charged[index] >= self.policy.attempts:
            self._finalize_failure(index)
        else:
            self.report.retries += 1
            due = time.monotonic() + self.policy.backoff(
                self.charged[index])
            heapq.heappush(self.delayed, (due, index))

    def _finalize_failure(self, index: int) -> None:
        kind, error, message = self.last_error[index]
        attempts = max(1, self.submits[index])
        failure = PointFailure(
            index=index, kind=kind, error=error, message=message,
            attempts=attempts,
            elapsed_s=time.monotonic() - self.begun[index])
        self._store(PointOutcome(index=index, attempts=attempts,
                                 failure=failure))
        if self.policy.fail_fast:
            raise PointFailureError(failure)

    def _store(self, outcome: PointOutcome) -> None:
        self.done[outcome.index] = outcome
        self.remaining -= 1
        if self.on_outcome is not None:
            self.on_outcome(outcome)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The worker count for ``jobs``: ``None`` means 1 (serial), and
    anything below 1 is raised to it."""
    return 1 if jobs is None else max(1, int(jobs))


def get_executor(jobs: Optional[int] = None):
    """The executor for ``jobs`` (see :func:`resolve_jobs`)."""
    count = resolve_jobs(jobs)
    if count <= 1:
        return SerialExecutor()
    return ParallelExecutor(count)
