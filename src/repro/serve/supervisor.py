"""Supervision: pacing workers, heartbeat watchdog, clean lifecycle.

One worker thread per cell runs the pace loop: step a cycle, stamp the
heartbeat, sleep off any surplus until the next scheduled boundary, and
feed the accumulated lag to the cell's admission controller.  The
supervisor's main loop is the watchdog: a cell whose heartbeat goes
stale past ``stall_timeout_s`` is *cancelled* (threads cannot be
killed; the flag makes the old worker provably journal-silent) and a
fresh :class:`CellService` resumes in-process from the journal -- the
pidfile lock permits same-process takeover.

Shutdown discipline: SIGTERM/SIGINT (or ``max_cycles``/``duration_s``)
set the stop event; each worker finishes the cycle in flight, writes a
final snapshot plus a clean-shutdown event, and releases its journal
lock.  A SIGKILL gets none of that -- which is exactly what the
journal's per-cycle snapshots and torn-tail-tolerant loader exist for.
"""

from __future__ import annotations

import queue
import signal
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional

from repro.core.config import CellConfig
from repro.obs.registry import MetricsRegistry
from repro.serve.config import ServeConfig
from repro.serve.service import (
    FAILED,
    RUNNING,
    STOPPED,
    Cancelled,
    CellService,
)

__all__ = ["Supervisor"]

#: Watchdog poll period; also the slice for interruptible sleeps.
_TICK_S = 0.05


class Supervisor:
    """Run ``serve_config.cells`` cells until stopped, signal, or done."""

    def __init__(self, serve_config: ServeConfig,
                 cell_config: CellConfig,
                 registry: Optional[MetricsRegistry] = None):
        self.serve_config = serve_config
        self.cell_config = cell_config
        self.registry = registry if registry is not None \
            else MetricsRegistry(enabled=True)
        self.cells: Dict[str, CellService] = {}
        self.restarts: Dict[str, int] = {}
        self.stop_event = threading.Event()
        self.started_at = time.monotonic()
        self._threads: Dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        #: Each worker thread puts itself here as it exits, waking run().
        self._exited: queue.SimpleQueue[threading.Thread] = \
            queue.SimpleQueue()

    # -- construction ------------------------------------------------------

    def _cell_config_for(self, index: int) -> CellConfig:
        # Independent cells get decorrelated seeds; everything else is
        # shared so the journal digest stays a pure function of index.
        return replace(self.cell_config,
                       seed=self.cell_config.seed + index)

    def _spawn(self, name: str, index: int, resume: bool,
               reason: Optional[str] = None) -> CellService:
        cell = CellService(name, self._cell_config_for(index),
                           self.serve_config, registry=self.registry)
        thread = threading.Thread(
            target=self._worker, args=(cell, resume, reason),
            name=f"serve-{name}", daemon=True)
        with self._lock:
            self.cells[name] = cell
            self._threads[name] = thread
        thread.start()
        return cell

    def start(self, resume: bool = False) -> None:
        self.started_at = time.monotonic()
        for index in range(self.serve_config.cells):
            name = f"cell{index}"
            self.restarts.setdefault(name, 0)
            self._spawn(name, index, resume)

    # -- the worker pace loop ----------------------------------------------

    def _worker(self, cell: CellService, resume: bool,
                reason: Optional[str]) -> None:
        try:
            self._pace(cell, resume, reason)
        finally:
            self._exited.put(threading.current_thread())

    def _pace(self, cell: CellService, resume: bool,
              reason: Optional[str]) -> None:
        try:
            cell.start(resume=resume)
            if reason:
                cell.journal.append_event(reason, cell.cycle,
                                          restarts=self.restarts.get(
                                              cell.name, 0))
        except Exception as exc:  # noqa: BLE001 - worker boundary
            cell.error = f"{type(exc).__name__}: {exc}"
            cell.state = FAILED
            try:
                cell.journal.close()
            except OSError:
                pass
            return
        period = self.serve_config.cycle_period_s
        next_due = time.monotonic() + period
        try:
            while not self.stop_event.is_set():
                if cell.cancelled.is_set():
                    raise Cancelled()
                max_cycles = self.serve_config.max_cycles
                if max_cycles is not None and cell.cycle >= max_cycles:
                    break
                self._maybe_stall(cell)
                cell.step_cycle()
                cell.heartbeat = time.monotonic()
                if period > 0:
                    now = time.monotonic()
                    cell.note_lag(now - next_due)
                    if next_due > now:
                        self.stop_event.wait(next_due - now)
                    next_due += period
                else:
                    cell.note_lag(0.0)
        except Cancelled:
            # A replacement service owns the journal tail; this thread
            # must fall off the edge without another write or close.
            return
        except Exception as exc:  # noqa: BLE001 - worker boundary
            cell.error = f"{type(exc).__name__}: {exc}"
            cell.state = FAILED
            try:
                cell.journal.append_event("failed", cell.cycle,
                                          error=cell.error)
                cell.journal.close()
            except OSError:
                pass
            return
        # Graceful drain: the in-flight cycle above has completed.
        cell.shutdown(clean=True)

    def _maybe_stall(self, cell: CellService) -> None:
        """Honor the fault-injection stall hook (heartbeat frozen)."""
        seconds = cell.take_stall()
        if seconds <= 0:
            return
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            if cell.cancelled.is_set() or self.stop_event.is_set():
                return
            time.sleep(_TICK_S)

    # -- the watchdog ------------------------------------------------------

    def _watchdog_tick(self) -> None:
        now = time.monotonic()
        with self._lock:
            snapshot = list(self.cells.items())
        for name, cell in snapshot:
            if cell.state != RUNNING or cell.cancelled.is_set():
                continue
            if now - cell.heartbeat <= self.serve_config.stall_timeout_s:
                continue
            self._restart(name, cell)

    def _restart(self, name: str, stalled: CellService) -> None:
        self.restarts[name] = self.restarts.get(name, 0) + 1
        self.registry.counter(
            "osu_serve_watchdog_restarts_total",
            "Stalled cells restarted from their journal",
            ("cell",)).labels(name).inc()
        stalled.cancel()
        if self.restarts[name] > self.serve_config.max_restarts:
            stalled.state = FAILED
            stalled.error = (
                f"stalled beyond max_restarts="
                f"{self.serve_config.max_restarts}")
            return
        index = int(name.removeprefix("cell"))
        self._spawn(name, index, resume=True,
                    reason="watchdog_restart")

    # -- lifecycle ---------------------------------------------------------

    def request_shutdown(self) -> None:
        self.stop_event.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT drain in-flight cycles then checkpoint."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum,
                          lambda _sig, _frm: self.request_shutdown())

    @property
    def ready(self) -> bool:
        with self._lock:
            cells = list(self.cells.values())
        return bool(cells) and all(cell.ready for cell in cells)

    @property
    def done(self) -> bool:
        with self._lock:
            threads = list(self._threads.values())
        return bool(threads) and \
            not any(thread.is_alive() for thread in threads)

    def run(self) -> int:
        """Watchdog loop until every worker exits; 0 iff all clean."""
        duration = self.serve_config.duration_s
        while not self.done:
            # Woken at once by a worker's exit; the tick keeps the
            # watchdog and ``duration_s`` on cadence.
            try:
                self._exited.get(timeout=_TICK_S).join()
            except queue.Empty:
                pass
            if duration is not None and \
                    time.monotonic() - self.started_at >= duration:
                self.request_shutdown()
            if not self.stop_event.is_set():
                self._watchdog_tick()
            self._publish_health()
        self._publish_health()
        with self._lock:
            cells = list(self.cells.values())
        return 0 if all(cell.state == STOPPED for cell in cells) else 1

    def join(self, timeout: Optional[float] = None) -> None:
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._lock:
            threads = list(self._threads.values())
        for thread in threads:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            thread.join(remaining)

    def _publish_health(self) -> None:
        with self._lock:
            cells = list(self.cells.items())
        for name, cell in cells:
            self.registry.gauge(
                "osu_serve_ready", "1 while the cell is running",
                ("cell",)).labels(name).set(
                    1.0 if cell.ready else 0.0)

    # -- status ------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        with self._lock:
            cells = list(self.cells.values())
        statuses: List[Dict[str, object]] = \
            [cell.status() for cell in cells]
        for entry in statuses:
            entry["watchdog_restarts"] = \
                self.restarts.get(str(entry["name"]), 0)
        return {
            "name": self.serve_config.name,
            "ready": self.ready,
            "stopping": self.stop_event.is_set(),
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "cells": statuses,
        }
