"""Durable journals: one append-only log, two record schemas.

:class:`AppendLog` is the one durable-log primitive: a JSONL file, its
:class:`JournalLock` pidfile, and the rule for what counts as
committed.  Two record schemas sit on it: the service journal
(:mod:`repro.serve.journal`) and the city journal
(:mod:`repro.shard.journal`).  Journals live under
``<cache-dir>/journal/`` (override with ``REPRO_JOURNAL_DIR``).

Finished sweep points need no journal: the result cache
(:mod:`repro.engine.cache`) stores each one as it finishes, so a killed
sweep rerun with the same command recomputes only the rest.
"""

from __future__ import annotations

import json
import mmap
import os
from typing import Any, Dict, Iterator, Optional, TextIO


def default_journal_dir() -> str:
    env = os.environ.get("REPRO_JOURNAL_DIR", "").strip()
    if env:
        return env
    from repro.engine.cache import default_cache_dir

    return os.path.join(default_cache_dir(), "journal")


def journal_path(root: Optional[str], stem: str, suffix: str) -> str:
    """``<root>/<stem><suffix>``, the stem made safe as a file name."""
    safe = "".join(ch if ch.isalnum() or ch in "-_" else "-"
                   for ch in stem)
    return os.path.join(root or default_journal_dir(), safe + suffix)


def fsync_directory(path: str) -> None:
    """Flush a directory entry to disk (no-op where unsupported).

    ``fsync`` on the file alone makes the *contents* durable; on most
    filesystems the file's very existence is only durable once its
    parent directory has been synced too.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass  # e.g. directories are not fsync-able on this platform
    finally:
        os.close(fd)


class JournalLockedError(RuntimeError):
    """Another live process holds the journal lock."""


class JournalLock:
    """A pidfile lock guarding one journal against double-resume.

    Two processes resuming the same journal would interleave appends and
    both believe they own the tail; :meth:`acquire` makes the second one
    fail loudly instead.  The lock is a sibling ``<journal>.lock`` file
    created with ``O_CREAT | O_EXCL`` and holding the owner's pid:

    * lock held by a **live** other process -> :class:`JournalLockedError`;
    * lock held by a **dead** pid (e.g. the owner was SIGKILLed) -> the
      stale file is removed and the lock is taken over;
    * lock held by **our own** pid -> re-acquired (an in-process
      supervisor restart re-opens the same journal it already owns).

    The pid is written on the freshly created fd, so the window in which
    another process can observe an empty lock file is a few microseconds;
    an empty/garbled lock file is treated as stale.
    """

    def __init__(self, path: str):
        self.path = path
        self._held = False

    @property
    def held(self) -> bool:
        return self._held

    def _owner_pid(self) -> Optional[int]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return int(handle.read().strip())
        except (OSError, ValueError):
            return None

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True  # exists, owned by someone else
        except OSError:
            return True  # be conservative: assume alive
        return True

    def acquire(self) -> None:
        if self._held:
            return
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        for _ in range(8):  # retries bound stale-steal races
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pid = self._owner_pid()
                if pid == os.getpid():
                    self._held = True
                    return
                if pid is not None and self._pid_alive(pid):
                    raise JournalLockedError(
                        f"{self.path} is held by live pid {pid}; "
                        f"refusing a concurrent resume")
                # Stale (dead owner or torn write): steal it.
                try:
                    os.unlink(self.path)
                except OSError:
                    pass
                continue
            try:
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                os.fsync(fd)
            finally:
                os.close(fd)
            self._held = True
            return
        raise JournalLockedError(
            f"could not acquire {self.path} (persistent contention)")

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.path)
        except OSError:
            pass


class JournalCorruptError(RuntimeError):
    """A committed journal line is not a JSON object."""

    def __init__(self, path: str, line: int):
        super().__init__(f"{path}:{line}: committed journal record is "
                         f"not a JSON object")
        self.path = path
        self.line = line


class AppendLog:
    """One crash-safe JSONL file of records, guarded by a lock.

    **A record is committed once its newline is written.**  Bytes after
    the last newline are a torn tail from a mid-append kill:
    :meth:`records` ignores them, and the first append of the next
    open truncates them, so the next record is never joined onto the
    fragment.  A committed line that is not a JSON object raises
    :class:`JournalCorruptError` naming the file and line.

    Every record is flushed to the OS as it is appended, so even
    SIGKILL cannot lose it once :meth:`append_record` returns.  The
    first append of each open also fsyncs the file and its directory
    entry, so a crash right after creation cannot leave a resumable
    run pointing at an unlisted file; :meth:`sync` fsyncs on demand.
    """

    def __init__(self, path: str):
        self.path = path
        self.lock = JournalLock(path + ".lock")
        self._handle: Optional[TextIO] = None

    def acquire(self) -> None:
        """Take the pidfile lock; raises :class:`JournalLockedError`."""
        self.lock.acquire()

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def records(self) -> Iterator[Dict[str, Any]]:
        """The committed records in order (none without a file)."""
        try:
            handle = open(self.path, "rb")
        except OSError:
            return
        with handle:
            for number, line in enumerate(handle, 1):
                if not line.endswith(b"\n"):
                    return  # torn tail: never committed
                try:
                    record = json.loads(line)
                except ValueError:
                    record = None
                if not isinstance(record, dict):
                    raise JournalCorruptError(self.path, number)
                yield record

    def append_record(self, record: Dict[str, Any]) -> None:
        """Commit one record; a non-JSON record raises before writing."""
        line = json.dumps(record, sort_keys=True) + "\n"
        handle = self._handle
        first = handle is None
        if handle is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._truncate_torn_tail()
            handle = self._handle = open(self.path, "a", encoding="utf-8")
        handle.write(line)
        handle.flush()
        if first:
            self.sync()
            fsync_directory(os.path.dirname(self.path) or ".")

    def sync(self) -> None:
        """fsync the records appended since this log was opened."""
        if self._handle is not None:
            try:
                os.fsync(self._handle.fileno())
            except OSError:
                pass

    def _truncate_torn_tail(self) -> None:
        """Cut the file back to just after its last newline."""
        try:
            handle = open(self.path, "r+b")
        except FileNotFoundError:
            return
        with handle:
            size = handle.seek(0, os.SEEK_END)
            if size == 0:
                return  # mmap cannot map an empty file
            with mmap.mmap(handle.fileno(), 0,
                           access=mmap.ACCESS_READ) as view:
                end = view.rfind(b"\n") + 1  # scans back from the end
            if end < size:
                handle.truncate(end)

    def _close_handle(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def close(self) -> None:
        """Close the file and release the lock; the records stay."""
        self._close_handle()
        self.lock.release()

    def reset(self) -> None:
        """Delete every record while keeping the lock held."""
        self._close_handle()
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def discard(self) -> None:
        """Delete the log and release its lock (its run finished)."""
        self.reset()
        self.lock.release()
