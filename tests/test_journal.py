"""Crash consistency of the durable log, at every byte, for each schema.

Each schema writes a small journal through its own API.  Cut at any
byte offset, a journal must load exactly the records whose newline was
written, and the next append must extend that prefix instead of being
glued onto the torn fragment.  A committed record that no longer
parses must raise :class:`JournalCorruptError` naming its line.
"""

from typing import Any, Callable, List, NamedTuple

import pytest

from repro.engine.checkpoint import AppendLog, JournalCorruptError
from repro.serve.journal import ServiceJournal
from repro.shard.journal import CityJournal


class Schema(NamedTuple):
    #: A fresh journal object under the given root.
    journal: Callable[[str], Any]
    #: The records of the journal under test, one call each.
    writes: List[Callable[[Any], None]]
    #: What a resumed run appends first, given what it loaded.
    resume: Callable[[Any, Any], None]


SCHEMAS = {
    "serve": Schema(
        lambda root: ServiceJournal("cell", root=root),
        [lambda j: j.write_header("sha", {"users": 2}, {"period": 0}),
         lambda j: j.append_control(0, {"op": "load", "factor": 2.0}),
         lambda j: j.append_snapshot(1, {"tx": 3}, {"joins": 0}),
         lambda j: j.append_snapshot(2, {"tx": 5}, {"joins": 1})],
        lambda j, loaded: j.append_event("resumed",
                                         loaded.resume_cycle)),
    "city": Schema(
        lambda root: CityJournal("0123456789abcdef", root=root),
        [lambda j: j.write_header(),
         lambda j: j.append_epoch(0, [{"shard": 0}], "d0"),
         lambda j: j.append_epoch(1, [{"shard": 1}], "d1")],
        lambda j, loaded: j.append_epoch(len(loaded), [], "dn")),
}


def read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def overwrite(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)


def write_all(schema: Schema, root: str, count: int,
              resume: bool = False):
    """The file holding ``schema``'s first ``count`` records (then the
    resume record), and the load after each record."""
    journal = schema.journal(root)
    loads = [journal.load()]
    for write in schema.writes[:count]:
        write(journal)
        loads.append(journal.load())
    if resume:
        schema.resume(journal, loads[-1])
        loads.append(journal.load())
    journal.close()
    return read(journal.path), loads


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_truncation_loads_the_committed_prefix(name, tmp_path):
    schema = SCHEMAS[name]
    records = len(schema.writes)
    data, loads = write_all(schema, str(tmp_path / "full"), records)
    assert data.count(b"\n") == records
    # What a resumed run must leave: k committed records, then its own.
    resumed = [write_all(schema, str(tmp_path / f"resumed{k}"), k,
                         resume=True)
               for k in range(records + 1)]

    root = str(tmp_path / "crash")
    path = schema.journal(root).path
    (tmp_path / "crash").mkdir()
    for cut in range(len(data) + 1):
        committed = data[:cut].count(b"\n")
        overwrite(path, data[:cut])
        assert schema.journal(root).load() == loads[committed], cut
        journal = schema.journal(root)
        schema.resume(journal, loads[committed])
        journal.close()
        expected_data, expected_loads = resumed[committed]
        assert read(path) == expected_data, cut
        assert schema.journal(root).load() == expected_loads[-1], cut


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_corrupt_record_is_named(name, tmp_path):
    schema = SCHEMAS[name]
    data, _ = write_all(schema, str(tmp_path), len(schema.writes))
    path = schema.journal(str(tmp_path)).path
    lines = data.splitlines(keepends=True)
    for index, line in enumerate(lines):
        damaged = lines[:index] + [b"\x00" + line[1:]] + lines[index + 1:]
        overwrite(path, b"".join(damaged))
        with pytest.raises(JournalCorruptError) as caught:
            schema.journal(str(tmp_path)).load()
        assert caught.value.path == path
        assert caught.value.line == index + 1
        assert f"{path}:{index + 1}:" in str(caught.value)


def test_torn_tail_longer_than_a_scan_chunk(tmp_path):
    path = str(tmp_path / "log.jsonl")
    log = AppendLog(path)
    log.append_record({"v": "x" * 10000})
    log.close()
    with open(path, "ab") as handle:
        handle.write(b'{"v": "' + b"y" * 10000)
    resumed = AppendLog(path)
    resumed.append_record({"v": "z"})
    resumed.close()
    assert list(AppendLog(path).records()) == \
        [{"v": "x" * 10000}, {"v": "z"}]
