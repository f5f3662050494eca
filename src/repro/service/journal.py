"""Crash-safe write-ahead journal (WAL) of the scheduler service.

The service's durability story is the classic one: every state-changing
request is **appended to the journal and flushed to the OS before it is
acknowledged**.  Because the pool is deterministic (see
:mod:`repro.service.pool`), the journal *is* the state — recovery replays
it through a fresh :class:`~repro.service.core.ServiceCore` and arrives
at a digest-identical pool, which the chaos harness verifies after every
kill-and-recover cycle.

File format: JSON lines.  The first record is a header carrying the
format version and the full :class:`~repro.service.config.ServiceConfig`
(so a recovered service is configured identically); every further record
is one mutation ``{"kind": "mutation", "seq": N, "op": ..., ...}`` with a
strictly increasing ``seq``.

Torn tails are expected, mid-file corruption is not.  A crash can leave
one partially-written final line; :func:`read_journal` silently drops a
torn *tail* (and :class:`JournalWriter` truncates it away on reopen,
since the corresponding request was never acknowledged).  Any undecodable
or out-of-order record *before* the tail means real corruption and raises
:class:`~repro.exceptions.JournalCorruptError` — recovery must never
silently skip acknowledged mutations.

Reading streams: :func:`iter_journal` validates records as they are read,
one line ahead of the caller, so recovery and reopening hold one record
at a time rather than the whole journal, and a :class:`JournalTail` lets
recovery reopen the journal for appending without reading it again.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Generator, Mapping

from repro.exceptions import JournalCorruptError
from repro.service.config import ServiceConfig
from repro.service.protocol import encode_line

__all__ = ["JournalTail", "JournalWriter", "iter_journal", "read_journal", "scan_records",
           "JOURNAL_VERSION"]

#: Format version recorded in (and checked against) the header.
JOURNAL_VERSION = 1

#: A stream of decoded journal records.
Records = Generator[dict[str, Any], None, None]


@dataclass
class JournalTail:
    """Where an exhausted :func:`scan_records` left the last whole record:
    the byte offset past its line, whether the line has its newline, and
    the number of records up to it, header included."""

    offset: int = 0
    newline: bool = True
    records: int = 0


class JournalWriter:
    """Append-only journal with write-ahead semantics.

    ``append`` returns only after the record is written and flushed
    (``fsync``'d too when the config demands it); callers acknowledge the
    client strictly *after* ``append`` returns.  Reopening an existing
    journal validates it, replays nothing, truncates a torn tail in place,
    and continues the sequence; recovery, which has just validated the
    journal itself, passes its scan's ``tail`` instead.
    """

    def __init__(
        self, path: str | Path, config: ServiceConfig, *, tail: JournalTail | None = None
    ) -> None:
        self.path = Path(path)
        self.config = config
        self._fsync = config.journal_fsync
        self.records_written = 0
        if tail is None and self.path.exists() and self.path.stat().st_size > 0:
            tail = JournalTail()
            header, mutations = iter_journal(self.path, tail)
            if header.as_dict() != config.as_dict():
                mutations.close()
                raise JournalCorruptError(
                    f"journal {self.path} was written by a differently "
                    "configured service; refusing to append"
                )
            for _ in mutations:
                pass
        if tail is not None:
            self._seq = self._resume(tail)
        else:
            self._seq = 0
            self._fh: io.BufferedWriter = open(self.path, "ab")
            self._write(
                {
                    "kind": "header",
                    "version": JOURNAL_VERSION,
                    "config": config.as_dict(),
                }
            )

    def _resume(self, tail: JournalTail) -> int:
        """Append after the last whole record; returns the next sequence number.

        A torn tail line (a request never acknowledged) is truncated away,
        and a last record missing its newline gets one, so every *future*
        reader sees only whole records.
        """
        self._fh = open(self.path, "ab")
        if self._fh.tell() != tail.offset or not tail.newline:
            self._fh.truncate(tail.offset)
            if not tail.newline:
                self._fh.write(b"\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        return tail.records - 1

    def _write(self, record: Mapping[str, Any]) -> None:
        self._fh.write(encode_line(record))
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    def append(self, op: str, payload: Mapping[str, Any]) -> int:
        """Durably record one mutation; returns its sequence number.

        This is the write-ahead barrier: when ``append`` returns, the
        mutation will survive a process kill, so the caller may apply it
        to the pool and acknowledge the client.
        """
        seq = self._seq
        record = {"kind": "mutation", "seq": seq, "op": op}
        for key, value in payload.items():
            if key in record:
                raise JournalCorruptError(f"mutation payload shadows field {key!r}")
            record[key] = value
        self._write(record)
        self._seq += 1
        self.records_written += 1
        return seq

    @property
    def next_seq(self) -> int:
        return self._seq

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def scan_records(path: str | Path, tail: JournalTail | None = None) -> Records:
    """Yield decoded records, silently dropping one torn tail line.

    A line that fails to decode is tolerated **only** when it is the last
    line of the file (a torn write from a crash); anywhere else it raises
    :class:`~repro.exceptions.JournalCorruptError` with its line number.
    The file is read one line ahead of the record being decoded, which is
    all it takes to tell the last line from the others.  ``tail`` is
    moved past each record before it is yielded.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        lineno = 1
        offset = 0
        while line:
            following = fh.readline()
            raw = line[:-1] if line.endswith(b"\n") else line
            try:
                record = json.loads(raw.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError(f"record is {type(record).__name__}, not object")
            except (ValueError, UnicodeDecodeError) as exc:
                if not following:
                    return  # torn tail: the write never completed, drop it
                raise JournalCorruptError(
                    f"{path}: undecodable record at line {lineno}: {exc}"
                ) from exc
            offset += len(line)
            if tail is not None:
                tail.offset = offset
                tail.newline = raw is not line
                tail.records = lineno
            yield record
            line = following
            lineno += 1


def iter_journal(path: str | Path, tail: JournalTail | None = None
                 ) -> tuple[ServiceConfig, Records]:
    """Validate the header now; validate and yield the mutations as read.

    The header must be present, of this format version, and carry a valid
    config.  Each mutation must be of ``kind`` ``mutation``, carry an
    ``op`` tag, and have sequence number ``0, 1, 2, ...`` in file order —
    a gap means an acknowledged mutation is missing and the journal
    cannot be trusted.  A fault raises
    :class:`~repro.exceptions.JournalCorruptError` when the reader reaches
    it, so a consumer sees every record before the fault first.  ``tail``
    is handed to :func:`scan_records`.
    """
    records = scan_records(path, tail)
    header = next(records, None)
    if header is None:
        raise JournalCorruptError(f"{path}: empty journal (no header record)")
    try:
        config = _header_config(path, header)
    except JournalCorruptError:
        records.close()
        raise
    return config, _mutations(path, records)


def _header_config(path: str | Path, header: dict[str, Any]) -> ServiceConfig:
    if header.get("kind") != "header":
        raise JournalCorruptError(
            f"{path}: first record is {header.get('kind')!r}, expected header"
        )
    if header.get("version") != JOURNAL_VERSION:
        raise JournalCorruptError(
            f"{path}: journal version {header.get('version')!r} is not "
            f"{JOURNAL_VERSION}"
        )
    config_payload = header.get("config")
    if not isinstance(config_payload, dict):
        raise JournalCorruptError(f"{path}: header carries no config object")
    try:
        return ServiceConfig.from_dict(config_payload)
    except Exception as exc:
        raise JournalCorruptError(f"{path}: invalid header config: {exc}") from exc


def _mutations(path: str | Path, records: Records) -> Records:
    for expected, record in enumerate(records):
        if record.get("kind") != "mutation":
            raise JournalCorruptError(
                f"{path}: unexpected record kind {record.get('kind')!r} "
                f"after the header"
            )
        seq = record.get("seq")
        if seq != expected:
            raise JournalCorruptError(
                f"{path}: mutation seq {seq!r} where {expected} was "
                "expected (missing or reordered acknowledged mutation)"
            )
        if not isinstance(record.get("op"), str):
            raise JournalCorruptError(f"{path}: mutation {seq} has no op tag")
        yield record


def read_journal(path: str | Path) -> tuple[ServiceConfig, list[dict[str, Any]]]:
    """Read and validate a whole journal: header config + ordered mutations.

    :func:`iter_journal` with the mutations collected into a list.
    """
    config, mutations = iter_journal(path)
    return config, list(mutations)
