"""Write-ahead journal: headers, sequencing, corruption, torn tails."""

import json
import tracemalloc

import pytest

from repro.exceptions import JournalCorruptError
from repro.service.config import ServiceConfig
from repro.service.core import ServiceCore
from repro.service.journal import (
    JOURNAL_VERSION,
    JournalWriter,
    iter_journal,
    read_journal,
    scan_records,
)
from repro.service.protocol import Hello, Submit, encode_line
from repro.speedup import AmdahlModel


@pytest.fixture
def config():
    return ServiceConfig(P=4, family="amdahl")


class TestWriter:
    def test_new_journal_writes_header(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        writer = JournalWriter(path, config)
        writer.close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["config"] == config.as_dict()

    def test_append_assigns_contiguous_seqs(self, tmp_path, config):
        writer = JournalWriter(tmp_path / "wal.jsonl", config)
        assert writer.append("hello", {"tenant": "a"}) == 0
        assert writer.append("tick", {}) == 1
        assert writer.append("tick", {}) == 2
        writer.close()

    def test_reopen_continues_sequence(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        writer = JournalWriter(path, config)
        writer.append("hello", {"tenant": "a"})
        writer.close()
        writer = JournalWriter(path, config)
        assert writer.append("tick", {}) == 1
        writer.close()
        _, mutations = read_journal(path)
        assert [m["seq"] for m in mutations] == [0, 1]

    def test_reopen_with_different_config_rejected(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        JournalWriter(path, config).close()
        with pytest.raises(JournalCorruptError):
            JournalWriter(path, ServiceConfig(P=8, family="amdahl"))

    def test_payload_may_not_shadow_reserved_keys(self, tmp_path, config):
        writer = JournalWriter(tmp_path / "wal.jsonl", config)
        with pytest.raises(JournalCorruptError):
            writer.append("hello", {"seq": 99})
        writer.close()


class TestRecovery:
    def test_roundtrip(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        writer = JournalWriter(path, config)
        writer.append("hello", {"tenant": "a"})
        writer.append("submit", {"tenant": "a", "task": "t"})
        writer.close()
        loaded_config, mutations = read_journal(path)
        assert loaded_config.as_dict() == config.as_dict()
        assert [m["op"] for m in mutations] == ["hello", "submit"]

    def test_torn_tail_is_dropped(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        writer = JournalWriter(path, config)
        writer.append("hello", {"tenant": "a"})
        writer.append("tick", {})
        writer.close()
        with path.open("a") as handle:
            handle.write('{"kind": "mutation", "seq": 2, "op": "tr')  # torn write
        _, mutations = read_journal(path)
        assert [m["seq"] for m in mutations] == [0, 1]

    def test_reopen_truncates_torn_tail(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        writer = JournalWriter(path, config)
        writer.append("hello", {"tenant": "a"})
        writer.close()
        with path.open("a") as handle:
            handle.write("garbage-without-newline")
        writer = JournalWriter(path, config)
        assert writer.append("tick", {}) == 1
        writer.close()
        _, mutations = read_journal(path)
        assert [m["seq"] for m in mutations] == [0, 1]

    def test_midfile_corruption_raises(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        writer = JournalWriter(path, config)
        writer.append("hello", {"tenant": "a"})
        writer.close()
        lines = path.read_text().splitlines()
        lines.insert(1, "NOT JSON")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError, match="line 2"):
            list(scan_records(path))

    def test_seq_gap_rejected(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        writer = JournalWriter(path, config)
        writer.append("hello", {"tenant": "a"})
        writer.close()
        with path.open("a") as handle:
            handle.write(json.dumps({"kind": "mutation", "seq": 7, "op": "tick"}) + "\n")
        with pytest.raises(JournalCorruptError):
            read_journal(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(json.dumps({"kind": "mutation", "seq": 0, "op": "tick"}) + "\n")
        with pytest.raises(JournalCorruptError):
            read_journal(path)

    def test_wrong_version_rejected(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        header = {"kind": "header", "version": 99, "config": config.as_dict()}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(JournalCorruptError):
            read_journal(path)


def whole_file_scan(path):
    """The reader's contract stated on the whole file at once: split at
    newlines, drop the empty piece after a final newline, and forgive an
    undecodable line only when it is the last one."""
    lines = path.read_bytes().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    records = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            record = json.loads(raw.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError(f"record is {type(record).__name__}, not object")
        except (ValueError, UnicodeDecodeError) as exc:
            if lineno == len(lines):
                break
            return records, f"{path}: undecodable record at line {lineno}: {exc}"
        records.append(record)
    return records, None


def streamed_scan(path):
    records = []
    try:
        for record in scan_records(path):
            records.append(record)
    except JournalCorruptError as exc:
        return records, str(exc)
    return records, None


def header_line(config):
    return encode_line({"kind": "header", "version": JOURNAL_VERSION, "config": config.as_dict()})


def tick_line(seq):
    return encode_line({"kind": "mutation", "seq": seq, "op": "tick", "max_events": 1})


class TestStreamingReader:
    @pytest.mark.parametrize(
        "tail",
        [
            b"",
            b'{"kind":"mutation","seq":2,"op":"tr',  # torn, no newline
            b"garbage\n",  # garbage last line ending in a newline
            b"garbage\n\n",  # garbage, then an empty line
            b"\n",
            b"\n\n",
            b"[1, 2]\n",
            b"[1, 2]\n" + b'{"kind":"mutation","seq":2,"op":"tick"}\n',
            b'{"a":1\n{"b":2}\n',  # unterminated object mid-file
            b'{"a":1',  # the same, torn at the tail
            b"\xff\xfe\n{}\n",  # invalid UTF-8 mid-file
            b"\xff\xfe",
            b"{}\r\n{}\r\n",
        ],
    )
    def test_same_records_and_errors_as_the_whole_file_contract(self, tmp_path, config, tail):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(header_line(config) + tick_line(0) + tick_line(1) + tail)
        assert streamed_scan(path) == whole_file_scan(path)

    def test_torn_last_line_without_newline_is_dropped(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(header_line(config) + tick_line(0) + b'{"kind":"mut')
        _, mutations = read_journal(path)
        assert [m["seq"] for m in mutations] == [0]

    def test_garbage_last_line_with_newline_is_dropped(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(header_line(config) + tick_line(0) + b"garbage\n")
        _, mutations = read_journal(path)
        assert [m["seq"] for m in mutations] == [0]

    def test_garbage_then_empty_line_is_corruption_at_the_garbage(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(header_line(config) + tick_line(0) + b"garbage\n\n")
        with pytest.raises(JournalCorruptError, match="undecodable record at line 3:"):
            read_journal(path)

    def test_iter_journal_checks_the_header_before_the_first_record(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(b"")
        with pytest.raises(JournalCorruptError, match="empty journal"):
            iter_journal(path)
        path.write_bytes(tick_line(0))
        with pytest.raises(JournalCorruptError, match="expected header"):
            iter_journal(path)

    def test_records_before_a_fault_are_yielded_first(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(header_line(config) + tick_line(0) + tick_line(5) + tick_line(6))
        _, mutations = iter_journal(path)
        assert next(mutations)["seq"] == 0
        with pytest.raises(JournalCorruptError, match="mutation seq 5 where 1 was expected"):
            next(mutations)


def corrupt_midfile(path):
    lines = path.read_bytes().splitlines(keepends=True)
    lines.insert(len(lines) // 2, b"NOT JSON\n")
    path.write_bytes(b"".join(lines))
    return path.read_bytes()


def write_service_journal(path, tasks):
    """A real service journal: one tenant, ``tasks`` submits, a tick after each."""
    core = ServiceCore(ServiceConfig(P=8, family="amdahl"), journal_path=path)
    core.hello(Hello(tenant="a"))
    for i in range(tasks):
        deps = (f"t{i - 1}",) if i % 3 else ()
        core.submit("a", Submit(task=f"t{i}", model=AmdahlModel(1.0 + i % 7, 0.25), deps=deps))
        core.tick()
        if core.pool.tenants["a"].inflight >= 200:
            core.drain()
    core.close("a")
    core.drain()
    core.close_journal()
    return core


class TestCorruptionLeavesTheFile:
    def test_recover_raises_and_leaves_the_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        write_service_journal(path, 40)
        before = corrupt_midfile(path)
        with pytest.raises(JournalCorruptError, match="undecodable record"):
            ServiceCore.recover(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wal.jsonl"]

    def test_reopen_raises_removes_its_copy_and_leaves_the_file(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        writer = JournalWriter(path, config)
        for _ in range(40):
            writer.append("tick", {"max_events": 1})
        writer.close()
        before = corrupt_midfile(path)
        with pytest.raises(JournalCorruptError, match="undecodable record"):
            JournalWriter(path, config)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wal.jsonl"]

    def test_reopen_rewrites_the_same_bytes(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        writer = JournalWriter(path, config)
        for _ in range(5):
            writer.append("tick", {"max_events": 1})
        writer.close()
        clean = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(b'{"kind":"mutation","seq":5,"op"')
        JournalWriter(path, config).close()
        assert path.read_bytes() == clean


class TestBoundedMemory:
    def test_iterating_a_large_journal_holds_one_record(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        with path.open("wb") as handle:
            handle.write(header_line(config))
            for seq in range(20_000):
                handle.write(tick_line(seq))
        tracemalloc.start()
        try:
            _, mutations = iter_journal(path)
            count = sum(1 for _ in mutations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 20_000
        assert peak < 1_000_000

    def test_recovery_overhead_does_not_grow_with_the_journal(self, tmp_path):
        def overhead(tasks):
            path = tmp_path / f"wal-{tasks}.jsonl"
            live = write_service_journal(path, tasks)
            tracemalloc.start()
            try:
                core = ServiceCore.recover(path, reopen=False)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert core.state_digest() == live.state_digest()
            return peak - current

        small, large = overhead(500), overhead(2000)
        assert large < 1.5 * small + 100_000, (small, large)

    def test_recovery_peak_is_bounded_per_task(self, tmp_path):
        # The overhead above reads memory a recovery keeps as free; the
        # peak itself counts it.  A recovered 2,000-task session peaks
        # near 390 B a task (the pool, its tables and one record in flight).
        tasks = 2000
        path = tmp_path / "wal.jsonl"
        write_service_journal(path, tasks)
        tracemalloc.start()
        try:
            ServiceCore.recover(path, reopen=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500 * tasks, peak

    def test_recovered_tasks_share_their_tenant_name(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        write_service_journal(path, 30)
        core = ServiceCore.recover(path, reopen=False)
        run = core.pool.tenants["a"]
        assert all(task.tenant is run.tenant for task in core.pool.tasks)
        assert not hasattr(core.pool.tasks[0], "__dict__")


class TestReopenInPlace:
    @pytest.mark.parametrize(
        "tail",
        [b"", b'{"kind":"mutation","seq":2,"op":"tr', b"garbage\n", b"\n", b"[1, 2]\n", b"\xff"],
    )
    def test_reopen_keeps_the_file_and_drops_only_the_torn_tail(self, tmp_path, config, tail):
        path = tmp_path / "wal.jsonl"
        clean = header_line(config) + tick_line(0) + tick_line(1)
        path.write_bytes(clean + tail)
        inode = path.stat().st_ino
        writer = JournalWriter(path, config)
        assert writer.next_seq == 2
        writer.close()
        assert path.read_bytes() == clean
        assert path.stat().st_ino == inode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wal.jsonl"]

    def test_last_record_without_newline_gets_one(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        clean = header_line(config) + tick_line(0) + tick_line(1)
        path.write_bytes(clean[:-1])
        writer = JournalWriter(path, config)
        assert writer.append("tick", {"max_events": 1}) == 2
        writer.close()
        assert path.read_bytes() == clean + tick_line(2)

    def test_header_without_newline_gets_one(self, tmp_path, config):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(header_line(config)[:-1])
        writer = JournalWriter(path, config)
        assert writer.append("tick", {"max_events": 1}) == 0
        writer.close()
        assert path.read_bytes() == header_line(config) + tick_line(0)

    def test_recover_reads_the_journal_once(self, tmp_path, monkeypatch):
        from repro.service import journal

        path = tmp_path / "wal.jsonl"
        live = write_service_journal(path, 30)
        scans = []
        original = journal.scan_records

        def counting(*args, **kwargs):
            scans.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(journal, "scan_records", counting)
        core = ServiceCore.recover(path)
        core.close_journal()
        assert len(scans) == 1
        assert core.state_digest() == live.state_digest()
        assert core.journal.next_seq == live.journal.next_seq

    def test_recover_truncates_a_torn_tail_and_continues_the_sequence(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        live = write_service_journal(path, 30)
        clean = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(b'{"kind":"mutation","seq":')
        core = ServiceCore.recover(path)
        assert core.state_digest() == live.state_digest()
        assert path.read_bytes() == clean
        resumed = core.journal.next_seq
        assert resumed == live.journal.next_seq
        core.hello(Hello(tenant="b"))
        core.close_journal()
        _, mutations = read_journal(path)
        assert [m["seq"] for m in mutations] == list(range(resumed + 1))

    def test_recover_refuses_a_corrupt_journal_before_truncating(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        write_service_journal(path, 40)
        corrupt_midfile(path)
        with path.open("ab") as handle:
            handle.write(b"torn")
        before = path.read_bytes()
        with pytest.raises(JournalCorruptError, match="undecodable record"):
            ServiceCore.recover(path)
        assert path.read_bytes() == before
