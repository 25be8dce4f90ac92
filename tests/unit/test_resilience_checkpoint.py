"""Unit tests for the checkpoint ledger."""

from __future__ import annotations

import json

import pytest

from repro.resilience import checkpoint as checkpoint_mod
from repro.resilience.checkpoint import (
    FORMAT_VERSION,
    KIND,
    Checkpoint,
    CheckpointError,
    atomic_write_json,
    fingerprint,
)


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_short_hex(self):
        digest = fingerprint({"x": [1, 2, 3]})
        assert len(digest) == 16
        int(digest, 16)  # valid hex


class TestAtomicWrite:
    def test_writes_valid_json_and_no_temp_left(self, tmp_path):
        path = tmp_path / "ck.json"
        atomic_write_json(path, {"k": 1.5})
        assert json.loads(path.read_text()) == {"k": 1.5}
        assert list(tmp_path.iterdir()) == [path]

    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "ck.json"
        atomic_write_json(path, {"old": True})
        atomic_write_json(path, {"new": True})
        assert json.loads(path.read_text()) == {"new": True}


class TestCheckpoint:
    def test_fresh_checkpoint_starts_empty(self, tmp_path):
        ck = Checkpoint.open(tmp_path / "ck.json", "baseline_sweep", "abc")
        assert len(ck) == 0
        assert ck.resumed == 0
        assert ck.get("anything") is None

    def test_record_persists_and_reopens(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpoint.open(path, "baseline_sweep", "abc")
        ck.record("1@2.0e9", {"lost": False, "wall_s": 12.5})
        ck.record("2@2.0e9", {"lost": True})
        again = Checkpoint.open(path, "baseline_sweep", "abc")
        assert again.resumed == 2
        assert again.get("1@2.0e9") == {"lost": False, "wall_s": 12.5}
        assert again.get("2@2.0e9") == {"lost": True}

    def test_float_payloads_round_trip_exactly(self, tmp_path):
        path = tmp_path / "ck.json"
        awkward = [0.1, 1e-300, 123456789.123456789, 2**53 + 1.0]
        ck = Checkpoint.open(path, "t", "d")
        ck.record("floats", awkward)
        restored = Checkpoint.open(path, "t", "d").get("floats")
        assert all(a == b for a, b in zip(restored, awkward, strict=True))

    def test_open_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("definitely not json{")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            Checkpoint.open(path, "t", "d")

    def test_open_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"kind": "chaos_schedule"}))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            Checkpoint.open(path, "t", "d")

    def test_open_rejects_future_format(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(
            json.dumps({"kind": KIND, "format_version": FORMAT_VERSION + 1})
        )
        with pytest.raises(CheckpointError, match="format version"):
            Checkpoint.open(path, "t", "d")

    def test_open_rejects_other_task(self, tmp_path):
        path = tmp_path / "ck.json"
        Checkpoint.open(path, "baseline_sweep", "d").record("k", 1)
        with pytest.raises(CheckpointError, match="belongs to task"):
            Checkpoint.open(path, "search", "d")

    def test_open_rejects_other_campaign(self, tmp_path):
        path = tmp_path / "ck.json"
        Checkpoint.open(path, "baseline_sweep", "digest-one").record("k", 1)
        with pytest.raises(CheckpointError, match="different baseline_sweep"):
            Checkpoint.open(path, "baseline_sweep", "digest-two")

    def test_crash_between_records_keeps_previous_units(self, tmp_path):
        # a torn campaign resumes from whatever was last durably recorded
        path = tmp_path / "ck.json"
        ck = Checkpoint.open(path, "t", "d")
        ck.record("unit-0", 0)
        ck.record("unit-1", 1)
        # "crash": a new process reopens the same file
        resumed = Checkpoint.open(path, "t", "d")
        assert resumed.resumed == 2
        resumed.record("unit-2", 2)
        assert Checkpoint.open(path, "t", "d").resumed == 3


def _ledger(path, units):
    """A checkpoint with ``units`` recorded in order; returns its bytes."""
    ck = Checkpoint.open(path, "t", "d")
    for key, payload in units:
        ck.record(key, payload)
    return path.read_bytes()


class TestLedger:
    UNITS = [("u0", 0.1), ("u1", [1.5, None]), ("u2", {"lost": True})]

    def test_first_unit_is_the_header_then_one_line_per_unit(self, tmp_path):
        raw = _ledger(tmp_path / "ck.json", self.UNITS)
        header, *units = raw.decode().splitlines()
        doc = json.loads(header)
        assert doc["kind"] == KIND and doc["format_version"] == FORMAT_VERSION
        assert doc["completed"] == {"u0": 0.1}
        assert [json.loads(line) for line in units] == [
            ["u1", [1.5, None]],
            ["u2", {"lost": True}],
        ]
        assert raw.endswith(b"\n")

    def test_one_line_document_of_earlier_versions_resumes(self, tmp_path):
        path = tmp_path / "ck.json"
        atomic_write_json(
            path,
            {
                "format_version": 1,
                "kind": KIND,
                "task": "t",
                "fingerprint": "d",
                "completed": {"a": 1.25, "b": {"lost": False}},
            },
        )
        ck = Checkpoint.open(path, "t", "d")
        assert ck.resumed == 2
        assert ck.get("a") == 1.25 and ck.get("b") == {"lost": False}
        ck.record("c", 3)
        again = Checkpoint.open(path, "t", "d")
        assert again.resumed == 3 and again.get("c") == 3

    def test_torn_last_line_is_dropped_and_truncated_away(self, tmp_path):
        path = tmp_path / "ck.json"
        raw = _ledger(path, self.UNITS)
        kept = raw[: raw.rindex(b"\n", 0, len(raw) - 1) + 1]
        path.write_bytes(raw[:-5])  # the last append lost its tail
        ck = Checkpoint.open(path, "t", "d")
        assert ck.resumed == 2 and ck.get("u2") is None
        assert path.read_bytes() == kept
        ck.record("u2", {"lost": True})
        assert path.read_bytes() == raw
        assert Checkpoint.open(path, "t", "d").get("u2") == {"lost": True}

    def test_unreadable_complete_last_line_is_dropped(self, tmp_path):
        path = tmp_path / "ck.json"
        raw = _ledger(path, self.UNITS)
        path.write_bytes(raw + b"\x00\x00\n")
        ck = Checkpoint.open(path, "t", "d")
        assert ck.resumed == 3
        assert path.read_bytes() == raw

    def test_bad_line_before_the_last_is_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        raw = _ledger(path, self.UNITS)
        lines = raw.split(b"\n")
        lines[1] = lines[1][:-3]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointError, match="line 2 is corrupt"):
            Checkpoint.open(path, "t", "d")
        assert path.read_bytes() == b"\n".join(lines)  # left for the user

    @pytest.mark.parametrize("cut", [1, 20])
    def test_torn_header_is_refused(self, tmp_path, cut):
        path = tmp_path / "ck.json"
        raw = _ledger(path, self.UNITS[:1])
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError, match="not valid JSON"):
            Checkpoint.open(path, "t", "d")

    def test_later_line_wins(self, tmp_path):
        path = tmp_path / "ck.json"
        _ledger(path, [("k", 1), ("j", 2), ("k", 3)])
        ck = Checkpoint.open(path, "t", "d")
        assert len(ck) == 2 and ck.get("k") == 3

    def test_header_without_newline_is_repaired_before_appending(self, tmp_path):
        path = tmp_path / "ck.json"
        raw = _ledger(path, self.UNITS[:1])
        path.write_bytes(raw.rstrip(b"\n"))
        Checkpoint.open(path, "t", "d").record("u1", 2)
        assert Checkpoint.open(path, "t", "d").resumed == 2

    def test_bytes_written_grow_linearly(self, tmp_path, monkeypatch):
        written = []
        atomic = checkpoint_mod.atomic_write_bytes
        append = Checkpoint._append

        def atomic_counted(path, data):
            written.append(len(data))
            atomic(path, data)

        def append_counted(self, line):
            written.append(len(line.encode("utf-8")))
            append(self, line)

        monkeypatch.setattr(checkpoint_mod, "atomic_write_bytes", atomic_counted)
        monkeypatch.setattr(Checkpoint, "_append", append_counted)
        path = tmp_path / "ck.json"
        _ledger(path, [(f"unit{i}", [i * 0.1] * 50) for i in range(40)])
        assert len(written) == 40
        assert sum(written) == path.stat().st_size

