"""CLI error paths for the resilience flags (exit codes + actionable text).

Every case exercises `main()` end to end: the failure must reach the user
as a nonzero exit and a message that says what to do, never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main
from repro.resilience import ChaosRule, ChaosSchedule


@pytest.fixture()
def drop_all_schedule(tmp_path):
    path = tmp_path / "drop_all.json"
    ChaosSchedule(seed=1, rules={"*": ChaosRule(drop_p=1.0)}).save(path)
    return path


def test_garbage_checkpoint_file_exits_with_message(tmp_path, capsys):
    ck = tmp_path / "baseline.json"
    ck.write_text("{torn mid-write")
    code = main(
        [
            "characterize",
            "--cluster",
            "arm",
            "--program",
            "CP",
            "--output",
            str(tmp_path / "inputs.json"),
            "--checkpoint",
            str(ck),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "not valid JSON" in err
    assert "delete it" in err


def test_checkpoint_from_different_campaign_exits_with_message(tmp_path, capsys):
    # a structurally valid checkpoint whose fingerprint matches no campaign
    ck = tmp_path / "baseline.json"
    ck.write_text(
        json.dumps(
            {
                "format_version": 1,
                "kind": "repro_checkpoint",
                "task": "baseline_sweep",
                "fingerprint": "deadbeefdeadbeef",
                "completed": {},
            }
        )
    )
    code = main(
        [
            "characterize",
            "--cluster",
            "arm",
            "--program",
            "CP",
            "--output",
            str(tmp_path / "inputs.json"),
            "--checkpoint",
            str(ck),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "different baseline_sweep configuration" in err
    assert "--checkpoint" in err


def test_checkpoint_for_other_task_exits_with_message(tmp_path, capsys):
    ck = tmp_path / "baseline.json"
    ck.write_text(
        json.dumps(
            {
                "format_version": 1,
                "kind": "repro_checkpoint",
                "task": "search",
                "fingerprint": "deadbeefdeadbeef",
                "completed": {},
            }
        )
    )
    code = main(
        [
            "characterize",
            "--cluster",
            "arm",
            "--program",
            "CP",
            "--output",
            str(tmp_path / "inputs.json"),
            "--checkpoint",
            str(ck),
        ]
    )
    assert code == 1
    assert "belongs to task" in capsys.readouterr().err


def test_pareto_checkpoint_resumes_identically_and_refuses_old_task(
    tmp_path, capsys
):
    ck = tmp_path / "space"
    argv = ["pareto", "--cluster", "arm", "--program", "CP", "--checkpoint", str(ck)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert any(ck.glob("*.eval"))  # a disk-cache directory, one entry per block
    assert main(argv) == 0  # every block read back from the directory
    assert capsys.readouterr().out == first
    # a JSON ledger of the retired block layout is a file, not a directory
    old = tmp_path / "space.json"
    ledger = json.dumps(
        {
            "format_version": 1,
            "kind": "repro_checkpoint",
            "task": "evaluate_space_blocks",
            "fingerprint": "deadbeefdeadbeef",
            "completed": {},
        }
    )
    old.write_text(ledger)
    argv[-1] = str(old)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "is a file" in err and "directory of disk-cache entries" in err
    assert old.read_text() == ledger


def test_zero_timeout_is_rejected_before_any_measurement(capsys):
    code = main(["--timeout", "0", "netpipe", "--cluster", "arm"])
    assert code == 2
    err = capsys.readouterr().err
    assert "timeout must be positive" in err
    assert "omit it for no timeout" in err


def test_retries_exhausted_exits_with_actionable_message(
    drop_all_schedule, capsys
):
    code = main(
        [
            "--retries",
            "1",
            "--chaos",
            str(drop_all_schedule),
            "netpipe",
            "--cluster",
            "arm",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "NetPIPE lost all but" in err
    assert "raise --retries" in err


def test_missing_chaos_schedule_exits_with_message(tmp_path, capsys):
    code = main(
        ["--chaos", str(tmp_path / "nope.json"), "netpipe", "--cluster", "arm"]
    )
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_chaos_with_retries_still_succeeds_when_recoverable(tmp_path, capsys):
    # a mild schedule + generous retries: the command completes normally
    path = tmp_path / "mild.json"
    ChaosSchedule(seed=2, rules={"*": ChaosRule(drop_p=0.2)}).save(path)
    code = main(
        ["--retries", "8", "--chaos", str(path), "netpipe", "--cluster", "arm"]
    )
    assert code == 0
    assert "peak throughput" in capsys.readouterr().out
