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


def _characterize(tmp_path, checkpoint, output="inputs.json", *extra):
    return main(
        [
            "characterize",
            "--cluster",
            "arm",
            "--program",
            "CP",
            "--output",
            str(tmp_path / output),
            "--checkpoint",
            str(checkpoint),
            *extra,
        ]
    )


def test_garbage_checkpoint_file_exits_with_message(tmp_path, capsys):
    # a file where the checkpoint directory goes (an old ledger, say) is
    # refused, never read or overwritten
    ck = tmp_path / "baseline.json"
    ck.write_text("{torn mid-write")
    assert _characterize(tmp_path, ck) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "is a file" in err and "directory of disk-cache entries" in err
    assert "--checkpoint" in err
    assert ck.read_text() == "{torn mid-write"


def test_checkpoint_from_different_campaign_recomputes(tmp_path, capsys):
    # points of a campaign with other repetitions share the directory but
    # are never addressed: every point is measured afresh
    ck = tmp_path / "ck"
    assert _characterize(tmp_path, ck, "once.json", "--repetitions", "1") == 0
    assert _characterize(tmp_path, ck) == 0
    assert _characterize(tmp_path, tmp_path / "fresh", "fresh.json") == 0
    capsys.readouterr()
    assert (tmp_path / "inputs.json").read_text() == (
        tmp_path / "fresh.json"
    ).read_text()


def test_checkpoint_for_other_task_recomputes(tmp_path, capsys):
    # a space sweep's block entries in the directory are not baseline
    # points: the baseline sweep measures every point afresh
    ck = tmp_path / "ck"
    pareto = ["pareto", "--cluster", "arm", "--program", "CP"]
    assert main([*pareto, "--checkpoint", str(ck)]) == 0
    assert any(ck.glob("*.eval"))
    assert _characterize(tmp_path, ck) == 0
    assert _characterize(tmp_path, tmp_path / "fresh", "fresh.json") == 0
    capsys.readouterr()
    assert (tmp_path / "inputs.json").read_text() == (
        tmp_path / "fresh.json"
    ).read_text()


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
