"""CLI subcommands (smoke-level: each command runs and prints sane text)."""

import importlib

import pytest

from repro.cli.main import _parse_config, main


def test_parse_config():
    cfg = _parse_config("4,8,1.8")
    assert cfg.nodes == 4
    assert cfg.cores == 8
    assert cfg.frequency_hz == pytest.approx(1.8e9)


def test_parse_config_rejects_garbage():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_config("not-a-config")


def test_systems_command(capsys):
    assert main(["systems"]) == 0
    out = capsys.readouterr().out
    assert "x86_64" in out and "ARMv7-A" in out
    assert "20MB / node" in out


def test_netpipe_command(capsys):
    assert main(["netpipe", "--cluster", "arm"]) == 0
    out = capsys.readouterr().out
    assert "peak throughput" in out
    assert "Mbps" in out


def test_predict_command(capsys):
    assert main(
        ["predict", "--cluster", "xeon", "--program", "SP", "--config", "1,8,1.8"]
    ) == 0
    out = capsys.readouterr().out
    assert "T_CPU" in out and "UCR" in out


def test_whatif_command(capsys):
    assert main(
        [
            "whatif",
            "--cluster",
            "xeon",
            "--program",
            "SP",
            "--config",
            "1,8,1.8",
            "--mem-bandwidth",
            "2",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "before:" in out and "after:" in out and "delta:" in out


def test_pareto_command_with_queries(capsys):
    assert main(
        [
            "pareto",
            "--cluster",
            "xeon",
            "--program",
            "SP",
            "--deadline",
            "100",
            "--budget",
            "50",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "Pareto frontier" in out
    assert "deadline 100" in out
    assert "budget 50" in out



@pytest.mark.parametrize(
    "argv",
    [
        ["--cluster", "xeon", "--program", "SP", "--extrapolate"],
        ["--cluster", "arm", "--program", "CP"],
    ],
)
def test_pareto_chart_stars_exactly_the_frontier(monkeypatch, capsys, argv):
    """The chart marks one ``*`` per frontier point, on the frontier's
    own (time, energy) coordinates."""
    cli = importlib.import_module("repro.cli.main")
    seen = {}
    real_chart, real_frontier = cli.ascii_chart, cli.pareto_frontier

    def chart(xs, ys, **kwargs):
        seen.update(xs=list(xs), ys=list(ys), marks=list(kwargs["marks"]))
        return real_chart(xs, ys, **kwargs)

    def frontier(evaluation):
        seen["frontier"] = real_frontier(evaluation)
        return seen["frontier"]

    monkeypatch.setattr(cli, "ascii_chart", chart)
    monkeypatch.setattr(cli, "pareto_frontier", frontier)
    assert main(["pareto", *argv]) == 0
    capsys.readouterr()
    marks, points = seen["marks"], seen["frontier"]
    assert len(marks) == len(seen["xs"])
    assert set(marks) == {"*", "."}
    assert marks.count("*") == len(points)
    starred = {
        (x, y) for x, y, m in zip(seen["xs"], seen["ys"], marks) if m == "*"
    }
    assert starred == {(p.time_s, p.energy_j / 1e3) for p in points}

def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_rejects_unknown_cluster():
    with pytest.raises(SystemExit):
        main(["netpipe", "--cluster", "power9"])


@pytest.mark.parametrize("command", ["characterize", "validate"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_repetitions_below_one_rejected_at_parse_time(capsys, tmp_path, command, value):
    argv = [command, "--cluster", "arm", "--program", "CP", "--repetitions", value]
    if command == "characterize":
        argv += ["--output", str(tmp_path / "inputs.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--repetitions: must be >= 1" in capsys.readouterr().err


def test_removed_simulator_core_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["--sim-backend", "scalar", "systems"])
    assert exc.value.code == 2
