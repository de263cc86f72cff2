"""CLI entry points."""

import json

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out and "replay" in out


def test_parser_rejects_unknown_scale():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig8", "--scale", "huge"])


def test_replay_command(capsys):
    assert main(["replay", "--scheme", "sepgc", "--profile", "ali",
                 "--volumes", "1", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "sepgc on ali" in out
    assert "ali-000" in out


def test_fig2_command(capsys):
    assert main(["fig2", "--scale", "smoke"]) == 0
    assert "Fig 2" in capsys.readouterr().out


def test_extension_commands_listed(capsys):
    main(["list"])
    out = capsys.readouterr().out
    assert "multistream" in out and "shared-store" in out
    assert "obs" in out


def test_obs_command_writes_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "obs"
    assert main(["obs", "--scheme", "sepbit", "--scale", "smoke",
                 "--out", str(out_dir), "--sample-every", "512"]) == 0
    out = capsys.readouterr().out
    assert "chunk_flush" in out
    events = out_dir / "ali-000.events.jsonl"
    series = out_dir / "ali-000.timeseries.csv"
    prom = out_dir / "ali-000.prom"
    for path in (events, series, prom):
        assert path.exists() and path.stat().st_size > 0
    first = events.read_text().splitlines()[0]
    assert '"type"' in first
    assert series.read_text().splitlines()[0].startswith("time_us,")
    assert "lss_user_blocks_total" in prom.read_text()


def test_replay_metrics_out(capsys, tmp_path):
    out_dir = tmp_path / "metrics"
    assert main(["replay", "--scheme", "sepgc", "--volumes", "1",
                 "--scale", "smoke", "--metrics-out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "metrics written" in out
    assert (out_dir / "ali-000.events.jsonl").exists()
    assert (out_dir / "ali-000.timeseries.csv").exists()
    assert (out_dir / "ali-000.prom").exists()


def test_profile_out_writes_chrome_trace(capsys, tmp_path):
    from repro.obs.profile import NULL_PROFILER, current
    path = tmp_path / "prof" / "run.json"
    assert main(["replay", "--scheme", "sepgc", "--volumes", "1",
                 "--scale", "smoke", "--profile-out", str(path)]) == 0
    assert "profile written" in capsys.readouterr().out
    assert path.parent.is_dir()
    trace = json.loads(path.read_text())
    assert any(e.get("name") == "expand" for e in trace["traceEvents"])
    # The CLI resets the global profiler after the run.
    assert current() is NULL_PROFILER


def test_fleet_timeline_without_out_fails(capsys):
    assert main(["fleet", "--volumes", "1", "--scale", "smoke",
                 "--timeline-every", "512"]) == 1
    assert "requires out_dir" in capsys.readouterr().out
