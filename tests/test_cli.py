import re

import pytest

from v2xauth import cli
from v2xauth.simnet.scenarios import REPLAY_ATTACK


def test_demo_default_succeeds(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "demo"])
    out = capsys.readouterr().out
    assert code == 0
    assert "REQ: 104 bytes" in out
    assert "REP: 88 bytes" in out
    assert "ACK: 20 bytes" in out
    assert "total 212 bytes" in out
    assert "agreement=yes" in out
    assert (tmp_path / "demo-transcript.txt").exists()


def test_demo_scenario_file_with_adversary(tmp_path, capsys):
    path = tmp_path / "replay.scenario"
    path.write_text(REPLAY_ATTACK)
    code = cli.main(["--out", str(tmp_path), "demo", "--scenario", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "rejections observed" in out


def test_demo_corrupted_scenario_is_usage_error(tmp_path):
    path = tmp_path / "bad.scenario"
    path.write_text("node x y z\nfrobnicate\n")
    assert cli.main(["--out", str(tmp_path), "demo", "--scenario", str(path)]) == cli.EXIT_USAGE
    assert cli.main(["--out", str(tmp_path), "demo", "--scenario", str(tmp_path / "missing")]) == cli.EXIT_USAGE


def test_demo_seed_is_deterministic(tmp_path):
    cli.main(["--out", str(tmp_path / "a"), "--seed", "5", "demo"])
    cli.main(["--out", str(tmp_path / "b"), "--seed", "5", "demo"])
    a = (tmp_path / "a" / "demo-transcript.txt").read_text()
    b = (tmp_path / "b" / "demo-transcript.txt").read_text()
    assert a == b


def test_trace_prints_identity(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert "traced identity" in out
    assert "766e31" in out  # 'vn1' hex


def test_audit_verdicts(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "audit"])
    out = capsys.readouterr().out
    assert code == 0
    assert "consistent" in out
    assert "framed" in out


def test_rotate_summary(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "rotate"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 rejections" in out


def test_bench_writes_csv(tmp_path, capsys):
    code = cli.main(
        ["--out", str(tmp_path), "bench", "--rate", "200", "--duration-ms", "1000", "--iterations", "30"]
    )
    assert code == 0
    for name in ("latency.csv", "scaling.csv", "loss.csv"):
        text = (tmp_path / name).read_text()
        assert text.startswith("#")
        assert "," in text
    out = capsys.readouterr().out
    for text in ((tmp_path / "loss.csv").read_text(), out):
        served = re.search(r"capacity ~\d+/s, mean of (\d+) served calls", text)
        assert served is not None and int(served.group(1)) > 0


def test_bench_infeasible_config(tmp_path):
    assert cli.main(["--out", str(tmp_path), "bench", "--rate", "0"]) == cli.EXIT_BENCH


def test_bench_has_no_workers_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "bench", "--workers", "1"])
    assert exc.value.code == 2


def test_usage_error_on_unknown_command(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "frobnicate"])
    assert exc.value.code == 2
