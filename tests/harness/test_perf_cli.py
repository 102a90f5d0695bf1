"""The ``perf`` CLI family: ``perf profile`` and its usage contract.

Exit-code contract (shared with ``diff``): 0 = ok, 1 = run failed,
2 = unusable input.
"""

from repro.harness.cli import main as cli_main


def test_profile_writes_artifacts_and_snapshot(tmp_path, capsys):
    out = tmp_path / "artifacts"
    rc = cli_main(["perf", "profile", "lan", "--receivers", "2",
                   "--nbytes", "200000", "--seed", "7",
                   "--out", str(out)])
    assert rc == 0
    assert "event-class tax table" in capsys.readouterr().out
    assert (out / "lan.summary.txt").exists()
    lines = (out / "lan.collapsed.txt").read_text().splitlines()
    assert lines and all(line.startswith("engine;") for line in lines)


def test_profile_html_report_embeds_flamegraph(tmp_path):
    out = tmp_path / "artifacts"
    rc = cli_main(["perf", "profile", "lan", "--receivers", "2",
                   "--nbytes", "100000", "--out", str(out), "--html"])
    assert rc == 0
    html = (out / "lan.report.html").read_text()
    assert "flamegraph" in html and "<svg" in html
    assert "event-class tax table" in html


def test_perf_usage_on_unknown_subcommand():
    assert cli_main(["perf"]) == 2
    assert cli_main(["perf", "bogus"]) == 2
    assert cli_main(["perf", "compare", "a.json", "b.json"]) == 2
    assert cli_main(["perf", "history"]) == 2
