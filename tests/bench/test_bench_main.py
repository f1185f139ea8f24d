"""Smoke tests for the standalone evaluation runner."""

import json

import pytest

from repro.bench.__main__ import main


class TestBenchMain:
    def test_single_experiment_runs(self, capsys):
        assert main(["--only", "fig7", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "per_tuple_trigger" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "results.json"
        assert main(["--only", "fig6", "--runs", "2", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert any("Figure 6" in key for key in payload)
        series = next(iter(payload.values()))
        assert {"method", "x", "seconds"} <= set(series[0])

    # The service is measured by perf/ alone and the interval mapping
    # ablation is gone: their old series names are refused like any
    # other unknown name, never silently ignored.
    @pytest.mark.parametrize(
        "name",
        ["fig99", "service", "recovery", "net", "read", "checkpoint", "shards",
         "mapping"],
    )
    def test_unknown_experiment_rejected(self, name, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["--only", name])
        assert raised.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
