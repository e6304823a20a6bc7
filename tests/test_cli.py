"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _resolve, main


@pytest.fixture(scope="module")
def lake_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("cli-lake"))
    code = main([
        "generate", "--dir", directory, "--seed", "3",
        "--foundations", "1", "--chains", "2", "--depth", "1", "--docs", "12",
    ])
    assert code == 0
    return directory


class TestCLI:
    def test_stats(self, lake_dir, capsys):
        assert main(["stats", "--dir", lake_dir]) == 0
        out = capsys.readouterr().out
        assert "models:" in out

    def test_search(self, lake_dir, capsys):
        code = main([
            "search", "--dir", lake_dir, "--query", "legal court statute",
            "--method", "behavioral", "-k", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1." in out

    def test_declarative_query(self, lake_dir, capsys):
        code = main([
            "query", "--dir", lake_dir,
            "--q", "FIND MODELS WHERE family = 'text_classifier' LIMIT 3",
        ])
        assert code == 0
        assert "text" not in capsys.readouterr().err

    def test_audit(self, lake_dir, capsys):
        code = main(["audit", "--dir", lake_dir, "--model", "foundation-0"])
        out = capsys.readouterr().out
        assert "Audit report" in out
        assert code in (0, 1)

    def test_cite(self, lake_dir, capsys):
        assert main(["cite", "--dir", lake_dir, "--model", "foundation-0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("model:")
        assert "@misc" in out

    def test_card(self, lake_dir, capsys):
        assert main(["card", "--dir", lake_dir, "--model", "foundation-0"]) == 0
        assert "# foundation-0" in capsys.readouterr().out

    def test_unknown_model_is_error(self, lake_dir, capsys):
        assert main(["cite", "--dir", lake_dir, "--model", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_lake_is_error(self, tmp_path, capsys):
        assert main(["stats", "--dir", str(tmp_path / "void")]) == 2

    def test_ambiguous_model_name_lists_candidates(self, capsys):
        from repro.errors import AmbiguousModelNameError
        from repro.lake.lake import ModelLake
        from repro.nn import TextClassifier

        lake = ModelLake()
        first = lake.add_model(
            TextClassifier(50, num_classes=2, dim=4, hidden=(6,), seed=0),
            name="twin",
        )
        second = lake.add_model(
            TextClassifier(50, num_classes=2, dim=4, hidden=(6,), seed=1),
            name="twin",
        )
        with pytest.raises(AmbiguousModelNameError) as excinfo:
            _resolve(lake, "twin")
        message = str(excinfo.value)
        assert first.model_id in message
        assert second.model_id in message
        assert "2 matches" in message


class TestFsckCLI:
    def test_fsck_clean_lake_exits_zero(self, lake_dir, capsys):
        assert main(["fsck", lake_dir]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_fsck_does_not_overwrite_the_metrics_snapshot(self, lake_dir):
        import os

        path = os.path.join(lake_dir, "metrics.json")
        with open(path) as handle:
            before = json.load(handle)
        assert main(["fsck", lake_dir]) == 0
        with open(path) as handle:
            assert json.load(handle) == before

    def test_fsck_corrupt_lake_exits_nonzero(self, lake_dir, tmp_path, capsys):
        import os
        import shutil

        broken = str(tmp_path / "broken")
        shutil.copytree(lake_dir, broken)
        weights = os.path.join(broken, "weights")
        victim = os.path.join(weights, sorted(os.listdir(weights))[0])
        with open(victim, "wb") as handle:
            handle.write(b"garbage")
        assert main(["fsck", broken]) == 1
        assert "truncated" in capsys.readouterr().out

    def test_fsck_json_payload(self, lake_dir, capsys):
        assert main(["fsck", lake_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["findings"] == []

    def test_fsck_missing_dir_is_error(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path / "void")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fsck_repair_quarantines(self, lake_dir, tmp_path, capsys):
        import os
        import shutil

        broken = str(tmp_path / "repairable")
        shutil.copytree(lake_dir, broken)
        weights = os.path.join(broken, "weights")
        victim = os.path.join(weights, sorted(os.listdir(weights))[0])
        with open(victim, "wb") as handle:
            handle.write(b"garbage")
        assert main(["fsck", broken, "--repair", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert any(f["repaired"] for f in payload["findings"])
        assert os.path.isdir(os.path.join(broken, "quarantine"))


class TestObservabilityCLI:
    def test_stats_json(self, lake_dir, capsys):
        assert main(["stats", "--dir", lake_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_models"] > 0

    def test_metrics_reports_weight_store_cache_counters(self, lake_dir, capsys):
        # A search run persists its metrics snapshot into the lake dir...
        assert main([
            "search", "--dir", lake_dir, "--query", "legal court", "-k", "2",
        ]) == 0
        capsys.readouterr()
        # ...which `repro metrics` then reports.
        assert main(["metrics", "--dir", lake_dir]) == 0
        out = capsys.readouterr().out
        assert "lake.weight_store.cache_hits" in out
        assert "lake.weight_store.cache_misses" in out
        assert "search.queries" in out

    def test_metrics_json_round_trips(self, lake_dir, capsys):
        assert main(["stats", "--dir", lake_dir]) == 0
        capsys.readouterr()
        assert main(["metrics", "--dir", lake_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "counters" in payload["metrics"]

    def test_trace_flag_writes_nested_jsonl_spans(self, lake_dir, tmp_path, capsys):
        trace_file = str(tmp_path / "trace.jsonl")
        code = main([
            "--trace", trace_file,
            "search", "--dir", lake_dir, "--query", "legal court statute",
            "--method", "hybrid", "-k", "2",
        ])
        assert code == 0

        records = [
            json.loads(line)
            for line in open(trace_file).read().splitlines()
        ]
        assert records, "trace file must contain spans"
        by_name = {record["name"]: record for record in records}
        # One root span for the CLI command; the engine query nests under it.
        root = by_name["cli.search"]
        assert root["parent_id"] is None
        assert by_name["search.query"]["trace_id"] == root["span_id"]
        span_ids = {record["span_id"] for record in records}
        for record in records:
            if record["parent_id"] is not None:
                assert record["parent_id"] in span_ids
            assert record["duration"] >= 0.0

    def test_metrics_on_missing_dir_is_error(self, tmp_path, capsys):
        assert main(["metrics", "--dir", str(tmp_path / "void")]) == 2
        assert "error:" in capsys.readouterr().err


class TestMetricsTopCLI:
    def test_top_table_sorted_by_p99(self, lake_dir, capsys):
        assert main([
            "search", "--dir", lake_dir, "--query", "legal court", "-k", "2",
        ]) == 0
        capsys.readouterr()
        assert main(["metrics", "--dir", lake_dir, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "slowest operations" in out
        assert "p99" in out

    def test_top_json_still_emits_full_snapshot(self, lake_dir, capsys):
        assert main(["stats", "--dir", lake_dir]) == 0
        capsys.readouterr()
        assert main(["metrics", "--dir", lake_dir, "--top", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" in payload


class TestTraceReportCLI:
    @pytest.fixture()
    def trace_file(self, lake_dir, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main([
            "--trace", path,
            "search", "--dir", lake_dir, "--query", "legal court statute",
            "--method", "hybrid", "-k", "2",
        ]) == 0
        return path

    def test_report_prints_critical_path_and_hotspots(self, trace_file, capsys):
        assert main(["trace", "report", trace_file]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "hotspots" in out
        assert "cli.search" in out

    def test_report_json_payload(self, trace_file, capsys):
        assert main(["trace", "report", trace_file, "--json", "--top", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["span_count"] >= 2
        assert payload["trace_count"] == 1
        assert payload["critical_path"][0]["name"] == "cli.search"
        assert len(payload["operations"]) <= 3

    def test_flame_writes_folded_stacks(self, trace_file, tmp_path, capsys):
        flame = str(tmp_path / "flame.folded")
        assert main(["trace", "report", trace_file, "--flame", flame]) == 0
        lines = open(flame).read().splitlines()
        assert lines
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert path.startswith("cli.search")
            assert int(value) > 0

    def test_empty_trace_is_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "report", str(empty)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_corrupt_trace_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["trace", "report", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
    def test_missing_trace_file_is_config_error(self, tmp_path, capsys):
        assert main(["trace", "report", str(tmp_path / "void.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err



class TestBenchCLI:
    @pytest.fixture()
    def fake_suite(self, monkeypatch):
        """Replace the registered suite with an instant, tunable bench."""
        import repro.perf as perf

        metrics = {"run_seconds": 1.0, "models": 4.0}
        spec = perf.BenchSpec(
            name="fake",
            fn=lambda mode: dict(metrics),
            tolerances={"run_seconds": 1.25},
        )
        monkeypatch.setattr(perf, "registered_benches", lambda: [spec])
        return metrics

    def test_unknown_select_is_usage_error(self, tmp_path, capsys):
        code = main([
            "bench", "--smoke", "--select", "nope",
            "--results", str(tmp_path), "--no-record",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown benchmark" in err
        assert "generate" in err  # names the known benches

    def test_run_records_to_trajectory(self, fake_suite, tmp_path, capsys):
        from repro.obs.timeseries import load_trajectory

        results = str(tmp_path)
        assert main(["bench", "--smoke", "--results", results]) == 0
        out = capsys.readouterr().out
        assert "fake:" in out and "run_seconds=1" in out
        history = load_trajectory(results, "fake")
        assert len(history) == 1
        assert history[0].mode == "smoke"

    def test_no_record_leaves_trajectory_untouched(self, fake_suite, tmp_path):
        from repro.obs.timeseries import load_trajectory

        results = str(tmp_path)
        assert main([
            "bench", "--smoke", "--results", results, "--no-record",
        ]) == 0
        assert load_trajectory(results, "fake") == []

    def test_check_passes_on_steady_trajectory(self, fake_suite, tmp_path, capsys):
        results = str(tmp_path)
        assert main(["bench", "--smoke", "--results", results]) == 0
        assert main(["bench", "--smoke", "--results", results, "--check"]) == 0
        out = capsys.readouterr().out
        assert "comparable baseline run(s)" in out

    def test_check_fails_on_regression(self, fake_suite, tmp_path, capsys):
        results = str(tmp_path)
        assert main(["bench", "--smoke", "--results", results]) == 0
        fake_suite["run_seconds"] = 2.0  # a genuine 2x slip
        code = main([
            "bench", "--smoke", "--results", results, "--check", "--no-record",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "perf regression in: fake" in captured.err
        assert "regressed" in captured.out

    def test_broken_guarantee_fails_without_recording(
        self, fake_suite, monkeypatch, tmp_path, capsys
    ):
        import repro.perf as perf
        from repro.obs.timeseries import load_trajectory

        def broken(mode):
            raise AssertionError("parallel lake differs")

        specs = perf.registered_benches() + [
            perf.BenchSpec(name="broken", fn=broken)
        ]
        monkeypatch.setattr(perf, "registered_benches", lambda: specs)
        results = str(tmp_path)
        assert main(["bench", "--smoke", "--results", results]) == 1
        err = capsys.readouterr().err
        assert "error: broken: parallel lake differs" in err
        assert "broken guarantee in: broken" in err
        assert load_trajectory(results, "broken") == []
        assert len(load_trajectory(results, "fake")) == 1  # the rest still ran

    def test_check_json_payload(self, fake_suite, tmp_path, capsys):
        results = str(tmp_path)
        assert main(["bench", "--smoke", "--results", results]) == 0
        capsys.readouterr()
        assert main([
            "bench", "--smoke", "--results", results, "--check", "--json",
            "--no-record",
        ]) == 0
        (document,) = json.loads(capsys.readouterr().out)
        assert document["result"]["bench"] == "fake"
        assert document["check"]["passed"] is True
        assert document["check"]["baseline_count"] == 1
