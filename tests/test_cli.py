"""The command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_render_writes_ppm(self, tmp_path, capsys):
        out = tmp_path / "frame.ppm"
        rc = main([
            "render", "--grid", "12", "--cores", "4", "--image", "16",
            "--out", str(out),
        ])
        assert rc == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n16 16\n255\n")
        text = capsys.readouterr().out
        assert "frame" in text and "compositors" in text

    @pytest.mark.parametrize("name", ("dfb", "binaryswap", "radixk", "serial"))
    def test_render_compositor_choices(self, tmp_path, capsys, name):
        out = tmp_path / "frame.ppm"
        rc = main([
            "render", "--grid", "12", "--cores", "4", "--image", "16",
            "--compositor", name, "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        assert f"compositor {name}" in capsys.readouterr().out

    def test_render_puzzlepiece_reports_drops(self, tmp_path, capsys):
        out = tmp_path / "frame.ppm"
        rc = main([
            "render", "--grid", "16", "--cores", "8", "--image", "32",
            "--compositor", "puzzlepiece", "--error-budget", "0.05",
            "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "compositor puzzlepiece" in text
        assert "error bound" in text

    @pytest.mark.parametrize("fmt", ("raw", "h5lite"))
    def test_render_other_formats(self, tmp_path, fmt):
        out = tmp_path / "f.ppm"
        rc = main([
            "render", "--grid", "10", "--cores", "4", "--image", "12",
            "--format", fmt, "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()

    def test_trace_writes_chrome_json_and_report(self, tmp_path, capsys):
        import json

        trace_out = tmp_path / "trace.json"
        report_out = tmp_path / "trace.txt"
        rc = main([
            "trace", "--grid", "12", "--cores", "4", "--image", "24",
            "--trace-out", str(trace_out), "--report-out", str(report_out),
        ])
        assert rc == 0
        doc = json.loads(trace_out.read_text())
        events = doc["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "render" for e in events)
        assert any(e["ph"] == "M" for e in events)
        report = report_out.read_text()
        assert "io" in report and "composite" in report and "% frame" in report
        text = capsys.readouterr().out
        assert "spans" in text and "per-stage breakdown" in text

    def test_timeseries_check_and_outputs(self, tmp_path, capsys):
        import json

        trace_out = tmp_path / "campaign.json"
        rc = main([
            "timeseries", "--steps", "3", "--grid", "12", "--cores", "8",
            "--image", "24", "--prefetch-depth", "2", "--check",
            "--trace-out", str(trace_out), "--out", str(tmp_path / "frame"),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "bitwise identical to the sequential oracle" in text
        assert "pipelined" in text and "saved" in text
        doc = json.loads(trace_out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "read[0]" in names and "frame[2]" in names
        for i in range(3):
            assert (tmp_path / f"frame{i:04d}.ppm").exists()

    def test_timeseries_raw_fair_discipline(self, capsys):
        rc = main([
            "timeseries", "--steps", "2", "--grid", "12", "--cores", "4",
            "--image", "24", "--format", "raw", "--discipline", "fair",
            "--orbit-degrees", "0", "--check",
        ])
        assert rc == 0

    def test_model_prints_breakdown(self, capsys):
        rc = main(["model", "--dataset", "1120", "--cores", "16384"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "I/O" in text and "composite" in text and "total" in text
        assert "16384 cores" in text

    def test_model_original_compositing_slower(self, capsys):
        main(["model", "--dataset", "1120", "--cores", "32768"])
        improved = capsys.readouterr().out
        main(["model", "--dataset", "1120", "--cores", "32768", "--original-compositing"])
        original = capsys.readouterr().out

        def total(text):
            return float([ln for ln in text.splitlines() if "total" in ln][0].split()[1])

        assert total(original) > total(improved)

    def test_scorecard(self, capsys):
        rc = main(["scorecard"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "anchor" in text and "within 2x" in text

    def test_inventory(self, capsys):
        rc = main(["inventory"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "163840 cores" in text
        assert "17 SANs" in text
        assert "torus" in text

    def test_farm_scenario_file_to_json_summary(self, tmp_path, capsys):
        import json

        spec = {
            "seed": 5,
            "mode": "model",
            "total_nodes": 2048,
            "slo_s": 300.0,
            "size_policy": {"min_nodes": 256, "max_nodes": 1024},
            "sessions": [
                {"name": "browse", "kind": "browse", "arrival": "open",
                 "requests": 8, "rate_hz": 0.5, "cores": 4096, "steps": 4},
                {"name": "orbit", "kind": "orbit", "arrival": "closed",
                 "requests": 6, "think_s": 2.0, "cores": 2048},
            ],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        rc = main(["farm", "--scenario", str(path), "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["requests"] == 14
        assert summary["sessions"] == 2
        assert {"p50", "p95", "p99"} <= summary["latency_s"].keys()
        assert 0.0 <= summary["machine"]["utilization"] <= 1.0
        assert "result_hit_rate" in summary["cache"]
        assert set(summary["per_session"]) == {"browse", "orbit"}

    def test_farm_default_report(self, capsys):
        rc = main(["farm", "--seed", "2", "--no-result-cache"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "p50" in text and "p95" in text and "p99" in text
        assert "utilization" in text and "SLO" in text

    def test_farm_selftest(self, capsys):
        rc = main(["farm", "--scenario", "selftest"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "farm selftest ok" in text

    def test_farm_trace_out(self, tmp_path):
        import json

        trace_out = tmp_path / "farm-trace.json"
        rc = main([
            "farm", "--scenario", "selftest", "--trace-out", str(trace_out),
        ])
        assert rc == 0
        doc = json.loads(trace_out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"queue", "serve"} <= names

    def test_farm_bad_scenario_returns_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"sessions": [], "typo": true}')
        rc = main(["farm", "--scenario", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_farm_wrongly_typed_value_returns_2_with_key_path(self, tmp_path, capsys):
        path = tmp_path / "typed.json"
        path.write_text('{"sessions": [{"name": "a", "requests": "x"}]}')
        rc = main(["farm", "--scenario", str(path)])
        assert rc == 2
        assert "sessions[0].requests" in capsys.readouterr().err

    def test_farm_run_ending_on_a_shed_request_returns_0(self, tmp_path, capsys):
        import json

        spec = {
            "seed": 1, "mode": "model", "total_nodes": 2048,
            "admission": {"tiers": {"free": {"rate_hz": 1e-9, "burst": 1}}},
            "size_policy": {"min_nodes": 64, "max_nodes": 64},
            "sessions": [
                {"name": "a", "kind": "orbit", "arrival": "open", "requests": 3,
                 "rate_hz": 0.001, "cores": 256, "tier": "free"},
            ],
        }
        path = tmp_path / "shed.json"
        path.write_text(json.dumps(spec))
        rc = main(["farm", "--scenario", str(path), "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["arrivals"], summary["requests"], summary["rejected"]) == (3, 1, 2)

    def test_farm_unbalanced_books_return_2(self, capsys, monkeypatch):
        """Every run is checked, not only the miniatures: a violated
        identity is exit 2 with the violation on stderr."""
        from repro.farm import FarmResult

        monkeypatch.setattr(
            FarmResult, "accounting_failures", lambda self: ["books cooked"]
        )
        rc = main(["farm", "--scenario", "flash", "--json"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "farm flash FAILED: books cooked" in captured.err
        assert captured.out == ""

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_error_path_returns_2(self, tmp_path, capsys):
        # 256 cores cannot decompose a 4-voxel grid: a clean error.
        rc = main([
            "render", "--grid", "4", "--cores", "256", "--image", "8",
            "--out", str(tmp_path / "x.ppm"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestProgressiveCLI:
    def test_check_verifies_bitwise_final(self, tmp_path, capsys):
        trace_out = tmp_path / "ladder.json"
        rc = main([
            "progressive", "--grid", "10", "--cores", "4", "--image", "16",
            "--levels", "3", "--check", "--trace-out", str(trace_out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "3/3 ladder levels delivered" in text
        assert "bitwise identical" in text
        import json

        doc = json.loads(trace_out.read_text())
        names = [e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert names.count("level") == 3

    def test_cancel_after_truncates_the_ladder(self, capsys):
        rc = main([
            "progressive", "--grid", "10", "--cores", "4", "--image", "16",
            "--levels", "3", "--cancel-after", "0.001",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "1/3 ladder levels delivered" in text
        assert "cancelled 2 level(s)" in text

    def test_levels_written_as_ppm(self, tmp_path):
        prefix = tmp_path / "ladder"
        rc = main([
            "progressive", "--grid", "10", "--cores", "4", "--image", "16",
            "--levels", "2", "--out", str(prefix),
        ])
        assert rc == 0
        assert (tmp_path / "ladder_L0.ppm").read_bytes().startswith(b"P6\n8 8\n")
        assert (tmp_path / "ladder_L1.ppm").read_bytes().startswith(b"P6\n16 16\n")

    def test_farm_interactive_selftest(self, capsys):
        rc = main(["farm", "--scenario", "interactive-selftest"])
        assert rc == 0
        assert "farm interactive-selftest ok" in capsys.readouterr().out


class TestInsituCLI:
    def test_table_shows_io_avoided(self, capsys):
        rc = main(["insitu", "--steps", "40", "--render-every", "8"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "post-hoc" in text and "in-situ" in text
        assert "storage round-trip avoided" in text

    def test_json_comparison(self, capsys):
        import json

        rc = main([
            "insitu", "--dataset", "2240", "--cores", "32768",
            "--steps", "100", "--render-every", "10", "--json",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["frames"] == 10
        assert report["posthoc_s"] > report["insitu_s"] > 0
        assert report["speedup"] == pytest.approx(
            report["posthoc_s"] / report["insitu_s"]
        )
        assert report["io_avoided_s"] == pytest.approx(
            report["posthoc_s"] - report["insitu_s"]
        )

    def test_bad_steps_rejected(self, capsys):
        rc = main(["insitu", "--steps", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestBenchCLI:
    def test_list_names_the_registry(self, capsys):
        rc = main(["bench", "--list"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "progressive_refine_2048" in text
        assert "before" in text and "recorded" in text

    def test_no_tolerance_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--tolerance", "1.5"])
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err

    def test_unknown_only_name_is_a_clean_error(self, capsys):
        rc = main(["bench", "--only", "no_such_kernel"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown benchmark name(s): no_such_kernel" in err
        assert "progressive_refine_2048" in err
