"""Tests for the ``ttm-cas obs`` summarizer and the CLI obs flags."""

import json

from repro.cli import main
from repro.obs.log import RequestLogger
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Tracer


def write_request_log(path, statuses, latency_ms=1.0, step_s=1.0):
    logger = RequestLogger(path=str(path), role="worker")
    for i, status in enumerate(statuses):
        logger.log(
            {
                "ts_unix_ns": int(i * step_s * 1e9),
                "endpoint": "evaluate",
                "status": status,
                "latency_ms": latency_ms,
                "request_id": f"rid-{i}",
            }
        )
    logger.close()


def make_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    return tracer


class TestObsCommand:
    def test_summarizes_trace_json(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        make_tracer().write_json(str(path))
        assert main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== trace: 2 spans ==" in out
        assert "outer" in out and "inner" in out

    def test_summarizes_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "chrome.json"
        make_tracer().write_chrome_trace(str(path))
        assert main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== chrome trace: 2 complete events ==" in out

    def test_summarizes_prometheus_text(self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.counter("calls_total").inc(kernel="ttm")
        registry.counter("silent_total")
        path = tmp_path / "metrics.prom"
        registry.write_prometheus(str(path))
        assert main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== metrics: 1 non-zero series ==" in out
        assert 'calls_total{kernel="ttm"}' in out
        assert "silent_total" not in out

    def test_summarizes_manifest(self, tmp_path, capsys):
        manifest = RunManifest(
            kind="mc-study",
            key="mc-a11",
            created_unix=1_700_000_000.0,
            duration_seconds=0.25,
            seeds={"seed": 7},
            metrics={"engine_kernel_invocations_total": 3.0},
            git_sha="a" * 40,
            result_digest="b" * 64,
        )
        path = tmp_path / "mc-a11.manifest.json"
        manifest.write(str(path))
        assert main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== run manifest: mc-study / mc-a11 ==" in out
        assert "seed:seed" in out
        assert "engine_kernel_invocations_total" in out

    def test_prometheus_summary_includes_quantile_table(
        self, tmp_path, capsys
    ):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 0.5, 1.5, 1.5):
            histogram.observe(value, endpoint="evaluate")
        path = tmp_path / "metrics.prom"
        registry.write_prometheus(str(path))
        assert main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "histogram quantiles (estimated from buckets)" in out
        assert 'latency_seconds{endpoint="evaluate"}' in out
        assert "p95" in out

    def test_json_export_summarizes_as_its_prometheus_text(
        self, tmp_path, capsys
    ):
        # Counters, a gauge and a labelled histogram, exported both ways:
        # the same series, values and quantile rows.
        registry = MetricsRegistry()
        registry.counter("calls_total").inc(kernel="ttm")
        registry.counter("silent_total")
        registry.gauge("entries").set(3.5)
        histogram = registry.histogram("latency_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 0.5, 1.5, 3.0):
            histogram.observe(value, endpoint="evaluate")
        histogram.observe(0.25, endpoint="mc")
        outputs = []
        for name, text in (
            ("metrics.prom", registry.to_prometheus_text()),
            ("metrics.json", registry.to_json()),
        ):
            path = tmp_path / name
            path.write_text(text)
            assert main(["obs", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert 'latency_seconds_bucket{endpoint="evaluate",le="2.0"}' in (
            outputs[1]
        )
        assert "histogram quantiles (estimated from buckets)" in outputs[1]

    def test_summarizes_request_log(self, tmp_path, capsys):
        path = tmp_path / "requests.jsonl"
        write_request_log(path, [200, 200, 500])
        assert main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== request log: 3 records ==" in out
        assert "evaluate" in out

    def test_rejects_unrecognized_content(self, tmp_path, capsys):
        path = tmp_path / "noise.txt"
        path.write_text("not an artifact\n")
        assert main(["obs", str(path)]) == 2
        assert "not a recognized obs artifact" in capsys.readouterr().err

    def test_rejects_missing_file(self, tmp_path, capsys):
        assert main(["obs", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err


class TestObsTail:
    def test_tail_prints_recent_lines_oldest_first(self, tmp_path, capsys):
        path = tmp_path / "requests.jsonl"
        write_request_log(path, [200] * 5)
        assert main(["obs", "tail", str(path), "-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "rid=rid-3" in lines[0]
        assert "rid=rid-4" in lines[1]

    def test_tail_zero_lines_prints_nothing(self, tmp_path, capsys):
        path = tmp_path / "requests.jsonl"
        write_request_log(path, [200] * 3)
        assert main(["obs", "tail", str(path), "-n", "0"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["obs", str(path), "-n", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "== request log: 3 records =="
        ]

    def test_negative_lines_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "requests.jsonl"
        write_request_log(path, [200] * 3)
        assert main(["obs", "tail", str(path), "-n", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["-n must be 0 or more, got -1"]

    def test_tail_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["obs", "tail", str(tmp_path / "absent.jsonl")]) == 2
        assert capsys.readouterr().err

    def test_subcommand_without_file_is_usage_error(self, capsys):
        assert main(["obs", "tail"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_extra_tokens_are_usage_error(self, tmp_path, capsys):
        assert main(["obs", str(tmp_path), str(tmp_path)]) == 2
        assert "usage" in capsys.readouterr().err


class TestObsSlo:
    def test_healthy_log_reports_ok_and_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "requests.jsonl"
        write_request_log(path, [200] * 10)
        assert main(["obs", "slo", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== SLO report (whole log) ==" in out
        assert "ok" in out and "BURNING" not in out

    def test_burning_log_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "requests.jsonl"
        write_request_log(path, [500] * 5 + [200] * 5)
        assert main(["obs", "slo", str(path)]) == 1
        assert "BURNING" in capsys.readouterr().out

    def test_window_excludes_old_errors(self, tmp_path, capsys):
        # The only error is 100 s before the newest record; a 5 s
        # trailing window must not see it.
        path = tmp_path / "requests.jsonl"
        write_request_log(path, [500] + [200] * 3, step_s=100.0)
        assert main(["obs", "slo", str(path), "--window-s", "5"]) == 0
        out = capsys.readouterr().out
        assert "last 5 s" in out
        assert "BURNING" not in out

    def test_empty_log_is_not_an_error(self, tmp_path, capsys):
        path = tmp_path / "requests.jsonl"
        path.write_text("")
        assert main(["obs", "slo", str(path)]) == 0
        assert "no request records" in capsys.readouterr().out


class TestObsFlags:
    def test_obs_reads_both_metrics_exports_of_one_run(
        self, tmp_path, capsys
    ):
        # ``--metrics m.json`` writes the registry's JSON export, which
        # ``obs`` summarizes exactly as the run's Prometheus text.
        prom = tmp_path / "metrics.prom"
        assert main(["run", "fig3", "--metrics", str(prom)]) == 0
        exported = tmp_path / "metrics.json"
        exported.write_text(get_registry().to_json() + "\n")
        capsys.readouterr()
        outputs = []
        for path in (prom, exported):
            assert main(["obs", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "engine_kernel_invocations_total" in outputs[1]

    def test_run_writes_trace_metrics_and_manifest(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        manifest_dir = tmp_path / "manifests"
        assert main([
            "run", "fig3",
            "--trace", str(trace_path),
            "--metrics", str(metrics_path),
            "--manifest-dir", str(manifest_dir),
        ]) == 0
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert any(event["name"] == "experiment.fig3" for event in events)
        assert "# TYPE engine_kernel_invocations_total counter" in (
            metrics_path.read_text()
        )
        manifest = RunManifest.read(
            str(manifest_dir / "fig3.manifest.json")
        )
        assert manifest.kind == "experiment"
        assert manifest.config["experiment"] == "fig3"
        assert manifest.result_digest is not None
