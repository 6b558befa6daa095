"""Single-process observability surface: ids, traces, logs, SLOs.

These tests drive one ``ServerThread`` (no router) and check the
request-scoped observability contract end to end on the wire: request
and trace ids in response headers, ``/debug/trace`` span stitching,
``/debug/obs`` snapshots, SLO gauges in ``/metrics``, structured log
records, and — crucially — that coalesced responses stay byte-identical
to the solo oracle *with tracing enabled* (trace data rides in headers
and sidecars, never in response bodies).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.distributed import mint_trace_context, stitch_trace
from repro.obs.log import read_request_log


def _spans_for(client, trace_id, names, attempts=50):
    """Poll /debug/trace until the stitched trace contains ``names``."""
    for _ in range(attempts):
        spans = client.get("/debug/trace").json()["spans"]
        stitched = stitch_trace(spans, trace_id)
        present = {span["name"] for span in stitched}
        if names <= present:
            return stitched
        time.sleep(0.05)
    raise AssertionError(
        f"trace {trace_id!r} never grew spans {names - present}"
    )


class TestRequestIds:
    def test_request_id_minted_even_without_tracing(self, client):
        response = client.post("/evaluate", {"design": "a11"})
        assert response.status == 200
        assert response.request_id
        assert response.trace_id == ""

    def test_client_echoes_request_id_back(self, client, server):
        response = client.request(
            "POST",
            "/evaluate",
            body=json.dumps({"design": "a11"}).encode(),
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": "caller-chosen-7",
            },
        )
        assert response.request_id == "caller-chosen-7"


class TestInFlight:
    def test_requests_sharing_an_id_are_each_in_flight(
        self, serve_factory, gate
    ):
        """A client-chosen X-Request-Id names no in-flight entry: two
        held requests that share one are two entries."""
        thread = serve_factory.server(max_batch=32)
        client = serve_factory.client(thread)
        headers = {
            "Content-Type": "application/json",
            "X-Request-Id": "shared-7",
        }
        body = json.dumps({"design": "a11"}).encode()
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(client.request, "POST", "/evaluate", body, headers)
                for _ in range(2)
            ]
            # Both are admitted once the batcher holds both: the first
            # batch waits in the gate, the second request behind it.
            deadline = time.monotonic() + 30.0
            while (
                thread.server.batcher.depth < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.002)
            in_flight = client.get("/debug/obs").json()["in_flight"]
            gate.opened.set()
            responses = [future.result(timeout=60.0) for future in futures]
        assert [r.status for r in responses] == [200, 200]
        assert {r.request_id for r in responses} == {"shared-7"}
        shared = [e for e in in_flight if e["request_id"] == "shared-7"]
        assert len(shared) == 2
        after = client.get("/debug/obs").json()["in_flight"]
        assert [e for e in after if e["endpoint"] == "evaluate"] == []


class TestTracedServer:
    @pytest.fixture
    def traced(self, serve_factory):
        return serve_factory.server(max_batch=32, trace=True)

    @pytest.fixture
    def traced_client(self, serve_factory, traced):
        return serve_factory.client(traced)

    def test_response_carries_trace_id(self, traced_client):
        response = traced_client.post("/evaluate", {"design": "a11"})
        assert response.status == 200
        assert len(response.trace_id) == 32
        assert response.batch_size >= 1

    def test_debug_trace_stitches_request_batch_and_kernel(
        self, traced_client
    ):
        response = traced_client.post("/evaluate", {"design": "a11"})
        stitched = _spans_for(
            traced_client,
            response.trace_id,
            {"serve.request", "serve.batch", "engine.fused_point_eval"},
        )
        request_span = next(
            s for s in stitched if s["name"] == "serve.request"
        )
        assert request_span["attributes"]["request_id"] == (
            response.request_id
        )
        # Self-minted admission context: the span carries its own wire
        # id, not a parent's.
        assert "ctx_span" in request_span["attributes"]
        batch_span = next(s for s in stitched if s["name"] == "serve.batch")
        links = batch_span["attributes"]["links"]
        assert any(
            link["request_id"] == response.request_id for link in links
        )

    def test_propagated_traceparent_continues_callers_trace(
        self, traced_client
    ):
        ctx = mint_trace_context()
        response = traced_client.request(
            "POST",
            "/evaluate",
            body=json.dumps({"design": "a11"}).encode(),
            headers={
                "Content-Type": "application/json",
                "traceparent": ctx.to_traceparent(),
            },
        )
        assert response.trace_id == ctx.trace_id
        stitched = _spans_for(
            traced_client, ctx.trace_id, {"serve.request"}
        )
        request_span = next(
            s for s in stitched if s["name"] == "serve.request"
        )
        # Received context: recorded as the sender's span id.
        assert request_span["attributes"]["parent_ctx"] == ctx.span_id

    def test_debug_obs_snapshot_shape(self, traced_client):
        traced_client.post("/evaluate", {"design": "a11"})
        snapshot = traced_client.get("/debug/obs").json()
        assert snapshot["role"] == "server"
        assert snapshot["tracing"] is True
        assert snapshot["draining"] is False
        # The snapshot request sees itself in flight; the finished
        # evaluate must be gone.
        in_flight = {entry["endpoint"] for entry in snapshot["in_flight"]}
        assert "evaluate" not in in_flight
        assert snapshot["spans_recorded"] > 0
        recent = snapshot["recent"]
        assert recent and recent[-1]["endpoint"] == "evaluate"
        assert "evaluate" in snapshot["slo"]

    def test_metrics_expose_slo_gauges(self, traced_client):
        traced_client.post("/evaluate", {"design": "a11"})
        text = traced_client.get("/metrics").body.decode("utf-8")
        for series in (
            "serve_slo_error_burn_rate",
            "serve_slo_latency_burn_rate",
            "serve_slo_ok",
        ):
            assert f"# TYPE {series} gauge" in text
        assert 'serve_slo_ok{endpoint="evaluate"} 1' in text

    def test_coalescing_stays_byte_identical_with_tracing_on(
        self, traced_client, burst
    ):
        body = {"design": "a11", "n_chips": 2e7}
        solo = traced_client.post("/evaluate", body)
        assert solo.status == 200
        responses = burst(traced_client, "/evaluate", [body] * 8)
        assert all(r.status == 200 for r in responses)
        assert max(r.batch_size for r in responses) > 1
        for response in responses:
            assert response.body == solo.body
        # Trace data never leaks into bodies; ids stay per-request.
        assert len({r.request_id for r in responses}) == len(responses)
        assert len({r.trace_id for r in responses}) == len(responses)


class TestRequestLog:
    def test_log_records_carry_correlation_and_breakdown(
        self, serve_factory, tmp_path
    ):
        path = tmp_path / "requests.jsonl"
        thread = serve_factory.server(max_batch=32, log_json=str(path))
        client = serve_factory.client(thread)
        response = client.post("/evaluate", {"design": "a11"})
        assert response.status == 200
        # Logging alone (no tracer) still mints a trace id for
        # correlation across the log.
        assert response.trace_id
        thread.stop()
        records = read_request_log(str(path))
        record = next(
            r for r in records if r["request_id"] == response.request_id
        )
        assert record["trace_id"] == response.trace_id
        assert record["endpoint"] == "evaluate"
        assert record["status"] == 200
        assert record["outcome"] == "ok"
        assert record["batch_size"] >= 1
        breakdown = record["breakdown"]
        assert set(breakdown) >= {
            "queue_ms", "batch_wait_ms", "compute_ms", "serialize_ms",
        }
        assert record["latency_ms"] >= breakdown["compute_ms"]
