"""Acceptance: one request through a 2-worker shard yields ONE trace.

The tentpole contract of the distributed-observability PR: a single
``POST /evaluate`` through ``ttm-cas serve --workers 2 --trace``
produces a stitched trace containing the router's admission span, the
worker's request span (joined via the propagated traceparent), the
coalescing batch span with per-member links, and at least one engine
kernel span — spanning at least two distinct OS processes. The
router's drain also merges every worker's spans into one Chrome trace
with a named lane per process.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.distributed import mint_trace_context, stitch_trace
from repro.obs.log import read_request_log
from repro.serve import (
    ServeClient,
    ServerConfig,
    ServerThread,
    ShardConfig,
    ShardThread,
)


@pytest.fixture(scope="module")
def traced_shard():
    thread = ShardThread(
        ShardConfig(
            workers=2,
            server=ServerConfig(trace=True),
            respawn_backoff_s=0.05,
            respawn_backoff_cap_s=0.2,
        )
    ).start()
    yield thread
    thread.stop()


@pytest.fixture()
def shard_client(traced_shard):
    return ServeClient(traced_shard.host, traced_shard.port, timeout=120.0)


def _stitched(client, trace_id, names, attempts=100):
    """Poll the router's /debug/trace until ``names`` all appear."""
    present = set()
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


def test_one_request_one_stitched_cross_process_trace(shard_client):
    response = shard_client.post("/evaluate", {"design": "a11"})
    assert response.status == 200
    assert response.request_id
    assert len(response.trace_id) == 32

    stitched = _stitched(
        shard_client,
        response.trace_id,
        {
            "serve.router",
            "serve.request",
            "serve.batch",
            "engine.fused_point_eval",
        },
    )

    router = next(s for s in stitched if s["name"] == "serve.router")
    request = next(s for s in stitched if s["name"] == "serve.request")
    batch = next(s for s in stitched if s["name"] == "serve.batch")

    # The router minted the context at admission; the worker recorded
    # the router's wire span id as its parent — the cross-process seam.
    assert request["attributes"]["parent_ctx"] == (
        router["attributes"]["ctx_span"]
    )
    assert router["attributes"]["trace_id"] == response.trace_id
    assert request["attributes"]["trace_id"] == response.trace_id
    assert router["attributes"]["request_id"] == response.request_id

    # Batch membership: the request span names the batch, the batch
    # links back to the request.
    assert request["attributes"]["batch_span_id"] == batch["span_id"]
    assert any(
        link["request_id"] == response.request_id
        for link in batch["attributes"]["links"]
    )

    # The engine kernel span nests under the batch, in-process.
    engine = next(
        s for s in stitched if s["name"] == "engine.fused_point_eval"
    )
    assert engine["parent_id"] == batch["span_id"]

    # Genuinely distributed: router and worker are different processes.
    assert len({span["process_id"] for span in stitched}) >= 2


def test_callers_traceparent_continues_through_the_router(shard_client):
    """The caller's span parents the router's, whose own span id parents
    the worker's, all in the caller's trace."""
    caller = mint_trace_context()
    response = shard_client.request(
        "POST",
        "/evaluate",
        body=json.dumps({"design": "a11"}).encode(),
        headers={
            "Content-Type": "application/json",
            "traceparent": caller.to_traceparent(),
        },
    )
    assert response.status == 200
    assert response.trace_id == caller.trace_id

    stitched = _stitched(
        shard_client, caller.trace_id, {"serve.router", "serve.request"}
    )
    router = next(s for s in stitched if s["name"] == "serve.router")
    request = next(s for s in stitched if s["name"] == "serve.request")
    assert router["attributes"]["parent_ctx"] == caller.span_id
    assert router["attributes"]["ctx_span"] != caller.span_id
    assert request["attributes"]["parent_ctx"] == (
        router["attributes"]["ctx_span"]
    )
    assert router["attributes"]["trace_id"] == caller.trace_id
    assert request["attributes"]["trace_id"] == caller.trace_id


def test_debug_obs_aggregates_router_and_workers(shard_client):
    shard_client.post("/evaluate", {"design": "a11"})
    snapshot = shard_client.get("/debug/obs").json()
    assert snapshot["role"] == "router"
    assert snapshot["tracing"] is True
    assert snapshot["workers_alive"] == 2
    workers = snapshot["workers"]
    assert len(workers) == 2
    for entry in workers:
        assert entry["alive"] and entry["reachable"]
        assert entry["role"] == "worker"
    # The router keeps its own log ring and SLO ledger.
    assert any(
        record["endpoint"] == "evaluate" for record in snapshot["recent"]
    )
    assert "evaluate" in snapshot["slo"]


def test_aggregated_metrics_include_slo_and_quantile_sources(shard_client):
    shard_client.post("/evaluate", {"design": "a11"})
    text = shard_client.get("/metrics").body.decode("utf-8")
    assert "# TYPE serve_slo_ok gauge" in text
    # Every part of the merged exposition is worker-labelled; the
    # router's own SLO ledger rides under worker="router".
    assert (
        'serve_slo_ok{endpoint="evaluate",worker="router"} 1' in text
    )
    # Per-worker histogram buckets survive aggregation (the quantile
    # source for `ttm-cas obs`).
    assert "serve_request_seconds_bucket" in text


def test_coalesced_bytes_identical_to_solo_with_tracing_on(
    shard_client, serve_factory, burst
):
    body = {"design": "a11", "n_chips": 2e7}
    with ServerThread(ServerConfig()) as solo_thread:
        solo = ServeClient(
            solo_thread.host, solo_thread.port, timeout=120.0
        ).post("/evaluate", body)
    assert solo.status == 200

    # Through the traced shard, whether or not the posts happen to fuse.
    with ThreadPoolExecutor(max_workers=8) as pool:
        responses = list(
            pool.map(
                lambda _: shard_client.post("/evaluate", body), range(8)
            )
        )
    assert all(r.status == 200 for r in responses)
    for response in responses:
        assert response.body == solo.body

    # A traced server whose first batch is held until all 8 are
    # admitted, so the burst coalesces by construction.
    traced = serve_factory.server(trace=True)
    responses = burst(serve_factory.client(traced), "/evaluate", [body] * 8)
    assert all(r.status == 200 for r in responses)
    assert max(r.batch_size for r in responses) > 1
    for response in responses:
        assert response.body == solo.body


def test_router_and_worker_log_lines_join_by_request_id(tmp_path):
    """The log contract perfbench's breakdown reads: one router line and
    one worker line per request, joined by request id, the worker's
    carrying the queue / batch-wait / compute / serialize split."""
    path = tmp_path / "serve-log.jsonl"
    config = ShardConfig(workers=2, server=ServerConfig(log_json=str(path)))
    with ShardThread(config) as thread:
        response = ServeClient(thread.host, thread.port, timeout=120.0).post(
            "/evaluate", {"design": "a11"}
        )
    assert response.status == 200
    lines = [
        record
        for record in read_request_log(str(path))
        if record["request_id"] == response.request_id
    ]
    assert sorted(record["role"] for record in lines) == ["router", "worker"]
    (worker,) = [record for record in lines if record["role"] == "worker"]
    assert set(worker["breakdown"]) >= {
        "queue_ms", "batch_wait_ms", "compute_ms", "serialize_ms",
    }


def test_drain_writes_one_merged_chrome_trace(tmp_path):
    trace_path = tmp_path / "shard-trace.json"
    thread = ShardThread(
        ShardConfig(
            workers=2,
            server=ServerConfig(trace=True),
            trace_out=str(trace_path),
        )
    ).start()
    try:
        client = ServeClient(thread.host, thread.port, timeout=120.0)
        response = client.post("/evaluate", {"design": "a11"})
        assert response.status == 200
        _stitched(client, response.trace_id, {"serve.request"})
    finally:
        thread.stop()

    chrome = json.loads(trace_path.read_text())
    events = chrome["traceEvents"]
    lanes = {
        event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "process_name"
    }
    assert "router" in lanes
    assert any(lane.startswith("worker ") for lane in lanes)
    complete = [event for event in events if event["ph"] == "X"]
    assert any(event["name"] == "serve.router" for event in complete)
    assert any(event["name"] == "serve.request" for event in complete)
    assert len({event["pid"] for event in complete}) >= 2
