"""Endpoint behavior: routes, payload shapes, and engine agreement."""

from __future__ import annotations

import json

from repro.design.library import zen2_monolithic
from repro.engine.batch_split import batch_split
from repro.serve.protocol import canonical_json


def test_healthz_reports_ok(client):
    response = client.get("/healthz")
    assert response.status == 200
    assert response.json() == {"status": "ok"}


def test_metrics_exposes_serve_family(client):
    # Drive one request so the counters have fired at least once.
    assert client.post("/evaluate", {"design": "a11"}).status == 200
    text = client.get("/metrics").body.decode("utf-8")
    for series in (
        "serve_requests_total",
        "serve_request_seconds",
        "serve_queue_depth",
        "serve_batches_total",
        "serve_batched_requests_total",
        "serve_batch_size",
        "serve_rejected_total",
    ):
        assert f"# TYPE {series}" in text
    assert 'serve_requests_total{endpoint="evaluate",status="200"}' in text


def test_evaluate_metric_subset(client):
    response = client.post(
        "/evaluate", {"design": "a11", "metrics": ["ttm"]}
    )
    assert response.status == 200
    payload = response.json()
    assert set(payload["metrics"]) == {"ttm"}
    assert payload["metrics"]["ttm"]["total_weeks"] > 0


def test_evaluate_full_metrics_structure(client):
    payload = client.post("/evaluate", {"design": "zen2"}).json()
    assert set(payload["metrics"]) == {"cas", "cost", "ttm"}
    ttm = payload["metrics"]["ttm"]
    assert (
        ttm["design_weeks"] + ttm["tapeout_weeks"] < ttm["total_weeks"]
    )
    cost = payload["metrics"]["cost"]
    assert cost["total_usd"] > cost["wafer_usd"]
    assert cost["usd_per_chip"] * 1e7 != 0


def test_evaluate_capacity_scalar_and_mapping(client):
    base = client.post("/evaluate", {"design": "a11"}).json()
    squeezed = client.post(
        "/evaluate", {"design": "a11", "capacity": 0.25}
    ).json()
    assert (
        squeezed["metrics"]["ttm"]["total_weeks"]
        > base["metrics"]["ttm"]["total_weeks"]
    )
    per_node = client.post(
        "/evaluate", {"design": "a11", "capacity": {"7nm": 0.25}}
    )
    assert per_node.status == 200


def test_evaluate_inline_design(client):
    inline = {
        "name": "tiny",
        "dies": [
            {
                "name": "die0",
                "process": "28nm",
                "blocks": [
                    {"name": "core", "transistors": 5e6, "instances": 2}
                ],
            }
        ],
    }
    response = client.post("/evaluate", {"design": inline})
    assert response.status == 200
    assert response.json()["design"] == "tiny"


def test_evaluate_library_reference(client):
    response = client.post(
        "/evaluate",
        {"design": {"library": "zen2-monolithic", "process": "7nm"}},
    )
    assert response.status == 200


def test_mc_study_shape(client):
    payload = client.post(
        "/mc", {"design": "raven", "samples": 64, "seed": 9}
    ).json()
    assert payload["samples"] == 64
    assert payload["seed"] == 9
    assert "curves" in payload["study"] or payload["study"]


def test_splits_agrees_with_direct_batch_split(client, model, cost_model):
    pairs = [("7nm", "14nm")]
    served = client.post(
        "/splits",
        {
            "design": {"library": "zen2-monolithic"},
            "pairs": [list(pair) for pair in pairs],
        },
    ).json()
    direct = batch_split(
        zen2_monolithic, pairs, model, cost_model, 1e7
    )
    best = direct.best_evaluation(0)
    assert served["best"][0]["split"] == best.split
    assert served["best"][0]["ttm_weeks"] == best.ttm_weeks
    assert served["best"][0]["cas"] == best.cas


def test_responses_are_canonical_json(client):
    response = client.post("/evaluate", {"design": "a11"})
    assert response.body == canonical_json(json.loads(response.body))


def test_unknown_route_404(client):
    response = client.get("/nope")
    assert response.status == 404
    assert response.json()["error"]["code"] == "not_found"


def test_wrong_method_405_with_allow(client):
    response = client.request("GET", "/evaluate")
    assert response.status == 405
    assert response.headers["allow"] == "POST"
    response = client.request(
        "POST", "/metrics", body=b"{}"
    )
    assert response.status == 405
    assert response.headers["allow"] == "GET"


def test_unknown_design_and_scenario_are_400(client):
    response = client.post("/evaluate", {"design": "pentium"})
    assert response.status == 400
    assert "pentium" in response.json()["error"]["message"]
    response = client.post(
        "/evaluate", {"design": "a11", "scenario": "boom"}
    )
    assert response.status == 400
    assert "boom" in response.json()["error"]["message"]


def test_unavailable_node_is_400_not_500(client):
    # 10 nm exists in the database but has zero production capacity.
    response = client.post(
        "/evaluate", {"design": {"library": "a11", "process": "10nm"}}
    )
    assert response.status == 400


def test_cli_wires_serve_subcommand():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        [
            "serve",
            "--port",
            "0",
            "--batch-window-ms",
            "5",
            "--max-batch",
            "16",
        ]
    )
    assert args.port == 0
    assert args.batch_window_ms == 5.0
    assert args.max_batch == 16
    assert args.handler.__name__ == "_cmd_serve"
