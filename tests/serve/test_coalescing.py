"""The service's headline contract: coalesced == solo, byte for byte.

Each test computes a *solo oracle* (the response to a request on an idle
server, batch size 1), then fires a concurrent burst of requests (the
``burst`` fixture holds the first batch until all are admitted) and
asserts (a) the burst actually coalesced — fewer fused calls than
requests, proven by X-Batch-Size > 1 — and (b) every coalesced response
body is byte-identical to the oracle.
"""

from __future__ import annotations

import json

from repro.design.library import a11
from repro.engine import evaluate
from repro.ttm.model import TTMModel


def test_identical_evaluate_requests_coalesce_bit_identically(client, burst):
    body = {"design": "a11", "n_chips": 2e7}
    solo = client.post("/evaluate", body)
    assert solo.status == 200
    assert solo.batch_size == 1

    responses = burst(client, "/evaluate", [body] * 8)
    assert all(r.status == 200 for r in responses)
    # The burst fused: at least one batch carried >1 request, and no
    # request saw more engine dispatches than the burst size demands.
    assert max(r.batch_size for r in responses) > 1
    for r in responses:
        assert r.body == solo.body


def test_mixed_designs_coalesce_and_match_solo(client, burst):
    bodies = [
        {"design": name, "n_chips": 1e7}
        for name in ("a11", "zen2", "raven")
    ]
    solos = {
        json.dumps(body, sort_keys=True): client.post("/evaluate", body).body
        for body in bodies
    }
    responses = burst(client, "/evaluate", bodies * 3)
    assert all(r.status == 200 for r in responses)
    assert max(r.batch_size for r in responses) > 1
    for body, response in zip(bodies * 3, responses):
        assert response.body == solos[json.dumps(body, sort_keys=True)]


def test_incompatible_shapes_do_not_fuse_but_stay_identical(client, burst):
    plain = {"design": "a11"}
    with_knob = {"design": "a11", "d0_scale": 1.2}
    solo_plain = client.post("/evaluate", plain)
    solo_knob = client.post("/evaluate", with_knob)
    assert solo_plain.status == solo_knob.status == 200
    assert solo_plain.body != solo_knob.body  # the knob matters

    responses = burst(client, "/evaluate", [plain, with_knob] * 3)
    for body, response in zip([plain, with_knob] * 3, responses):
        oracle = solo_plain if body is plain else solo_knob
        assert response.body == oracle.body


def test_mc_coalesces_across_designs_bit_identically(client, burst):
    bodies = [
        {"design": name, "samples": 128, "seed": 3}
        for name in ("a11", "zen2")
    ]
    solos = [client.post("/mc", body) for body in bodies]
    assert all(r.status == 200 for r in solos)

    responses = burst(client, "/mc", bodies * 2)
    assert all(r.status == 200 for r in responses)
    assert max(r.batch_size for r in responses) > 1
    for body, response in zip(bodies * 2, responses):
        assert response.body == solos[bodies.index(body)].body


def test_mc_different_seeds_do_not_fuse(client, burst):
    a = {"design": "a11", "samples": 64, "seed": 1}
    b = {"design": "a11", "samples": 64, "seed": 2}
    solo_a = client.post("/mc", a)
    solo_b = client.post("/mc", b)
    responses = burst(client, "/mc", [a, b])
    assert responses[0].body == solo_a.body
    assert responses[1].body == solo_b.body
    assert solo_a.body != solo_b.body


def test_splits_single_flight_dedup(client, burst):
    body = {
        "design": "a11",
        "pairs": [["7nm", "14nm"], ["7nm", "28nm"]],
    }
    solo = client.post("/splits", body)
    assert solo.status == 200
    responses = burst(client, "/splits", [body] * 4)
    assert all(r.status == 200 for r in responses)
    assert max(r.batch_size for r in responses) > 1
    for r in responses:
        assert r.body == solo.body


def test_evaluate_matches_direct_engine_call(client, model, cost_model):
    """The served numbers are the engine's numbers, not a reimplementation."""
    design = a11("7nm")
    response = client.post(
        "/evaluate", {"design": {"library": "a11", "process": "7nm"}}
    )
    assert response.status == 200
    served = response.json()["metrics"]["ttm"]["total_weeks"]
    # The server's nominal-scenario model == conftest's nominal model.
    direct = evaluate(model, (design,), [1e7], ("ttm",))
    direct = direct.ttm.total_weeks[0, 0, 0]
    assert served == direct


def test_batch_size_header_is_metadata_only(client, burst):
    """Batch size rides in the header; bodies never mention it."""
    body = {"design": "raven"}
    responses = burst(client, "/evaluate", [body] * 4)
    sizes = {r.batch_size for r in responses}
    assert max(sizes) > 1
    for r in responses:
        assert b"batch" not in r.body.lower()


def test_scenario_changes_the_answer_but_not_determinism(client, burst):
    nominal = {"design": "a11"}
    crunch = {"design": "a11", "scenario": "shortage_2021"}
    solo_nominal = client.post("/evaluate", nominal)
    solo_crunch = client.post("/evaluate", crunch)
    assert solo_crunch.status == 200
    assert solo_nominal.body != solo_crunch.body
    responses = burst(client, "/evaluate", [nominal, crunch] * 2)
    for body, r in zip([nominal, crunch] * 2, responses):
        oracle = solo_nominal if body is nominal else solo_crunch
        assert r.body == oracle.body
