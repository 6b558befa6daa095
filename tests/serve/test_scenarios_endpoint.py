"""POST /scenarios over the wire: coalescing, seed isolation, metrics.

Three pins ride on this endpoint. Coalesced responses must be
byte-identical to the solo oracle (the cube is shared, the slices are
not re-derived). The per-request ``seed`` lives in the batcher group
key, so requests with different seeds must never fuse — each one's body
still matches its own solo oracle. And every fused batch feeds the
``serve_batch_fill`` histogram exposed at GET /metrics.
"""

from __future__ import annotations

import json


def test_scenarios_solo_response_shape(client):
    solo = client.post(
        "/scenarios",
        {"design": "a11", "scenarios": "fab-outage", "samples": 64},
    )
    assert solo.status == 200
    assert solo.batch_size == 1
    payload = json.loads(solo.body)
    assert payload["scenarios"] == [
        "fab-outage:mild",
        "fab-outage:moderate",
        "fab-outage:severe",
        "fab-outage:extreme",
    ]
    assert sorted(payload["studies"]) == sorted(payload["scenarios"])
    assert "ttm_weeks" in json.dumps(payload["studies"])


def test_scenarios_coalesce_across_designs_bit_identically(client, burst):
    bodies = [
        {
            "design": name,
            "scenarios": ["baseline", "logistics:severe"],
            "samples": 64,
            "seed": 7,
        }
        for name in ("a11", "zen2", "raven")
    ]
    solos = {
        body["design"]: client.post("/scenarios", body) for body in bodies
    }
    assert all(r.status == 200 for r in solos.values())

    responses = burst(client, "/scenarios", bodies * 3)
    assert all(r.status == 200 for r in responses)
    assert max(r.batch_size for r in responses) > 1
    for body, response in zip(bodies * 3, responses):
        assert response.body == solos[body["design"]].body


def test_differing_seeds_never_fuse(client, burst):
    seeds = (1, 2)
    bodies = [
        {"design": "a11", "scenarios": "baseline", "samples": 64,
         "seed": seed}
        for seed in seeds
    ]
    solos = {body["seed"]: client.post("/scenarios", body)
             for body in bodies}
    assert solos[1].body != solos[2].body  # the seed matters

    responses = burst(client, "/scenarios", bodies * 3)
    assert all(r.status == 200 for r in responses)
    for body, response in zip(bodies * 3, responses):
        # Seed is in the group key: a batch never mixes seeds, so each
        # response is byte-identical to its own seed's solo oracle...
        assert response.body == solos[body["seed"]].body
        # ...and no batch can exceed its seed-group's population.
        assert response.batch_size <= 3


def test_mc_seed_in_group_key(client, burst):
    bodies = [
        {"design": "a11", "samples": 128, "seed": seed}
        for seed in (10, 11)
    ]
    solos = {body["seed"]: client.post("/mc", body) for body in bodies}
    assert solos[10].body != solos[11].body

    responses = burst(client, "/mc", bodies * 3)
    assert all(r.status == 200 for r in responses)
    for body, response in zip(bodies * 3, responses):
        assert response.body == solos[body["seed"]].body
        assert response.batch_size <= 3


def test_invalid_selector_rejected(client):
    response = client.post(
        "/scenarios", {"design": "a11", "scenarios": "apocalypse"}
    )
    assert response.status == 400


def test_batch_fill_histogram_exposed(client, burst):
    body = {"design": "a11", "scenarios": "baseline", "samples": 64}
    responses = burst(client, "/scenarios", [body] * 4)
    assert all(r.status == 200 for r in responses)

    metrics = client.get("/metrics")
    assert metrics.status == 200
    text = metrics.body.decode("utf-8")
    assert "serve_batch_fill" in text
    fill_lines = [
        line
        for line in text.splitlines()
        if line.startswith("serve_batch_fill_bucket")
        and 'endpoint="scenarios"' in line
    ]
    assert fill_lines, "no scenarios-labelled fill buckets"
    # The +Inf bucket carries every observation; at least one batch ran.
    inf = [line for line in fill_lines if '+Inf' in line]
    assert inf and float(inf[0].rsplit(" ", 1)[1]) >= 1.0
