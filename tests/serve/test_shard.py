"""Sharded serve: sticky routes, cross-worker byte-identity, lifecycle.

The tentpole contracts pinned here:

* the router's :func:`routing_key` is the worker batcher's group key
  itself — both come from one reader,
  :func:`~repro.serve.common.read_request` — so requests the batcher
  would coalesce never split across workers; a body that is not JSON,
  or that the reader refuses, routes on its own bytes without raising;
* a response served through the shard router is byte-identical to the
  same request's response from a single-process server (the PR 7
  contract survives sharding);
* a concurrent burst of coalescable requests still fuses (X-Batch-Size
  > 1) even though every request enters through the parent router on
  its own connection;
* ``/metrics`` aggregates per-worker families under ``worker="N"``
  labels with no duplicate series; ``/healthz`` reports the fleet;
* a SIGKILLed worker is reaped and a replacement spawned — one killed
  mid-request costs that request a prompt 503/worker_unavailable; a
  rolling drain completes every accepted request, refuses new ones
  with 503/draining, and leaves behind no worker process.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import (
    ServeClient,
    ServerConfig,
    ServerThread,
    ServeState,
    ShardConfig,
    ShardThread,
    parse_request,
    rendezvous_worker,
    routing_key,
)

#: Every /mc field a body may omit, spelled out at its default value.
MC_DEFAULTS = {
    "scenario": "nominal",
    "samples": 1024,
    "seed": 0,
    "with_cost": True,
    "n_chips": 1e7,
    "variation": 0.1,
    "queue_weeks": 2.0,
    "capacity": 0.9,
}

#: The same for /scenarios, which adds the sampling mode and selector.
SCENARIOS_DEFAULTS = {**MC_DEFAULTS, "correlated": False, "scenarios": "all"}

#: Every omittable /evaluate field, spelled out at its documented default.
EVALUATE_DEFAULTS = {"scenario": "nominal", "n_chips": 1e7}

#: The same for /splits, whose design is omittable too.
SPLITS_DEFAULTS = {
    "design": "a11",
    "scenario": "nominal",
    "n_chips": 1e7,
    "refine": False,
    "with_cas": True,
}

#: Each endpoint's omittable fields at their defaults.
DEFAULTS = [
    ("mc", MC_DEFAULTS),
    ("scenarios", SCENARIOS_DEFAULTS),
    ("evaluate", EVALUATE_DEFAULTS),
    ("splits", SPLITS_DEFAULTS),
]


def _bare(endpoint):
    """An endpoint's smallest valid body: every default omitted."""
    if endpoint == "splits":
        return {"pairs": [["7nm", "28nm"]]}
    return {"design": "a11"}


#: One body per endpoint, each setting fields its group key reads.
ROUTED = [
    ("evaluate", {"design": "zen2", "capacity": {"7nm": 0.5}, "d0_scale": 1}),
    ("mc", {"design": "raven", "samples": 256, "seed": 3, "with_cost": False}),
    (
        "scenarios",
        {"design": "a11", "scenarios": ["fab-outage"], "correlated": True},
    ),
    (
        "splits",
        {"design": {"library": "raven", "cores": 4}, "pairs": [["7nm", "28nm"]]},
    ),
]


def _burst(client, path, bodies):
    with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
        return list(pool.map(lambda body: client.post(path, body), bodies))


def _slow_studies_by_slot(count, samples=4096):
    """``count`` slow /scenarios bodies per worker slot of a 2-worker shard.

    Every stress scenario at 4096 samples is ~0.1 s of real engine work
    per request on a 2-CPU host (16384 samples ~0.3 s); distinct seeds
    give distinct routing keys, so a slot's bodies never coalesce and
    queue one behind another.
    """
    by_slot = {}
    for seed in range(256):
        body = {
            "design": "a11",
            "scenarios": "all",
            "samples": samples,
            "seed": seed,
        }
        key = routing_key("scenarios", json.dumps(body).encode())
        by_slot.setdefault(rendezvous_worker(key, [0, 1]), []).append(body)
        if all(len(by_slot.get(slot, ())) >= count for slot in (0, 1)):
            return {slot: by_slot[slot][:count] for slot in (0, 1)}
    raise AssertionError(f"seeds never filled both slots: {by_slot}")


def _wait_until(condition, timeout):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.002)
    return condition()


# -- routing (pure unit tests) -----------------------------------------------


class TestRoutingKey:
    def test_coalescable_evaluate_requests_share_a_key(self):
        # Different designs and knob *values* coalesce; only the knob
        # shape is routed on.
        base = json.dumps({"design": "a11", "queue_weeks": 2.0}).encode()
        other = json.dumps({"design": "zen2", "queue_weeks": 9.0}).encode()
        assert routing_key("evaluate", base) == routing_key(
            "evaluate", other
        )

    def test_body_nested_past_the_recursion_limit_routes_opaque(self):
        # json.loads raises RecursionError, not ValueError, on it.
        body = b"[" * 100_000 + b"]" * 100_000
        assert routing_key("evaluate", body) == (
            b"opaque:evaluate:" + body[:128]
        )

    def test_knob_shape_changes_the_key(self):
        plain = json.dumps({"design": "a11"}).encode()
        with_knob = json.dumps({"design": "a11", "d0_scale": 1.2}).encode()
        assert routing_key("evaluate", plain) != routing_key(
            "evaluate", with_knob
        )

    def test_capacity_node_order_does_not_split_a_group(self):
        forward = json.dumps(
            {"design": "a11", "capacity": {"7nm": 0.5, "14nm": 0.9}}
        ).encode()
        backward = json.dumps(
            {"design": "zen2", "capacity": {"14nm": 0.1, "7nm": 0.2}}
        ).encode()
        assert routing_key("evaluate", forward) == routing_key(
            "evaluate", backward
        )

    def test_mc_numeric_representation_does_not_split_a_group(self):
        as_int = json.dumps({"design": "a11", "n_chips": 10000000}).encode()
        as_float = json.dumps({"design": "zen2", "n_chips": 1e7}).encode()
        defaulted = json.dumps({"design": "raven"}).encode()
        assert (
            routing_key("mc", as_int)
            == routing_key("mc", as_float)
            == routing_key("mc", defaulted)
        )

    @pytest.mark.parametrize("endpoint, defaults", DEFAULTS)
    def test_spelled_out_defaults_equal_omitted_ones(
        self, endpoint, defaults
    ):
        """Router and parser agree on every default of a request body."""
        bare = _bare(endpoint)
        spelled = {**bare, **defaults}
        assert routing_key(endpoint, json.dumps(spelled).encode()) == (
            routing_key(endpoint, json.dumps(bare).encode())
        )
        state = ServeState()
        spelled_key, _ = parse_request(state, endpoint, spelled)
        bare_key, _ = parse_request(state, endpoint, bare)
        assert spelled_key == bare_key

    @pytest.mark.parametrize(
        "endpoint, body",
        ROUTED
        + [(e, {**_bare(e), **defaults}) for e, defaults in DEFAULTS]
        + [(e, _bare(e)) for e, _ in DEFAULTS],
    )
    def test_the_route_is_the_group_key(self, endpoint, body):
        """The router routes on the very bytes the worker's batcher
        groups by: one reader, not a copy kept in step by this suite."""
        raw = json.dumps(body).encode()
        key, _payload = parse_request(ServeState(), endpoint, json.loads(raw))
        assert routing_key(endpoint, raw) == key[1]

    def test_mc_seed_changes_the_key(self):
        a = json.dumps({"design": "a11", "seed": 1}).encode()
        b = json.dumps({"design": "a11", "seed": 2}).encode()
        assert routing_key("mc", a) != routing_key("mc", b)

    def test_never_raises_on_junk(self):
        for body in (
            b"",
            b"not json",
            b"[1, 2, 3]",
            b'{"design": null, "capacity": false, "pairs": 7}',
            b'{"samples": "many", "queue_weeks": []}',
            "\xff\xfe".encode("latin-1"),
        ):
            for endpoint in ("evaluate", "mc", "splits", "other"):
                key = routing_key(endpoint, body)
                assert isinstance(key, bytes)
                assert key == routing_key(endpoint, body)  # deterministic


class TestRendezvous:
    def test_deterministic(self):
        key = routing_key("evaluate", b'{"design": "a11"}')
        picks = {rendezvous_worker(key, [0, 1, 2, 3]) for _ in range(10)}
        assert len(picks) == 1

    def test_spreads_distinct_keys(self):
        keys = [
            routing_key("mc", json.dumps({"seed": seed}).encode())
            for seed in range(64)
        ]
        slots = {rendezvous_worker(key, [0, 1, 2, 3]) for key in keys}
        assert len(slots) > 1  # not everything lands on one worker

    def test_removing_a_slot_only_moves_its_keys(self):
        keys = [
            routing_key("mc", json.dumps({"seed": seed}).encode())
            for seed in range(64)
        ]
        before = {key: rendezvous_worker(key, [0, 1, 2]) for key in keys}
        after = {key: rendezvous_worker(key, [0, 1]) for key in keys}
        for key in keys:
            if before[key] != 2:
                assert after[key] == before[key]

    def test_empty_worker_set_is_an_error(self):
        with pytest.raises(ValueError):
            rendezvous_worker(b"key", [])


# -- a live two-worker shard -------------------------------------------------


@pytest.fixture(scope="module")
def shard():
    """One 2-worker shard shared by the read-mostly tests below.

    The respawn test runs against it too (last in file); the rolling
    drain test boots its own.
    """
    thread = ShardThread(
        ShardConfig(
            workers=2,
            server=ServerConfig(),
            respawn_backoff_s=0.05,
            respawn_backoff_cap_s=0.2,
        )
    ).start()
    yield thread
    pids = [w.pid for w in thread.supervisor.workers]
    thread.stop()
    # Full drain: no worker survives.
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.fixture()
def shard_client(shard):
    return ServeClient(shard.host, shard.port, timeout=120.0)


@pytest.fixture(scope="module")
def solo_oracle():
    """A single-process server: the byte-identity reference."""
    with ServerThread(ServerConfig()) as thread:
        yield ServeClient(thread.host, thread.port, timeout=120.0)


def test_cross_worker_byte_identity(shard_client, solo_oracle):
    """Routed through the shard == served solo, byte for byte."""
    cases = [
        ("/evaluate", {"design": "a11"}),
        ("/evaluate", {"design": "zen2", "scenario": "shortage_2021"}),
        ("/evaluate", {"design": "raven", "queue_weeks": 4.0}),
        ("/mc", {"design": "a11", "samples": 64, "seed": 7}),
        ("/splits", {"design": "a11", "pairs": [["7nm", "14nm"]]}),
    ]
    for path, body in cases:
        sharded = shard_client.post(path, body)
        solo = solo_oracle.post(path, body)
        assert sharded.status == solo.status == 200, (path, body)
        assert sharded.body == solo.body, (path, body)


def test_sticky_burst_still_coalesces(shard_client, solo_oracle):
    """Same-group requests on separate connections fuse on one worker."""
    body = {"design": "a11", "n_chips": 2e7}
    solo = solo_oracle.post("/evaluate", body)
    assert solo.status == 200

    responses = _burst(shard_client, "/evaluate", [body] * 8)
    assert all(r.status == 200 for r in responses)
    # Coalescing proves stickiness: a group split across workers could
    # never produce a batch larger than its biggest worker-local share.
    assert max(r.batch_size for r in responses) > 1
    for response in responses:
        assert response.body == solo.body


def test_metrics_aggregates_all_workers(shard_client):
    shard_client.post("/evaluate", {"design": "a11"})
    scrape = shard_client.get("/metrics")
    assert scrape.status == 200
    text = scrape.body.decode()
    for label in ('worker="0"', 'worker="1"', 'worker="router"'):
        assert label in text, text
    assert "serve_requests_total" in text
    assert "serve_routed_total" in text
    # Valid exposition: no series (name + label set) appears twice.
    series = [
        line.rsplit(" ", 1)[0]
        for line in text.splitlines()
        if line and not line.startswith("#")
    ]
    assert len(series) == len(set(series))


def test_healthz_reports_the_fleet(shard_client):
    health = shard_client.get("/healthz").json()
    assert health["status"] == "ok"
    workers = health["workers"]
    assert [entry["worker"] for entry in workers] == [0, 1]
    for entry in workers:
        assert entry["alive"] is True
        assert entry["status"] == "ok"
        assert entry["pid"] > 0
        assert entry["restarts"] == 0


def test_worker_labels_differ_from_single_process_healthz(shard_client):
    """Worker-only fields never leak into the aggregate entries' shape."""
    health = shard_client.get("/healthz").json()
    assert set(health) == {"status", "workers"}


def test_requests_sharing_an_id_are_each_in_flight_at_the_router(
    shard_client,
):
    """A client-chosen X-Request-Id names no in-flight entry at the
    router either: two slow requests that share one are two entries."""
    bodies = _slow_studies_by_slot(2, samples=16384)[0]
    headers = {
        "Content-Type": "application/json",
        "X-Request-Id": "shared-9",
    }
    most = 0
    with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
        futures = [
            pool.submit(
                shard_client.request,
                "POST",
                "/scenarios",
                json.dumps(body).encode(),
                headers,
            )
            for body in bodies
        ]
        while most < len(bodies) and not all(f.done() for f in futures):
            snapshot = shard_client.get("/debug/obs").json()
            most = max(
                most,
                sum(
                    entry["request_id"] == "shared-9"
                    for entry in snapshot["in_flight"]
                ),
            )
        responses = [future.result(timeout=120.0) for future in futures]
    assert [r.status for r in responses] == [200, 200]
    assert most == len(bodies)


# Keep this test last among the shared-shard tests: it restarts a worker
# and bumps its restart counter, which the fleet assertions above pin at
# zero.
def test_killed_worker_is_respawned(shard, shard_client):
    victim = shard.supervisor.workers[0]
    old_pid = victim.pid
    os.kill(old_pid, signal.SIGKILL)

    deadline = time.monotonic() + 90.0
    while time.monotonic() < deadline:
        entry = shard_client.get("/healthz").json()["workers"][0]
        if entry["alive"] and entry["restarts"] >= 1:
            break
        time.sleep(0.1)
    else:
        pytest.fail("worker 0 was not respawned within 90 s")
    assert victim.pid != old_pid

    # The pool serves again, on both route targets.
    response = shard_client.post("/evaluate", {"design": "a11"})
    assert response.status == 200


# -- own boots: these tests kill a worker or stop the server -----------------


def test_worker_killed_mid_request_is_503_and_respawned():
    thread = ShardThread(
        ShardConfig(
            workers=2, respawn_backoff_s=0.05, respawn_backoff_cap_s=0.2
        )
    ).start()
    supervisor = thread.supervisor
    client = ServeClient(thread.host, thread.port, timeout=60.0)
    pids = [w.pid for w in supervisor.workers]
    try:
        # ~0.3 s of engine work: every stress scenario at 16384 samples.
        body = {"design": "a11", "scenarios": "all", "samples": 16384}
        key = routing_key("scenarios", json.dumps(body).encode())
        victim = supervisor.workers[rendezvous_worker(key, [0, 1])]
        old_pid = victim.pid
        with ThreadPoolExecutor(max_workers=1) as pool:
            started = time.monotonic()
            future = pool.submit(client.post, "/scenarios", body)
            assert _wait_until(
                lambda: len(supervisor.ledger.in_flight()) == 1, 10.0
            )
            time.sleep(0.02)  # the forward hop to the worker is sub-ms
            assert len(supervisor.ledger.in_flight()) == 1
            os.kill(old_pid, signal.SIGKILL)
            response = future.result(timeout=60.0)
            elapsed = time.monotonic() - started
        assert response.status == 503
        assert response.error_code == "worker_unavailable"
        assert elapsed < 10.0  # prompt, well within the client timeout

        assert _wait_until(
            lambda: victim.alive() and victim.pid != old_pid, 60.0
        ), "the killed worker was not respawned within 60 s"
        pids.append(victim.pid)
        retry = client.post("/scenarios", body)
        assert retry.status == 200
    finally:
        thread.stop()
    # No orphans: the killed worker was reaped, its replacement and the
    # other worker stopped with the shard.
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_router_records_the_503s_it_answers_itself():
    """With no live worker the router answers 503 itself, and that reply
    is in its log ring and its SLO window like any other."""
    thread = ShardThread(ShardConfig(workers=1, respawn_backoff_s=5.0)).start()
    client = ServeClient(thread.host, thread.port, timeout=60.0)
    (worker,) = thread.supervisor.workers
    pid = worker.pid
    try:
        os.kill(pid, signal.SIGKILL)
        assert _wait_until(lambda: not worker.alive(), 10.0)
        response = client.post("/evaluate", {"design": "a11"})
        snapshot = client.get("/debug/obs").json()
    finally:
        thread.stop()
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    assert response.status == 503
    assert response.error_code == "worker_unavailable"
    lines = [r for r in snapshot["recent"] if r["endpoint"] == "evaluate"]
    assert len(lines) == 1, snapshot["recent"]
    assert (lines[0]["role"], lines[0]["status"]) == ("router", 503)
    # A dead worker is not a drain.
    assert lines[0]["outcome"] == "worker_unavailable"
    assert lines[0]["request_id"] == response.request_id
    assert snapshot["slo"]["evaluate"]["errors"] == 1


def test_rolling_drain_completes_in_flight_and_rejects_new():
    thread = ShardThread(ShardConfig(workers=2)).start()
    supervisor = thread.supervisor
    client = ServeClient(thread.host, thread.port, timeout=120.0)
    try:
        # Real work in flight on both workers when the drain begins:
        # three slow studies per worker, queued one behind another.
        slow = _slow_studies_by_slot(3)
        bodies = slow[0] + slow[1]

        pool = ThreadPoolExecutor(max_workers=len(bodies))
        futures = [
            pool.submit(client.post, "/scenarios", body) for body in bodies
        ]
        _wait_until(
            lambda: len(supervisor.ledger.in_flight()) == len(bodies)
            or any(future.done() for future in futures),
            30.0,
        )

        stopper = threading.Thread(target=thread.stop)
        stopper.start()
        assert _wait_until(lambda: supervisor.draining, 10.0)
        # No request is sent between the drain's start and this check, so
        # the count only falls here: nonzero now means requests were in
        # flight when the drain began.
        assert len(supervisor.ledger.in_flight()) > 0

        # While the drain runs, fresh requests get an explicit
        # 503/draining, not a refused connection.
        saw_draining = False
        while stopper.is_alive():
            try:
                probe = client.post("/evaluate", {"design": "zen2"})
            except OSError:
                break  # listener finally closed: drain is ending
            if probe.status == 503 and probe.error_code == "draining":
                saw_draining = True
                break
            time.sleep(0.02)
        stopper.join(timeout=120.0)
        assert not stopper.is_alive()
        assert saw_draining
        drained = [
            line
            for line in supervisor.ledger.logger.recent(256)
            if line["status"] == 503
        ]
        assert drained, "the router logged no 503"
        assert {line["outcome"] for line in drained} == {"draining"}

        # Every request accepted before the drain completed normally.
        responses = [future.result(timeout=120.0) for future in futures]
        pool.shutdown(wait=True)
        assert [r.status for r in responses] == [200] * len(bodies)
    finally:
        thread.stop()

    # Nothing survives the drain: no worker processes.
    for worker in thread.supervisor.workers:
        with pytest.raises(ProcessLookupError):
            os.kill(worker.pid, 0)
