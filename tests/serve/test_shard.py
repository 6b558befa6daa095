"""Sharded serve: sticky routes, cross-worker byte-identity, lifecycle.

The tentpole contracts pinned here:

* the router's :func:`routing_key` is a faithful shadow of the worker
  batcher's group key — requests the batcher would coalesce never split
  across workers — and it never raises, whatever the body;
* a response served through the shard router is byte-identical to the
  same request's response from a single-process server (the PR 7
  contract survives sharding);
* a concurrent burst of coalescable requests still fuses (X-Batch-Size
  > 1) even though every request enters through the parent router on
  its own connection;
* ``/metrics`` aggregates per-worker families under ``worker="N"``
  labels with no duplicate series; ``/healthz`` reports the fleet;
* a SIGKILLed worker is reaped and a replacement spawned; a rolling
  drain completes every accepted request, refuses new ones with
  503/draining, and leaves behind no worker process and no
  shared-memory segment.
"""

from __future__ import annotations

import glob
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


def _segments():
    return set(glob.glob("/dev/shm/repro_shm_*"))


def _burst(client, path, bodies):
    with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
        return list(pool.map(lambda body: client.post(path, body), bodies))


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

    @pytest.mark.parametrize(
        "endpoint, defaults",
        [("mc", MC_DEFAULTS), ("scenarios", SCENARIOS_DEFAULTS)],
    )
    def test_spelled_out_defaults_equal_omitted_ones(
        self, endpoint, defaults
    ):
        """Router and parser agree on every default of a study body."""
        bare = {"design": "a11"}
        spelled = {**bare, **defaults}
        assert routing_key(endpoint, json.dumps(spelled).encode()) == (
            routing_key(endpoint, json.dumps(bare).encode())
        )
        state = ServeState()
        spelled_key, _ = parse_request(state, endpoint, spelled)
        bare_key, _ = parse_request(state, endpoint, bare)
        assert spelled_key == bare_key

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
    before = _segments()
    thread = ShardThread(
        ShardConfig(
            workers=2,
            server=ServerConfig(batch_window_ms=25.0),
            respawn_backoff_s=0.05,
            respawn_backoff_cap_s=0.2,
        )
    ).start()
    yield thread
    pids = [w.pid for w in thread.supervisor.workers]
    thread.stop()
    # Full drain: no worker survives, no shm segment leaks.
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert _segments() <= before


@pytest.fixture()
def shard_client(shard):
    return ServeClient(shard.host, shard.port, timeout=120.0)


@pytest.fixture(scope="module")
def solo_oracle():
    """A single-process server: the byte-identity reference."""
    with ServerThread(ServerConfig(batch_window_ms=25.0)) as thread:
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


# Keep this test last in the module: it restarts a worker and bumps its
# restart counter, which the fleet assertions above pin at zero.
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


# -- rolling drain (own boot: the test stops the server) ---------------------


def test_rolling_drain_completes_in_flight_and_rejects_new():
    before = _segments()
    thread = ShardThread(
        ShardConfig(
            workers=2,
            server=ServerConfig(batch_window_ms=400.0),
        )
    ).start()
    client = ServeClient(thread.host, thread.port, timeout=120.0)
    try:
        # Two groups that land on different workers: knob shapes give
        # distinct routing keys; with 2 slots and several shapes at
        # least two keys must split.
        shapes = [
            {"design": "a11"},
            {"design": "a11", "queue_weeks": 2.0},
            {"design": "a11", "d0_scale": 1.0},
            {"design": "a11", "wafer_rate_scale": 1.0},
        ]
        slots = [0, 1]
        by_slot = {}
        for body in shapes:
            key = routing_key("evaluate", json.dumps(body).encode())
            by_slot.setdefault(rendezvous_worker(key, slots), body)
        assert len(by_slot) == 2, by_slot
        bodies = list(by_slot.values()) * 2

        pool = ThreadPoolExecutor(max_workers=len(bodies))
        futures = [
            pool.submit(client.post, "/evaluate", body) for body in bodies
        ]
        time.sleep(0.1)  # let every request enter its batch window

        stopper = threading.Thread(target=thread.stop)
        stopper.start()

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

        # Every request accepted before the drain completed normally.
        responses = [future.result(timeout=120.0) for future in futures]
        pool.shutdown(wait=True)
        assert [r.status for r in responses] == [200] * len(bodies)
    finally:
        thread.stop()

    # Nothing survives the drain: no worker processes, no segments.
    for worker in thread.supervisor.workers:
        with pytest.raises(ProcessLookupError):
            os.kill(worker.pid, 0)
    assert _segments() <= before
