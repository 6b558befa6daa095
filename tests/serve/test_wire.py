"""Wire faults: the worker and the router answer each one the same way.

Both roles read requests through one HTTP/1.1 layer
(:mod:`repro.serve.wire`). The ``role`` fixture boots each in turn — an
in-process :class:`ServerThread` and a 2-worker :class:`ShardThread`,
whose router runs in this process — with the idle and read limits
patched small here. Every case checks the status, ``Connection: close``
on the reply, that the server closes the socket within the case's
limit plus a fixed bound, and that the role's request ledger (the
router's, for a shard) logged the reply like any other; a shard also
leaves no worker process behind once stopped.

Below the fault table: bodies that are malformed past what the reader
checks still get their 400 (or, for a worker fault, a 500) and a log
line; requests queued behind slow work on one worker
get a 504 exactly when their ``X-Deadline-Ms`` passes; the router's
keep-alive pool retries on a fresh socket once the worker's idle limit
has closed its pooled connections; and a harness whose service fails
to start stops what it set up.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import UnknownNodeError
from repro.obs.trace import current_tracer
from repro.serve import (
    ServeClient,
    ServerConfig,
    ServerThread,
    ShardConfig,
    ShardSupervisor,
    ShardThread,
    rendezvous_worker,
    routing_key,
    wire,
)
from repro.serve.shard import _Worker
from repro.technology.database import TechnologyDatabase

#: The idle and read limits while these tests run.
LIMIT_S = 0.5

#: How long after its limit a connection may take to close.
BOUND_S = 2.0

EVALUATE = b'{"design": "a11"}'


@pytest.fixture(params=["server", "shard"])
def role(request, monkeypatch):
    monkeypatch.setattr(wire, "IDLE_LIMIT_S", LIMIT_S)
    monkeypatch.setattr(wire, "READ_LIMIT_S", LIMIT_S)
    if request.param == "server":
        thread = ServerThread(ServerConfig()).start()
        pids = []
    else:
        thread = ShardThread(ShardConfig(workers=2)).start()
        pids = [worker.pid for worker in thread.supervisor.workers]
    try:
        yield thread
    finally:
        thread.stop()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _exchange(thread, data, shut_write=False):
    """Send ``data``, read until the server closes: (reply, seconds)."""
    with socket.create_connection(
        (thread.host, thread.port), timeout=LIMIT_S + BOUND_S
    ) as sock:
        sock.sendall(data)
        if shut_write:
            sock.shutdown(socket.SHUT_WR)
        started = time.monotonic()
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks), time.monotonic() - started


def _answered(
    thread,
    data,
    status,
    code="",
    limit=0.0,
    shut_write=False,
    endpoint="evaluate",
):
    """One exchange: answered ``status`` (error ``code``) and closed in
    ``limit`` plus the bound, and the role's newest log line is that
    reply, under ``endpoint`` (``-`` when no request line parsed)."""
    reply, elapsed = _exchange(thread, data, shut_write)
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].split(" ")[1] == str(status), reply
    assert "Connection: close" in lines[1:], reply
    assert code.encode() in body, reply
    assert limit / 2 <= elapsed <= limit + BOUND_S
    # The role's own ring: the router's for a shard, whose workers never
    # saw the request.
    newest = _obs(thread)["recent"][-1]
    assert (newest["status"], newest["endpoint"]) == (status, endpoint)


def _obs(thread):
    return ServeClient(thread.host, thread.port).get("/debug/obs").json()


def _in_flight(thread, endpoint="evaluate", at_workers=False):
    """``endpoint`` entries in flight at the role and at its workers;
    with ``at_workers``, at the workers only (a single server is its own
    worker)."""
    snapshot = _obs(thread)
    workers = snapshot.get("workers", [])
    entries = [] if at_workers and workers else list(snapshot["in_flight"])
    for worker in workers:
        entries.extend(worker["in_flight"])
    return [entry for entry in entries if entry["endpoint"] == endpoint]


def test_partial_head_is_408(role):
    _answered(
        role,
        b"POST /evaluate HTTP/1.1\r\nHost: x\r\n",
        408,
        "request_timeout",
        LIMIT_S,
        endpoint="-",
    )


def test_partial_body_is_408_and_leaves_no_in_flight_entry(role):
    _answered(
        role,
        b"POST /evaluate HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
        b'{"design":',
        408,
        "request_timeout",
        LIMIT_S,
    )
    assert _in_flight(role) == []


def test_idle_connection_closes_without_reply(role):
    reply, elapsed = _exchange(role, b"")
    assert reply == b""
    assert LIMIT_S / 2 <= elapsed <= LIMIT_S + BOUND_S


def test_half_closed_client_is_answered(role):
    _answered(
        role,
        b"POST /evaluate HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % len(EVALUATE)
        + EVALUATE,
        200,
        shut_write=True,
    )


def test_oversized_body_is_413(role):
    _answered(
        role,
        b"POST /evaluate HTTP/1.1\r\nContent-Length: 5000000\r\n\r\n",
        413,
        "payload_too_large",
    )


def test_bad_content_length_is_400(role):
    # Anything but plain digits is refused before the body is read: a
    # negative length reaching readexactly() would drop the connection
    # with no reply.
    for value in (b"ten", b"-5", b"+5", b"1_0"):
        _answered(
            role,
            b"POST /evaluate HTTP/1.1\r\nContent-Length: "
            + value
            + b"\r\n\r\n",
            400,
            "invalid_request",
        )


def test_head_over_64_kib_is_400(role):
    _answered(
        role,
        b"GET /healthz HTTP/1.1\r\nX-Padding: "
        + b"x" * 70_000
        + b"\r\n\r\n",
        400,
        "headers too large",
        endpoint="-",
    )


def test_garbage_request_line_is_400(role):
    _answered(
        role, b"NONSENSE\r\n\r\n", 400, "invalid_request", endpoint="-"
    )


def test_refusals_burn_no_slo_budget(role):
    _answered(
        role,
        b"POST /evaluate HTTP/1.1\r\nContent-Length: 100\r\n\r\n{",
        408,
        "request_timeout",
        LIMIT_S,
    )
    slo = _obs(role)["slo"]["evaluate"]
    assert (slo["requests"], slo["errors"], slo["slow"]) == (1, 0, 0)


# -- malformed bodies --------------------------------------------------------

#: Bodies that pass the reader but whose design, or whose JSON, the
#: worker cannot read (an inline design without a name, a ``library``
#: that is no string, nesting past the JSON parser's recursion limit).
MALFORMED = {
    "design-without-name": (
        "evaluate", b'{"design": {"dies": []}}', 400, "invalid_request"
    ),
    "library-not-a-string": (
        "evaluate", b'{"design": {"library": ["x"]}}', 400, "invalid_request"
    ),
    "split-library-not-a-string": (
        "splits",
        b'{"design": {"library": ["x"]}, "pairs": [["7nm", "14nm"]]}',
        400,
        "invalid_request",
    ),
    "nested-past-the-recursion-limit": (
        "evaluate", b"[" * 100_000 + b"]" * 100_000, 400, "invalid_json"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_body_is_answered_and_logged(role, case):
    endpoint, body, status, code = MALFORMED[case]
    reply = ServeClient(role.host, role.port).request(
        "POST", f"/{endpoint}", body=body
    )
    assert reply.status == status
    assert reply.json()["error"]["code"] == code
    snapshot = _obs(role)
    newest = snapshot["recent"][-1]
    assert (newest["status"], newest["endpoint"]) == (status, endpoint)
    # Behind a router, the worker that read the body logged it too.
    workers = snapshot.get("workers", [])
    if workers:
        assert [
            line["status"]
            for worker in workers
            for line in worker["recent"]
            if line["endpoint"] == endpoint
        ] == [status]


#: Bodies with a field of the wrong JSON type: flags take only
#: ``true``/``false`` and names only strings, and each 400 names the field.
MISTYPED = (
    ("splits", {"pairs": [["7nm", "14nm"]], "with_cas": "false"}, "with_cas"),
    ("splits", {"pairs": [["7nm", "14nm"]], "refine": 1}, "refine"),
    ("splits", {"pairs": [["7nm", 14]]}, "pairs"),
    ("splits", {"design": 5, "pairs": [["7nm", "14nm"]]}, "design"),
    ("mc", {"design": "a11", "samples": 8, "with_cost": "no"}, "with_cost"),
    ("mc", {"design": "a11", "samples": 8, "with_cost": None}, "with_cost"),
    (
        "scenarios",
        {"design": "a11", "correlated": "false", "samples": 3},
        "correlated",
    ),
    ("evaluate", {"design": "a11", "scenario": 5}, "scenario"),
)


def _refused(role, endpoint, body):
    """POST ``body``: the reply's error message, once the role's newest
    log line is that 400 (behind a router, the worker's too)."""
    reply = ServeClient(role.host, role.port).post(f"/{endpoint}", body)
    assert reply.status == 400, (endpoint, body, reply.body)
    error = reply.json()["error"]
    assert error["code"] == "invalid_request"
    snapshot = _obs(role)
    newest = snapshot["recent"][-1]
    assert (newest["status"], newest["endpoint"]) == (400, endpoint)
    for worker in snapshot.get("workers", []):
        assert all(
            line["status"] == 400
            for line in worker["recent"]
            if line["endpoint"] == endpoint
        )
    return error["message"]


def test_mistyped_fields_are_400s_naming_the_field(role):
    for endpoint, body, field in MISTYPED:
        message = _refused(role, endpoint, body)
        assert f"'{field}'" in message, (body, message)
    # Behind a router, each refused body reached one worker and was
    # refused there: the router answers none of them itself.
    workers = _obs(role).get("workers", [])
    if workers:
        assert sum(
            line["status"] == 400
            for worker in workers
            for line in worker["recent"]
        ) == len(MISTYPED)


#: Bodies of the right JSON types whose value the reader refuses: a
#: /splits volume or core count must be positive, as on the other
#: endpoints.
OUT_OF_RANGE = (
    ("splits", {"pairs": [["7nm", "14nm"]], "n_chips": -5}, "n_chips"),
    (
        "splits",
        {"design": {"library": "raven", "cores": -3}, "pairs": [["7nm", "14nm"]]},
        "cores",
    ),
)


def test_out_of_range_fields_are_400s_naming_the_field(role):
    for endpoint, body, field in OUT_OF_RANGE:
        message = _refused(role, endpoint, body)
        assert message.startswith(f"'{field}' must be positive"), message


def test_unknown_node_400_carries_the_message(role):
    expected = str(
        UnknownNodeError("3nm", TechnologyDatabase.default().names)
    )
    assert expected.startswith("unknown process node '3nm' (known nodes: ")
    inline = {
        "name": "tiny-3nm",
        "dies": [
            {
                "name": "die0",
                "process": "3nm",
                "blocks": [{"name": "core", "transistors": 5e6}],
            }
        ],
    }
    assert _refused(role, "splits", {"pairs": [["3nm", "7nm"]]}) == expected
    assert _refused(role, "evaluate", {"design": inline}) == expected


def test_parse_failure_is_a_500(monkeypatch):
    # Anything parse_request raises but a BadRequestError is the
    # worker's fault: the 500 body the batch path answers with.
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("repro.serve.server.parse_request", broken)
    thread = ServerThread(ServerConfig()).start()
    try:
        reply = ServeClient(thread.host, thread.port).request(
            "POST", "/evaluate", body=EVALUATE
        )
        newest = _obs(thread)["recent"][-1]
    finally:
        thread.stop()
    assert reply.status == 500
    assert reply.json()["error"] == {
        "code": "internal", "message": "RuntimeError: boom"
    }
    assert (newest["status"], newest["endpoint"]) == (500, "evaluate")


# -- deadlines under load ----------------------------------------------------


def _studies_on_worker_0(rng, count, samples):
    """``count`` /scenarios bodies a 2-worker router sends to slot 0, each
    with its own seed (drawn from ``rng``), so none coalesce."""
    bodies = []
    while len(bodies) < count:
        body = {
            "design": "a11",
            "scenarios": "all",
            "samples": samples,
            "seed": rng.randrange(2**31),
        }
        key = routing_key("scenarios", json.dumps(body).encode())
        if rendezvous_worker(key, [0, 1]) == 0:
            bodies.append(body)
    return bodies


def test_deadlines_under_load(role):
    """Requests queued on one worker behind three slow /scenarios
    studies (65,536 samples, ~0.2 s each on a 2-CPU host) get a 504
    exactly when their ``X-Deadline-Ms`` passes while they wait, each
    within its deadline plus the bound; the rest get a 200, and the
    fixture checks that no worker outlives the shard."""
    rng = random.Random(2909)
    slow = _studies_on_worker_0(rng, 3, 65_536)
    queued = _studies_on_worker_0(rng, 6, 64)
    deadlines_ms = [50.0] * 3 + [60_000.0] * 3
    rng.shuffle(deadlines_ms)
    client = ServeClient(role.host, role.port, timeout=120.0)

    def timed(body, deadline_ms):
        started = time.monotonic()
        response = client.post("/scenarios", body, deadline_ms=deadline_ms)
        return response, time.monotonic() - started

    with ThreadPoolExecutor(max_workers=len(slow) + len(queued)) as pool:
        studies = [pool.submit(client.post, "/scenarios", b) for b in slow]
        deadline = time.monotonic() + 30.0
        while (
            len(_in_flight(role, "scenarios", at_workers=True)) < len(slow)
            and time.monotonic() < deadline
        ):
            time.sleep(0.002)
        waiting = [
            pool.submit(timed, body, deadline_ms)
            for body, deadline_ms in zip(queued, deadlines_ms)
        ]
        results = [future.result(timeout=120.0) for future in waiting]
        assert [f.result(timeout=120.0).status for f in studies] == [200] * 3
    for (response, elapsed), deadline_ms in zip(results, deadlines_ms):
        if deadline_ms < 1_000:
            assert response.status == 504, response.body
            assert response.error_code == "deadline_exceeded"
            assert deadline_ms / 1e3 <= elapsed <= deadline_ms / 1e3 + BOUND_S
        else:
            assert response.status == 200, response.body


# -- the router's keep-alive pool against the worker's idle limit ------------


def test_router_retries_expired_pooled_connections_on_a_fresh_socket(
    monkeypatch,
):
    monkeypatch.setattr(wire, "IDLE_LIMIT_S", 0.2)
    router = ShardSupervisor()
    with ServerThread(ServerConfig()) as thread:
        worker = _Worker(
            slot=0, host=thread.host, port=thread.port, ready=True
        )

        async def forward():
            return await router._forward(
                worker, "POST", "/evaluate", {}, EVALUATE
            )

        async def scenario():
            # Two concurrent forwards open two connections; both are
            # pooled afterwards, then outlive the worker's idle limit.
            first = await asyncio.gather(forward(), forward())
            pooled = len(worker.idle)
            await asyncio.sleep(0.2 + 0.5)
            last = await forward()
            for _reader, writer in worker.idle:
                writer.close()
            return first, pooled, last

        first, pooled, last = asyncio.run(scenario())
    assert [status for status, _, _ in first] == [200, 200]
    assert pooled == 2
    status, _headers, payload = last
    assert status == 200, payload
    assert payload == first[0][2]


# -- the harness -------------------------------------------------------------


def test_failed_start_stops_the_tracer_and_profiler():
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        thread = ServerThread(
            ServerConfig(port=port, trace=True, profile_hz=50)
        )
        with pytest.raises(RuntimeError, match="failed to start"):
            thread.start()
    assert current_tracer() is None
    assert not [
        t for t in threading.enumerate() if t.name == "repro-obs-profiler"
    ]
