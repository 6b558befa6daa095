"""Failure paths: bad input, backpressure, deadlines, graceful shutdown.

Backpressure, deadline and drain cases park requests behind real work:
the ``gate`` fixture (conftest) holds every fused batch in its worker
thread until the test opens it, so a request is "in flight" or "waiting
behind a running batch" by construction rather than by a timer.
"""

from __future__ import annotations

import socket
import threading
import time


def _wait_for(condition, timeout=10.0):
    deadline = time.time() + timeout
    while not condition() and time.time() < deadline:
        time.sleep(0.01)
    return condition()


def _stop_in_background(server):
    """Start ``server.stop()`` and return once the batcher is draining."""
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    assert _wait_for(lambda: server.server.batcher.draining)
    return stopper


def test_malformed_json_is_400(client):
    response = client.request("POST", "/evaluate", body=b"{not json")
    assert response.status == 400
    payload = response.json()
    assert payload["error"]["code"] == "invalid_json"
    assert "JSON" in payload["error"]["message"]


def test_non_object_body_is_400(client):
    response = client.request("POST", "/evaluate", body=b"[1, 2, 3]")
    assert response.status == 400
    assert response.json()["error"]["code"] == "invalid_request"


def test_missing_design_is_400(client):
    response = client.post("/evaluate", {"n_chips": 1e7})
    assert response.status == 400
    assert "design" in response.json()["error"]["message"]


def test_bad_field_types_are_400(client):
    for body in (
        {"design": "a11", "n_chips": "lots"},
        {"design": "a11", "n_chips": -5},
        {"design": "a11", "capacity": {}},
        {"design": "a11", "metrics": []},
        {"design": "a11", "metrics": ["latency"]},
    ):
        response = client.post("/evaluate", body)
        assert response.status == 400, body


def _raw_exchange(host, port, request_bytes):
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(request_bytes)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def test_abandoned_requests_leave_no_in_flight_entries(server, client):
    """A refused length or a client that hangs up mid-body is retired."""
    for _ in range(3):
        _raw_exchange(
            server.host,
            server.port,
            b"POST /evaluate HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        )
        with socket.create_connection(
            (server.host, server.port), timeout=10.0
        ) as sock:
            sock.sendall(
                b"POST /evaluate HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                b'{"design":'
            )

    def stale():
        in_flight = client.get("/debug/obs").json()["in_flight"]
        return [e for e in in_flight if e["endpoint"] == "evaluate"]

    assert _wait_for(lambda: not stale(), timeout=5.0), stale()


def test_queue_overflow_is_429_with_retry_after(serve_factory, gate):
    # The first request's batch is held in its worker thread and the
    # second waits behind it, so the third overflows the 2-deep
    # admission queue.
    server = serve_factory.server(max_batch=64, max_queue=2)
    client = serve_factory.client(server)
    results = []

    def blocked():
        results.append(client.post("/evaluate", {"design": "a11"}))

    threads = [threading.Thread(target=blocked) for _ in range(2)]
    for thread in threads:
        thread.start()
    assert _wait_for(lambda: server.server.batcher.depth >= 2)
    assert server.server.batcher.depth == 2
    assert gate.entered.wait(timeout=10.0)

    rejected = client.post("/evaluate", {"design": "a11"})
    assert rejected.status == 429
    assert rejected.json()["error"]["code"] == "queue_full"
    assert int(rejected.headers["retry-after"]) >= 1
    assert rejected.headers["retry-after"] == "1"

    # Graceful stop delivers the held batch and the request parked
    # behind it: the blocked callers get real answers, not errors.
    stopper = _stop_in_background(server)
    gate.opened.set()
    stopper.join(timeout=30.0)
    assert not stopper.is_alive()
    for thread in threads:
        thread.join(timeout=30.0)
    assert [r.status for r in results] == [200, 200]
    assert results[0].body == results[1].body


def test_deadline_exceeded_is_504(serve_factory, gate):
    server = serve_factory.server(max_batch=64)
    client = serve_factory.client(server)
    started = time.time()
    response = client.post(
        "/evaluate", {"design": "a11"}, deadline_ms=100
    )
    elapsed = time.time() - started
    assert gate.entered.wait(timeout=10.0)  # its batch ran, held
    assert response.status == 504
    assert response.json()["error"]["code"] == "deadline_exceeded"
    assert elapsed < 10.0  # returned at the deadline, not with the batch
    text = client.get("/metrics").body.decode()
    assert 'serve_rejected_total{reason="deadline"}' in text


def test_deadline_of_one_member_does_not_fail_neighbors(serve_factory, gate):
    server = serve_factory.server(max_batch=64)
    client = serve_factory.client(server)
    results = {}

    def call(name, deadline):
        results[name] = client.post(
            "/evaluate", {"design": "a11"}, deadline_ms=deadline
        )

    # A held batch of the same key parks both members behind it, in
    # one group.
    blocker = threading.Thread(target=call, args=("blocker", 60_000))
    blocker.start()
    assert gate.entered.wait(timeout=10.0)
    threads = [
        threading.Thread(target=call, args=("patient", 60_000)),
        threading.Thread(target=call, args=("hasty", 50)),
    ]
    for thread in threads:
        thread.start()
    assert _wait_for(lambda: server.server.batcher.depth == 3)
    threads[1].join(timeout=30.0)
    assert results["hasty"].status == 504
    gate.opened.set()
    for thread in (blocker, *threads):
        thread.join(timeout=30.0)
    assert results["hasty"].status == 504
    assert results["patient"].status == 200
    # The abandoned slot still rode in its neighbor's batch.
    assert results["patient"].batch_size == 2


def test_invalid_deadline_header_is_400(client):
    response = client.request(
        "POST",
        "/evaluate",
        body=b'{"design": "a11"}',
        headers={"X-Deadline-Ms": "soon"},
    )
    assert response.status == 400


def test_draining_batcher_rejects_with_503(serve_factory):
    server = serve_factory.server()
    client = serve_factory.client(server)
    assert client.post("/evaluate", {"design": "a11"}).status == 200
    # Flip the batcher's drain flag directly: the listener is still up,
    # so the rejection travels the HTTP path the way an in-flight
    # connection would see it during shutdown.
    server.server.batcher._draining = True
    try:
        response = client.post("/evaluate", {"design": "a11"})
        assert response.status == 503
        assert response.json()["error"]["code"] == "draining"
    finally:
        server.server.batcher._draining = False


def test_graceful_shutdown_completes_in_flight_work(serve_factory, gate):
    server = serve_factory.server(max_batch=64)
    client = serve_factory.client(server)
    results = []

    def call():
        results.append(client.post("/evaluate", {"design": "zen2"}))

    # One request's batch is running (held), one waits behind it.
    threads = [threading.Thread(target=call) for _ in range(2)]
    for thread in threads:
        thread.start()
    assert _wait_for(lambda: server.server.batcher.depth == 2)
    # Drains: the running and the parked request must still complete.
    stopper = _stop_in_background(server)
    gate.opened.set()
    stopper.join(timeout=30.0)
    assert not stopper.is_alive()
    for thread in threads:
        thread.join(timeout=30.0)
    assert len(results) == 2
    assert results and results[0].status == 200
    assert results[1].status == 200

    # The socket is gone afterwards.
    try:
        client.get("/healthz")
    except OSError:
        pass
    else:  # pragma: no cover - depends on OS socket reuse timing
        raise AssertionError("server accepted a connection after stop()")
