#!/usr/bin/env python
"""Smoke-test a running (or in-process) repro.serve evaluation server.

CI boots ``ttm-cas serve`` in the background and points this script at
it with ``--connect HOST:PORT``; with no argument the script boots its
own in-process server, so the same checks run anywhere. The pass bar is
the service's headline contract, end to end over real HTTP:

1. ``/healthz`` answers;
2. a concurrent burst of identical ``/evaluate`` requests coalesces
   (X-Batch-Size > 1) and every response is byte-identical to a solo
   request's response;
3. ``/mc`` and ``/splits`` answer and are deterministic across repeats,
   and a ``refine: true`` ``/splits`` reply is refined and scores a CAS
   no lower than the unrefined reply's for the same pair;
4. malformed input (a truncated body, and one nested past the JSON
   parser's recursion limit) gets a structured 400, not a hang or a
   dropped connection; a ``/splits`` flag spelled as a string, and a
   ``/splits`` pair on an unknown node, each get a 400 whose message
   names the field or the node; an
   idle connection is closed without a reply and a partial request
   head gets a 408 with ``Connection: close``, each within its limit
   (``IDLE_LIMIT_S``, ``READ_LIMIT_S`` in :mod:`repro.serve.wire`) plus
   a few seconds of slack;
5. ``/metrics`` exposes the full ``serve_*`` family (optionally written
   to ``--metrics-out`` for the CI artifact);
6. with ``--expect-workers N`` (a sharded ``--workers N`` server): the
   aggregated ``/metrics`` carries at least N distinct ``worker=``
   labels and ``/healthz`` reports N live workers;
7. with ``--assert-trace`` (a ``--trace`` server): one ``/evaluate``
   yields a stitched router -> worker -> batch trace spanning at least
   two processes, fetched from ``GET /debug/trace``;
8. with ``--obs-out FILE``: the live ``GET /debug/obs`` snapshot is
   dumped to FILE for the CI artifact.

Exit code 0 = all checks passed.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py
    PYTHONPATH=src python scripts/serve_smoke.py --connect 127.0.0.1:8321
    PYTHONPATH=src python scripts/serve_smoke.py --metrics-out serve.prom
    PYTHONPATH=src python scripts/serve_smoke.py --connect 127.0.0.1:8321 \\
        --expect-workers 2 --assert-trace --obs-out serve-obs.json
"""

from __future__ import annotations

import argparse
import json
import re
import socket
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.obs.distributed import stitch_trace
from repro.serve import ServeClient, ServerConfig, ServerThread, wire

BURST = 12
SERVE_METRICS = (
    "serve_requests_total",
    "serve_request_seconds",
    "serve_queue_depth",
    "serve_batches_total",
    "serve_batched_requests_total",
    "serve_batch_size",
    "serve_rejected_total",
)

#: Seconds past a read limit within which the server must have closed.
LIMIT_SLACK_S = 3.0


def check(label: str, ok: bool, detail: str = "") -> bool:
    print(f"{'ok' if ok else 'FAILED'}: {label}" + (f" ({detail})" if detail else ""))
    return ok


def _until_closed(host: str, port: int, data: bytes, limit: float):
    """Send ``data`` and read until the server closes the connection.

    Returns ``(reply, seconds)``; seconds is ``inf`` when the server
    kept the connection open past ``limit`` plus the slack.
    """
    with socket.create_connection(
        (host, port), timeout=limit + LIMIT_SLACK_S
    ) as sock:
        sock.sendall(data)
        started = time.monotonic()
        reply = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return reply, time.monotonic() - started
                reply += chunk
        except socket.timeout:
            return reply, float("inf")


def check_read_limits(client: ServeClient) -> bool:
    """An idle connection and a partial head, held at the same time."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        idle = pool.submit(
            _until_closed, client.host, client.port, b"", wire.IDLE_LIMIT_S
        )
        partial = pool.submit(
            _until_closed,
            client.host,
            client.port,
            b"POST /evaluate HTTP/1.1\r\nHost: smoke\r\n",
            wire.READ_LIMIT_S,
        )
        idle_reply, idle_s = idle.result()
        partial_reply, partial_s = partial.result()
    ok = check(
        "idle connection closed without a reply",
        idle_reply == b"" and idle_s <= wire.IDLE_LIMIT_S + LIMIT_SLACK_S,
        f"{idle_s:.2f} s, {len(idle_reply)} bytes",
    )
    head = partial_reply.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
    return ok & check(
        "partial head answered 408 with Connection: close",
        head[0].startswith(b"HTTP/1.1 408 ")
        and b"Connection: close" in head[1:]
        and partial_s <= wire.READ_LIMIT_S + LIMIT_SLACK_S,
        f"{partial_s:.2f} s, {head[0].decode('latin-1')!r}",
    )


def check_stitched_trace(client: ServeClient) -> bool:
    """One request -> one stitched cross-process trace (``--trace``)."""
    response = client.post("/evaluate", {"design": "a11", "n_chips": 3e7})
    if not check(
        "traced request answers with ids",
        response.status == 200
        and bool(response.request_id)
        and len(response.trace_id) == 32,
        f"status {response.status}, trace {response.trace_id!r}",
    ):
        return False
    wanted = {"serve.router", "serve.request"}
    stitched, names = [], set()
    # Worker spans land after the response is sent; poll briefly.
    for _ in range(100):
        debug = client.get("/debug/trace")
        if debug.status != 200:
            break
        stitched = stitch_trace(debug.json()["spans"], response.trace_id)
        names = {span["name"] for span in stitched}
        if wanted <= names:
            break
        time.sleep(0.05)
    pids = {span["process_id"] for span in stitched}
    return check(
        "one stitched router->worker trace across processes",
        wanted <= names and len(pids) >= 2,
        f"spans {sorted(names)}, {len(pids)} pid(s)",
    )


def run_checks(
    client: ServeClient,
    metrics_out: str,
    expect_workers: int = 0,
    assert_trace: bool = False,
    obs_out: str = "",
) -> bool:
    ok = True

    health = client.get("/healthz")
    ok &= check(
        "healthz answers",
        health.status == 200 and health.json().get("status") == "ok",
        f"status {health.status}",
    )

    body = {"design": "a11", "n_chips": 2e7}
    solo = client.post("/evaluate", body)
    ok &= check("solo /evaluate answers", solo.status == 200)

    with ThreadPoolExecutor(max_workers=BURST) as pool:
        burst = list(
            pool.map(lambda _: client.post("/evaluate", body), range(BURST))
        )
    ok &= check(
        "burst all answered",
        all(r.status == 200 for r in burst),
        f"statuses {sorted({r.status for r in burst})}",
    )
    ok &= check(
        "burst coalesced",
        max(r.batch_size for r in burst) > 1,
        f"max batch {max(r.batch_size for r in burst)}",
    )
    ok &= check(
        "coalesced == solo, byte for byte",
        all(r.body == solo.body for r in burst),
    )

    mc_body = {"design": "zen2", "samples": 64, "seed": 5}
    mc_a = client.post("/mc", mc_body)
    mc_b = client.post("/mc", mc_body)
    ok &= check(
        "/mc answers deterministically",
        mc_a.status == 200 and mc_a.body == mc_b.body,
        f"status {mc_a.status}",
    )

    split_body = {
        "design": "a11",
        "pairs": [["7nm", "14nm"], ["28nm", "40nm"]],
    }
    splits = client.post("/splits", split_body)
    ok &= check("/splits answers", splits.status == 200)
    refined = client.post("/splits", {**split_body, "refine": True})
    ok &= check(
        "refined /splits scores no lower than the coarse grid",
        refined.status == 200
        and splits.status == 200
        and refined.json()["refined"] is True
        and all(
            fine["pair"] == coarse["pair"] and fine["cas"] >= coarse["cas"]
            for fine, coarse in zip(
                refined.json()["best"], splits.json()["best"]
            )
        ),
        f"status {refined.status}",
    )

    for label, data in (
        ("malformed JSON", b"{nope"),
        ("deeply nested JSON", b"[" * 100_000 + b"]" * 100_000),
    ):
        bad = client.request("POST", "/evaluate", body=data)
        ok &= check(
            f"{label} is a structured 400",
            bad.status == 400
            and bad.json()["error"]["code"] == "invalid_json",
            f"status {bad.status}",
        )
    for label, refusal, expected in (
        (
            "a string /splits flag",
            {**split_body, "with_cas": "false"},
            lambda message: "'with_cas'" in message,
        ),
        (
            "an unknown /splits node",
            {"design": "a11", "pairs": [["3nm", "7nm"]]},
            lambda message: message.startswith("unknown process node '3nm'"),
        ),
    ):
        bad = client.post("/splits", refusal)
        message = bad.json()["error"]["message"] if bad.status == 400 else ""
        ok &= check(
            f"{label} is a 400 that names it",
            bad.status == 400 and expected(message),
            f"status {bad.status}: {message}",
        )
    ok &= check_read_limits(client)

    metrics = client.get("/metrics")
    text = metrics.body.decode("utf-8")
    missing = [s for s in SERVE_METRICS if f"# TYPE {s}" not in text]
    ok &= check(
        "metrics expose the serve_* family",
        metrics.status == 200 and not missing,
        f"missing {missing}" if missing else f"{len(text)} bytes",
    )
    if metrics_out:
        with open(metrics_out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {metrics_out}")

    if expect_workers:
        labels = {
            match
            for match in re.findall(r'worker="(\d+)"', text)
        }
        ok &= check(
            f"metrics carry >= {expect_workers} worker labels",
            len(labels) >= expect_workers,
            f"saw {sorted(labels)}",
        )
        fleet = health.json().get("workers", [])
        alive = [entry for entry in fleet if entry.get("alive")]
        ok &= check(
            f"healthz reports {expect_workers} live workers",
            len(alive) >= expect_workers,
            f"fleet {[(e.get('worker'), e.get('status')) for e in fleet]}",
        )

    if assert_trace:
        ok &= check_stitched_trace(client)

    if obs_out:
        obs = client.get("/debug/obs")
        ok &= check(
            "debug/obs snapshot answers",
            obs.status == 200 and "role" in obs.json(),
            f"status {obs.status}",
        )
        if obs.status == 200:
            with open(obs_out, "w", encoding="utf-8") as handle:
                handle.write(obs.body.decode("utf-8"))
                handle.write("\n")
            print(f"wrote {obs_out}")

    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Smoke-test a repro.serve evaluation server."
    )
    parser.add_argument(
        "--connect",
        default="",
        metavar="HOST:PORT",
        help="test a running server (default: boot one in-process)",
    )
    parser.add_argument(
        "--metrics-out",
        default="",
        metavar="FILE",
        help="write the final /metrics scrape to FILE",
    )
    parser.add_argument(
        "--expect-workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "assert the server is sharded: >= N worker labels in "
            "/metrics and N live workers in /healthz"
        ),
    )
    parser.add_argument(
        "--assert-trace",
        action="store_true",
        help=(
            "assert one request yields a stitched cross-process trace "
            "(the server must be running with --trace)"
        ),
    )
    parser.add_argument(
        "--obs-out",
        default="",
        metavar="FILE",
        help="dump the GET /debug/obs snapshot to FILE",
    )
    args = parser.parse_args(argv)

    if args.connect:
        host, _, port = args.connect.rpartition(":")
        client = ServeClient(host or "127.0.0.1", int(port))
        ok = run_checks(
            client,
            args.metrics_out,
            args.expect_workers,
            assert_trace=args.assert_trace,
            obs_out=args.obs_out,
        )
    else:
        with ServerThread(
            ServerConfig(port=0, trace=args.assert_trace)
        ) as server:
            client = ServeClient(server.host, server.port)
            ok = run_checks(
                client,
                args.metrics_out,
                args.expect_workers,
                # In-process single server: router spans don't exist, so
                # the cross-process assertion only makes sense when
                # pointed at a sharded --trace server via --connect.
                assert_trace=False,
                obs_out=args.obs_out,
            )

    print("smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
