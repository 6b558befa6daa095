"""Load/soak smoke: ~200 mixed requests against one server.

Marked ``slow`` and excluded from the default run (``-m slow`` selects
it); CI runs it on a non-gating leg. Asserts the service-level
bookkeeping stays consistent under sustained concurrency: every request
answered, batch accounting sums exactly to the request count, the
admission queue returns to empty, and no worker threads leak.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

pytestmark = pytest.mark.slow

REQUESTS = 200
CONCURRENCY = 16


def test_soak_two_hundred_requests(serve_factory):
    server = serve_factory.server(max_batch=32)
    client = serve_factory.client(server)

    bodies = []
    for i in range(REQUESTS):
        if i % 10 == 7:
            bodies.append(("/mc", {"design": "a11", "samples": 32}))
        elif i % 10 == 3:
            bodies.append(
                ("/splits", {"design": "a11", "pairs": [["7nm", "14nm"]]})
            )
        else:
            design = ("a11", "zen2", "raven")[i % 3]
            bodies.append(("/evaluate", {"design": design}))

    def batched_requests_metric() -> float:
        text = client.get("/metrics").body.decode()
        total = 0.0
        for line in text.splitlines():
            if line.startswith("serve_batched_requests_total{"):
                total += float(line.rsplit(" ", 1)[1])
        return total

    # The registry is process-global (other tests' servers feed the same
    # counters), so the consistency check below is on the delta.
    metric_before = batched_requests_metric()

    solo = {
        json.dumps([path, body], sort_keys=True): client.post(path, body)
        for path, body in dict(
            (json.dumps([p, b], sort_keys=True), (p, b))
            for p, b in bodies
        ).values()
    }
    for oracle in solo.values():
        assert oracle.status == 200

    before_threads = threading.active_count()
    with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
        responses = list(
            pool.map(lambda item: client.post(item[0], item[1]), bodies)
        )

    # 1. Every request answered, byte-identical to its solo oracle.
    assert all(r.status == 200 for r in responses)
    for (path, body), response in zip(bodies, responses):
        key = json.dumps([path, body], sort_keys=True)
        assert response.body == solo[key].body

    # 2. The burst actually coalesced.
    assert max(r.batch_size for r in responses) > 1

    # 3. Batch accounting is exact: sizes observed on responses are the
    #    sizes the batcher recorded, and they sum to the request count.
    stats = server.server.batcher.stats()
    solo_requests = len(solo)
    assert (
        stats["batched_requests"] == REQUESTS + solo_requests
    )
    assert stats["batches"] <= stats["batched_requests"]

    # 4. The admission queue drained back to empty.
    assert server.server.batcher.depth == 0

    # 5. The serve_* metrics agree with the batcher's own accounting.
    assert batched_requests_metric() - metric_before == float(
        stats["batched_requests"]
    )

    # 6. No thread leak: the worker pool is bounded, not per-request.
    assert threading.active_count() <= before_threads + CONCURRENCY + 4
