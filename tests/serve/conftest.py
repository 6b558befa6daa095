"""Fixtures for the serve suite: in-process servers on ephemeral ports.

``serve_factory`` boots a real :class:`ServerThread` (own event loop,
real TCP socket on 127.0.0.1) with test-chosen batching knobs and tears
it down — gracefully — at test exit. Tests talk to it over actual HTTP
via :class:`ServeClient`, so status codes, headers, and the raw response
bytes (the byte-identity contract) are all exercised on the wire.

``gate`` and ``burst`` hold fused batches in their worker thread, so a
test builds "requests waiting behind a running batch" by construction
instead of racing client threads against the batcher.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, List

import pytest

from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.serve import server as server_module


class _ServeFactory:
    def __init__(self) -> None:
        self._servers: List[ServerThread] = []

    def server(self, **config) -> ServerThread:
        """Boot a server with the given ServerConfig overrides."""
        config.setdefault("port", 0)
        thread = ServerThread(ServerConfig(**config)).start()
        self._servers.append(thread)
        return thread

    def client(self, thread: ServerThread, timeout: float = 60.0) -> ServeClient:
        return ServeClient(thread.host, thread.port, timeout=timeout)

    def stop_all(self) -> None:
        for thread in self._servers:
            thread.stop()
        self._servers.clear()


@pytest.fixture
def serve_factory() -> Iterator[_ServeFactory]:
    factory = _ServeFactory()
    try:
        yield factory
    finally:
        factory.stop_all()


@pytest.fixture
def server(serve_factory: _ServeFactory) -> ServerThread:
    """A default-ish server: batch cap 32."""
    return serve_factory.server(max_batch=32)


@pytest.fixture
def client(serve_factory: _ServeFactory, server: ServerThread) -> ServeClient:
    return serve_factory.client(server)


class _Gate:
    """Wraps ``execute_batch``: every batch waits until ``opened``."""

    def __init__(self, execute_batch) -> None:
        self._execute_batch = execute_batch
        self.entered = threading.Event()
        self.opened = threading.Event()

    def __call__(self, state, key, payloads):
        self.entered.set()
        if not self.opened.wait(timeout=60.0):
            raise TimeoutError("gated batch was never released")
        return self._execute_batch(state, key, payloads)


def _install_gate(monkeypatch) -> _Gate:
    gate = _Gate(server_module.execute_batch)
    monkeypatch.setattr(server_module, "execute_batch", gate)
    return gate


@pytest.fixture
def gate(monkeypatch, serve_factory) -> Iterator[_Gate]:
    """Hold every in-process batch; opened again before the servers stop."""
    gate = _install_gate(monkeypatch)
    yield gate
    gate.opened.set()


@pytest.fixture
def burst(monkeypatch, serve_factory):
    """``burst(client, path, bodies)``: concurrent POSTs, replies in order.

    The first batch is held until every request of the burst has been
    admitted, so the rest collect behind it: compatible requests
    coalesce by construction, not by winning a thread race.
    """
    gate = _install_gate(monkeypatch)
    gate.opened.set()

    def admitted() -> int:
        return sum(
            thread.server.batcher.depth for thread in serve_factory._servers
        )

    def fire(client: ServeClient, path: str, bodies: list) -> list:
        gate.opened.clear()
        try:
            with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
                futures = [
                    pool.submit(client.post, path, body) for body in bodies
                ]
                deadline = time.monotonic() + 30.0
                while (
                    admitted() < len(bodies) and time.monotonic() < deadline
                ):
                    time.sleep(0.002)
                gate.opened.set()
                return [future.result(timeout=60.0) for future in futures]
        finally:
            gate.opened.set()

    return fire
