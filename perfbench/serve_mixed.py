"""``serve_mixed`` workload: mixed HTTP traffic against ``ttm-cas serve``.

The benchmark owns the server: it spawns ``python -m repro.cli serve
--workers 2 --port 0`` (default 10 ms batch window), waits for the
``serving on`` line (printed once every worker is ready), and at the end
sends SIGTERM for the rolling drain, reaps router and workers, and fails
the run on any process left behind or any new ``/dev/shm`` segment.

Load is one open-loop Poisson schedule generated from the seed before
the timed window: :data:`RATE_RPS` requests per second from this
process, a fresh connection per request (independent tenants), at most
:data:`CONNECTIONS` in flight. Each request is timed from when it was
due, so a stall also delays the requests queued behind it; how late the
sender ran is reported as ``client.late_p99_ms``.

Traffic mix (unverified: no traffic log exists, and the rate, the
in-flight limit and the study sizes were chosen for steadiness, not
from usage; see README.md): about 90 % ``/evaluate`` over named, library
and inline designs, five market conditions and four knob shapes
(defaults, global capacity, per-node capacity, ``queue_weeks``) drawn
from small value sets, so requests with equal routing keys can coalesce
and keys spread over both workers; the other 10 % split evenly over
``/mc`` (512 samples), ``/splits`` and ``/scenarios`` (256 samples on
one stress family; one request per schedule on ``"all"``, whose 130 KB
reply holds a worker for about 0.1 s).

Checks: every reply must be 200 with a JSON body, and a seeded subset
must be byte-identical to the solo in-process reply of
``repro.serve.protocol.execute_batch``.

A traced run serves the same schedule twice, first plain, then with
``--log-json``; the per-request breakdown the router and workers log is
joined by request id to split each endpoint's time into layers.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import common

NAME = "serve_mixed"
WORKERS = 2
#: 32 requests/s over a 35 s run gives the >= 1000 /evaluate requests a
#: p99 needs (ten beyond it), while router, workers and client together
#: stay well below the host's two CPUs.
RATE_RPS = 32.0
#: Requests in flight at once. With only two, the client queues behind
#: its own slow replies (``client.late_p99_ms`` above 100 ms at 48 rps),
#: and that queue, not the server, sets the tail.
CONNECTIONS = 8
STUDY_SHARE = 0.10
#: Requests per endpoint whose bodies are compared with solo replies.
CHECKS_PER_ENDPOINT = 6
SERVER_COLD_STARTS = 3
READY_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
ENDPOINTS = ("evaluate", "mc", "splits", "scenarios")
LAYERS = ("client_ms", "route_hop_ms", "queue_ms", "batch_wait_ms",
          "compute_ms", "serialize_ms")
SHM_PREFIX = "repro_shm_"
SHM_DIR = "/dev/shm"


def _inline(process: str) -> Dict[str, Any]:
    return {
        "version": 1,
        "name": f"edge-npu @ {process}",
        "dies": [
            {
                "name": "npu-die",
                "process": process,
                "blocks": [
                    {"name": "npu", "transistors": 2.0e8, "instances": 4},
                    {"name": "cpu", "transistors": 5.0e7, "instances": 2},
                    {
                        "name": "sram",
                        "transistors": 6.0e8,
                        "unique_transistors": 0.0,
                    },
                ],
                "top_level_transistors": 2.0e7,
            }
        ],
    }


#: (design spec, a node it uses) for /evaluate.
EVALUATE_DESIGNS: Tuple[Tuple[Any, str], ...] = (
    ("a11", "7nm"),
    ("zen2", "7nm"),
    ("raven", "180nm"),
    ({"library": "a11", "process": "5nm"}, "5nm"),
    ({"library": "zen2-monolithic", "process": "7nm"}, "7nm"),
    ({"library": "raven", "cores": 8}, "180nm"),
    (_inline("14nm"), "14nm"),
    (_inline("28nm"), "28nm"),
)
#: Market conditions for /evaluate: half nominal, the rest the other
#: registered markets; the market is part of the routing key, so this
#: also spreads coalescing groups over the workers.
MARKETS = ("nominal",) * 4 + (
    "shortage_2021", "advanced_drought", "legacy_crunch", "fab_fire_28nm",
)
STUDY_DESIGNS = ("a11", "zen2", {"library": "a11", "process": "5nm"})
SPLIT_PAIRS = (
    [["7nm", "14nm"]],
    [["5nm", "7nm"]],
    [["7nm", "28nm"], ["5nm", "14nm"]],
)
STRESS_FAMILIES = (
    "fab-outage", "export-control", "demand-whiplash", "demand-collapse",
    "logistics", "defect-excursion", "capacity-squeeze",
)


@dataclass(frozen=True)
class Request:
    index: int
    due_s: float
    endpoint: str
    body: bytes
    check: bool


@dataclass
class Reply:
    status: int = 0
    body: bytes = b""
    sent_s: float = 0.0
    done_s: float = 0.0
    error: str = ""


# -- inputs -------------------------------------------------------------------


def _evaluate_body(rng: random.Random) -> Dict[str, Any]:
    design, node = rng.choice(EVALUATE_DESIGNS)
    body: Dict[str, Any] = {"design": design}
    market = rng.choice(MARKETS)
    if market != "nominal":
        body["scenario"] = market
    shape = rng.choice(("default", "capacity", "node_capacity", "queue"))
    if shape == "capacity":
        body["capacity"] = rng.choice((0.5, 0.8))
    elif shape == "node_capacity":
        body["capacity"] = {node: rng.choice((0.4, 0.7))}
    elif shape == "queue":
        body["queue_weeks"] = rng.choice((1.0, 4.0))
    return body


def _study_body(rng: random.Random, endpoint: str, all_scenarios: bool) -> Dict[str, Any]:
    if endpoint == "mc":
        return {
            "design": rng.choice(STUDY_DESIGNS),
            "samples": 512,
            "seed": rng.randrange(4),
        }
    if endpoint == "splits":
        return {"design": "a11", "pairs": rng.choice(SPLIT_PAIRS)}
    selector = "all" if all_scenarios else rng.choice(STRESS_FAMILIES)
    return {
        "design": rng.choice(STUDY_DESIGNS[:2]),
        "scenarios": selector,
        "samples": 256,
        "seed": rng.randrange(4),
    }


def make_schedule(seed: int, seconds: float) -> List[Request]:
    """The run's requests: due times, endpoints and bodies, from ``seed``.

    Endpoint counts are fixed by the request count; the seed decides
    their order, the bodies, the Poisson arrival gaps and the checked
    subset.
    """
    rng = random.Random(seed)
    total = max(len(ENDPOINTS) * 2, round(RATE_RPS * seconds))
    studies = max(3, round(total * STUDY_SHARE))
    kinds = ["evaluate"] * (total - studies)
    kinds += [ENDPOINTS[1 + i % 3] for i in range(studies)]
    rng.shuffle(kinds)
    checked = set()
    for endpoint in ENDPOINTS:
        positions = [i for i, kind in enumerate(kinds) if kind == endpoint]
        checked.update(rng.sample(positions, min(CHECKS_PER_ENDPOINT, len(positions))))
    all_scenarios = rng.choice(
        [i for i, kind in enumerate(kinds) if kind == "scenarios"]
    )
    schedule = []
    due = 0.0
    for index, endpoint in enumerate(kinds):
        due += rng.expovariate(RATE_RPS)
        if endpoint == "evaluate":
            body = _evaluate_body(rng)
        else:
            body = _study_body(rng, endpoint, index == all_scenarios)
        schedule.append(
            Request(
                index=index,
                due_s=due,
                endpoint=endpoint,
                body=json.dumps(body, sort_keys=True).encode("utf-8"),
                check=index in checked,
            )
        )
    return schedule


# -- server lifecycle ---------------------------------------------------------


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


@dataclass
class Server:
    """One ``ttm-cas serve --workers 2`` process tree owned by the run."""

    log_json: str = ""
    proc: Optional[subprocess.Popen] = None
    port: int = 0
    ready_s: float = 0.0
    _shm_before: set = field(default_factory=set)
    _stderr: Any = None

    def start(self) -> None:
        common.OUT_DIR.mkdir(exist_ok=True)
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--workers", str(WORKERS), "--port", "0",
        ]
        if self.log_json:
            command += ["--log-json", self.log_json]
        self._shm_before = _shm_segments()
        self._stderr = open(common.OUT_DIR / "serve.stderr", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=str(common.ROOT),
            env=common.program_env(),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
            start_new_session=True,
        )
        line = common.read_line_until(self.proc, "serving on", READY_TIMEOUT_S)
        self.ready_s = time.perf_counter() - start
        if line is None:
            self.stop()
            raise RuntimeError("server did not report 'serving on'")
        self.port = int(line.strip().rsplit(":", 1)[1])
        # The router installs its SIGTERM handler just after printing the
        # ready line; one answered request proves the handler is in place
        # (a SIGTERM inside that window kills the router without a drain).
        health = json.loads(self.get("/healthz"))
        alive = [w for w in health.get("workers", []) if w.get("alive")]
        if health.get("status") != "ok" or len(alive) != WORKERS:
            self.stop()
            raise RuntimeError(f"server not healthy after start: {health}")

    def _processes(self) -> List[int]:
        """Router and worker pids (the shared-memory resource tracker,
        also a child of the router, is left out)."""
        assert self.proc is not None
        pids = [self.proc.pid]
        for pid in common.descendant_pids(self.proc.pid):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    cmdline = handle.read()
            except FileNotFoundError:
                continue
            if b"resource_tracker" not in cmdline:
                pids.append(pid)
        return pids

    def peak_rss_mb(self) -> float:
        return sum(common.vm_hwm_mb(pid) for pid in self._processes())

    def stop(self) -> List[str]:
        """Rolling drain, then reap; returns hygiene problems."""
        problems: List[str] = []
        proc = self.proc
        if proc is None:
            return problems
        tree = common.descendant_pids(proc.pid)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append("server did not drain within the timeout")
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        if proc.returncode != 0:
            problems.append(f"server exited with {proc.returncode}")
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(map(common.pid_alive, tree)):
            time.sleep(0.05)
        orphans = [pid for pid in tree if common.pid_alive(pid)]
        if orphans:
            problems.append(f"orphan processes after drain: {orphans}")
            for pid in orphans:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        leaked = _shm_segments() - self._shm_before
        if leaked:
            problems.append(f"leftover shared-memory segments: {sorted(leaked)}")
            for name in leaked:
                try:
                    os.unlink(os.path.join(SHM_DIR, name))
                except FileNotFoundError:
                    pass
        proc.stdout.close()
        self._stderr.close()
        self.proc = None
        return problems

    def get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return conn.getresponse().read()
        finally:
            conn.close()


# -- load ---------------------------------------------------------------------


def _send(port: int, request: Request, tag: str) -> Reply:
    reply = Reply(sent_s=time.perf_counter())
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(
            "POST",
            "/" + request.endpoint,
            body=request.body,
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": f"{tag}-{request.index}",
                "Connection": "close",
            },
        )
        response = conn.getresponse()
        reply.body = response.read()
        reply.status = response.status
    except (OSError, http.client.HTTPException) as error:
        reply.error = f"{type(error).__name__}: {error}"
    finally:
        conn.close()
    reply.done_s = time.perf_counter()
    return reply


def drive(port: int, schedule: List[Request], tag: str) -> Tuple[List[Reply], float]:
    """Send the schedule open-loop, up to ``CONNECTIONS`` at a time.

    Returns the replies (by index) and the schedule's start time on the
    ``perf_counter`` clock.
    """
    replies: List[Optional[Reply]] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = iter(schedule)
    start = time.perf_counter() + 0.05

    def slot() -> None:
        while True:
            with lock:
                request = next(cursor, None)
            if request is None:
                return
            wait = start + request.due_s - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            replies[request.index] = _send(port, request, tag)

    threads = [threading.Thread(target=slot) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies, start  # type: ignore[return-value]


@dataclass
class Phase:
    """One served schedule and what came back."""

    tag: str
    schedule: List[Request]
    replies: List[Reply]
    start: float

    def latency_ms(self, request: Request) -> float:
        return (self.replies[request.index].done_s - self.start - request.due_s) * 1000.0

    def late_ms(self, request: Request) -> float:
        return max(0.0, (self.replies[request.index].sent_s - self.start - request.due_s) * 1000.0)

    def ok(self, request: Request) -> bool:
        return self.replies[request.index].status == 200

    def latencies(self, endpoint: str) -> List[float]:
        return [
            self.latency_ms(r) for r in self.schedule
            if r.endpoint == endpoint and self.ok(r)
        ]


def _metric_samples(text: str) -> Dict[str, float]:
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            samples[series] = float(value)
    return samples


def _label(series: str, key: str) -> str:
    marker = f'{key}="'
    if marker not in series:
        return ""
    return series.split(marker, 1)[1].split('"', 1)[0]


def metrics_delta(before: str, after: str) -> Dict[str, float]:
    """Per-layer counters from two ``/metrics`` scrapes."""
    old, new = _metric_samples(before), _metric_samples(after)

    def total(family: str, **labels: str) -> float:
        out = 0.0
        for series, value in new.items():
            if series.split("{", 1)[0] != family:
                continue
            if all(_label(series, k) == v for k, v in labels.items()):
                out += value - old.get(series, 0.0)
        return out

    metrics: Dict[str, float] = {}
    for endpoint in ENDPOINTS:
        batches = total("serve_batches_total", endpoint=endpoint)
        batched = total("serve_batched_requests_total", endpoint=endpoint)
        metrics[f"serve.coalesce_ratio.{endpoint}"] = (
            batched / batches if batches else 0.0
        )
    metrics["serve.rejected"] = total("serve_rejected_total")
    routed = [total("serve_routed_total", worker=str(w)) for w in range(WORKERS)]
    metrics["serve.routed.max_share"] = (
        max(routed) / sum(routed) if sum(routed) else 0.0
    )
    hits = total("invariant_cache_hits_total")
    misses = total("invariant_cache_misses_total")
    metrics["engine.invariant_cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    return metrics


def read_breakdown(path: str, phase: Phase) -> Dict[str, Dict[str, float]]:
    """Mean per-request layer times per endpoint, from the JSON request
    log joined with the client's own timings by request id.

    ``client_ms`` is client time minus router time, ``route_hop_ms``
    router minus worker time; the worker's queue / batch-wait / compute
    / serialize split covers the rest, so the parts add up to the
    client-measured time.
    """
    router: Dict[str, Dict[str, Any]] = {}
    worker: Dict[str, Dict[str, Any]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            target = router if record.get("role") == "router" else worker
            target[record.get("request_id", "")] = record
    sums: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    for request in phase.schedule:
        rid = f"{phase.tag}-{request.index}"
        reply = phase.replies[request.index]
        if rid not in router or rid not in worker or reply.status != 200:
            continue
        breakdown = worker[rid].get("breakdown", {})
        client_total = (reply.done_s - reply.sent_s) * 1000.0
        parts = {
            "client_ms": client_total - router[rid]["latency_ms"],
            "route_hop_ms": router[rid]["latency_ms"] - worker[rid]["latency_ms"],
        }
        for key in LAYERS[2:]:
            parts[key] = float(breakdown.get(key, 0.0))
        parts["total_ms"] = client_total
        for group in (request.endpoint, "all"):
            entry = sums.setdefault(group, dict.fromkeys(parts, 0.0))
            for key, value in parts.items():
                entry[key] += value
            counts[group] = counts.get(group, 0) + 1
    return {
        endpoint: {k: v / counts[endpoint] for k, v in entry.items()}
        | {"requests": float(counts[endpoint])}
        for endpoint, entry in sums.items()
    }


# -- checks -------------------------------------------------------------------


def check_replies(phases: List[Phase], result: common.Result) -> None:
    """Every reply 200 + JSON; the checked subset byte-identical to the
    in-process solo reply."""
    from repro.serve.protocol import (
        ServeState,
        canonical_json,
        execute_batch,
        parse_request,
    )

    state = ServeState()
    solo: Dict[Tuple[str, bytes], bytes] = {}
    for phase in phases:
        for request in phase.schedule:
            reply = phase.replies[request.index]
            result.attempted += 1
            if reply.status != 200:
                result.fail(
                    f"{phase.tag} #{request.index} /{request.endpoint}: "
                    f"status {reply.status} {reply.error or reply.body[:120]!r}"
                )
                continue
            try:
                json.loads(reply.body)
            except ValueError:
                result.fail(f"{phase.tag} #{request.index}: body is not JSON")
                continue
            if not request.check:
                continue
            cache_key = (request.endpoint, request.body)
            if cache_key not in solo:
                try:
                    key, payload = parse_request(
                        state, request.endpoint, json.loads(request.body)
                    )
                    solo[cache_key] = canonical_json(
                        execute_batch(state, key, [payload])[0]
                    )
                except Exception as error:  # a program failure: count it
                    result.fail(
                        f"{phase.tag} #{request.index}: solo reply raised "
                        f"{type(error).__name__}: {error}"
                    )
                    continue
            if solo[cache_key] != reply.body:
                result.fail(
                    f"{phase.tag} #{request.index} /{request.endpoint}: "
                    "reply differs from the solo in-process reply"
                )


# -- run ----------------------------------------------------------------------


@dataclass
class Settings:
    seed: int
    seconds: float
    trace: bool
    #: Test hook: applied to every phase before the checks.
    corrupt: Optional[Any] = None


def _serve(server: Server, schedule: List[Request], tag: str, scrape: bool) -> Tuple[Phase, Dict[str, float]]:
    before = server.get("/metrics").decode() if scrape else ""
    replies, start = drive(server.port, schedule, tag)
    counters = (
        metrics_delta(before, server.get("/metrics").decode()) if scrape else {}
    )
    return Phase(tag, schedule, replies, start), counters


def run(settings: Settings) -> common.Result:
    result = common.Result(
        layers=("serve.", "client.", "engine.invariant_cache.", "host.", "trace.")
    )
    # Two interpreters at once, like the three-process boot it scales.
    probe = common.Probe(("int_pair",))
    hygiene = common.Hygiene()
    probes: List[float] = []

    def isolated_probe() -> None:
        # No server may be alive: a program left busy would slow the
        # probe and so shrink the scaled set-up time.
        problems = hygiene.problems()
        if problems:
            result.fail(f"probe not isolated: {problems}")
        probes.append(probe.ms())

    for _ in range(5):
        isolated_probe()
    result.metrics["host.nproc"] = float(os.cpu_count() or 1)

    phases: List[Phase] = []
    if not settings.trace:
        schedule = make_schedule(settings.seed, settings.seconds)
        servers: List[Server] = []

        def boot() -> float:
            # Each cold start but the last is drained, and the probe timed,
            # before the next one; the last server takes the load.
            if servers:
                for problem in servers[-1].stop():
                    result.fail(f"cold start {len(servers)}: {problem}")
                isolated_probe()
            servers.append(Server())
            servers[-1].start()
            return servers[-1].ready_s

        boots = [boot() for _ in range(SERVER_COLD_STARTS)]
        server = servers[-1]
        try:
            phase, _ = _serve(server, schedule, "run", scrape=False)
            result.metrics["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            for problem in server.stop():
                result.fail(problem)
        phases.append(phase)
        # Scaled by the run's probe median, not boot by boot: one probe
        # samples the host's second-to-second speed, which a 1.6 s boot of
        # three processes averages over, but the run's median follows the
        # drift from one run to the next. On a 2-vCPU x86-64 host, a CPU
        # hog started beside the boots moved their median +38 % raw, +30 %
        # scaled by the one-thread integer probe and -12 % scaled by this
        # two-interpreter probe.
        result.metrics["setup_s"] = probe.scaled(
            common.median(boots), common.median(probes)
        )
        result.facts["cold_starts_s"] = [round(s, 4) for s in boots]
    else:
        schedule = make_schedule(settings.seed, settings.seconds / 2)
        log_path = str(common.OUT_DIR / f"serve-log-{os.getpid()}.jsonl")
        for tag, log in (("plain", ""), ("traced", log_path)):
            if log and os.path.exists(log):
                os.unlink(log)
            server = Server(log_json=log)
            server.start()
            try:
                phase, counters = _serve(server, schedule, tag, scrape=bool(log))
            finally:
                for problem in server.stop():
                    result.fail(f"{tag}: {problem}")
            phases.append(phase)
        result.metrics.update(counters)
        breakdown = read_breakdown(log_path, phases[1])
        os.unlink(log_path)
        _layer_metrics(result, phases, breakdown)

    result.facts.update(common.host_facts(probe, probes))
    result.metrics["host.probe_ms"] = common.median(probes)
    if settings.corrupt is not None:
        for phase in phases:
            settings.corrupt(phase)
    check_replies(phases, result)

    plain = phases[0]
    evaluate = plain.latencies("evaluate")
    result.facts["requests"] = {
        endpoint: len(plain.latencies(endpoint)) for endpoint in ENDPOINTS
    }
    result.facts["endpoint_p50_ms"] = {
        endpoint: round(common.median(plain.latencies(endpoint)), 3)
        for endpoint in ENDPOINTS if plain.latencies(endpoint)
    }
    if not evaluate:
        result.fail("no /evaluate request succeeded")
        evaluate = [0.0]
    result.facts["error_rate"] = result.failed / max(1, result.attempted)
    result.metrics["p50_ms"] = common.median(evaluate)
    result.facts["evaluate_p90_ms"] = common.quantile(evaluate, 0.9)
    result.facts["evaluate_p99_ms"] = common.quantile(evaluate, 0.99)
    result.metrics["host.raw_pass_p50_ms"] = common.median(evaluate)
    return result


def _layer_metrics(
    result: common.Result,
    phases: List[Phase],
    breakdown: Dict[str, Dict[str, float]],
) -> None:
    plain, traced = phases
    for endpoint in ENDPOINTS:
        parts = breakdown.get(endpoint, {})
        for key in LAYERS:
            result.metrics[f"serve.{endpoint}.{key}"] = parts.get(key, 0.0)
        if endpoint != "evaluate":
            latencies = plain.latencies(endpoint)
            result.metrics[f"serve.{endpoint}.p50_ms"] = (
                common.median(latencies) if latencies else 0.0
            )
    for q in (90, 99):
        result.metrics[f"serve.evaluate.p{q}_ms"] = common.quantile(
            plain.latencies("evaluate"), q / 100
        )
    result.metrics["client.sent"] = float(
        len(plain.schedule) + len(traced.schedule)
    )
    result.metrics["client.failed"] = float(
        sum(1 for p in phases for r in p.schedule if not p.ok(r))
    )
    result.metrics["client.late_p99_ms"] = common.quantile(
        [p.late_ms(r) for p in phases for r in p.schedule], 0.99
    )
    overall = breakdown.get("all", {})
    result.metrics["trace.total_ms"] = overall.get("total_ms", 0.0)
    # Time outside the router's own log record: connect, socket, client.
    result.metrics["trace.other_ms"] = overall.get("client_ms", 0.0)
    plain_p50 = common.median(plain.latencies("evaluate"))
    traced_p50 = common.median(traced.latencies("evaluate"))
    result.metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / plain_p50 - 1.0)
    table = [
        f"{'endpoint':10s} {'requests':>8s} "
        + " ".join(f"{k[:-3]:>11s}" for k in LAYERS)
        + f" {'total':>9s}"
    ]
    for endpoint in ENDPOINTS:
        parts = breakdown.get(endpoint)
        if not parts:
            continue
        cells = " ".join(
            f"{parts[k]:6.2f}/{100 * parts[k] / parts['total_ms']:3.0f}%"
            for k in LAYERS
        )
        table.append(
            f"{endpoint:10s} {parts['requests']:8.0f} {cells} "
            f"{parts['total_ms']:9.3f}"
        )
    result.facts["layers"] = table
