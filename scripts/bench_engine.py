#!/usr/bin/env python
"""Measure the batched engine's speedups and write BENCH_engine.json.

Workloads (the ISSUEs' acceptance targets):

* ``sobol``     -- the Fig. 8 Sobol workload at 1024 total evaluations
  (N=128, k=6): scalar per-row objective vs the vectorized
  ``ttm_factor_batch_function`` fast path. Target: >= 10x.
* ``sweep``     -- a 20-point capacity sweep x 6 final-chip quantities of
  A11 @ 7 nm CAS: scalar ``chip_agility_score`` loop vs one CAS
  ``evaluate`` call over the flattened (quantity x capacity) grid.
  Target: >= 5x.
* ``fig14``     -- the full Sec. 7 multi-process study (every production
  node pair x the 1% split grid): the scalar ``run_split_study`` loop
  vs one vectorized ``batch_split`` tensor. Target: >= 20x.
* ``portfolio`` -- a 64-design x 4096-sample Monte-Carlo portfolio
  (shared capacity/queue/demand draws): the per-design per-sample
  scalar loop vs one TTM ``evaluate`` pass. Target: >= 50x. The fused
  tensor is checked cell-for-cell against that scalar loop's result.
  The loop of per-design TTM calls (each a 1-design portfolio) is also
  timed (``per_design_batch_seconds``) for context.
* ``sustained`` -- a steady request stream (32 requests x 16 designs x
  512 samples, fresh supply draws per request): 16 one-design TTM
  ``evaluate`` calls per request vs one 16-design call reusing one
  compiled portfolio. Measures the per-call
  overhead the fused path amortizes at serving-style batch sizes; its
  error column checks that each design's row does not depend on the
  rest of the portfolio. Target: >= 2x over the per-design loop (not
  the scalar model).
* ``scenario_sweep`` -- the scenario cube's cross-scenario sharing: 50
  graded stress scenarios x 32 designs x 2048 samples through one
  all-metrics ``evaluate`` pass vs a loop of three single-metric
  (TTM, CAS, cost) identity-scenario ``evaluate`` calls per scenario
  over ``apply_scenario``-transformed draws. Both run the same kernel,
  so the loop differs only in what it cannot share across scenarios
  and metrics (D0 tensors, (demand, D0) groups, one supply + baseline
  for TTM and CAS); slabs must match bit for bit (``max_abs_error``
  exactly 0).
  Design target: >= 5x, set when the loop re-ran the whole pass per
  CAS perturbation; the loop now runs the leave-one-out CAS too.
* ``serve``     -- 96 concurrent HTTP round-trips through the
  ``repro.serve`` evaluation service (16 client threads, mixed
  designs): coalescing disabled (max batch 1) vs continuous batching.
  Also reports client-observed p50/p95 latency and the coalesce
  ratio; the error metric is the fraction of coalesced responses
  not byte-identical to uncoalesced ones (must be exactly 0).
  Target: >= 1.5x.
* ``accuracy``  -- max error of the batched results against the scalar
  or per-design oracle over every workload (must be <= 1e-9).

Usage::

    PYTHONPATH=src python scripts/bench_engine.py [output.json]
    PYTHONPATH=src python scripts/bench_engine.py --check      # CI gate

``--check`` re-measures every workload and compares its speedup against
the recorded baseline in the output JSON with a generous slack factor
(default 3x), failing only on order-of-magnitude regressions; the
baseline file is left untouched. For hot-path profiles, use the
sampling profiler behind ``ttm-cas serve --profile-hz``
(:mod:`repro.obs.profile`).

Both modes also run the **observability overhead guard**: the per-call
cost of the default (no-tracer) ``repro.obs`` hook is measured in a
tight micro loop, multiplied by the exact number of hooks the
``portfolio_mc`` and ``fig14_split_sweep`` hot paths fire (read from
the kernel-invocation counter), and divided by each workload's CPU
time; the resulting overhead ratio must stay <= 2%
(``OVERHEAD_CEILING``). Both factors of the product are individually
stable, so the guard gates reliably where a direct A/B timing of the
noisy ~10 ms workloads cannot.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.agility.cas import chip_agility_score
from repro.analysis.sweep import capacity_fractions, chip_quantities
from repro.design.library.a11 import (
    A11_TOTAL_TRANSISTORS,
    A11_UNIQUE_TRANSISTORS,
    a11,
)
from repro.cost.model import CostModel
from repro.design.library.ariane import ariane_manycore
from repro.design.library.raven import raven_multicore
from repro.engine.batch_split import batch_split
from repro.engine.invariants import clear_invariant_cache
from repro.engine.scenario import POINT_METRICS, apply_scenario, evaluate
from repro.engine.sobol_adapter import ttm_factor_batch_function
from repro.design.block import Block
from repro.design.chip import ChipDesign
from repro.design.die import Die
from repro.market.conditions import MarketConditions
from repro.montecarlo.stress import graded_stress_scenarios
from repro.multiprocess.optimizer import run_split_study
from repro.sensitivity.sobol import sobol_indices
from repro.sensitivity.ttm_factors import ttm_factor_function, ttm_factors
from repro.ttm.model import TTMModel

PROCESS = "7nm"
N_CHIPS = 1e7
BASE_SAMPLES = 128  # 128 * (6 + 2) = 1024 evaluations
REPEATS = 5

#: The portfolio Monte-Carlo workload shape (the ISSUE's 64 x 4096).
PORTFOLIO_DESIGNS = 64
PORTFOLIO_SAMPLES = 4096
PORTFOLIO_SEED = 20230613

#: The fused scenario-cube workload: 50 stress scenarios (baseline +
#: 7 families x 7 graded intensities) x 32 multi-die chiplet candidates
#: x 2048 correlated supply samples, one (K, D, S) pass vs the looped
#: per-scenario portfolio oracle.
SCENARIO_DESIGNS = 32
SCENARIO_SAMPLES = 2048
SCENARIO_SEED = 20230915
#: Fine severity scan for the supply-side families (capacity, queue,
#: wafer rate) and the library's canonical quarter steps for the
#: demand/defect families: 1 baseline + 3 x 11 + 4 x 4 = 50 scenarios.
SCENARIO_INTENSITIES = tuple((i + 1) / 11 for i in range(11))
SCENARIO_DEMAND_INTENSITIES = (0.25, 0.5, 0.75, 1.0)
SCENARIO_NODES = ("65nm", "40nm", "28nm", "14nm", "7nm", "5nm")

#: The sustained-throughput stream: many smallish requests against one
#: compiled portfolio (serving-style, overhead-bound sizes).
SUSTAINED_DESIGNS = 16
SUSTAINED_SAMPLES = 512
SUSTAINED_REQUESTS = 32
SUSTAINED_SEED = 20230807

#: The serve_roundtrip workload: concurrent HTTP requests against an
#: in-process evaluation server, coalesced vs uncoalesced.
SERVE_REQUESTS = 96
SERVE_THREADS = 16
SERVE_REPEATS = 3

#: The serve_scaling workload: burst throughput through the sharded
#: server at 1, 2, and 4 workers (see bench_serve_scaling for the
#: single-core aggregation mode).
SCALING_WORKERS = (1, 2, 4)
SCALING_REQUESTS = 96
SCALING_SHARD_REQUESTS = 48
SCALING_THREADS = 16
SCALING_REPEATS = 3

#: Error ceiling every workload must satisfy (scalar/oracle agreement).
ERROR_CEILING = 1e-9

#: Default slack factor for ``--check`` (regression = worse than
#: baseline_speedup / slack).
CHECK_SLACK = 3.0

#: Instrumented / disabled wall-time ratio the obs hooks must stay under.
OVERHEAD_CEILING = 1.02

#: Iterations for the per-hook cost micro-measurement.
OVERHEAD_PROBE_ITERATIONS = 200_000

#: Workload timing repeats for the overhead guard denominator.
OVERHEAD_REPEATS = 5


def best_of(repeats: int, call) -> float:
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def bench_sobol(model: TTMModel) -> dict:
    factors = ttm_factors(
        PROCESS, A11_TOTAL_TRANSISTORS, A11_UNIQUE_TRANSISTORS
    )
    scalar_fn = ttm_factor_function(PROCESS, N_CHIPS)
    batch_fn = ttm_factor_batch_function(PROCESS, N_CHIPS)

    scalar = sobol_indices(scalar_fn, factors, base_samples=BASE_SAMPLES)
    batched = sobol_indices(
        batch_fn, factors, base_samples=BASE_SAMPLES, vectorized=True
    )
    error = max(
        abs(batched.raw_total_effect[name] - value)
        / max(abs(value), 1e-300)
        for name, value in scalar.raw_total_effect.items()
    )
    scalar_time = best_of(
        REPEATS,
        lambda: sobol_indices(scalar_fn, factors, base_samples=BASE_SAMPLES),
    )
    batch_time = best_of(
        REPEATS,
        lambda: sobol_indices(
            batch_fn, factors, base_samples=BASE_SAMPLES, vectorized=True
        ),
    )
    return {
        "evaluations": scalar.evaluations,
        "scalar_seconds": scalar_time,
        "batched_seconds": batch_time,
        "speedup": scalar_time / batch_time,
        "max_relative_error": error,
        "target_speedup": 10.0,
    }


def bench_sweep(model: TTMModel) -> dict:
    design = a11(PROCESS)
    fractions = capacity_fractions(0.05, 1.0, 20)
    quantities = chip_quantities()

    def scalar_sweep():
        return [
            [
                chip_agility_score(
                    model.at_capacity(fraction), design, n
                ).normalized
                for fraction in fractions
            ]
            for n in quantities
        ]

    def batched_sweep():
        # The (quantity x capacity) grid on one flat sample axis.
        chips, capacity = np.meshgrid(quantities, fractions, indexing="ij")
        return evaluate(
            model, (design,), chips.ravel(), ("cas",),
            capacity=capacity.ravel(),
        ).cas.normalized[0, 0].reshape(chips.shape)

    scalar = np.asarray(scalar_sweep())
    batched = np.asarray(batched_sweep())
    error = float(np.max(np.abs(batched - scalar) / np.abs(scalar)))

    clear_invariant_cache()
    cold_time = best_of(1, batched_sweep)  # includes invariant derivation
    scalar_time = best_of(REPEATS, scalar_sweep)
    batch_time = best_of(REPEATS, batched_sweep)
    return {
        "points": len(quantities) * len(fractions),
        "scalar_seconds": scalar_time,
        "batched_seconds": batch_time,
        "batched_cold_seconds": cold_time,
        "speedup": scalar_time / batch_time,
        "max_relative_error": error,
        "target_speedup": 5.0,
    }


def bench_split_sweep(model: TTMModel) -> dict:
    cost_model = CostModel.nominal()
    processes = [
        node.name for node in model.foundry.technology.production_nodes()
    ]
    grid = tuple(s / 100.0 for s in range(1, 101))
    n_chips = 1e9
    # Tensor rows in the unordered-pair order run_split_study uses.
    pairs = [
        (primary, secondary)
        for i, secondary in enumerate(processes)
        for primary in processes[i:]
    ]

    def scalar_study():
        return run_split_study(
            raven_multicore,
            processes,
            model,
            cost_model,
            n_chips,
            split_grid=grid,
            engine="scalar",
        )

    def batched_study():
        return batch_split(
            raven_multicore, pairs, model, cost_model, n_chips, split_grid=grid
        )

    scalar = scalar_study()
    batched = batched_study()
    error = 0.0
    for index, key in enumerate(pairs):
        oracle = scalar.pairs[key].best
        best = batched.best_evaluation(index)
        for attr in ("split", "ttm_weeks", "cost_usd", "cas"):
            expected = getattr(oracle, attr)
            error = max(
                error,
                abs(getattr(best, attr) - expected)
                / max(abs(expected), 1e-300),
            )

    clear_invariant_cache()
    cold_time = best_of(1, batched_study)  # includes the design ports
    scalar_time = best_of(1, scalar_study)  # ~2 s/run; one timing pass
    batch_time = best_of(REPEATS, batched_study)
    return {
        "pairs": len(pairs),
        "splits": len(grid),
        "scalar_seconds": scalar_time,
        "batched_seconds": batch_time,
        "batched_cold_seconds": cold_time,
        "speedup": scalar_time / batch_time,
        "max_relative_error": error,
        "target_speedup": 20.0,
    }


def portfolio_workload(
    n_designs: int = PORTFOLIO_DESIGNS,
    n_samples: int = PORTFOLIO_SAMPLES,
    seed: int = PORTFOLIO_SEED,
):
    """The (designs, capacity, queue, demand) tuple of the MC workload.

    64 Ariane many-core candidates (4 nodes x 4 core counts x 4 L1
    sizes) under shared supply draws — one capacity fraction, queue
    quote, and demand per sample, common across designs (CRN).
    """
    processes = ("40nm", "28nm", "14nm", "7nm")
    cores = (4, 8, 16, 32)
    caches = (16, 32, 64, 128)
    designs = [
        ariane_manycore(process, cores=n_cores, icache_kb=icache)
        for process in processes
        for n_cores in cores
        for icache in caches
    ][:n_designs]
    rng = np.random.default_rng(seed)
    capacity = rng.uniform(0.2, 1.0, n_samples)
    queue_weeks = rng.uniform(0.0, 20.0, n_samples)
    demand = rng.uniform(1e6, 5e7, n_samples)
    return designs, capacity, queue_weeks, demand


def bench_portfolio_mc(model: TTMModel) -> dict:
    designs, capacity, queue_weeks, demand = portfolio_workload()
    n_samples = len(demand)

    def fused():
        return evaluate(
            model,
            designs,
            demand,
            ("ttm",),
            capacity=capacity,
            queue_weeks=queue_weeks,
        ).ttm.total_weeks[0]

    def per_design_batch_loop():
        return [
            evaluate(
                model,
                (design,),
                demand,
                ("ttm",),
                capacity=capacity,
                queue_weeks=queue_weeks,
            ).ttm.total_weeks[0, 0]
            for design in designs
        ]

    # The status-quo path at the multi-design call sites: a Python loop
    # over designs, each sample evaluated through the scalar model. The
    # per-sample stressed models are hoisted out of the design loop,
    # which is *generous* to the baseline (the real call sites rebuild
    # them per design), so the reported speedup is conservative.
    def scalar_loop():
        stressed = [
            model.with_foundry(
                model.foundry.with_conditions(
                    MarketConditions.nominal()
                    .with_global_capacity(float(capacity[j]))
                    .with_global_queue(float(queue_weeks[j]))
                )
            )
            for j in range(n_samples)
        ]
        return [
            [
                sample_model.total_weeks(design, float(demand[j]))
                for j, sample_model in enumerate(stressed)
            ]
            for design in designs
        ]

    fused_matrix = fused()
    clear_invariant_cache()
    cold_time = best_of(1, fused)  # includes the 64-design compile
    start = time.perf_counter()
    scalar_rows = scalar_loop()  # ~260k scalar evals; one timed pass
    scalar_time = time.perf_counter() - start
    error = float(np.max(np.abs(fused_matrix - np.asarray(scalar_rows))))
    loop_time = best_of(REPEATS, per_design_batch_loop)
    batch_time = best_of(REPEATS, fused)
    return {
        "designs": len(designs),
        "samples": n_samples,
        "scalar_seconds": scalar_time,
        "per_design_batch_seconds": loop_time,
        "batched_seconds": batch_time,
        "batched_cold_seconds": cold_time,
        "speedup": scalar_time / batch_time,
        "max_abs_error": error,
        "target_speedup": 50.0,
    }


def scenario_portfolio_workload(
    n_designs: int = SCENARIO_DESIGNS,
    n_samples: int = SCENARIO_SAMPLES,
    seed: int = SCENARIO_SEED,
):
    """Chiplet candidates + shared supply draws for the scenario cube.

    Each candidate spans 3-6 production nodes (heterogeneous multi-die
    packages), so the per-node ``capacity_scale`` scenarios exercise the
    node-mapping path, not just the global multipliers. Draws are CRN:
    one capacity/queue/defect/wafer-rate/demand vector shared by every
    (scenario, design) cell.
    """
    designs = []
    for i in range(n_designs):
        nodes = SCENARIO_NODES[i % 3 : i % 3 + 3 + (i % 4)]
        dies = tuple(
            Die(
                name=f"sc{i}-die{j}",
                process=node,
                blocks=(
                    Block(
                        name=f"sc{i}-b{j}",
                        transistors=(2e9 + i * 1e8) / len(nodes),
                        instances=4,
                        unique_transistors=(2e8 + i * 5e6) / len(nodes),
                    ),
                ),
                count=1 + (j % 2),
                area_mm2=80.0 + 5.0 * j,
            )
            for j, node in enumerate(nodes)
        )
        designs.append(ChipDesign(name=f"chiplet-{i:02d}", dies=dies))
    rng = np.random.default_rng(seed)
    demand = rng.uniform(1e6, 5e7, n_samples)
    capacity = rng.uniform(0.2, 1.0, n_samples)
    queue_weeks = rng.uniform(0.0, 20.0, n_samples)
    d0_scale = rng.uniform(0.8, 1.2, n_samples)
    wafer_rate_scale = rng.uniform(0.85, 1.15, n_samples)
    return designs, demand, capacity, queue_weeks, d0_scale, wafer_rate_scale


def bench_scenario_sweep(model: TTMModel) -> dict:
    """One K-scenario cube pass vs K one-scenario passes of the same kernel.

    The baseline is one TTM, one CAS and one cost ``evaluate`` call per
    scenario over ``apply_scenario``-transformed draws, each on the
    identity scenario. The fused call wins only by sharing work
    *across* scenarios and metrics (one supply resolve + baseline pass
    for TTM and CAS, D0 tensors per multiplier, loads per (demand, D0)
    group, cost per (demand, D0) pair), and its slabs equal the loop's
    bit for bit: ``max_abs_error`` must be exactly 0.
    """
    (
        designs,
        demand,
        capacity,
        queue_weeks,
        d0_scale,
        wafer_rate_scale,
    ) = scenario_portfolio_workload()
    cost_model = CostModel.nominal()
    scenario_set = graded_stress_scenarios(
        SCENARIO_INTENSITIES, demand_intensities=SCENARIO_DEMAND_INTENSITIES
    )
    nodes = tuple(
        dict.fromkeys(p for design in designs for p in design.processes)
    )
    n_designs, n_samples = len(designs), demand.size
    shape = (scenario_set.n_scenarios, n_designs, n_samples)

    def looped():
        ttm = np.empty(shape)
        cas = np.empty(shape)
        cost = np.empty(shape)
        for k in range(scenario_set.n_scenarios):
            kw = apply_scenario(
                scenario_set,
                k,
                nodes=nodes,
                conditions=model.foundry.conditions,
                n_chips=demand,
                capacity=capacity,
                queue_weeks=queue_weeks,
                d0_scale=d0_scale,
                wafer_rate_scale=wafer_rate_scale,
            )
            supply = {
                key: kw[key]
                for key in (
                    "capacity",
                    "queue_weeks",
                    "d0_scale",
                    "wafer_rate_scale",
                )
            }
            ttm[k] = np.broadcast_to(
                evaluate(
                    model, designs, kw["n_chips"], ("ttm",), **supply
                ).ttm.total_weeks[0],
                shape[1:],
            )
            cas[k] = np.broadcast_to(
                evaluate(
                    model, designs, kw["n_chips"], ("cas",), **supply
                ).cas.cas[0],
                shape[1:],
            )
            cost[k] = np.broadcast_to(
                evaluate(
                    model,
                    designs,
                    kw["n_chips"],
                    ("cost",),
                    d0_scale=kw["d0_scale"],
                    cost_model=cost_model,
                ).cost.total_usd[0],
                shape[1:],
            )
        return ttm, cas, cost

    def fused():
        return evaluate(
            model,
            designs,
            demand,
            POINT_METRICS,
            scenarios=scenario_set,
            cost_model=cost_model,
            capacity=capacity,
            queue_weeks=queue_weeks,
            d0_scale=d0_scale,
            wafer_rate_scale=wafer_rate_scale,
        )

    oracle_ttm, oracle_cas, oracle_cost = looped()
    cube = fused()
    error = float(
        max(
            np.max(np.abs(cube.ttm.total_weeks - oracle_ttm)),
            np.max(np.abs(cube.cas.cas - oracle_cas)),
            np.max(np.abs(cube.cost.total_usd - oracle_cost)),
        )
    )

    scalar_time = best_of(2, looped)
    batch_time = best_of(REPEATS, fused)
    return {
        "scenarios": scenario_set.n_scenarios,
        "designs": n_designs,
        "samples": n_samples,
        "scalar_seconds": scalar_time,
        "batched_seconds": batch_time,
        "speedup": scalar_time / batch_time,
        "max_abs_error": error,
        "target_speedup": 5.0,
    }


def bench_sustained_throughput(model: TTMModel) -> dict:
    """A steady request stream against one compiled portfolio.

    Unlike ``portfolio_mc`` (one huge fused pass, where the per-design
    batched loop is already near-optimal), this workload is
    overhead-bound: 32 independent requests of 16 designs x 512 samples
    each. The fused path pays one compiled-portfolio lookup and one
    broadcasted kernel per request; the per-design loop pays 16
    one-design ``evaluate`` calls — each with its own table lookup,
    validation and result assembly — per request. The speedup is
    therefore the engine's
    *sustained* per-call efficiency, not its asymptotic FLOP rate, and
    the target is deliberately modest.
    """
    designs, _, _, _ = portfolio_workload(n_designs=SUSTAINED_DESIGNS)
    rng = np.random.default_rng(SUSTAINED_SEED)
    requests = [
        (
            rng.uniform(0.2, 1.0, SUSTAINED_SAMPLES),
            rng.uniform(0.0, 20.0, SUSTAINED_SAMPLES),
            rng.uniform(1e6, 5e7, SUSTAINED_SAMPLES),
        )
        for _ in range(SUSTAINED_REQUESTS)
    ]

    def fused_stream():
        return [
            evaluate(
                model,
                designs,
                demand,
                ("ttm",),
                capacity=capacity,
                queue_weeks=queue_weeks,
            ).ttm.total_weeks[0]
            for capacity, queue_weeks, demand in requests
        ]

    def per_design_stream():
        return [
            [
                evaluate(
                    model,
                    (design,),
                    demand,
                    ("ttm",),
                    capacity=capacity,
                    queue_weeks=queue_weeks,
                ).ttm.total_weeks[0, 0]
                for design in designs
            ]
            for capacity, queue_weeks, demand in requests
        ]

    fused_matrices = fused_stream()
    oracle_rows = per_design_stream()
    error = float(
        max(
            np.max(np.abs(matrix[i] - row))
            for matrix, rows in zip(fused_matrices, oracle_rows)
            for i, row in enumerate(rows)
        )
    )

    clear_invariant_cache()
    cold_time = best_of(1, fused_stream)  # includes the portfolio compile
    loop_time = best_of(REPEATS, per_design_stream)
    batch_time = best_of(REPEATS, fused_stream)
    return {
        "designs": len(designs),
        "samples": SUSTAINED_SAMPLES,
        "requests": SUSTAINED_REQUESTS,
        "scalar_seconds": loop_time,  # baseline = per-design batch loop
        "batched_seconds": batch_time,
        "batched_cold_seconds": cold_time,
        "speedup": loop_time / batch_time,
        "max_abs_error": error,
        "target_speedup": 2.0,
    }


def bench_serve_roundtrip(model: TTMModel) -> dict:
    """HTTP round-trips through repro.serve, coalesced vs uncoalesced.

    Boots two in-process servers: a baseline with coalescing disabled
    (max batch 1 — every request is its own engine dispatch) and the
    coalescing server (max batch 16). The same 96-request
    mixed-design burst is driven through both with 16 client threads
    over real sockets; the reported speedup is wall time of the burst,
    so it prices the whole service (HTTP parse, batcher, engine,
    canonical JSON) rather than the engine alone. ``max_abs_error`` is
    the fraction of coalesced responses that are NOT byte-identical to
    the uncoalesced ones — the determinism contract makes it exactly
    0.0. Also reports client-observed p50/p95 latency on the coalesced
    server and the measured coalesce ratio (requests per fused batch).
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve import ServeClient, ServerConfig, ServerThread

    bodies = [
        {"design": "a11"},
        {"design": "zen2"},
        {"design": "raven"},
        {"design": {"library": "a11", "process": "28nm"}},
    ]
    stream = [bodies[i % len(bodies)] for i in range(SERVE_REQUESTS)]

    def drive(client):
        latencies = []

        def call(body):
            start = time.perf_counter()
            response = client.post("/evaluate", body)
            latencies.append(time.perf_counter() - start)
            assert response.status == 200, response.body
            return response.body

        with ThreadPoolExecutor(max_workers=SERVE_THREADS) as pool:
            responses = list(pool.map(call, stream))
        return responses, latencies

    def timed_burst(client):
        best, responses, latencies = float("inf"), None, None
        for _ in range(SERVE_REPEATS):
            start = time.perf_counter()
            responses, latencies = drive(client)
            best = min(best, time.perf_counter() - start)
        return best, responses, latencies

    with ServerThread(ServerConfig(port=0, max_batch=1)) as solo:
        client = ServeClient(solo.host, solo.port)
        drive(client)  # warm the invariant caches and thread pools
        solo_seconds, solo_bodies, _ = timed_burst(client)

    with ServerThread(
        ServerConfig(port=0, max_batch=SERVE_THREADS)
    ) as fused:
        client = ServeClient(fused.host, fused.port)
        drive(client)
        fused_seconds, fused_bodies, latencies = timed_burst(client)
        stats = fused.server.batcher.stats()

    mismatches = sum(
        1 for a, b in zip(solo_bodies, fused_bodies) if a != b
    )
    ordered = sorted(latencies)
    return {
        "requests": SERVE_REQUESTS,
        "client_threads": SERVE_THREADS,
        "scalar_seconds": solo_seconds,  # baseline = coalescing off
        "batched_seconds": fused_seconds,
        "speedup": solo_seconds / fused_seconds,
        "p50_ms": ordered[len(ordered) // 2] * 1e3,
        "p95_ms": ordered[int(len(ordered) * 0.95)] * 1e3,
        "coalesce_ratio": stats["batched_requests"] / stats["batches"],
        "max_abs_error": mismatches / float(SERVE_REQUESTS),
        "target_speedup": 1.5,
    }


def bench_serve_scaling(model: TTMModel) -> dict:
    """Burst throughput through the sharded server at 1/2/4 workers.

    The baseline is today's single-process server; the 2- and 4-worker
    points boot the full prefork shard (parent router + spawned worker
    processes + shm-published warm caches) and drive the same
    mixed-group burst through the public port. Two measurement modes,
    recorded in the entry:

    * ``direct`` — when the machine has at least as many cores as
      workers, the burst is timed end to end and the throughput is
      what the wall clock says.
    * ``per_shard_aggregate`` — on smaller machines N workers
      timeshare the cores and a direct burst measures scheduler churn,
      not sharding. Instead the burst is filtered to the group keys
      that rendezvous-route to ONE worker (computed with the real
      router hash), that shard's rate is measured in isolation, and
      the reported throughput is N x the shard rate — the standard
      single-shard extrapolation, honest because workers share
      nothing on the request path (separate processes, read-only shm).

    Whatever the mode, the byte-identity and shm-hygiene checks always
    run directly: every response routed through the 4-worker shard
    must equal the single-process response byte for byte
    (``max_abs_error`` is the mismatch fraction), and stopping each
    shard must leave /dev/shm exactly as it was (``leaked_segments``).
    """
    import glob
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve import (
        ServeClient,
        ServerConfig,
        ServerThread,
        ShardConfig,
        ShardThread,
        rendezvous_worker,
        routing_key,
    )

    # Eight bodies across four knob shapes: four distinct routing keys,
    # so a shard always has cross-worker traffic, while designs inside
    # a shape still coalesce.
    bodies = [
        {"design": "a11"},
        {"design": "zen2"},
        {"design": "a11", "queue_weeks": 2.0},
        {"design": "raven", "queue_weeks": 3.0},
        {"design": "a11", "d0_scale": 1.1},
        {"design": "zen2", "d0_scale": 0.9},
        {"design": "a11", "wafer_rate_scale": 1.0},
        {"design": "raven", "wafer_rate_scale": 1.2},
    ]
    worker_config = ServerConfig(port=0, max_batch=SCALING_THREADS)

    def drive(client, stream):
        def call(body):
            response = client.post("/evaluate", body)
            assert response.status == 200, response.body
            return response.body

        with ThreadPoolExecutor(max_workers=SCALING_THREADS) as pool:
            return list(pool.map(call, stream))

    def best_rate(client, stream):
        best = float("inf")
        for _ in range(SCALING_REPEATS):
            start = time.perf_counter()
            drive(client, stream)
            best = min(best, time.perf_counter() - start)
        return len(stream) / best

    full_stream = [
        bodies[i % len(bodies)] for i in range(SCALING_REQUESTS)
    ]
    cores = os.cpu_count() or 1
    segments_before = set(glob.glob("/dev/shm/repro_shm_*"))

    with ServerThread(worker_config) as solo:
        client = ServeClient(solo.host, solo.port)
        drive(client, full_stream)  # warm caches and thread pools
        solo_bodies = {
            json.dumps(body, sort_keys=True): client.post(
                "/evaluate", body
            ).body
            for body in bodies
        }
        throughput = {1: best_rate(client, full_stream)}

    mode = (
        "direct"
        if cores >= max(SCALING_WORKERS)
        else "per_shard_aggregate"
    )
    mismatches = 0
    for count in SCALING_WORKERS[1:]:
        with ShardThread(
            ShardConfig(workers=count, server=worker_config)
        ) as shard:
            client = ServeClient(shard.host, shard.port)
            # Byte-identity is always checked on the full mixed burst,
            # routed for real across all workers.
            routed = drive(client, full_stream)
            if count == max(SCALING_WORKERS):
                mismatches = sum(
                    1
                    for body, payload in zip(full_stream, routed)
                    if payload
                    != solo_bodies[json.dumps(body, sort_keys=True)]
                )
            if mode == "direct":
                throughput[count] = best_rate(client, full_stream)
            else:
                slots = list(range(count))
                target = rendezvous_worker(
                    routing_key(
                        "evaluate", json.dumps(bodies[0]).encode()
                    ),
                    slots,
                )
                shard_bodies = [
                    body
                    for body in bodies
                    if rendezvous_worker(
                        routing_key(
                            "evaluate", json.dumps(body).encode()
                        ),
                        slots,
                    )
                    == target
                ]
                shard_stream = [
                    shard_bodies[i % len(shard_bodies)]
                    for i in range(SCALING_SHARD_REQUESTS)
                ]
                throughput[count] = count * best_rate(
                    client, shard_stream
                )
    leaked = (
        set(glob.glob("/dev/shm/repro_shm_*")) - segments_before
    )

    top = max(SCALING_WORKERS)
    return {
        "requests": SCALING_REQUESTS,
        "client_threads": SCALING_THREADS,
        "mode": mode,
        "cpu_count": cores,
        "throughput_rps": {
            str(count): throughput[count] for count in SCALING_WORKERS
        },
        "scalar_seconds": SCALING_REQUESTS / throughput[1],
        "batched_seconds": SCALING_REQUESTS / throughput[top],
        "speedup": throughput[top] / throughput[1],
        "max_abs_error": mismatches / float(SCALING_REQUESTS),
        "leaked_segments": len(leaked),
        "target_speedup": 1.8,
    }


WORKLOADS = {
    "sobol_1024_evals": bench_sobol,
    "cas_sweep_20x6": bench_sweep,
    "fig14_split_sweep": bench_split_sweep,
    "portfolio_mc": bench_portfolio_mc,
    "scenario_sweep": bench_scenario_sweep,
    "sustained_throughput": bench_sustained_throughput,
    "serve_roundtrip": bench_serve_roundtrip,
    "serve_scaling": bench_serve_scaling,
}


def measure_hook_cost_ns() -> float:
    """Per-call CPU cost of the ``observed_kernel`` no-tracer fast path.

    Drives a decorated trivial function in a tight loop with the hooks
    live and again under ``repro.obs.instrument.disabled()``; the
    difference, per iteration, is the cost one instrumented kernel call
    adds. Over 200k iterations of CPU time this resolves to tens of
    nanoseconds, where a direct A/B timing of a ~10 ms workload swings
    by +-10% run to run on shared hardware.
    """
    from repro.obs.instrument import disabled, observed_kernel

    payload = np.zeros(4)

    @observed_kernel("obs_overhead_probe", lambda r: r.size)
    def probe():
        return payload

    def loop_seconds() -> float:
        start = time.process_time()
        for _ in range(OVERHEAD_PROBE_ITERATIONS):
            probe()
        return time.process_time() - start

    probe()  # warm the wrapper (first call pays attribute resolution)
    instrumented = loop_seconds()
    with disabled():
        bare = loop_seconds()
    return max(instrumented - bare, 0.0) / OVERHEAD_PROBE_ITERATIONS * 1e9


def bench_obs_overhead(model: TTMModel) -> dict:
    """Deterministic overhead bound for the default obs hooks.

    The CPU a workload spends on instrumentation is (hooks fired) x
    (cost per hook). Both factors are measured where they are stable:
    the per-hook cost in a 200k-iteration micro loop
    (:func:`measure_hook_cost_ns`) and the hook count exactly, from the
    kernel-invocation counter's delta across one workload run (the
    invariant-cache counters fire in both modes, so they cancel and are
    excluded). Dividing by the workload's best-of CPU time yields the
    ratio the ceiling gates. A direct instrumented-vs-disabled timing
    of the full workloads was tried first and rejected: their intrinsic
    run-to-run CPU variance (~+-10% for these ~10 ms paths) cannot
    resolve a 2% ceiling, while this product of two stable measurements
    can.
    """
    from repro.obs.instrument import KERNEL_INVOCATIONS

    designs, capacity, queue_weeks, demand = portfolio_workload()
    cost_model = CostModel.nominal()
    processes = [
        node.name for node in model.foundry.technology.production_nodes()
    ]
    pairs = [
        (primary, secondary)
        for i, secondary in enumerate(processes)
        for primary in processes[i:]
    ]
    split_grid = tuple(s / 100.0 for s in range(1, 101))
    hot_paths = {
        "portfolio_mc": lambda: evaluate(
            model,
            designs,
            demand,
            ("ttm",),
            capacity=capacity,
            queue_weeks=queue_weeks,
        ),
        "fig14_split_sweep": lambda: batch_split(
            raven_multicore,
            pairs,
            model,
            cost_model,
            1e9,
            split_grid=split_grid,
        ),
    }
    hook_ns = measure_hook_cost_ns()

    def invocation_total() -> float:
        return sum(KERNEL_INVOCATIONS.series().values())

    out = {}
    for name, call in hot_paths.items():
        call()  # warm the invariant cache; measure the steady state
        before = invocation_total()
        call()
        hooks_fired = invocation_total() - before
        workload_seconds = float("inf")
        for _ in range(OVERHEAD_REPEATS):
            start = time.process_time()
            call()
            workload_seconds = min(
                workload_seconds, time.process_time() - start
            )
        overhead_seconds = hooks_fired * hook_ns / 1e9
        out[name] = {
            "hook_cost_ns": hook_ns,
            "hooks_fired": hooks_fired,
            "workload_cpu_seconds": workload_seconds,
            "overhead_ratio": 1.0 + overhead_seconds / workload_seconds,
            "ceiling": OVERHEAD_CEILING,
        }
    return out


def check_overhead(report: dict) -> bool:
    """Gate: default instrumentation must cost <= 2% on the hot paths."""
    ok = True
    for name, work in report.get("obs_overhead", {}).items():
        met = work["overhead_ratio"] <= work["ceiling"]
        ok = ok and met
        print(
            f"obs overhead {name}: {(work['overhead_ratio'] - 1) * 100:+.2f}% "
            f"(ceiling {(work['ceiling'] - 1) * 100:.0f}%) "
            f"[{'ok' if met else 'EXCEEDED'}]"
        )
    return ok


def workload_error(work: dict) -> float:
    """The workload's oracle-agreement error, whichever metric it uses."""
    if "max_abs_error" in work:
        return work["max_abs_error"]
    return work["max_relative_error"]


def measure(model: TTMModel) -> dict:
    return {
        "workloads": {
            name: bench(model) for name, bench in WORKLOADS.items()
        },
        "obs_overhead": bench_obs_overhead(model),
        "config": {
            "process": PROCESS,
            "n_chips": N_CHIPS,
            "base_samples": BASE_SAMPLES,
            "repeats": REPEATS,
            "portfolio_designs": PORTFOLIO_DESIGNS,
            "portfolio_samples": PORTFOLIO_SAMPLES,
            "sustained_designs": SUSTAINED_DESIGNS,
            "sustained_samples": SUSTAINED_SAMPLES,
            "sustained_requests": SUSTAINED_REQUESTS,
            "serve_requests": SERVE_REQUESTS,
            "serve_threads": SERVE_THREADS,
            "scaling_workers": list(SCALING_WORKERS),
            "scaling_requests": SCALING_REQUESTS,
            "scenario_designs": SCENARIO_DESIGNS,
            "scenario_samples": SCENARIO_SAMPLES,
            "scenario_seed": SCENARIO_SEED,
        },
    }


def report_targets(report: dict) -> bool:
    ok = True
    for name, work in report["workloads"].items():
        error = workload_error(work)
        met = (
            work["speedup"] >= work["target_speedup"]
            and error <= ERROR_CEILING
        )
        ok = ok and met
        print(
            f"{name}: {work['speedup']:.1f}x "
            f"(target {work['target_speedup']:.0f}x), "
            f"max err {error:.2e} "
            f"[{'ok' if met else 'MISSED'}]"
        )
    return ok


def check_against_baseline(report: dict, baseline: dict, slack: float) -> bool:
    """Regression gate: measured speedups vs the recorded baseline.

    A workload regresses when its measured speedup drops below
    ``baseline_speedup / slack`` (order-of-magnitude changes only; raw
    wall times are too machine-dependent to gate on) or its oracle
    error exceeds the ceiling. Workloads absent from the baseline are
    held to their design targets instead.
    """
    ok = True
    recorded = baseline.get("workloads", {})
    for name, work in report["workloads"].items():
        error = workload_error(work)
        if name in recorded:
            floor = recorded[name]["speedup"] / slack
            label = f"floor {floor:.1f}x = baseline/{slack:g}"
        else:
            floor = work["target_speedup"]
            label = f"floor {floor:.0f}x = target (no baseline entry)"
        met = work["speedup"] >= floor and error <= ERROR_CEILING
        ok = ok and met
        print(
            f"{name}: {work['speedup']:.1f}x ({label}), "
            f"max err {error:.2e} "
            f"[{'ok' if met else 'REGRESSED'}]"
        )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Measure batched-engine speedups; write or check "
            "BENCH_engine.json."
        )
    )
    parser.add_argument(
        "output",
        nargs="?",
        default="BENCH_engine.json",
        help="report path (default: BENCH_engine.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "compare measured speedups against the recorded baseline "
            "in OUTPUT (with --slack) instead of rewriting it"
        ),
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=CHECK_SLACK,
        help=(
            "allowed speedup degradation factor for --check "
            f"(default: {CHECK_SLACK:g}x)"
        ),
    )
    options = parser.parse_args(argv)

    model = TTMModel.nominal()
    report = measure(model)
    if options.check:
        try:
            with open(options.output) as handle:
                baseline = json.load(handle)
        except FileNotFoundError:
            print(f"no baseline at {options.output}; checking targets only")
            baseline = {}
        ok = check_against_baseline(report, baseline, options.slack)
        ok = check_overhead(report) and ok
        return 0 if ok else 1

    with open(options.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    ok = report_targets(report)
    ok = check_overhead(report) and ok
    print(f"wrote {options.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
