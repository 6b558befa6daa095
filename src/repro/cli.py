"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    ttm-cas list                # enumerate experiments
    ttm-cas run fig7            # print Fig. 7's rows
    ttm-cas run all             # the whole evaluation section
    ttm-cas nodes               # dump the technology database
    ttm-cas mc --design a11     # Monte Carlo supply-uncertainty study
    ttm-cas obs runs/fig7.manifest.json   # summarize an obs artifact

The ``run``, ``report``, and ``mc`` commands accept ``--trace FILE``
(Chrome-trace span dump, loadable in ``chrome://tracing``),
``--metrics FILE`` (Prometheus text exposition), and ``--manifest-dir
DIR`` (one provenance manifest per run); ``obs`` summarizes any of the
three artifacts.

(Equivalently: ``python -m repro.cli ...``.)

Each command imports what it runs, inside its handler: building the
parser loads no NumPy, and ``serve --workers N``'s router process (whose
spawned workers re-import this module) never loads the engine or the
experiments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .errors import InvalidParameterError, ReproError

if TYPE_CHECKING:
    from .obs.session import ObsSession


def _cmd_list(_: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .experiments import registry

    rows = [[exp.key, exp.title] for exp in registry.EXPERIMENTS.values()]
    print(format_table(["experiment", "description"], rows))
    return 0


def _run_one_experiment(session: ObsSession, experiment) -> object:
    """Run one experiment under the session, capturing its manifest."""
    with session.run_manifest(
        "experiment",
        experiment.key,
        config={"experiment": experiment.key, "title": experiment.title},
    ) as sink:
        result = experiment.run()
        sink.set_result(result)
        seed = getattr(result, "seed", None)
        if seed is not None:
            sink.add_seeds({"seed": int(seed)})
    return result


def _cmd_run(args: argparse.Namespace) -> int:
    from .analysis.export import to_json
    from .experiments import registry
    from .obs.session import ObsSession

    keys = (
        list(registry.experiment_keys()) if args.experiment == "all"
        else [args.experiment]
    )
    with ObsSession.from_args(args) as session:
        for key in keys:
            try:
                experiment = registry.get(key)
            except KeyError as error:
                print(error, file=sys.stderr)
                return 2
            result = _run_one_experiment(session, experiment)
            if args.json:
                print(to_json(result))
            else:
                print(f"== {experiment.key}: {experiment.title} ==")
                print(result.table())  # type: ignore[attr-defined]
                print()
    return 0


def _cmd_lint(_: argparse.Namespace) -> int:
    from .technology.database import TechnologyDatabase
    from .technology.validate import ERROR, lint_database

    findings = lint_database(TechnologyDatabase.default())
    if not findings:
        print("technology database: no findings")
        return 0
    for finding in findings:
        print(finding)
    has_errors = any(finding.severity == ERROR for finding in findings)
    return 1 if has_errors else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import registry
    from .obs.session import ObsSession

    lines = [
        "# ttm-cas evaluation report",
        "",
        "Regenerated tables and figures (paper artifacts + extensions).",
        "",
    ]
    with ObsSession.from_args(args) as session:
        for experiment in registry.EXPERIMENTS.values():
            result = _run_one_experiment(session, experiment)
            lines.append(f"## {experiment.key}: {experiment.title}")
            lines.append("")
            lines.append("```")
            lines.append(result.table())  # type: ignore[attr-defined]
            lines.append("```")
            lines.append("")
    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


#: Designs addressable from the ``mc`` sub-command.
MC_DESIGNS = ("a11", "zen2", "zen2-monolithic")


def _cmd_mc(args: argparse.Namespace) -> int:
    from .analysis.export import to_json, to_jsonable
    from .cost.model import CostModel
    from .design.library import a11, zen2, zen2_monolithic
    from .market import scenarios
    from .montecarlo import (
        default_correlated_spec,
        default_supply_spec,
        run_scenario_study,
        run_study,
        stress_scenarios,
    )
    from .obs.session import ObsSession
    from .ttm.model import TTMModel

    try:
        selector = tuple(
            entry.strip()
            for entry in args.scenarios.split(",")
            if entry.strip()
        )
        if args.executor != "serial" and not selector:
            raise InvalidParameterError(
                f"--executor {args.executor} applies to --scenarios "
                "studies only; the single-world study runs serial"
            )
        if args.design == "a11":
            design = a11(args.node)
        elif args.design == "zen2":
            design = zen2()
        else:
            design = zen2_monolithic(args.node)
        conditions = scenarios.by_name(args.scenario)
        nominal = TTMModel.nominal()
        model = nominal.with_foundry(
            nominal.foundry.with_conditions(conditions)
        )
        if args.correlated:
            spec = default_correlated_spec(n_chips=args.chips)
        else:
            spec = default_supply_spec(n_chips=args.chips)
        with ObsSession.from_args(args) as session:
            with session.run_manifest(
                "mc-study",
                f"mc-{args.design}",
                config={
                    "design": args.design,
                    "node": args.node,
                    "scenario": args.scenario,
                    "chips": args.chips,
                    "samples": args.samples,
                    "executor": args.executor,
                    "correlated": args.correlated,
                    "stress_scenarios": list(selector),
                    "spec": to_jsonable(spec),
                },
                seeds={"seed": args.seed},
            ) as sink:
                if selector:
                    result = run_scenario_study(
                        model,
                        [design],
                        spec,
                        stress_scenarios(selector),
                        n_samples=args.samples,
                        seed=args.seed,
                        cost_model=CostModel.nominal(),
                        executor=args.executor,
                    )
                else:
                    result = run_study(
                        model,
                        design,
                        spec,
                        n_samples=args.samples,
                        seed=args.seed,
                        cost_model=CostModel.nominal(),
                    )
                sink.set_result(result)
    except (KeyError, ReproError) as error:
        # Node/scenario lookups are lazy, so bad inputs surface here;
        # report the one-line message instead of a traceback.
        message = error.args[0] if error.args else error
        print(message, file=sys.stderr)
        return 2
    if args.json:
        print(to_json(result))
    elif selector:
        sampling = "correlated" if args.correlated else "independent"
        print(
            f"== Scenario stress suite: {design.name} under "
            f"{args.scenario!r} ({len(result.scenarios)} scenarios x "
            f"{args.samples} samples, {sampling} draws, seed "
            f"{args.seed}) =="
        )
        for metric in ("ttm_weeks", "cas", "cost_per_chip_usd"):
            print()
            print(f"-- {metric}: per-scenario risk (CVaR ladder) --")
            print(result.cvar_table(metric, design.name))
        print()
        print("-- ttm_weeks: exceedance vs the baseline world --")
        print(result.exceedance_table("ttm_weeks", design.name))
    else:
        print(
            f"== Monte Carlo: {design.name} under {args.scenario!r} "
            f"({args.samples} samples, seed {args.seed}) =="
        )
        print(result.table())
    return 0


def _summarize_manifest(data: Dict[str, Any]) -> None:
    from .analysis.tables import format_table
    from .obs.manifest import RunManifest

    manifest = RunManifest.from_jsonable(data)
    print(f"== run manifest: {manifest.kind} / {manifest.key} ==")
    info_rows = [
        ["duration_s", f"{manifest.duration_seconds:.3f}"],
        ["git_sha", manifest.git_sha or "-"],
        ["result_digest", (manifest.result_digest or "-")[:16]],
    ]
    for name, value in sorted(manifest.seeds.items()):
        info_rows.append([f"seed:{name}", value])
    for name, value in sorted(manifest.environment.items()):
        info_rows.append([f"env:{name}", value])
    print(format_table(["field", "value"], info_rows))
    if manifest.metrics:
        print()
        print(
            format_table(
                ["metric", "delta"],
                [
                    [name, _format_number(value)]
                    for name, value in sorted(manifest.metrics.items())
                ],
            )
        )


def _format_number(value: float) -> str:
    return str(int(value)) if value == int(value) else f"{value:.6g}"


def _print_span_summary(spans: List[Dict[str, Any]]) -> None:
    """Print :func:`~repro.obs.trace.summarize_spans` as a table."""
    from .analysis.tables import format_table
    from .obs.trace import summarize_spans

    table = [
        [
            entry["name"],
            int(entry["count"]),
            f"{entry['wall_ns'] / 1e6:.3f}",
            f"{entry['max_wall_ns'] / 1e6:.3f}",
            f"{entry['cpu_ns'] / 1e6:.3f}",
        ]
        for entry in summarize_spans(spans)
    ]
    print(
        format_table(
            ["span", "count", "wall ms", "max ms", "cpu ms"], table
        )
    )


def _cmd_obs_tail(path: str, args: argparse.Namespace) -> int:
    """``ttm-cas obs tail FILE``: recent request-log lines, oldest first."""
    from .obs.log import format_record, read_request_log, tail_records

    try:
        records = read_request_log(path)
    except OSError as error:
        print(error, file=sys.stderr)
        return 2
    for record in tail_records(records, limit=args.lines):
        print(format_record(record), flush=True)
    if not args.follow:
        return 0
    import time as _time

    try:
        with open(path, encoding="utf-8") as handle:
            handle.seek(0, os.SEEK_END)
            while True:
                line = handle.readline()
                if not line:
                    _time.sleep(0.2)
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    print(format_record(record), flush=True)
    except KeyboardInterrupt:
        return 0


def _cmd_obs_slo(path: str, args: argparse.Namespace) -> int:
    """``ttm-cas obs slo FILE``: burn rates recomputed from a request log."""
    from .analysis.tables import format_table
    from .obs.log import read_request_log
    from .obs.slo import report_from_records

    try:
        records = read_request_log(path)
    except OSError as error:
        print(error, file=sys.stderr)
        return 2
    window = args.window_s if args.window_s > 0 else None
    report = report_from_records(records, window_s=window)
    if not report:
        print(f"{path}: no request records")
        return 0
    scope = f"last {window:g} s" if window else "whole log"
    print(f"== SLO report ({scope}) ==")
    rows = []
    worst = False
    for endpoint, status in sorted(report.items()):
        rows.append(
            [
                endpoint,
                status["requests"],
                status["errors"],
                status["slow"],
                f"{status['error_burn_rate']:.3f}",
                f"{status['latency_burn_rate']:.3f}",
                "ok" if status["ok"] else "BURNING",
            ]
        )
        worst = worst or not status["ok"]
    print(
        format_table(
            [
                "endpoint",
                "requests",
                "errors",
                "slow",
                "err burn",
                "lat burn",
                "status",
            ],
            rows,
        )
    )
    return 1 if worst else 0


def _print_metrics(samples, quantiles) -> None:
    """A metrics dump's two tables: its non-zero series, then each
    histogram series' p50/p95/p99 (the same for a ``.prom`` dump and
    the JSON export of one registry)."""
    from .analysis.tables import format_table

    rows = [
        [series, _format_number(value)]
        for series, value in samples
        if value != 0.0
    ]
    print(f"== metrics: {len(rows)} non-zero series ==")
    if rows:
        print(format_table(["series", "value"], rows))
    quantiles = [
        (series, entry) for series, entry in quantiles if any(entry.values())
    ]
    if quantiles:
        print()
        print("-- histogram quantiles (estimated from buckets) --")
        print(
            format_table(
                ["series", "p50", "p95", "p99"],
                [
                    [series]
                    + [_format_number(entry[q]) for q in ("p50", "p95", "p99")]
                    for series, entry in quantiles
                ],
            )
        )


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs.manifest import MANIFEST_SCHEMA
    from .obs.metrics import (
        METRICS_SCHEMA,
        histogram_quantiles_from_json,
        histogram_quantiles_from_text,
        iter_json_samples,
        iter_prometheus_samples,
    )
    from .obs.trace import TRACE_SCHEMA

    if args.lines < 0:
        print(f"-n must be 0 or more, got {args.lines}", file=sys.stderr)
        return 2
    tokens = list(args.file)
    if tokens and tokens[0] in ("tail", "slo"):
        if len(tokens) != 2:
            print(
                f"usage: ttm-cas obs {tokens[0]} FILE", file=sys.stderr
            )
            return 2
        handler = _cmd_obs_tail if tokens[0] == "tail" else _cmd_obs_slo
        return handler(tokens[1], args)
    if len(tokens) != 1:
        print("usage: ttm-cas obs [tail|slo] FILE", file=sys.stderr)
        return 2
    path = tokens[0]

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        print(error, file=sys.stderr)
        return 2
    try:
        data: Any = json.loads(text)
    except ValueError:
        data = None
    if isinstance(data, dict) and data.get("schema") == MANIFEST_SCHEMA:
        _summarize_manifest(data)
        return 0
    if isinstance(data, dict) and data.get("schema") == TRACE_SCHEMA:
        print(f"== trace: {len(data['spans'])} spans ==")
        _print_span_summary(data["spans"])
        return 0
    if isinstance(data, dict) and "traceEvents" in data:
        spans = [
            {
                "name": event["name"],
                "duration_ns": float(event.get("dur", 0.0)) * 1000.0,
                "cpu_ns": 0.0,
            }
            for event in data["traceEvents"]
            if event.get("ph") == "X"
        ]
        print(f"== chrome trace: {len(spans)} complete events ==")
        _print_span_summary(spans)
        return 0
    if isinstance(data, dict) and data.get("schema") == METRICS_SCHEMA:
        _print_metrics(
            iter_json_samples(data), histogram_quantiles_from_json(data)
        )
        return 0
    if data is None and "# TYPE" in text:
        _print_metrics(
            iter_prometheus_samples(text), histogram_quantiles_from_text(text)
        )
        return 0
    # A request log: JSON lines (multi-line text defeats json.loads
    # above) or a single schema-tagged record.
    from .obs.log import LOG_SCHEMA

    log_like = (
        isinstance(data, dict) and data.get("schema") == LOG_SCHEMA
    ) or (data is None and f'"{LOG_SCHEMA}"' in text)
    if log_like:
        from .obs.log import format_record, read_request_log, tail_records

        records = read_request_log(path)
        print(f"== request log: {len(records)} records ==")
        for record in tail_records(records, limit=args.lines):
            print(format_record(record))
        return 0
    print(
        f"{path}: not a recognized obs artifact (expected a run "
        "manifest, a trace JSON, a Chrome trace, a request log, or "
        "metrics as Prometheus text or JSON)",
        file=sys.stderr,
    )
    return 2


def _cmd_nodes(_: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .technology.database import TechnologyDatabase

    db = TechnologyDatabase.default()
    rows = []
    for node in db.nodes:
        rows.append(
            [
                node.name,
                node.density_mtr_per_mm2,
                node.defect_density_per_cm2,
                node.wafer_rate_kwpm,
                node.fab_latency_weeks,
                f"{node.tapeout_effort:.2e}",
                node.wafer_cost_usd,
                node.mask_set_cost_usd / 1e6,
            ]
        )
    print(
        format_table(
            [
                "node",
                "MTr/mm^2",
                "D0 /cm^2",
                "kW/mo",
                "L_fab wk",
                "E_tapeout ew/tr",
                "wafer $",
                "masks $M",
            ],
            rows,
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.common import ServerConfig

    workers = args.workers if args.workers > 0 else (os.cpu_count() or 1)
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            batch_threads=args.batch_threads,
            deadline_ms=args.deadline_ms,
            trace=bool(args.trace),
            trace_out=args.trace if workers <= 1 else "",
            log_json=args.log_json,
            slo_window_s=args.slo_window_s,
            profile_hz=args.profile_hz,
            profile_out=args.profile_out,
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    def _announce(host: str, port: int) -> None:
        print(f"serving on http://{host}:{port}", flush=True)
        if args.ready_file:
            with open(args.ready_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host} {port}\n")

    # Tests inject a threading.Event via the namespace to stop the loop
    # without signals; the CLI proper relies on SIGINT/SIGTERM.
    stop_event = getattr(args, "stop_event", None)
    if workers <= 1:
        from .serve.server import EvalServer

        server = EvalServer(config=config)
        server.run_forever(stop_event=stop_event, ready=_announce)
    else:
        from .serve.shard import ShardConfig, ShardSupervisor

        supervisor = ShardSupervisor(
            ShardConfig(
                workers=workers,
                host=args.host,
                port=args.port,
                server=config,
                # Sharded: the supervisor collects every worker's spans
                # at drain and writes the one merged Chrome trace.
                trace_out=args.trace,
            )
        )
        supervisor.run_forever(stop_event=stop_event, ready=_announce)
    print("server drained and stopped", flush=True)
    return 0


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (run / report / mc)."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="write a Chrome-trace span dump (chrome://tracing loads it)",
    )
    group.add_argument(
        "--metrics",
        default="",
        metavar="FILE",
        help="write engine metrics as Prometheus text",
    )
    group.add_argument(
        "--manifest-dir",
        default="",
        metavar="DIR",
        help="write one provenance manifest per run into DIR",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="ttm-cas",
        description=(
            "Supply chain aware computer architecture: regenerate the "
            "ISCA '23 paper's tables and figures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="enumerate available experiments").set_defaults(
        handler=_cmd_list
    )
    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment", help="experiment id from 'list', or 'all'"
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw result as JSON instead of a table",
    )
    _add_obs_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)
    sub.add_parser("nodes", help="print the technology database").set_defaults(
        handler=_cmd_nodes
    )
    report_parser = sub.add_parser(
        "report", help="write the full evaluation as markdown"
    )
    report_parser.add_argument(
        "-o", "--output", default="", help="file to write (default: stdout)"
    )
    _add_obs_arguments(report_parser)
    report_parser.set_defaults(handler=_cmd_report)
    sub.add_parser(
        "lint", help="lint the technology database for consistency"
    ).set_defaults(handler=_cmd_lint)
    mc_parser = sub.add_parser(
        "mc", help="Monte Carlo supply-uncertainty study for one design"
    )
    mc_parser.add_argument(
        "--design", choices=MC_DESIGNS, default="a11", help="design under study"
    )
    mc_parser.add_argument(
        "--node",
        default="7nm",
        help="process node for --design a11 / zen2-monolithic",
    )
    mc_parser.add_argument(
        "--scenario",
        default="nominal",
        help="market scenario name the uncertainty is centered on",
    )
    mc_parser.add_argument(
        "--chips", type=float, default=1e7, help="nominal final-chip demand"
    )
    mc_parser.add_argument(
        "--samples", type=int, default=4096, help="Monte Carlo sample count"
    )
    mc_parser.add_argument(
        "--seed", type=int, default=0, help="study seed (reproducible)"
    )
    mc_parser.add_argument(
        "--scenarios",
        default="",
        metavar="SELECTOR",
        help=(
            "run the fused stress-scenario cube instead of the "
            "single-world study: 'all', a family ('fab-outage', "
            "'logistics', ...), an exact 'family:severity' name, or a "
            "comma-separated mix"
        ),
    )
    mc_parser.add_argument(
        "--correlated",
        action="store_true",
        help=(
            "draw from the correlated supply spec (Gaussian-copula "
            "rank correlation + Latin hypercube + antithetic pairs; "
            "needs an even --samples)"
        ),
    )
    from .engine.parallel import EXECUTORS

    mc_parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="serial",
        help=(
            "executor for the --scenarios study's scenario chunks "
            "('thread' maps them over at most one thread per CPU); the "
            "single-world study runs serial"
        ),
    )
    mc_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw result as JSON instead of a table",
    )
    _add_obs_arguments(mc_parser)
    mc_parser.set_defaults(handler=_cmd_mc)
    serve_parser = sub.add_parser(
        "serve",
        help="run the multi-tenant coalescing evaluation service",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port (0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help=(
            "largest fused batch; a request flushes at once when its "
            "group is idle and rides the next batch while one of its "
            "group runs (1 disables coalescing)"
        ),
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="admitted-request bound before 429 backpressure",
    )
    serve_parser.add_argument(
        "--deadline-ms",
        type=float,
        default=30_000.0,
        help="default per-request deadline before 504 (0 disables)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "worker processes behind the sticky router (0 = cpu count; "
            "1 runs today's single-process server unchanged)"
        ),
    )
    serve_parser.add_argument(
        "--batch-threads",
        type=int,
        default=1,
        help="threads executing fused batches inside each worker",
    )
    serve_parser.add_argument(
        "--ready-file",
        default="",
        metavar="FILE",
        help="write 'HOST PORT' to FILE once the socket is bound",
    )
    obs_group = serve_parser.add_argument_group("observability")
    obs_group.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help=(
            "enable distributed tracing and write one merged Chrome "
            "trace at shutdown (sharded: one process lane per worker)"
        ),
    )
    obs_group.add_argument(
        "--log-json",
        default="",
        metavar="FILE",
        help=(
            "append one JSON line per request (router and workers "
            "share the file); summarize with 'ttm-cas obs tail'"
        ),
    )
    obs_group.add_argument(
        "--slo-window-s",
        type=float,
        default=300.0,
        help="sliding window for SLO burn rates in /metrics and /debug/obs",
    )
    obs_group.add_argument(
        "--profile-hz",
        type=float,
        default=0.0,
        help=(
            "sampling-profiler rate (0 disables); attributes wall time "
            "to engine kernels under live load"
        ),
    )
    obs_group.add_argument(
        "--profile-out",
        default="",
        metavar="FILE",
        help=(
            "write collapsed stacks at shutdown (sharded: one "
            "FILE.workerN per worker)"
        ),
    )
    serve_parser.set_defaults(handler=_cmd_serve)
    obs_parser = sub.add_parser(
        "obs",
        help=(
            "summarize an obs artifact, or 'obs tail FILE' / "
            "'obs slo FILE' for request logs"
        ),
    )
    obs_parser.add_argument(
        "file",
        nargs="+",
        metavar="[tail|slo] FILE",
        help=(
            "a run manifest, trace JSON, Chrome-trace file, request "
            "log (JSON lines), or Prometheus-text metrics dump; "
            "'tail FILE' prints recent request-log lines, 'slo FILE' "
            "reports burn rates from a request log"
        ),
    )
    obs_parser.add_argument(
        "-n",
        "--lines",
        type=int,
        default=20,
        help="lines shown by 'obs tail' (default 20)",
    )
    obs_parser.add_argument(
        "--follow",
        action="store_true",
        help="'obs tail' keeps the file open and streams new records",
    )
    obs_parser.add_argument(
        "--window-s",
        type=float,
        default=0.0,
        help=(
            "'obs slo' window (seconds) ending at the newest record "
            "(0 = whole log)"
        ),
    )
    obs_parser.set_defaults(handler=_cmd_obs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``ttm-cas`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output was piped into a pager/head that closed early; not an
        # error from our side.
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
