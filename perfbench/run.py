"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones. Human-readable facts (host, per-layer
tables, failures) come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 when the run completed, whether or not its outputs were
correct, and non-zero when it could not run at all (e.g. no ``src/``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent)]

from perfbench import common  # noqa: E402

WORKLOADS = ("figures", "stress_study", "serve_mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))

    trace = bool(args.trace)
    if args.workload == "serve_mixed":
        from perfbench import serve_mixed

        result = serve_mixed.run(
            serve_mixed.Settings(args.seed, args.seconds, trace)
        )
    else:
        from perfbench import inprocess

        module = importlib.import_module(f"perfbench.{args.workload}")
        result = inprocess.run(
            module, inprocess.Settings(args.seed, args.seconds, trace)
        )

    layers = result.facts.pop("layers", None)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("facts " + json.dumps(result.facts, sort_keys=True))
    for line in layers or ():
        print("  " + line)
    for error in result.errors:
        print(f"FAILED: {error}")
    line = common.result_line(result, trace)
    for name, entry in json.loads(line)["metrics"].items():
        print(f"  {name:48s} {entry['value']:14.6f} {entry['unit']}")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
