"""Performance benchmark for the ttm-cas reproduction.

Drives three workloads from outside the program — ``figures`` and
``stress_study`` through public functions in-process, ``serve_mixed``
over real HTTP against a ``ttm-cas serve`` subprocess — and prints the
metrics listed in ``BENCHMARK.json``. Entry point: ``perfbench/run.py``;
see ``perfbench/README.md`` for what each metric means per workload.
"""
