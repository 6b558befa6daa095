"""Each workload at a tiny size: every metric printed, traced self times
adding up, and corrupted outputs counted as failures."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import common, figures, inprocess, serve_mixed, stress_study
from perfbench.tracing import ROOT_LAYER, SpanRecorder

SPEC = common.load_spec()


def _names(section):
    return [entry["name"] for entry in SPEC[section]]


def _printed(result, trace):
    line = json.loads(common.result_line(result, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line


def _tiny_inprocess(module, trace, corrupt=None, seconds=0.5):
    settings = inprocess.Settings(
        seed=3, seconds=seconds, trace=trace, corrupt=corrupt
    )
    return inprocess.run(module, settings)


def _tiny_serve(trace, corrupt=None):
    settings = serve_mixed.Settings(
        seed=3, seconds=2.0, trace=trace, corrupt=corrupt
    )
    return serve_mixed.run(settings)


@pytest.mark.parametrize("module", [figures, stress_study], ids=lambda m: m.NAME)
@pytest.mark.parametrize("trace", [False, True])
def test_inprocess_workload_prints_every_metric(module, trace):
    result = _tiny_inprocess(module, trace)
    line = _printed(result, trace)
    section = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == _names(section)
    assert line["correct"] and line["failed"] == 0
    for entry in SPEC[section]:
        assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    else:
        assert line["metrics"]["cold.first_pass_ms"]["value"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_serve_workload_prints_every_metric(trace):
    result = _tiny_serve(trace)
    line = _printed(result, trace)
    section = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == _names(section)
    assert line["correct"], result.errors
    if trace:
        metrics = line["metrics"]
        parts = sum(
            metrics[f"serve.evaluate.{layer}"]["value"]
            for layer in serve_mixed.LAYERS
        )
        assert parts > metrics["serve.evaluate.queue_ms"]["value"] > 0
        assert metrics["client.sent"]["value"] == result.attempted


def test_self_times_and_other_sum_to_the_total():
    recorder = SpanRecorder()
    with recorder.span(ROOT_LAYER):
        inner = recorder.wrap("b", lambda: sum(range(1000)))
        outer = recorder.wrap("a", lambda: [inner() for _ in range(3)])
        outer()
        inner()
    totals = recorder.layer_totals()
    assert totals["b"].calls == 4 and totals["a"].calls == 1
    assert sum(t.self_ns for t in totals.values()) == recorder.root_total_ns()
    assert totals["a"].inclusive_ns >= totals["a"].self_ns


def test_traced_stress_layers_sum_to_the_traced_total():
    result = _tiny_inprocess(stress_study, trace=True)
    metrics = result.metrics
    assert metrics["engine.scenario.cells"] == 29 * 3 * stress_study.SAMPLES
    assert metrics["montecarlo.results.summary.calls"] == 29 * 3 * 3
    table = result.facts["layers"]
    self_ms = [float(row.split()[3]) for row in table[1:-1]]
    total = float(table[-1].split()[-2])
    assert sum(self_ms) == pytest.approx(total, rel=1e-3)
    assert total == pytest.approx(metrics["trace.total_ms"], rel=1e-3)


def _swap_outputs(outputs):
    outputs = dict(outputs)
    outputs["fig3"] = outputs["fig4"]
    return outputs


def _drop_scenario(result):
    return dataclasses.replace(result, scenarios=result.scenarios[:-1])


def _nudge_one_summary(result):
    scenario, design = result.scenarios[0], result.designs[0]
    cell = result.cell(scenario, design)
    summary = cell.summaries["ttm_weeks"]
    summaries = dict(
        cell.summaries,
        ttm_weeks=dataclasses.replace(summary, mean=summary.mean * (1 + 1e-6)),
    )
    results = {name: dict(per) for name, per in result.results.items()}
    results[scenario][design] = dataclasses.replace(cell, summaries=summaries)
    return dataclasses.replace(result, results=results)


def _corrupt_checked_reply(phase):
    for request in phase.schedule:
        if request.check:
            phase.replies[request.index].body += b" "
            return


@pytest.mark.parametrize(
    "run",
    [
        lambda: _tiny_inprocess(figures, False, corrupt=_swap_outputs),
        lambda: _tiny_inprocess(stress_study, False, corrupt=_drop_scenario),
        lambda: _tiny_serve(False, corrupt=_corrupt_checked_reply),
    ],
    ids=["figures", "stress_study", "serve_mixed"],
)
def test_corrupted_output_raises_error_rate(run):
    result = run()
    line = json.loads(common.result_line(result, trace=False))
    assert not line["correct"]
    assert 0 < line["failed"] <= line["attempted"]


def test_wrong_value_on_a_timed_stress_pass_fails():
    # Long enough to reach timed passes run with the reference seed.
    result = _tiny_inprocess(
        stress_study, False, corrupt=_nudge_one_summary, seconds=4.0
    )
    assert result.facts["passes"]["untraced"] > stress_study.REFERENCE_EVERY
    assert result.failed > 0
    assert all("reference.results.baseline" in e for e in result.errors)


def test_stale_stress_output_fails():
    state = stress_study.prepare(3)
    reference = stress_study.run_pass(state, 0, None)
    other = stress_study.run_pass(state, 1, None)
    assert stress_study.check(state, 0, reference) == []
    assert stress_study.check(state, 1, other) == []
    # The reference pass's output returned for another seed, and the
    # other way round.
    assert stress_study.check(state, 1, reference)
    assert stress_study.check(state, stress_study.REFERENCE_EVERY, other)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        common.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
