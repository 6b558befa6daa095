"""``ttm-cas mc --scenarios`` end-to-end: the stress-suite report."""

import json

import pytest

from repro.cli import main


class TestMcScenariosCommand:
    def test_emits_cvar_and_exceedance_tables(self, capsys):
        code = main(
            [
                "mc",
                "--design", "a11",
                "--samples", "32",
                "--scenarios", "baseline,fab-outage:severe",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Scenario stress suite" in out
        assert "CVaR ladder" in out
        assert "exceedance vs the baseline world" in out
        for metric in ("ttm_weeks", "cas", "cost_per_chip_usd"):
            assert metric in out
        for row in ("baseline", "fab-outage:severe"):
            assert row in out

    def test_json_output_covers_every_scenario(self, capsys):
        code = main(
            [
                "mc",
                "--design", "a11",
                "--samples", "32",
                "--scenarios", "logistics",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        text = json.dumps(payload)
        for severity in ("mild", "moderate", "severe", "extreme"):
            assert f"logistics:{severity}" in text

    def test_unknown_selector_fails_cleanly(self, capsys):
        code = main(
            ["mc", "--design", "a11", "--scenarios", "meteor-strike"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown stress scenario" in captured.err


class TestMcExecutorFlag:
    def test_thread_json_equals_serial(self, capsys):
        outputs = []
        for executor in ("serial", "thread"):
            code = main(
                [
                    "mc",
                    "--design", "zen2",
                    "--samples", "32",
                    "--scenarios", "logistics,fab-outage:severe",
                    "--executor", executor,
                    "--json",
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_thread_without_scenarios_fails_cleanly(self, capsys):
        code = main(["mc", "--design", "a11", "--executor", "thread"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--scenarios" in captured.err

    def test_process_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["mc", "--design", "a11", "--executor", "process"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err

    def test_help_says_the_flag_applies_to_scenarios(self, capsys):
        with pytest.raises(SystemExit):
            main(["mc", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        executor_help = help_text[help_text.index("--executor"):]
        assert "{serial,thread}" in executor_help
        assert "--scenarios study" in executor_help
