"""A SIGTERM that lands right after readiness still drains the service.

``ready`` is where the CLI prints ``serving on`` and writes
``--ready-file``, so a supervisor may signal the process the moment it
runs. Each case boots a real service in a fresh interpreter whose
``ready`` callback sends SIGTERM to its own process: the service must
drain and return (exit 0).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import os, signal
from repro.serve import {service}, {config}

def ready(host, port):
    print("ready", flush=True)
    os.kill(os.getpid(), signal.SIGTERM)

{service}({config}({options})).run_forever(ready=ready)
print("drained", flush=True)
"""


@pytest.mark.parametrize(
    "service, config, options",
    [
        ("EvalServer", "ServerConfig", ""),
        ("ShardSupervisor", "ShardConfig", "workers=2"),
    ],
    ids=["server", "shard"],
)
def test_sigterm_from_ready_callback_drains(service, config, options):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    code = SCRIPT.format(service=service, config=config, options=options)
    finished = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert finished.returncode == 0, finished.stderr
    assert finished.stdout.split() == ["ready", "drained"]
    assert "leaked" not in finished.stderr
