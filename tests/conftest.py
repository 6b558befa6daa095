"""Shared fixtures for the test suite.

Session-scoped fixtures hold the (immutable) default database and models
so hundreds of tests don't rebuild them; all of these objects are frozen
dataclasses, so sharing is safe.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import CostModel, TTMModel
from repro.market.foundry import Foundry
from repro.technology.database import TechnologyDatabase


@pytest.fixture(scope="session")
def db() -> TechnologyDatabase:
    """The default twelve-node technology database."""
    return TechnologyDatabase.default()


@pytest.fixture(scope="session")
def foundry(db: TechnologyDatabase) -> Foundry:
    """A nominal foundry (full capacity, empty queues)."""
    return Foundry.nominal(db)


@pytest.fixture(scope="session")
def model(foundry: Foundry) -> TTMModel:
    """The default TTM model under nominal conditions."""
    return TTMModel(foundry=foundry)


@pytest.fixture(scope="session")
def cost_model(db: TechnologyDatabase) -> CostModel:
    """The default cost model."""
    return CostModel(technology=db)


@pytest.fixture(scope="session")
def fresh_python():
    """Run Python source in a fresh interpreter with ``src`` on its path:
    returns its stdout, and fails the test on a non-zero exit."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )

    def run(code: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
