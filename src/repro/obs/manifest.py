"""Run manifests: per-run provenance written alongside outputs.

A :class:`RunManifest` records everything needed to trust — and to
re-run — one experiment or Monte Carlo study: the configuration and
seeds, the sampling/factor specs, the git revision (when the working
tree is a checkout), library versions, a metrics delta attributing
engine activity (cache hits, kernel calls, fallbacks) to the run, the
wall duration, and a SHA-256 digest of the structured result. Re-running
with the recorded seeds must reproduce the digest bit-for-bit; the
determinism suite (``tests/obs/test_manifest_determinism.py``) pins
that two identically-seeded runs differ only in the
:data:`TIMING_FIELDS`.

Manifests are plain JSON with a ``schema`` tag, so ``ttm-cas obs`` (and
any downstream tooling) can sniff and summarize them.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..errors import InvalidParameterError

#: Schema marker for manifest JSON files.
MANIFEST_SCHEMA = "repro.obs/run-manifest@1"

#: Fields that legitimately differ between two identical seeded runs.
TIMING_FIELDS = ("created_unix", "duration_seconds")


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The checkout's HEAD SHA, or None outside a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    sha = completed.stdout.strip()
    return sha or None


def environment_fingerprint() -> Dict[str, str]:
    """Library and interpreter versions."""
    import numpy

    from .. import __version__

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": __version__,
    }


def result_digest(result: Any) -> str:
    """SHA-256 of the result's canonical JSON export.

    Deterministic results (fixed seeds) produce a fixed digest, which is
    how a manifest proves its seeds reproduce the run bit-for-bit.
    """
    from ..analysis.export import to_json

    return hashlib.sha256(to_json(result).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance for one run; see the module docstring.

    ``metrics`` is the run's metrics *delta* (what the run itself did),
    not the process-cumulative registry state — two identical runs in
    one process therefore record identical metrics.
    """

    kind: str
    key: str
    created_unix: float
    duration_seconds: float
    config: Mapping[str, Any] = field(default_factory=dict)
    seeds: Mapping[str, int] = field(default_factory=dict)
    metrics: Mapping[str, float] = field(default_factory=dict)
    environment: Mapping[str, str] = field(default_factory=dict)
    git_sha: Optional[str] = None
    result_digest: Optional[str] = None
    schema: str = MANIFEST_SCHEMA

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", dict(self.config))
        object.__setattr__(self, "seeds", dict(self.seeds))
        object.__setattr__(self, "metrics", dict(self.metrics))
        object.__setattr__(self, "environment", dict(self.environment))

    def to_jsonable(self) -> Dict[str, Any]:
        from ..analysis.export import to_jsonable

        return {
            "schema": self.schema,
            "kind": self.kind,
            "key": self.key,
            "created_unix": self.created_unix,
            "duration_seconds": self.duration_seconds,
            "config": to_jsonable(dict(self.config)),
            "seeds": to_jsonable(dict(self.seeds)),
            "metrics": to_jsonable(dict(self.metrics)),
            "environment": dict(self.environment),
            "git_sha": self.git_sha,
            "result_digest": self.result_digest,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_jsonable(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        """Write the manifest as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def without_timing(self) -> Dict[str, Any]:
        """The JSON form minus :data:`TIMING_FIELDS` (for comparisons)."""
        data = self.to_jsonable()
        for name in TIMING_FIELDS:
            data.pop(name, None)
        return data

    def equal_except_timing(self, other: "RunManifest") -> bool:
        """True when the runs match in everything but when/how long."""
        return self.without_timing() == other.without_timing()

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "RunManifest":
        if data.get("schema") != MANIFEST_SCHEMA:
            raise InvalidParameterError(
                f"not a run manifest (schema {data.get('schema')!r}, "
                f"expected {MANIFEST_SCHEMA!r})"
            )
        return cls(
            kind=data["kind"],
            key=data["key"],
            created_unix=float(data["created_unix"]),
            duration_seconds=float(data["duration_seconds"]),
            config=dict(data.get("config", {})),
            seeds=dict(data.get("seeds", {})),
            metrics=dict(data.get("metrics", {})),
            environment=dict(data.get("environment", {})),
            git_sha=data.get("git_sha"),
            result_digest=data.get("result_digest"),
        )

    @classmethod
    def read(cls, path: str) -> "RunManifest":
        """Load a manifest previously written with :meth:`write`."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_jsonable(json.load(handle))


__all__ = [
    "MANIFEST_SCHEMA",
    "RunManifest",
    "TIMING_FIELDS",
    "environment_fingerprint",
    "git_revision",
    "result_digest",
]
