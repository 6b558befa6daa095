"""Tests for run manifests (provenance records)."""

import pytest

from repro.errors import InvalidParameterError
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    TIMING_FIELDS,
    environment_fingerprint,
    git_revision,
    result_digest,
)


def make_manifest(**overrides) -> RunManifest:
    fields = dict(
        kind="mc-study",
        key="mc-a11",
        created_unix=1_700_000_000.0,
        duration_seconds=1.5,
        config={"samples": 512},
        seeds={"seed": 7},
        metrics={"engine_kernel_invocations_total": 3.0},
        environment={"python": "3.12"},
        git_sha="abc123",
        result_digest="deadbeef",
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestRunManifest:
    def test_jsonable_is_schema_tagged(self):
        data = make_manifest().to_jsonable()
        assert data["schema"] == MANIFEST_SCHEMA
        assert data["seeds"] == {"seed": 7}
        assert data["config"] == {"samples": 512}

    def test_write_read_round_trip(self, tmp_path):
        manifest = make_manifest()
        path = tmp_path / "run.manifest.json"
        manifest.write(str(path))
        assert RunManifest.read(str(path)) == manifest

    def test_read_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something-else"}')
        with pytest.raises(InvalidParameterError, match="not a run manifest"):
            RunManifest.read(str(path))

    def test_equal_except_timing_ignores_only_timing(self):
        base = make_manifest()
        retimed = make_manifest(
            created_unix=1_800_000_000.0, duration_seconds=9.0
        )
        reseeded = make_manifest(seeds={"seed": 8})
        assert base.equal_except_timing(retimed)
        assert not base.equal_except_timing(reseeded)

    def test_without_timing_drops_the_timing_fields(self):
        data = make_manifest().without_timing()
        for name in TIMING_FIELDS:
            assert name not in data
        assert data["result_digest"] == "deadbeef"


class TestProvenanceHelpers:
    def test_git_revision_in_this_checkout(self):
        sha = git_revision()
        assert sha is None or (len(sha) == 40 and set(sha) <= set(
            "0123456789abcdef"
        ))

    def test_git_revision_outside_a_checkout(self, tmp_path):
        assert git_revision(cwd=str(tmp_path)) is None

    def test_environment_fingerprint_names_the_stack(self):
        fingerprint = environment_fingerprint()
        assert set(fingerprint) == {"python", "numpy", "repro"}

    def test_result_digest_is_deterministic_and_content_sensitive(self):
        first = result_digest({"metric": 1.0})
        again = result_digest({"metric": 1.0})
        other = result_digest({"metric": 2.0})
        assert first == again
        assert first != other
        assert len(first) == 64
