"""The JSON-lines request logger and its readers/formatters."""

from __future__ import annotations

import json

from repro.obs.log import (
    LOG_SCHEMA,
    RequestLogger,
    format_record,
    read_request_log,
    tail_records,
)


class TestRequestLogger:
    def test_ring_only_without_path(self, tmp_path):
        logger = RequestLogger(role="worker")
        assert not logger.active
        logger.log({"endpoint": "evaluate", "status": 200})
        (record,) = logger.recent()
        assert record["schema"] == LOG_SCHEMA
        assert record["role"] == "worker"
        assert list(tmp_path.iterdir()) == []

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        logger = RequestLogger(path=str(path), role="router")
        assert logger.active
        logger.log({"endpoint": "evaluate", "status": 200, "latency_ms": 1.5})
        logger.log({"endpoint": "mc", "status": 429})
        logger.close()
        assert not logger.active
        records = read_request_log(str(path))
        assert [r["endpoint"] for r in records] == ["evaluate", "mc"]
        assert all(r["role"] == "router" for r in records)

    def test_lazy_open_creates_no_file_until_first_record(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        logger = RequestLogger(path=str(path))
        assert not path.exists()
        logger.log({"endpoint": "evaluate", "status": 200})
        assert path.exists()
        logger.close()

    def test_ring_is_bounded(self):
        logger = RequestLogger(ring_size=3)
        for i in range(10):
            logger.log({"endpoint": "evaluate", "status": 200, "i": i})
        assert [r["i"] for r in logger.recent()] == [7, 8, 9]
        assert [r["i"] for r in logger.recent(limit=2)] == [8, 9]

    def test_close_is_idempotent_and_stops_writes(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        logger = RequestLogger(path=str(path))
        logger.log({"endpoint": "evaluate", "status": 200})
        logger.close()
        logger.close()
        logger.log({"endpoint": "mc", "status": 200})  # ring only now
        assert len(read_request_log(str(path))) == 1
        assert len(logger.recent()) == 2


class TestReaders:
    def test_read_skips_blank_and_corrupt_lines(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            json.dumps({"endpoint": "evaluate", "status": 200})
            + "\n\nnot json\n"
            + '{"endpoint": "mc", "status":'  # torn final line
        )
        records = read_request_log(str(path))
        assert [r["endpoint"] for r in records] == ["evaluate"]

    def test_tail_orders_interleaved_records_by_timestamp(self):
        records = [
            {"ts_unix_ns": 3, "role": "router"},
            {"ts_unix_ns": 1, "role": "worker"},
            {"ts_unix_ns": 2, "role": "worker"},
        ]
        assert [r["ts_unix_ns"] for r in tail_records(records)] == [1, 2, 3]
        assert [r["ts_unix_ns"] for r in tail_records(records, limit=2)] == [
            2,
            3,
        ]
        assert tail_records(records, limit=0) == []

    def test_format_record_is_one_scannable_line(self):
        line = format_record(
            {
                "role": "worker",
                "endpoint": "evaluate",
                "status": 200,
                "latency_ms": 12.345,
                "batch_size": 4,
                "outcome": "ok",
                "request_id": "abc-1",
                "trace_id": "feed" * 8,
                "breakdown": {
                    "queue_ms": 1.0,
                    "batch_wait_ms": 2.0,
                    "compute_ms": 3.0,
                    "serialize_ms": 4.0,
                },
            }
        )
        assert "\n" not in line
        assert "evaluate" in line
        assert "batch=4" in line
        assert "q/w/c/s=1.0/2.0/3.0/4.0" in line
        assert "rid=abc-1" in line

    def test_format_record_tolerates_missing_fields(self):
        line = format_record({})
        assert "q/w/c/s=-/-/-/-" in line
        assert "rid=-" in line
