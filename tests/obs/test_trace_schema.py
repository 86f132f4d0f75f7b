"""Strict Chrome trace-event schema validation."""

import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.obs.trace_schema import (
    validate_chrome_trace,
    validate_trace_file,
)


def doc(*events):
    return {"traceEvents": list(events)}


def complete(**overrides):
    event = {
        "ph": "X",
        "name": "op",
        "ts": 0,
        "dur": 5,
        "pid": 0,
        "tid": 1,
        "args": {},
    }
    event.update(overrides)
    return event


class TestDocumentShape:
    def test_non_object_rejected(self):
        assert validate_chrome_trace([]) == [
            "trace document is not a JSON object"
        ]

    def test_missing_trace_events_rejected(self):
        assert validate_chrome_trace({}) == [
            "trace document has no traceEvents array"
        ]

    def test_valid_document_passes(self):
        assert validate_chrome_trace(doc(complete())) == []


class TestEventChecks:
    def test_unknown_phase(self):
        errors = validate_chrome_trace(doc(complete(ph="Z")))
        assert "unknown or missing phase" in errors[0]

    def test_complete_event_needs_duration_and_tid(self):
        errors = validate_chrome_trace(doc(complete(dur=None)))
        assert any("dur" in e for e in errors)
        errors = validate_chrome_trace(doc(complete(dur=-1)))
        assert any("dur" in e for e in errors)
        no_tid = complete()
        del no_tid["tid"]
        errors = validate_chrome_trace(doc(no_tid))
        assert any("tid" in e for e in errors)

    def test_negative_or_missing_ts(self):
        errors = validate_chrome_trace(doc(complete(ts=-5)))
        assert any("ts" in e for e in errors)

    def test_boolean_is_not_numeric(self):
        errors = validate_chrome_trace(doc(complete(ts=True)))
        assert any("ts" in e for e in errors)

    def test_instant_needs_scope(self):
        event = {"ph": "i", "name": "t", "ts": 0, "pid": 0, "s": "t"}
        assert validate_chrome_trace(doc(event)) == []
        bad = dict(event, s="x")
        errors = validate_chrome_trace(doc(bad))
        assert any("scope" in e for e in errors)

    def test_counter_needs_numeric_args(self):
        event = {
            "ph": "C",
            "name": "m",
            "ts": 0,
            "pid": 0,
            "args": {"value": 3},
        }
        assert validate_chrome_trace(doc(event)) == []
        errors = validate_chrome_trace(doc(dict(event, args={})))
        assert any("value args" in e for e in errors)
        errors = validate_chrome_trace(
            doc(dict(event, args={"value": "high"}))
        )
        assert any("numeric" in e for e in errors)

    def test_metadata_skips_timestamp_checks(self):
        event = {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "args": {"name": "sim"},
        }
        assert validate_chrome_trace(doc(event)) == []

    def test_errors_carry_event_index(self):
        errors = validate_chrome_trace(doc(complete(), complete(ts=-1)))
        assert errors[0].startswith("traceEvents[1]")


class TestFileValidation:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc(complete())))
        assert validate_trace_file(str(path)) == []

    def test_unparsable_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text("{not json")
        errors = validate_trace_file(str(path))
        assert len(errors) == 1
        assert "cannot load" in errors[0]

    def test_module_entry_runs_without_warnings(self, tmp_path):
        # The validation command CI runs: re-executing a module the
        # package already imported would raise runpy's RuntimeWarning.
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc(complete())))
        src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_dir, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::RuntimeWarning",
                "-m",
                "repro.obs.trace_schema",
                str(path),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "valid Chrome trace-event JSON" in proc.stdout

    def test_missing_file(self, tmp_path):
        errors = validate_trace_file(str(tmp_path / "absent.json"))
        assert len(errors) == 1
