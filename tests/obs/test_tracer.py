"""Unit tests: the Tracer record and the two exporters."""

import copy
import dataclasses
import json
import pickle

import pytest

from repro.obs import (
    CAT_COMM,
    CAT_STAGE,
    Span,
    Tracer,
    chrome_trace,
    stage_report,
    write_chrome_trace,
)


class TestRecording:
    def test_disabled_tracer_records_no_detail(self):
        tr = Tracer(enabled=False)
        tr.span(0, "msg->1", CAT_COMM, 0.0, 1.0, nbytes=64)
        tr.count("messages")
        tr.link(0, 1, 64)
        assert tr.spans == []
        assert tr.counters == {}
        assert tr.link_bytes == {}

    def test_stage_spans_record_even_when_disabled(self):
        # FrameTiming is derived from stage spans, so they bypass the
        # enabled gate — this is the contract the pipeline relies on.
        tr = Tracer(enabled=False)
        tr.stage(0, "io", 0.0, 2.0)
        tr.stage(1, "io", 0.0, 3.0)
        assert len(tr.spans) == 2
        assert tr.stage_maxima() == {"io": 3.0}

    def test_enabled_tracer_records_everything(self):
        tr = Tracer()
        tr.span(2, "msg->0", CAT_COMM, 1.0, 1.5, nbytes=128)
        tr.count("messages")
        tr.count("bytes", 128)
        tr.link(1, 0, 128)
        assert len(tr.spans) == 1
        s = tr.spans[0]
        assert (s.rank, s.cat, s.dur) == (2, CAT_COMM, 0.5)
        assert s.args == {"nbytes": 128}
        assert tr.counter("messages") == 1
        assert tr.counter("bytes") == 128
        assert tr.link_bytes == {(1, 0): 128}

    def test_begin_frame_partitions_spans(self):
        tr = Tracer()
        assert tr.begin_frame() == 0  # nothing recorded yet: stay at 0
        tr.stage(0, "io", 0.0, 1.0)
        assert tr.begin_frame() == 1
        tr.stage(0, "io", 0.0, 5.0)
        assert [s.frame for s in tr.spans] == [0, 1]
        assert tr.stage_maxima(frame=0) == {"io": 1.0}
        assert tr.stage_maxima(frame=1) == {"io": 5.0}
        assert tr.stage_maxima() == {"io": 5.0}  # defaults to current

    def test_stage_durations_by_rank(self):
        tr = Tracer()
        tr.stage(0, "render", 1.0, 3.0)
        tr.stage(1, "render", 1.0, 2.5)
        assert tr.stage_durations() == {"render": {0: 2.0, 1: 1.5}}


class TestChromeExport:
    def _tracer(self):
        tr = Tracer()
        tr.stage(0, "io", 0.0, 1.0)
        tr.stage(1, "io", 0.0, 1.25)
        tr.span(0, "msg->1", CAT_COMM, 0.5, 0.75, nbytes=16)
        tr.count("messages")
        return tr

    def test_events_are_valid_trace_event_format(self):
        doc = chrome_trace(self._tracer())
        assert isinstance(doc["traceEvents"], list)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 3
        for e in xs:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert e["dur"] >= 0
        # Simulated seconds map to trace microseconds.
        io0 = next(e for e in xs if e["name"] == "io" and e["tid"] == 0)
        assert io0["dur"] == 1e6

    def test_metadata_names_lanes(self):
        doc = chrome_trace(self._tracer())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e.get("tid")) for e in meta}
        assert ("thread_name", 0) in names and ("thread_name", 1) in names
        assert any(e["name"] == "process_name" for e in meta)

    def test_written_file_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._tracer(), str(path))
        doc = json.loads(path.read_text())
        assert doc["otherData"]["counters"] == {"messages": 1}


class TestStageReport:
    def test_report_has_stage_rows_and_percentages(self):
        tr = Tracer()
        for rank, t in enumerate((1.0, 2.0, 3.0)):
            tr.stage(rank, "io", 0.0, t)
            tr.stage(rank, "render", t, t + 1.0)
            tr.stage(rank, "composite", t + 1.0, t + 1.1)
        text = stage_report(tr)
        assert "io" in text and "render" in text and "composite" in text
        # max io = 3.0, max render = 1.0, max composite ~ 0.1.
        assert "73.2%" in text  # 3.0 / 4.1
        assert "rank" in text  # per-rank table present for small p

    def test_empty_tracer_reports_gracefully(self):
        assert "no stage spans" in stage_report(Tracer())

    def test_span_dataclass_duration(self):
        assert Span(0, "x", CAT_STAGE, 1.0, 4.0).dur == 3.0


class TestSpanLayout:
    """A span is a frozen slotted dataclass whose arguments live in one
    flat tuple; ``args`` rebuilds the dict every reader sees."""

    def _span(self, **args):
        tr = Tracer()
        tr.span(3, "msg->1", CAT_COMM, 0.5, 0.75, **args)
        return tr.spans[0]

    def test_args_round_trip_in_key_order(self):
        args = {"nbytes": 64, "hops": 2, "dst": 1, "req": "browse0/7", "x": None}
        s = self._span(**args)
        assert s.args == args
        assert list(s.args) == list(args)

    def test_args_none_without_arguments(self):
        assert self._span().args is None
        assert Span(0, "io", CAT_STAGE, 0.0, 1.0).args is None

    def test_args_is_read_only(self):
        s = self._span(nbytes=8)
        s.args["nbytes"] = 9  # a fresh dict: the span is unchanged
        assert s.args == {"nbytes": 8}
        with pytest.raises((AttributeError, TypeError)):
            s.args = {}

    def test_no_instance_dict(self):
        s = self._span(nbytes=8)
        assert not hasattr(s, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.t1 = 2.0

    def test_field_list(self):
        assert [f.name for f in dataclasses.fields(Span)] == [
            "rank", "name", "cat", "t0", "t1", "frame", "_kv",
        ]

    def test_replace_keeps_args(self):
        s = self._span(nbytes=8, hops=1)
        moved = dataclasses.replace(s, t1=2.0, frame=4)
        assert (moved.t1, moved.frame, moved.args) == (2.0, 4, {"nbytes": 8, "hops": 1})
        assert dataclasses.replace(moved, t1=s.t1, frame=s.frame) == s

    @pytest.mark.parametrize(
        "clone",
        [pickle.loads, copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_pickle_and_deepcopy_round_trip(self, clone):
        s = self._span(nbytes=8, hops=1, req="orbit0/3")
        blob = pickle.dumps(s) if clone is pickle.loads else s
        back = clone(blob)
        assert back == s and back is not s
        assert back.args == s.args and back.dur == s.dur
