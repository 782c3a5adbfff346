"""The farm's per-request records: slotted layout, one rid, bounded footprint.

A farm run keeps one :class:`FrameRequest`, one :class:`RequestRecord`
and about 2.6 spans per arrival alive until its result is dropped, so
their layout is what a capacity study's memory is made of.  The field
lists are pinned literally: the farm contract digests
``dataclasses.fields(RequestRecord)`` and ``astuple(request)``, and the
rid cache must stay outside them.
"""

import copy
import dataclasses
import gc
import pickle
import tracemalloc

import pytest

from repro.farm import default_scenario
from repro.farm.request import FrameRequest, RequestRecord

REQUEST_FIELDS = [
    "session", "seq", "dataset", "step", "azimuth_deg", "elevation_deg",
    "variable", "cores", "io_mode", "region", "tier", "frames", "orbit_deg",
    "prefetch_depth", "levels", "cancel_after_s",
]
RECORD_FIELDS = [
    "request", "t_arrive", "t_hold", "t_serve", "t_done", "nodes", "interval",
    "cache_hit", "promoted", "edge_hit", "coalesced", "rejected", "payload",
    "reserved_start", "retries", "t_first_fail", "t_first_pixel",
    "levels_total", "levels_done", "ladder_cancelled", "coarse_hit",
]

#: Retained bytes per arrival of the default scenario at 2x scale (480
#: arrivals), measured with tracemalloc on CPython 3.11: 984 B with
#: slotted records, flat span arguments and one rid per request; the
#: dict-backed layout they replaced retained 1,594 B.  The bound is
#: the measurement plus 15 %.
MAX_BYTES_PER_ARRIVAL = 1130


def _request(**kw):
    return FrameRequest(
        session="browse0", seq=17, dataset="vh1", step=3,
        azimuth_deg=30.0, elevation_deg=10.0, **kw,
    )


class TestLayout:
    def test_field_lists_unchanged(self):
        assert [f.name for f in dataclasses.fields(FrameRequest)] == REQUEST_FIELDS
        assert [f.name for f in dataclasses.fields(RequestRecord)] == RECORD_FIELDS

    def test_no_instance_dict(self):
        request = _request()
        record = RequestRecord(request, t_arrive=0.0)
        assert not hasattr(request, "__dict__")
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_rid_is_one_string_per_request(self):
        request = _request()
        assert request.rid == "browse0/17"
        assert request.rid is request.rid
        assert dataclasses.astuple(request)[:2] == ("browse0", 17)
        assert len(dataclasses.astuple(request)) == len(REQUEST_FIELDS)

    def test_rid_outside_equality_and_hash(self):
        a, b = _request(), _request()
        a.rid  # cache one side only
        assert a == b and hash(a) == hash(b)
        assert a != dataclasses.replace(b, seq=18)
        assert dataclasses.replace(a, seq=18).rid == "browse0/18"

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda r: pickle.loads(pickle.dumps(r))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_value_and_rid(self, clone):
        request = _request(cores=512)
        request.rid
        back = clone(request)
        assert back == request and back.rid == "browse0/17"
        record = clone(RequestRecord(request, t_arrive=1.5, nodes=4))
        assert (record.request, record.t_arrive, record.nodes) == (request, 1.5, 4)

    def test_spans_share_the_request_rid(self):
        result = default_scenario().build().run()
        rids = {r.request.rid: r.request.rid for r in result.records}
        spans = [s for s in result.trace.spans if s.args and "req" in s.args]
        assert spans
        assert all(s.args["req"] is rids[s.args["req"]] for s in spans)


def _scaled(scale: int):
    base = default_scenario(result_cache_entries=16)
    sessions = tuple(
        dataclasses.replace(s, requests=s.requests * scale) for s in base.sessions
    )
    return dataclasses.replace(base, sessions=sessions)


class TestFootprint:
    def test_retained_bytes_per_arrival(self):
        _scaled(1).run()  # warm module-level caches outside the measurement
        scenario = _scaled(2)
        arrivals = sum(s.requests for s in scenario.sessions)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = scenario.run()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result.arrivals == arrivals
        per_arrival = retained / arrivals
        assert per_arrival <= MAX_BYTES_PER_ARRIVAL, (
            f"{per_arrival:.0f} B retained per arrival > {MAX_BYTES_PER_ARRIVAL} B"
        )


def test_fields_refuse_assignment():
    request = _request()
    for name in REQUEST_FIELDS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(request, name, None)
    assert request == _request() and request.rid == "browse0/17"
