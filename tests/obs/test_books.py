"""The reconciliation vocabulary: rows and span counts."""

import math

from repro.obs import Tracer
from repro.obs.books import row_failures, span_count_failures


class TestRows:
    def test_exact_rows(self):
        assert row_failures([("a", 3, 3), ("pair", (1, 2), (1, 2)), ("claim", True, True)]) == []
        fails = row_failures([("a", 3, 4), ("claim", False, True)])
        assert len(fails) == 2
        assert fails[0].startswith("a:") and "3" in fails[0] and "4" in fails[0]

    def test_tolerance(self):
        assert row_failures([("t", 1.0, 1.0 + 1e-10, 1e-9)]) == []
        assert len(row_failures([("t", 1.0, 1.1, 1e-9)])) == 1

    def test_nan_never_holds(self):
        assert len(row_failures([("t", math.nan, 1.0, 1e-9), ("e", math.nan, math.nan)])) == 2


class TestSpanCounts:
    def _tracer(self):
        tr = Tracer(enabled=True)
        for name, cat in (("a", "x"), ("a", "x"), ("a", "y"), ("b", "x")):
            tr.span(0, name, cat, 0.0, 1.0)
        return tr

    def test_counts_by_name(self):
        tr = self._tracer()
        assert span_count_failures(tr, {"a": 3, "b": 1, "c": 0}) == []
        assert len(span_count_failures(tr, {"a": 2, "c": 1})) == 2

    def test_category_filter(self):
        assert span_count_failures(self._tracer(), {"a": 2, "b": 1}, cat="x") == []

    def test_no_tracer_no_failures(self):
        assert span_count_failures(None, {"a": 1}) == []
        assert span_count_failures(Tracer(enabled=False), {"a": 1}) == []
