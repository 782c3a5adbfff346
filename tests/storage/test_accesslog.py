"""Access logging and block maps (the Fig. 9 machinery)."""

import pytest

from repro.storage.accesslog import Access, AccessLog, BlockMap
from repro.utils.errors import StorageError


class TestAccessLog:
    def test_record_and_summarize(self):
        log = AccessLog()
        log.record(0, 100)
        log.record(200, 300)
        log.record(0, 64, kind="meta")
        assert log.count == 2
        assert log.total_bytes == 400
        assert log.mean_access_bytes == 200
        assert len(log.meta_accesses()) == 1

    def test_density(self):
        log = AccessLog()
        log.record(0, 1000)
        assert log.density(500) == 0.5
        assert AccessLog().density(500) == 0.0

    def test_invalid_access_rejected(self):
        with pytest.raises(StorageError):
            Access(-1, 10)

    def test_extend_and_clear(self):
        a, b = AccessLog(), AccessLog()
        a.record(0, 1)
        b.record(1, 1)
        a.extend(b)
        assert a.count == 2
        a.clear()
        assert a.count == 0

    def test_summary_is_readable(self):
        log = AccessLog()
        log.record(0, 5_000_000)
        assert "1 accesses" in log.summary()


class TestBlockMap:
    def test_marks_touched_blocks(self):
        log = AccessLog()
        log.record(0, 100)  # first block
        log.record(900, 100)  # last block
        bm = BlockMap(1000, nblocks=10).mark(log)
        assert bm.touched[0] and bm.touched[9]
        assert bm.fraction_touched == pytest.approx(0.2)

    def test_spanning_access_marks_range(self):
        log = AccessLog()
        log.record(100, 500)
        bm = BlockMap(1000, nblocks=10).mark(log)
        assert list(bm.touched) == [False, True, True, True, True, True] + [False] * 4

    def test_render_shows_dark_and_light(self):
        log = AccessLog()
        log.record(0, 500)
        bm = BlockMap(1000, nblocks=64).mark(log)
        text = bm.render(width=64)
        assert "#" in text and "." in text

    def test_untouched_map(self):
        bm = BlockMap(1000, nblocks=8)
        assert bm.fraction_touched == 0.0

    def test_invalid_args(self):
        with pytest.raises(StorageError):
            BlockMap(0, 10)
