"""The one bounded LRU behind the schedule, plan, result and edge caches."""

from repro.utils.lru import LRU


def _filled(*keys, max_entries=2) -> LRU:
    lru = LRU(max_entries)
    for k in keys:
        lru.put(k, k.upper())
    return lru


def test_a_hit_refreshes_recency_so_eviction_is_lru_not_fifo():
    lru = _filled("a", "b")
    assert lru.get("a") == "A"
    lru.put("c", "C")  # evicts "b", the least recently used
    assert "a" in lru and "b" not in lru and "c" in lru
    assert (lru.hits, lru.misses) == (1, 0)


def test_a_miss_is_counted_and_stores_nothing():
    lru = _filled("a")
    assert lru.get("z") is None
    assert (lru.hits, lru.misses, len(lru)) == (0, 1, 1)


def test_touch_refreshes_without_counting_and_peek_does_neither():
    lru = _filled("a", "b")
    assert lru.touch("a") == "A"
    assert lru.peek("b") == "B"  # "b" stays the oldest
    lru.put("c", "C")
    assert "a" in lru and "b" not in lru
    assert lru.touch("z") is None and lru.peek("z") is None
    assert (lru.hits, lru.misses) == (0, 0)


def test_put_replaces_in_place_without_evicting():
    lru = _filled("a", "b")
    lru.put("a", "A2")  # "a" becomes the most recent
    assert len(lru) == 2 and lru.peek("a") == "A2"
    lru.put("c", "C")
    assert "b" not in lru and "a" in lru


def test_drop_pop_and_clear():
    lru = _filled("a", "b", "c", max_entries=4)
    assert lru.drop(lambda k: k in ("a", "c")) == 2
    assert lru.pop("b") == "B" and lru.pop("b") is None
    lru.put("d", "D")
    lru.get("d")
    lru.clear()
    assert len(lru) == 0 and lru.hits == 1  # counters outlive clear()
