"""Metric primitives and registry aggregation semantics."""

import threading

import pytest

from repro.obs import metrics


@pytest.fixture
def registry():
    """A private registry (the process-wide one stays untouched)."""
    return metrics.MetricsRegistry()


def test_counter_inc_and_reset(registry):
    c = registry.counter("q.total")
    c.inc()
    c.inc(4)
    assert c.value == 5
    c.reset()
    assert c.value == 0


def test_shared_counter_is_get_or_create(registry):
    a = registry.counter("hits", analysis="TypeDecl")
    b = registry.counter("hits", analysis="TypeDecl")
    c = registry.counter("hits", analysis="FieldTypeDecl")
    assert a is b
    assert a is not c


def test_child_counters_aggregate_in_snapshot(registry):
    a = registry.new_counter("hits", analysis="TypeDecl")
    b = registry.new_counter("hits", analysis="TypeDecl")
    a.inc(3)
    b.inc(4)
    (entry,) = registry.snapshot()
    assert entry["kind"] == "counter"
    assert entry["name"] == "hits"
    assert entry["labels"] == {"analysis": "TypeDecl"}
    assert entry["value"] == 7


def test_kind_conflict_is_rejected(registry):
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")


def test_gauge_set_and_last_write_wins(registry):
    old = registry.new_gauge("groups")
    new = registry.new_gauge("groups")
    old.set(10)
    new.set(3)
    (entry,) = registry.snapshot()
    assert entry["value"] == 3  # most recently allocated child wins


def test_histogram_buckets_and_merge(registry):
    h1 = registry.new_histogram("sizes", buckets=(1.0, 10.0))
    h2 = registry.new_histogram("sizes", buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 100.0):
        h1.observe(v)
    h2.observe(1.0)  # boundary lands in the first bucket (le semantics)
    (entry,) = registry.snapshot()
    assert entry["buckets"] == [1.0, 10.0]
    assert entry["bucket_counts"] == [2, 1, 1]
    assert entry["count"] == 4
    assert entry["sum"] == pytest.approx(106.5)
    assert entry["min"] == 0.5 and entry["max"] == 100.0


def test_registry_reset_zeroes_in_place(registry):
    c = registry.new_counter("hits")
    c.inc(9)
    registry.reset()
    # Owners keep their reference; the object itself is zeroed.
    assert c.value == 0
    c.inc()
    (entry,) = registry.snapshot()
    assert entry["value"] == 1


def test_snapshot_is_sorted_and_lists_names(registry):
    registry.counter("b.second")
    registry.counter("a.first", k="2")
    registry.counter("a.first", k="1")
    names = [(e["name"], e["labels"]) for e in registry.snapshot()]
    assert names == [("a.first", {"k": "1"}), ("a.first", {"k": "2"}),
                     ("b.second", {})]
    assert registry.names() == ["a.first", "b.second"]


def test_counter_inc_is_thread_safe(registry):
    c = registry.counter("contended")

    def work():
        for _ in range(10_000):
            c.inc()

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 40_000


def test_label_values_are_stringified(registry):
    c = registry.counter("labelled", open_world=False, n=3)
    (entry,) = registry.snapshot()
    assert entry["labels"] == {"open_world": "False", "n": "3"}
    assert c.labels == (("n", "3"), ("open_world", "False"))


@pytest.mark.parametrize("name", ["", "Upper", "1st", "a..b", "a.", "a-b",
                                  "a b", "_a", "a.B"])
def test_bad_metric_names_are_rejected(registry, name):
    with pytest.raises(ValueError, match="bad metric name"):
        registry.counter(name)


@pytest.mark.parametrize("first,second", [
    (("counter", "a.b"), ("gauge", "a_b")),
    (("counter", "x"), ("counter", "repro_x")),
    (("histogram", "lat"), ("counter", "lat.count")),
    (("counter", "lat.count"), ("histogram", "lat")),
    (("histogram", "lat"), ("gauge", "lat_bucket")),
    (("histogram", "lat"), ("histogram", "lat.sum")),
])
def test_colliding_exported_names_are_rejected(registry, first, second):
    getattr(registry, first[0])(first[1])
    with pytest.raises(ValueError, match="already written by"):
        getattr(registry, second[0])(second[1])
    assert registry.names() == [first[1]]


def test_bad_label_names_are_rejected(registry):
    with pytest.raises(ValueError, match="bad label name '1st'"):
        registry.counter("c", **{"1st": "x"})
    with pytest.raises(ValueError, match="bad label name 'le'"):
        registry.histogram("lat", le="x")
    with pytest.raises(ValueError, match="bad label name 'le'"):
        registry.new_histogram("lat", le="x")
    registry.gauge("g", le="x")  # only histograms reserve le
    assert registry.names() == ["g"]  # a refused series leaves no trace


def test_histogram_family_keeps_one_bucket_tuple(registry):
    registry.new_histogram("sizes", buckets=(1.0, 10.0))
    registry.new_histogram("sizes", buckets=(10, 1))  # same bounds
    with pytest.raises(ValueError, match="has buckets"):
        registry.new_histogram("sizes", buckets=(1.0, 5.0))
    with pytest.raises(ValueError, match="has buckets"):
        registry.histogram("sizes", buckets=(2.0,), op="other")
    registry.histogram("sizes", buckets=(1.0, 10.0), op="other").observe(3)
    assert [(e["labels"], e["buckets"], e["count"])
            for e in registry.snapshot()] == [({}, [1.0, 10.0], 0),
                                              ({"op": "other"}, [1.0, 10.0], 1)]


@pytest.mark.parametrize("buckets", [(1.0, 1.0), (1.0, float("inf")),
                                     (float("nan"),)])
def test_histogram_buckets_must_be_distinct_and_finite(registry, buckets):
    with pytest.raises(ValueError, match="distinct finite"):
        registry.histogram("lat", buckets=buckets)


def test_counter_refuses_to_decrease(registry):
    c = registry.counter("q.total")
    c.inc(2)
    for n in (-5, -0.5, float("nan")):
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(n)
    c.inc(0)
    assert c.value == 2


def test_snapshot_reads_each_histogram_under_its_lock(registry):
    h = registry.histogram("lat", buckets=(1.0,))
    snapshots = []
    reader = threading.Thread(
        target=lambda: snapshots.append(registry.snapshot()))
    with h._lock:  # an observe() half done: count bumped, bucket not yet
        h.count += 1
        reader.start()
        reader.join(0.2)
        h.bucket_counts[0] += 1
        h.sum += 0.5
    reader.join(10)
    assert not reader.is_alive()
    ((entry,),) = snapshots
    assert entry["count"] == sum(entry["bucket_counts"]) == 1
    assert entry["sum"] == 0.5
