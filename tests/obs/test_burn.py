"""Windowed SLO burn rates off the request ring: windows, breaches,
gauges, exemplars."""

import pytest

from repro.obs import metrics
from repro.obs.reqlog import RequestJournal, RequestRecord


@pytest.fixture(autouse=True)
def fresh_registry():
    metrics.registry().reset()
    yield


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _tracker(slo_ms=100.0, **kwargs):
    clock = FakeClock()
    ring = RequestJournal(slo_ms=slo_ms, clock=clock, **kwargs)
    return ring, clock


def _observe(ring, ms, ok=True, trace_id="t", op="alias"):
    ring.record(RequestRecord(op=op, trace_id=trace_id, unit=None, ms=ms,
                              ok=ok, error_kind=None if ok else "compile",
                              cache=None, ts=0.0))


def test_requires_at_least_one_window():
    with pytest.raises(ValueError):
        RequestJournal(windows=())


def test_burn_rate_is_breach_fraction_per_window():
    ring, clock = _tracker(slo_ms=100.0)
    for ms in (50.0, 50.0, 150.0, 250.0):
        _observe(ring, ms)
        clock.advance(1.0)
    snap = ring.publish()
    assert snap["5m"]["requests"] == 4
    assert snap["5m"]["breaches"] == 2
    assert snap["5m"]["burn_rate"] == pytest.approx(0.5)
    assert snap["1h"]["burn_rate"] == pytest.approx(0.5)


def test_error_counts_as_breach_regardless_of_latency():
    ring, _clock = _tracker(slo_ms=100.0)
    _observe(ring, 1.0, ok=False)
    snap = ring.publish()
    assert snap["5m"]["breaches"] == 1
    assert snap["5m"]["burn_rate"] == pytest.approx(1.0)


def test_old_events_age_out_of_the_fast_window():
    ring, clock = _tracker(slo_ms=100.0)
    _observe(ring, 500.0)  # breach
    clock.advance(301.0)   # past the 5m window, inside 1h
    _observe(ring, 10.0)
    snap = ring.publish()
    assert snap["5m"]["requests"] == 1
    assert snap["5m"]["burn_rate"] == pytest.approx(0.0)
    assert snap["1h"]["requests"] == 2
    assert snap["1h"]["burn_rate"] == pytest.approx(0.5)


def test_events_past_the_horizon_are_pruned_entirely():
    ring, clock = _tracker(slo_ms=100.0)
    _observe(ring, 500.0)
    clock.advance(3601.0)
    snap = ring.publish()
    assert snap["1h"]["requests"] == 0
    assert snap["1h"]["burn_rate"] is None
    assert snap["1h"]["quantiles_ms"]["p50"] is None


def test_refresh_sets_the_registry_gauges():
    ring, _clock = _tracker(slo_ms=100.0)
    _observe(ring, 500.0)
    registry = metrics.registry()
    # Recording alone publishes nothing: gauges refresh on read.
    assert registry.gauge("serve.slo.burn_rate_5m").value == 0.0
    ring.publish()
    assert registry.gauge("serve.slo.burn_rate_5m").value == 1.0
    assert registry.gauge("serve.slo.burn_rate_1h").value == 1.0
    assert registry.gauge("serve.request.ms.p50", op="alias").value == 500.0
    _observe(ring, 1.0)
    ring.publish()
    assert registry.gauge("serve.slo.burn_rate_5m").value == 0.5
    assert registry.gauge("serve.request.ms.p50", op="alias").value == 250.5


def test_snapshot_quantiles_and_slowest_exemplars():
    ring, clock = _tracker(slo_ms=1000.0)
    for i, ms in enumerate((10.0, 20.0, 30.0, 40.0, 500.0)):
        _observe(ring, ms, trace_id="trace-{}".format(i))
        clock.advance(0.5)
    snap = ring.publish()["5m"]
    assert snap["quantiles_ms"]["p50"] == pytest.approx(30.0)
    assert snap["quantiles_ms"]["p99"] <= 500.0
    slowest = snap["slowest"]
    assert len(slowest) == 3
    assert slowest[0] == {"trace": "trace-4", "ms": 500.0}
    assert [e["ms"] for e in slowest] == sorted(
        (e["ms"] for e in slowest), reverse=True)


def test_ring_is_bounded():
    ring, _clock = _tracker(slo_ms=100.0, size=8)
    for i in range(100):
        _observe(ring, float(i))
    assert ring.publish()["1h"]["requests"] == 8
    assert ring.total == 100
