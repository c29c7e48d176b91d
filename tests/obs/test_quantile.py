"""The one exact quantile helper, and the request ring's per-op quantiles.

Every stream is judged against an independent reference computed from
the definition (linear interpolation between the two nearest ranks).
"""

import random
import threading

import pytest

from repro.obs import metrics
from repro.obs.quantile import quantile
from repro.obs.reqlog import QUANTILES, RequestJournal, RequestRecord


def _exact(values, q):
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    below = ordered[int(position)]
    above = ordered[min(int(position) + 1, len(ordered) - 1)]
    return below + (above - below) * (position - int(position))


def _q(values, q):
    return quantile(sorted(values), q)


def test_rejects_degenerate_quantiles():
    for q in (-0.1, 1.5):
        with pytest.raises(ValueError):
            quantile([1.0], q)
    # The ends are legal for an exact quantile: the min and the max.
    assert quantile([2.0, 9.0], 0.0) == 2.0
    assert quantile([1.0, 2.0, 9.0], 1.0) == 9.0


def test_empty_estimator_has_no_value():
    assert quantile([], 0.5) is None


def test_exact_below_five_observations():
    assert _q([5.0, 1.0, 3.0], 0.5) == 3.0  # median of {1, 3, 5}
    assert _q([5.0, 1.0, 3.0, 7.0], 0.5) == pytest.approx(4.0)
    assert _q([2.0], 0.99) == 2.0


def test_tracks_uniform_stream_closely():
    rng = random.Random(7)
    values = [rng.uniform(0.0, 100.0) for _ in range(5000)]
    for q in QUANTILES:
        assert _q(values, q) == pytest.approx(_exact(values, q), rel=1e-12)


def test_tracks_long_tailed_stream():
    rng = random.Random(11)
    values = [rng.lognormvariate(0.0, 1.0) for _ in range(20000)]
    assert _q(values, 0.99) == pytest.approx(_exact(values, 0.99), rel=1e-12)


def test_estimates_are_ordered_across_quantiles():
    rng = random.Random(3)
    values = [rng.expovariate(0.1) for _ in range(2000)]
    p50, p95, p99 = (_q(values, q) for q in QUANTILES)
    assert p50 <= p95 <= p99


def _ring_record(ms, op="alias"):
    return RequestRecord(op=op, trace_id="t", unit=None, ms=ms, ok=True,
                         error_kind=None, cache=None, ts=0.0)


def test_quantile_set_empty_snapshot():
    # An empty ring publishes empty windows and touches no per-op gauge.
    def per_op_gauges():
        return [e for e in metrics.registry().snapshot()
                if e["name"].startswith("serve.request.ms.p")]

    before = per_op_gauges()
    snap = RequestJournal().publish()
    assert snap["1h"]["quantiles_ms"] == {"p50": None, "p95": None,
                                          "p99": None}
    assert per_op_gauges() == before


def test_quantile_set_is_thread_safe():
    ring = RequestJournal()
    n_threads, per_thread = 8, 500

    def hammer(seed):
        rng = random.Random(seed)
        for _ in range(per_thread):
            ring.record(_ring_record(rng.uniform(0.0, 10.0)))

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert ring.total == n_threads * per_thread
    snap = ring.publish()["1h"]
    assert snap["requests"] == n_threads * per_thread
    assert all(0.0 <= v <= 10.0 for v in snap["quantiles_ms"].values())


# ----------------------------------------------------------------------
# Orderings and shapes that used to stress a streaming estimator; the
# exact helper must match the reference on every one of them.


def test_sorted_ascending_stream():
    values = [float(i) for i in range(2000)]
    assert _q(values, 0.5) == pytest.approx(999.5)
    for q in QUANTILES:
        assert _q(values, q) == pytest.approx(_exact(values, q))


def test_sorted_descending_stream():
    # The ring sees requests in arrival order; the gauges it publishes
    # are exact whatever that order was.
    metrics.registry().reset()
    ring = RequestJournal()
    values = [float(i) for i in range(2000, 0, -1)]
    for value in values:
        ring.record(_ring_record(value))
    ring.publish()
    registry = metrics.registry()
    for q in QUANTILES:
        name = "serve.request.ms.p{}".format(int(round(q * 100)))
        assert registry.gauge(name, op="alias").value == pytest.approx(
            round(_exact(values, q), 3))


def test_constant_stream_is_exact():
    values = [42.0] * 1000
    for q in QUANTILES:
        assert _q(values, q) == 42.0


def test_two_cluster_stream():
    rng = random.Random(11)
    values = [rng.uniform(1.0, 2.0) for _ in range(1500)] + \
             [rng.uniform(100.0, 110.0) for _ in range(500)]
    rng.shuffle(values)
    # p50 sits in the fast cluster (75% of mass), p99 in the slow one.
    assert 1.0 <= _q(values, 0.5) <= 2.0
    assert 100.0 <= _q(values, 0.99) <= 110.0
    for q in QUANTILES:
        assert _q(values, q) == pytest.approx(_exact(values, q))


def test_interleaved_extremes_stream():
    values = [0.001 if i % 2 == 0 else 1000.0 for i in range(1000)]
    # 500 of each: the median interpolates between the two clusters.
    assert _q(values, 0.5) == pytest.approx((0.001 + 1000.0) / 2)
    assert _q(values, 0.95) == 1000.0
