"""Prometheus text-format export."""

import math
import random
import sys
import threading

import pytest

from repro.obs import metrics
from repro.obs.promtext import metric_name, parse, parse_value, render

from tests.obs.promcheck import assert_valid_exposition


def test_metric_name_sanitisation():
    assert metric_name("alias.cache.hits") == "repro_alias_cache_hits"
    assert metric_name("repro_already") == "repro_already"
    assert metric_name("weird-name!") == "repro_weird_name_"


def test_counter_and_gauge_render():
    registry = metrics.MetricsRegistry()
    registry.counter("alias.cache.hits", analysis="TypeDecl").inc(7)
    registry.gauge("smtyperefs.groups").set(4)
    text = render(registry)
    assert "# TYPE repro_alias_cache_hits counter" in text
    assert 'repro_alias_cache_hits{analysis="TypeDecl"} 7' in text
    assert "# TYPE repro_smtyperefs_groups gauge" in text
    assert "repro_smtyperefs_groups 4" in text
    assert text.endswith("\n")


def test_histogram_renders_cumulative_buckets():
    registry = metrics.MetricsRegistry()
    h = registry.histogram("group.size", buckets=(1.0, 5.0))
    for v in (1, 1, 3, 100):
        h.observe(v)
    text = render(registry)
    assert 'repro_group_size_bucket{le="1"} 2' in text
    assert 'repro_group_size_bucket{le="5"} 3' in text
    assert 'repro_group_size_bucket{le="+Inf"} 4' in text
    assert "repro_group_size_sum 105" in text
    assert "repro_group_size_count 4" in text


def test_label_escaping():
    registry = metrics.MetricsRegistry()
    registry.counter("c", cfg='say "hi"').inc()
    assert 'cfg="say \\"hi\\""' in render(registry)


def test_empty_registry_renders_empty():
    assert render(metrics.MetricsRegistry()) == ""


# ----------------------------------------------------------------------
# Render -> parse round trips, checked with the shared exposition check

#: Label values that need escaping, or that other line splitters break.
AWKWARD_VALUES = ("a\nb", 'say "hi"', "back\\slash", "\\n", "ünïcödé",
                  "日本", "line\u2028sep", "cr\rx", "tab\tx", "", "x=y,z",
                  "} 1", "\\")


def _samples(text):
    """``(name, labels, le bound of a histogram bucket or None) -> value``."""
    out, histograms = {}, set()
    for line in parse(text):
        if line.kind == "TYPE" and line.value == "histogram":
            histograms.add(line.name)
        elif line.kind == "sample":
            labels, le = dict(line.labels), None
            if line.name.endswith("_bucket") and \
                    line.name[:-len("_bucket")] in histograms:
                le = parse_value(labels.pop("le"))
            out[(line.name, tuple(sorted(labels.items())), le)] = line.value
    return out


def _expected(snapshot):
    """What :func:`_samples` must read back for a registry snapshot."""
    out = {}
    for entry in snapshot:
        name = metric_name(entry["name"])
        labels = tuple(sorted(entry["labels"].items()))
        if entry["kind"] != "histogram":
            out[(name, labels, None)] = entry["value"]
            continue
        cumulative = 0
        for bound, count in zip(entry["buckets"] + [math.inf],
                                entry["bucket_counts"]):
            cumulative += count
            out[(name + "_bucket", labels, bound)] = cumulative
        out[(name + "_sum", labels, None)] = entry["sum"]
        out[(name + "_count", labels, None)] = entry["count"]
    return out


def _assert_round_trips(registry, text):
    assert_valid_exposition(text)
    got, want = _samples(text), _expected(registry.snapshot())
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == value or (math.isnan(got[key])
                                     and math.isnan(value)), key


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5,
                                   1e300, 2 ** 60, True])
def test_any_gauge_value_renders_and_parses_back(value):
    registry = metrics.MetricsRegistry()
    registry.gauge("g").set(value)
    _assert_round_trips(registry, render(registry))


def test_non_finite_values_use_exposition_spelling():
    registry = metrics.MetricsRegistry()
    for name, value in (("nan", math.nan), ("pos", math.inf),
                        ("neg", -math.inf)):
        registry.gauge(name).set(value)
    text = render(registry)
    assert "repro_nan NaN\n" in text
    assert "repro_pos +Inf\n" in text
    assert "repro_neg -Inf\n" in text


@pytest.mark.parametrize("value", AWKWARD_VALUES)
def test_any_label_value_renders_and_parses_back(value):
    registry = metrics.MetricsRegistry()
    registry.counter("c", op=value).inc(2)
    registry.histogram("h", buckets=(1.0,), op=value).observe(0.5)
    text = render(registry)
    _assert_round_trips(registry, text)
    assert {line.labels.get("op") for line in parse(text)
            if line.kind == "sample"} == {value}


def test_help_renders_once_before_type():
    registry = metrics.MetricsRegistry()
    registry.counter("serve.request.total", op="alias").inc(4)
    registry.counter("serve.request.total", op="ping").inc()
    registry.gauge("serve.request.ms.p99", op="alias").set(12.5)
    registry.histogram("alias.latency", buckets=(0.1, 1.0)).observe(0.5)
    text = render(registry, help_texts={
        "serve.request.total": "Requests\nserved \\ by op.",
        "repro_alias_latency": "Latency."})
    _assert_round_trips(registry, text)
    assert "# HELP repro_serve_request_total Requests\\nserved \\\\ by op.\n" \
        "# TYPE repro_serve_request_total counter\n" in text
    assert "# HELP repro_alias_latency Latency.\n" \
        "# TYPE repro_alias_latency histogram\n" in text


def _random_registry(rng):
    """A registry built from random, partly illegal, registrations."""
    registry = metrics.MetricsRegistry()
    words = ("a", "b", "lat", "count", "sum", "bucket", "a_count",
             "repro_a", "B", "1x")
    for _ in range(rng.randint(1, 14)):
        name = ".".join(rng.choice(words)
                        for _ in range(rng.randint(1, 3)))
        kind = rng.choice(("counter", "gauge", "histogram"))
        make = getattr(registry, kind)
        labels = {rng.choice(("op", "world", "le", "1st", "_x")):
                  rng.choice(AWKWARD_VALUES + ("alias", "open"))
                  for _ in range(rng.randint(0, 2))}
        try:
            if kind == "histogram":
                buckets = rng.choice(((1.0, 5.0), (0.5,), (), (1, 2, 3)))
                metric = make(name, buckets=buckets, **labels)
                for _ in range(rng.randint(0, 6)):
                    metric.observe(rng.choice((0.25, 1, 4.5, 100.0,
                                               rng.uniform(-10, 10))))
            elif kind == "counter":
                make(name, **labels).inc(rng.choice((0, 1, 7, 2 ** 40,
                                                     0.5, -3)))
            else:
                make(name, **labels).set(rng.choice((
                    0, -2.25, math.nan, math.inf, -math.inf,
                    rng.uniform(-1e6, 1e6))))
        except ValueError:
            pass  # a registration the naming rules refuse
    return registry


def test_random_registries_render_valid_text_that_parses_back():
    rng = random.Random(20261017)
    rendered = 0
    for _ in range(300):
        registry = _random_registry(rng)
        text = render(registry)
        _assert_round_trips(registry, text)
        rendered += bool(text)
    assert rendered > 200


def test_render_keeps_count_equal_to_inf_bucket_under_concurrent_observes():
    registry = metrics.MetricsRegistry()
    stop = threading.Event()

    def observe(op):
        h = registry.histogram("lat", buckets=(1.0, 2.0), op=op)
        while not stop.is_set():
            h.observe(1.5)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=observe, args=(str(i % 2),))
               for i in range(4)]
    try:
        for thread in threads:
            thread.start()
        for _ in range(200):
            assert_valid_exposition(render(registry))
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for thread in threads:
            thread.join(10)
    assert not any(thread.is_alive() for thread in threads)


VALID = """\
# HELP repro_requests Requests served.
# TYPE repro_requests counter
repro_requests{op="alias"} 12
repro_requests{op="ping"} 3
# TYPE repro_latency histogram
repro_latency_bucket{le="0.1"} 4
repro_latency_bucket{le="+Inf"} 10
repro_latency_sum 5.5
repro_latency_count 10
"""


def test_exposition_check_accepts_valid_text():
    assert_valid_exposition(VALID)
    assert_valid_exposition("")


@pytest.mark.parametrize("text,problem", [
    pytest.param('# TYPE m counter\nm{l="bad\\t"} 1\n', "bad escape",
                 id="bad-escape"),
    pytest.param("!! not a sample\n", "unparseable", id="garbage-line"),
    pytest.param("# TYPE m counter\nm xyz\n", "bad sample value",
                 id="bad-value"),
    pytest.param('# TYPE m counter\nm{op="a"} 1\nm{op="a"} 2\n',
                 "duplicate series", id="duplicate-series"),
    pytest.param("# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n",
                 "not contiguous", id="interleaved-families"),
    pytest.param("# TYPE m counter\n# HELP m too late\nm 1\n",
                 "before TYPE", id="help-after-type"),
    pytest.param("m 1\n# TYPE m counter\n", "no TYPE before it",
                 id="type-after-samples"),
    pytest.param("# TYPE m counter\n# TYPE m gauge\nm 1\n", "second TYPE",
                 id="second-type"),
    pytest.param("# TYPE m counter\nm -1\n", "negative counter",
                 id="negative-counter"),
    pytest.param('# TYPE h histogram\nh_bucket{le="1"} 2\nh_sum 1\n'
                 "h_count 2\n", "no \\+Inf bucket", id="no-inf-bucket"),
    pytest.param('# TYPE h histogram\nh_bucket{le="1"} 5\n'
                 'h_bucket{le="+Inf"} 3\nh_sum 1\nh_count 3\n',
                 "not cumulative", id="not-cumulative"),
    pytest.param('# TYPE h histogram\nh_bucket{le="+Inf"} 3\nh_sum 1\n'
                 "h_count 4\n", "_count is not the", id="count-mismatch"),
    pytest.param('# TYPE h histogram\nh_bucket{le="+Inf"} 3\nh_count 3\n',
                 "no _sum", id="no-sum"),
    pytest.param("# TYPE h histogram\nh 3\n", "bare sample",
                 id="bare-histogram-sample"),
])
def test_exposition_check_rejects_each_broken_shape(text, problem):
    with pytest.raises(AssertionError, match=problem):
        assert_valid_exposition(text)
