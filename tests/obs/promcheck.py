"""The Prometheus exposition invariants, asserted on any text.

Every test of a real exposition — the live ``/v1/metrics`` body, a
rendered registry — runs it through
:func:`assert_valid_exposition`, which reads the text with the one
parser (:func:`repro.obs.promtext.parse`) and asserts what a scraper
relies on beyond line grammar.
"""

import math

from repro.obs.metrics import HISTOGRAM_SUFFIXES
from repro.obs.promtext import parse, parse_value


def assert_valid_exposition(text: str) -> None:
    """Assert that *text* is well-formed Prometheus text (0.0.4).

    * every line parses (no problem lines);
    * each family has at most one ``HELP`` and exactly one ``TYPE``,
      HELP before TYPE and both before the family's samples;
    * each family's lines are contiguous;
    * no series appears twice;
    * counters are non-negative;
    * each histogram series has ``le``-ordered cumulative buckets
      ending in ``+Inf``, a ``_sum``, and a ``_count`` equal to the
      ``+Inf`` bucket.
    """
    kinds = {}
    helped = set()
    closed = set()
    current = None
    series = set()
    histograms = {}
    for line in parse(text):
        where = "line {}: ".format(line.lineno)
        assert line.problem is None, where + line.problem
        family, suffix = line.name, ""
        if line.kind == "sample":
            for candidate in HISTOGRAM_SUFFIXES:
                base = line.name[:-len(candidate)]
                if line.name.endswith(candidate) and \
                        kinds.get(base) == "histogram":
                    family, suffix = base, candidate
        if family != current:
            assert family not in closed, \
                where + "family {} is not contiguous".format(family)
            closed.add(current)
            current = family
        if line.kind == "HELP":
            assert family not in helped and family not in kinds, \
                where + "HELP for {} must come once, before TYPE".format(
                    family)
            helped.add(family)
            continue
        if line.kind == "TYPE":
            assert family not in kinds, \
                where + "second TYPE for {}".format(family)
            kinds[family] = line.value
            continue
        assert family in kinds, where + "{} has no TYPE before it".format(
            line.name)
        key = (line.name, tuple(sorted(line.labels.items())))
        assert key not in series, where + "duplicate series {}".format(key)
        series.add(key)
        if kinds[family] == "counter":
            assert line.value >= 0, where + "negative counter"
        elif kinds[family] == "histogram":
            assert suffix, where + "bare sample in histogram {}".format(
                family)
            labels = dict(line.labels)
            le = labels.pop("le", None)
            group = histograms.setdefault(
                (family, tuple(sorted(labels.items()))), {"buckets": []})
            if suffix == "_bucket":
                assert le is not None, where + "bucket without le"
                group["buckets"].append((parse_value(le), line.value))
            else:
                group[suffix] = line.value
    for (family, labels), group in histograms.items():
        where = "histogram {}{}: ".format(family, dict(labels))
        bounds = [bound for bound, _ in group["buckets"]]
        counts = [count for _, count in group["buckets"]]
        assert bounds and bounds[-1] == math.inf, where + "no +Inf bucket"
        assert bounds == sorted(bounds), where + "buckets out of le order"
        assert counts == sorted(counts), where + "buckets not cumulative"
        assert "_sum" in group, where + "no _sum"
        assert group.get("_count") == counts[-1], \
            where + "_count is not the +Inf bucket"
