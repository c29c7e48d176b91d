"""Noise-banded regression detection over benchmark-history records.

``repro bench compare OLD NEW`` and ``repro bench gate`` feed two sets
of :mod:`repro.obs.history` records through :func:`compare_records`,
which builds one :class:`SeriesComparison` per ``(benchmark, phase)``
series.  Wall-clock noise is handled with two complementary statistics:

* **min-of-k** — the *best* observation of each side is the comparison
  point: the minimum over repeats is the least contaminated estimate of
  the true cost on a loaded host (scheduler preemption and cache
  pollution only ever add time);
* **median + MAD band** — a regression must also clear the old series'
  median plus ``mad_k`` median-absolute-deviations, so one lucky old
  observation cannot turn ordinary jitter into a report.

A series regresses only when the new best exceeds *both* bounds **and**
the absolute delta clears ``min_delta_seconds`` **and** the new best is
at least ``min_seconds`` — microsecond phases never gate.  Improvements
are reported symmetrically (best-vs-best only); counter drift is listed
as non-gating context.  The report renders as a terminal table and as
markdown, and :attr:`RegressionReport.has_regressions` drives the gate's
exit code.
"""

from typing import Dict, List, Optional, Tuple

from repro.obs.quantile import quantile
from repro.util.tables import render_table

#: Relative slowdown of the new best over the old best that counts as a
#: regression (0.25 = 25 % slower).
DEFAULT_TOLERANCE = 0.25

#: How many MADs above the old median the new best must also be.
DEFAULT_MAD_K = 3.0

#: Phases whose new best is below this never gate (too small to time).
DEFAULT_MIN_SECONDS = 0.005

#: Absolute slowdown floor: deltas below this never gate.
DEFAULT_MIN_DELTA_SECONDS = 0.002

#: How many counter drifts the rendered report lists.
_COUNTER_DRIFT_LIMIT = 10


def median(values: List[float]) -> float:
    """The middle value (mean of the middle two for even lengths)."""
    return quantile(sorted(values), 0.5)


def mad(values: List[float], center: Optional[float] = None) -> float:
    """Median absolute deviation around *center* (default: the median)."""
    if center is None:
        center = median(values)
    return median([abs(v - center) for v in values])


class SeriesComparison:
    """One ``(benchmark, phase)`` series compared across two record sets."""

    __slots__ = ("benchmark", "phase", "old_values", "new_values", "status")

    def __init__(self, benchmark: str, phase: str,
                 old_values: List[float], new_values: List[float],
                 status: str):
        self.benchmark = benchmark
        self.phase = phase
        self.old_values = old_values
        self.new_values = new_values
        self.status = status  # ok | regression | improved | new | missing

    @property
    def old_best(self) -> Optional[float]:
        return min(self.old_values) if self.old_values else None

    @property
    def new_best(self) -> Optional[float]:
        return min(self.new_values) if self.new_values else None

    @property
    def ratio(self) -> Optional[float]:
        """new best / old best (>1 means slower)."""
        if not self.old_values or not self.new_values:
            return None
        old_best = self.old_best
        if old_best == 0:
            return None
        return self.new_best / old_best

    @property
    def delta_seconds(self) -> Optional[float]:
        if not self.old_values or not self.new_values:
            return None
        return self.new_best - self.old_best

    def describe(self) -> str:
        """One human sentence naming this series and its movement."""
        if self.ratio is None:
            return "{}/{}: {}".format(self.benchmark, self.phase, self.status)
        return "{}/{}: {} ({:.3f}s -> {:.3f}s, x{:.2f})".format(
            self.benchmark, self.phase, self.status,
            self.old_best, self.new_best, self.ratio)

    def __repr__(self) -> str:
        return "<SeriesComparison {}>".format(self.describe())


class RegressionReport:
    """Every series comparison plus the thresholds that produced it."""

    def __init__(self, comparisons: List[SeriesComparison],
                 tolerance: float, mad_k: float,
                 min_seconds: float, min_delta_seconds: float,
                 counter_drift: List[Tuple[str, float, float]],
                 old_n: int, new_n: int):
        self.comparisons = comparisons
        self.tolerance = tolerance
        self.mad_k = mad_k
        self.min_seconds = min_seconds
        self.min_delta_seconds = min_delta_seconds
        self.counter_drift = counter_drift
        self.old_n = old_n
        self.new_n = new_n

    @property
    def regressions(self) -> List[SeriesComparison]:
        return [c for c in self.comparisons if c.status == "regression"]

    @property
    def improvements(self) -> List[SeriesComparison]:
        return [c for c in self.comparisons if c.status == "improved"]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def summary(self) -> str:
        return ("{} series compared ({} old / {} new records): "
                "{} regressed, {} improved, tolerance {:.0%} + "
                "{:.1f} MAD".format(
                    len(self.comparisons), self.old_n, self.new_n,
                    len(self.regressions), len(self.improvements),
                    self.tolerance, self.mad_k))

    # -- rendering ------------------------------------------------------

    def _rows(self, include_ok: bool) -> List[List[object]]:
        def sort_key(c: SeriesComparison):
            order = {"regression": 0, "improved": 1, "new": 2,
                     "missing": 2, "ok": 3}
            return (order.get(c.status, 3), c.benchmark, c.phase)

        rows: List[List[object]] = []
        for c in sorted(self.comparisons, key=sort_key):
            if not include_ok and c.status == "ok":
                continue
            rows.append([
                c.benchmark,
                c.phase,
                _fmt_seconds(c.old_best),
                _fmt_seconds(c.new_best),
                _fmt_ratio(c.ratio),
                c.status.upper() if c.status == "regression" else c.status,
            ])
        return rows

    def render_text(self, include_ok: bool = True) -> str:
        rows = self._rows(include_ok)
        lines = []
        if rows:
            lines.append(render_table(
                ["Benchmark", "Phase", "Old best s", "New best s",
                 "Ratio", "Status"],
                rows,
                title="Benchmark comparison",
                align_left=(0, 1, 5),
            ))
        else:
            lines.append("(no comparable series)")
        lines.append("")
        lines.append(self.summary())
        for c in self.regressions:
            lines.append("REGRESSION: " + c.describe())
        if self.counter_drift:
            lines.append("counter drift (informational):")
            for name, old, new in self.counter_drift[:_COUNTER_DRIFT_LIMIT]:
                lines.append("  {}: {} -> {}".format(
                    name, _fmt_count(old), _fmt_count(new)))
        return "\n".join(lines)

    def render_markdown(self, include_ok: bool = True) -> str:
        lines = ["# Benchmark comparison", "", self.summary(), ""]
        rows = self._rows(include_ok)
        if rows:
            lines.append("| Benchmark | Phase | Old best s | New best s "
                         "| Ratio | Status |")
            lines.append("|---|---|---:|---:|---:|---|")
            for row in rows:
                status = row[5]
                if status == "REGRESSION":
                    status = "**REGRESSION**"
                lines.append("| {} | {} | {} | {} | {} | {} |".format(
                    row[0], row[1], row[2], row[3], row[4], status))
        else:
            lines.append("_No comparable series._")
        if self.counter_drift:
            lines.append("")
            lines.append("## Counter drift (informational)")
            lines.append("")
            for name, old, new in self.counter_drift[:_COUNTER_DRIFT_LIMIT]:
                lines.append("- `{}`: {} -> {}".format(
                    name, _fmt_count(old), _fmt_count(new)))
        lines.append("")
        return "\n".join(lines)


def _fmt_seconds(value: Optional[float]) -> str:
    return "-" if value is None else "{:.4f}".format(value)


def _fmt_ratio(value: Optional[float]) -> str:
    return "-" if value is None else "{:.2f}".format(value)


def _fmt_count(value: float) -> str:
    if float(value) == int(value):
        return str(int(value))
    return "{:.3f}".format(value)


# ----------------------------------------------------------------------
# Comparison


def _series(records: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """``(benchmark, phase) -> observed seconds`` over a record set."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        for benchmark, phases in record.get("phases", {}).items():
            for phase, seconds in phases.items():
                out.setdefault((benchmark, phase), []).append(float(seconds))
    return out


def _counter_drift(old: List[dict], new: List[dict]
                   ) -> List[Tuple[str, float, float]]:
    """Counters whose per-record mean moved, largest relative move first.

    Means absorb differing repeat counts between the two sides; pure
    wall-time counters do not appear here (those are the phase series).
    """

    def means(records: List[dict]) -> Dict[str, float]:
        sums: Dict[str, float] = {}
        seen: Dict[str, int] = {}
        for record in records:
            for name, value in record.get("counters", {}).items():
                sums[name] = sums.get(name, 0.0) + float(value)
                seen[name] = seen.get(name, 0) + 1
        return {name: sums[name] / seen[name] for name in sums}

    old_means = means(old)
    new_means = means(new)
    drift: List[Tuple[str, float, float]] = []
    for name in sorted(set(old_means) & set(new_means)):
        a, b = old_means[name], new_means[name]
        if a != b:
            drift.append((name, a, b))
    drift.sort(key=lambda entry: -abs(entry[2] - entry[1])
               / max(abs(entry[1]), 1.0))
    return drift


def compare_records(old: List[dict], new: List[dict],
                    tolerance: float = DEFAULT_TOLERANCE,
                    mad_k: float = DEFAULT_MAD_K,
                    min_seconds: float = DEFAULT_MIN_SECONDS,
                    min_delta_seconds: float = DEFAULT_MIN_DELTA_SECONDS,
                    ) -> RegressionReport:
    """Compare two ledger record sets series-by-series."""
    old_series = _series(old)
    new_series = _series(new)
    comparisons: List[SeriesComparison] = []
    for key in sorted(set(old_series) | set(new_series)):
        benchmark, phase = key
        old_values = old_series.get(key, [])
        new_values = new_series.get(key, [])
        if not old_values:
            status = "new"
        elif not new_values:
            status = "missing"
        else:
            status = _judge(old_values, new_values, tolerance, mad_k,
                            min_seconds, min_delta_seconds)
        comparisons.append(SeriesComparison(
            benchmark, phase, old_values, new_values, status))
    return RegressionReport(
        comparisons, tolerance, mad_k, min_seconds, min_delta_seconds,
        _counter_drift(old, new), len(old), len(new))


def _judge(old_values: List[float], new_values: List[float],
           tolerance: float, mad_k: float,
           min_seconds: float, min_delta_seconds: float) -> str:
    old_best = min(old_values)
    new_best = min(new_values)
    delta = new_best - old_best
    old_median = median(old_values)
    noise_bound = old_median + mad_k * mad(old_values, old_median)
    if (new_best > old_best * (1.0 + tolerance)
            and new_best > noise_bound
            and delta > min_delta_seconds
            and new_best >= min_seconds):
        return "regression"
    if (new_best < old_best * (1.0 - tolerance)
            and -delta > min_delta_seconds
            and old_best >= min_seconds):
        return "improved"
    return "ok"
