"""The one quantile helper: exact, linear-interpolated, over sorted values.

The serving layer's windowed latency gauges and burn-rate snapshots
(:mod:`repro.obs.reqlog`) and the ledger's median/MAD noise band
(:mod:`repro.obs.regress`) all read their statistics through
:func:`quantile`.  The inputs are small (at most one request ring, or a
handful of repeats), so there is no streaming estimator: every answer
is exact.
"""

from typing import Optional, Sequence

__all__ = ["quantile"]


def quantile(sorted_values: Sequence[float], q: float) -> Optional[float]:
    """The *q*-quantile of an ascending sequence, or None when empty.

    Linear interpolation between the two nearest ranks, so ``q=0.5`` of
    an even-length sequence is the mean of the middle two values.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1], got {}".format(q))
    if not sorted_values:
        return None
    rank = q * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac
