"""Bit-manipulation primitives shared by the bitmask-based layers.

Python big integers are the repository's packed bitvector type: subtype
sets (:mod:`repro.analysis.typehierarchy`), ``TypeRefsTable`` rows and
procedure-occupancy masks in the Table 5 counters all store one bit per
dense index and decide queries with ``&``.  The two operations every one of those
call sites needs are

* :func:`popcount` — number of set bits.  ``int.bit_count()`` arrived in
  Python 3.10; on 3.9 we fall back to ``bin(x).count("1")``, which is
  the fastest pure-Python formulation (C-loop over the digits, no
  per-bit Python iteration).
* :func:`iter_bits` — ascending indices of the set bits, isolating one
  lowest bit per step (``mask & -mask``), so sparse masks cost only as
  many iterations as they have bits.

Both are resolved **once at import time** — the hot loops bind a single
callable, never an ``hasattr`` check per call.
"""

from typing import Iterator, List

__all__ = ["popcount", "iter_bits", "bits_of", "mask_of", "HAVE_BIT_COUNT"]

#: True when the running interpreter provides ``int.bit_count`` (3.10+).
HAVE_BIT_COUNT = hasattr(int, "bit_count")


def _popcount_native(mask: int) -> int:
    return mask.bit_count()


def _popcount_compat(mask: int) -> int:
    if mask < 0:
        raise ValueError("popcount of a negative mask: {!r}".format(mask))
    return bin(mask).count("1")


if HAVE_BIT_COUNT:
    popcount = _popcount_native
else:  # pragma: no cover - exercised only on Python 3.9
    popcount = _popcount_compat

popcount.__doc__ = """Number of set bits in a non-negative mask.

    ``int.bit_count()`` where available (Python >= 3.10), else the
    ``bin()``-based fallback.  Negative masks are a caller bug: the
    packed bitvectors in this repository are always non-negative.
    """


def iter_bits(mask: int) -> Iterator[int]:
    """Ascending indices of the set bits of a non-negative *mask*.

    Isolates the lowest set bit each step, so the cost is proportional
    to the popcount, not to the bit length.
    """
    if mask < 0:
        raise ValueError("iter_bits of a negative mask: {!r}".format(mask))
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int) -> List[int]:
    """:func:`iter_bits` collected into a list (for tests and reports)."""
    return list(iter_bits(mask))


def mask_of(bits) -> int:
    """The packed mask with exactly the given bit indices set."""
    mask = 0
    for bit in bits:
        if bit < 0:
            raise ValueError("negative bit index: {!r}".format(bit))
        mask |= 1 << bit
    return mask
