"""Shared utilities for the TBAA reproduction.

This package holds small, dependency-free data structures and helpers used
across the front end, the analyses, and the runtime:

* :class:`~repro.util.unionfind.UnionFind` — the disjoint-set structure that
  backs SMTypeRefs' selective type merging (Figure 2 of the paper).
* :class:`~repro.util.ordered_set.OrderedSet` — insertion-ordered set used
  wherever deterministic iteration order matters for reproducible output.
* :mod:`~repro.util.tables` — plain-text table rendering for the benchmark
  harness (the paper's tables are regenerated as aligned text tables).
* :mod:`~repro.util.bits` — popcount / bit-iteration primitives over the
  big-int packed bitvectors used by the subtype masks, the TypeRefsTable
  and the Table 5 procedure masks (``int.bit_count`` on 3.10+, with a
  3.9 fallback).
"""

from repro.util.unionfind import UnionFind
from repro.util.ordered_set import OrderedSet
from repro.util.tables import render_table, format_ratio
from repro.util.bits import popcount, iter_bits

__all__ = ["UnionFind", "OrderedSet", "render_table", "format_ratio",
           "popcount", "iter_bits"]
