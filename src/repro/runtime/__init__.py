"""Execution substrate: heap model, IR interpreter, machine simulator.

This package replaces the paper's measurement stack — the Alpha 21064
workstation simulator and the ATOM binary instrumenter — with:

* :mod:`repro.runtime.values` — heap objects with real (simulated)
  addresses and per-field offsets;
* :mod:`repro.runtime.interp` — an IR interpreter that counts executed
  instructions, heap loads and other (global/stack) loads, and exposes a
  load/store trace hook (the ATOM substitute);
* :mod:`repro.runtime.machine` — a load-latency cost model with a direct
  mapped cache (the paper simulated a 32 KB primary cache);
* :mod:`repro.runtime.tracing` — the load/store tracer, which records
  every dynamically redundant heap load of one execution;
* :mod:`repro.runtime.limit` — the dynamic redundant-load limit study of
  Section 3.5: the five-way classification of Figure 10 over a tracer's
  events.
"""

from repro.runtime.values import (
    ObjectRef,
    RecordRef,
    ArrayRef,
    DopeRef,
    VarLoc,
    FieldLoc,
    ElemLoc,
    M3RuntimeError,
)
from repro.runtime.interp import Interpreter, ExecutionStats
from repro.runtime.machine import CacheSim, MachineModel
from repro.runtime.tracing import LoadStoreTracer
from repro.runtime.limit import RedundancyReport, Category, classify

__all__ = [
    "ObjectRef",
    "RecordRef",
    "ArrayRef",
    "DopeRef",
    "VarLoc",
    "FieldLoc",
    "ElemLoc",
    "M3RuntimeError",
    "Interpreter",
    "ExecutionStats",
    "CacheSim",
    "MachineModel",
    "LoadStoreTracer",
    "RedundancyReport",
    "Category",
    "classify",
]
