"""The limit study of Section 3.5: dynamic redundancy and its causes.

The paper measures, per benchmark, the fraction of heap loads that are
*dynamically redundant* (Figure 9) before and after RLE, then manually
classifies the residue (Figure 10) into:

1. **Encapsulation** — implicit dope-vector loads the AST-level optimizer
   cannot see;
2. **Conditional** — partially redundant loads (redundant along some paths
   only), out of reach of RLE but not of PRE;
3. **Breakup** — the value was reloaded through a *different* access path
   (a copy-propagation failure);
4. **Alias failure** — RLE's availability was killed by a may-alias store
   that dynamically never touched the address: genuine TBAA imprecision;
5. **Rest** — everything else.

We reproduce the classification automatically by joining three facts per
redundant load occurrence: the instruction kind (dope or not), the static
reason RLE left the load in place (recorded by the optimizer), and
whether a store to the address actually intervened at run time.

:func:`classify` executes nothing: it reads the events a tracer recorded
during an execution, which can also serve Figure 8's machine model.
"""

import enum
from typing import Dict

from repro.ir import instructions as ins
from repro.obs import core as obs
from repro.obs import metrics
from repro.runtime.tracing import LoadStoreTracer


class Category(enum.Enum):
    ENCAPSULATION = "Encapsulated"
    CONDITIONAL = "Conditional"
    BREAKUP = "Breakup"
    ALIAS_FAILURE = "Alias failure"
    REST = "Rest"


#: Static statuses the optimizer records per heap-load instruction.
#: (See repro.opt.rle.RLEStatistics.load_status.)
STATUS_ELIMINATED = "eliminated"
STATUS_HOISTED = "hoisted"
STATUS_DOPE = "dope"
STATUS_PARTIAL = "partial"
STATUS_KILLED_STORE = "killed_store"
STATUS_KILLED_CALL = "killed_call"
STATUS_FRESH = "fresh"


class RedundancyReport:
    """Figure 9/10's numbers for one traced execution."""

    def __init__(self) -> None:
        self.total_heap_loads = 0
        self.redundant_loads = 0
        self.by_category: Dict[Category, int] = {c: 0 for c in Category}

    @property
    def redundant_fraction(self) -> float:
        if self.total_heap_loads == 0:
            return 0.0
        return self.redundant_loads / self.total_heap_loads

    def category_fraction(self, category: Category) -> float:
        """Category count as a fraction of all heap loads (Figure 10's axis)."""
        if self.total_heap_loads == 0:
            return 0.0
        return self.by_category[category] / self.total_heap_loads

    def __repr__(self) -> str:
        return "<RedundancyReport {}/{} redundant>".format(
            self.redundant_loads, self.total_heap_loads
        )


def classify(tracer: LoadStoreTracer, load_status: Dict[int, str]) -> RedundancyReport:
    """Classify the redundant loads a finished traced execution recorded.

    ``load_status`` maps heap-load instruction uid → static status string
    (the constants above): the optimizer's record for optimized programs,
    empty for unoptimized baselines (everything then classifies by kind
    and dynamics only).  The Figure 9/10 numbers are also exported as
    registry counters, in bulk.
    """
    report = RedundancyReport()
    report.total_heap_loads = tracer.total_loads
    report.redundant_loads = tracer.redundant_loads
    with obs.span("limit.classify", events=len(tracer.events)):
        for instr, prev_instr, stored in tracer.events:
            report.by_category[_category(instr, prev_instr, stored, load_status)] += 1
    registry = metrics.registry()
    registry.counter("limit.loads.total").inc(report.total_heap_loads)
    registry.counter("limit.loads.redundant").inc(report.redundant_loads)
    for category, count in report.by_category.items():
        registry.counter("limit.category", category=category.value).inc(count)
    return report


def _category(instr: ins.Instr, prev_instr: ins.Instr, store_intervened: bool,
              load_status: Dict[int, str]) -> Category:
    if instr.is_dope:
        return Category.ENCAPSULATION
    status = load_status.get(instr.uid)
    if status == STATUS_PARTIAL:
        return Category.CONDITIONAL
    # The same address was last loaded through a different lexical
    # path: a copy/naming failure, not an analysis failure.
    if prev_instr.ap is not None and instr.ap is not None and prev_instr.ap != instr.ap:
        return Category.BREAKUP
    if status == STATUS_KILLED_STORE and not store_intervened:
        return Category.ALIAS_FAILURE
    return Category.REST
