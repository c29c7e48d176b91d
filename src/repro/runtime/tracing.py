"""Load/store trace recording — the ATOM substitute.

The paper instrumented every load in the executable with ATOM, recording
address and value, to find *dynamically redundant* loads.  Our tracer
receives the same events from the interpreter.  It does not retain the
full trace (which would be huge); instead it keeps exactly the state the
redundancy definition needs:

    "A redundant load is when two consecutive loads of the same address
     load the same value in the same procedure activation."

For each ``(activation, address)`` it keeps the value, instruction and
the address's store clock of the last load there, so the classifier can
tell "no store intervened" (a spurious alias kill) from "a store wrote
the same value back".  Each redundant load appends ``(instr, prev_instr,
store_intervened)`` to :attr:`LoadStoreTracer.events`.
"""

from typing import Dict, List, Tuple

from repro.ir import instructions as ins


class LoadStoreTracer:
    """Observes heap loads/stores and records the redundant loads."""

    def __init__(self) -> None:
        # (activation, address) -> (value, instr, store clock at that load)
        self._last_load: Dict[Tuple[int, int], Tuple[object, ins.Instr, int]] = {}
        # address -> clock of the last store to it
        self._store_clock: Dict[int, int] = {}
        self._clock = 0
        self.total_loads = 0
        #: ``(instr, prev_instr, store_intervened)`` per redundant load.
        self.events: List[Tuple[ins.Instr, ins.Instr, bool]] = []

    @property
    def redundant_loads(self) -> int:
        return len(self.events)

    # -- interpreter hook API -------------------------------------------

    def on_load(self, instr: ins.Instr, addr: int, value: object, activation: int) -> None:
        self.total_loads += 1
        key = (activation, addr)
        clock = self._store_clock.get(addr, 0)
        previous = self._last_load.get(key)
        if previous is not None and _same_value(previous[0], value):
            self.events.append((instr, previous[1], clock > previous[2]))
        self._last_load[key] = (value, instr, clock)

    def on_store(self, instr: ins.Instr, addr: int, value: object, activation: int) -> None:
        self._clock += 1
        self._store_clock[addr] = self._clock


def _same_value(a: object, b: object) -> bool:
    """ATOM compared register bits; we compare values exactly.

    References compare by identity, scalars by equality; ``True == 1``
    style cross-type coincidences are rejected by the type check.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, (int, bool, str)) or a is None:
        return a == b
    return a is b
