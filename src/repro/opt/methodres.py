"""Method invocation resolution ("Minv" of the paper's Figure 11).

Section 3.7 measures the cumulative effect of "method invocation
resolution [14] plus inlining" with RLE.  The resolver devirtualizes a
method call when the set of implementations reachable from the receiver's
*possible types* contains exactly one procedure:

* the baseline type information is the subtype tree of the static
  receiver type (class hierarchy analysis);
* when given an :class:`~repro.analysis.smtyperefs.SMTypeRefsOracle`, the
  receiver's possible types are pruned to ``TypeRefsTable(static type)``
  — this is how "method resolution uses TBAA (and other analyses) to help
  resolve method invocations on object fields and array elements".
"""

from typing import List, Optional, Set

from repro.analysis.smtyperefs import SMTypeRefsOracle
from repro.ir import instructions as ins
from repro.ir.cfg import ProgramIR
from repro.lang.types import ObjectType, is_subtype


class MethodResolutionStats:
    def __init__(self) -> None:
        self.method_calls = 0
        self.resolved = 0

    def __repr__(self) -> str:
        return "<MethodResolutionStats {}/{} resolved>".format(
            self.resolved, self.method_calls
        )


class MethodResolution:
    """Replaces single-target CallMethod instructions with direct Calls."""

    def __init__(
        self,
        program: ProgramIR,
        type_refs: Optional[SMTypeRefsOracle] = None,
    ):
        self.program = program
        self.type_refs = type_refs
        self.stats = MethodResolutionStats()

    def run(self) -> MethodResolutionStats:
        for proc in self.program.user_procs():
            for block in proc.blocks():
                block.instrs = [self._resolve(i) for i in block.instrs]
        return self.stats

    # ------------------------------------------------------------------

    def _resolve(self, instr: ins.Instr) -> ins.Instr:
        if not isinstance(instr, ins.CallMethod):
            return instr
        self.stats.method_calls += 1
        impls = self._possible_impls(instr.static_receiver_type, instr.method_name)
        if len(impls) != 1:
            return instr
        target = next(iter(impls))
        if target not in self.program.procs:
            return instr
        self.stats.resolved += 1
        direct = ins.Call(
            instr.dest, target, [instr.receiver] + list(instr.args), instr.loc
        )
        direct.var_args = instr.var_args
        return direct

    def _possible_impls(self, static_type: ObjectType, method: str) -> Set[str]:
        impls: Set[str] = set()
        for obj in self._possible_receiver_types(static_type):
            impl = obj.method_impl(method)
            if impl is not None:
                impls.add(impl)
            else:
                # An unimplemented slot can trap at run time; treat it as
                # an unknown target so we stay conservative.
                impls.add("<unimplemented>")
        return impls

    def _possible_receiver_types(self, static_type: ObjectType) -> List[ObjectType]:
        candidates = [
            obj
            for obj in self.program.checked.object_types()
            if is_subtype(obj, static_type)
        ]
        if self.type_refs is None:
            return candidates
        allowed = self.type_refs.type_refs(static_type)
        pruned = [obj for obj in candidates if id(obj) in allowed]
        # NIL receivers trap before dispatch, so an empty set means the
        # call is unreachable; keep the unpruned set to stay safe.
        return pruned or candidates
