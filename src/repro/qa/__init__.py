"""QA subsystem: soundness fuzzing, crash isolation, resource guards.

TBAA's value proposition is *soundness by construction* for a type-safe
language, and PR 1 added a second alias-query engine whose answers must
stay bit-identical to the reference.  Neither invariant survives on
faith; this package checks both continuously against adversarial input:

* :mod:`repro.qa.generator` — a deterministic, seeded, size-bounded
  MiniM3 program generator emitting only type-correct programs;
* :mod:`repro.qa.oracles` — per-program invariant checks: the refinement
  hierarchy ``TypeDecl ⊇ FieldTypeDecl ⊇ SMFieldTypeRefs``, open-world ⊇
  closed-world, fast engine ≡ reference engine, cache-churn stability,
  and a **dynamic soundness oracle** that executes the program and
  asserts every pair of access paths observed at one heap address is
  reported may-alias by every analysis;
* :mod:`repro.qa.reduce` — a delta-debugging reducer shrinking failing
  programs to minimal ``.m3`` reproducers, dumped as crash bundles;
* :mod:`repro.qa.guards` — wall-clock deadlines and budget plumbing
  (step budgets and parser caps live with their owners);
* :mod:`repro.qa.runner` — the fault-isolating batch runner: one
  sharded run, in-process or over a worker pool, behind ``repro
  fuzz`` and ``repro corpus run``; every program runs in a try/except
  bulkhead, failures land in one machine-readable record, the rest of
  the run completes;
* :mod:`repro.qa.corpus` — content-hashed corpora of generated programs
  on disk and the per-program Table 5 count of ``repro corpus run``.

Import note: :mod:`repro.runtime` and :mod:`repro.analysis` import
:mod:`repro.qa.guards` at module load, which executes this ``__init__``
— so everything *except* guards is exported lazily (PEP 562) to avoid
an import cycle through the heavier QA modules.
"""

from repro.qa.guards import Deadline, ResourceLimitError, check_active, guarded

__all__ = [
    "Deadline",
    "ResourceLimitError",
    "check_active",
    "guarded",
    "GenConfig",
    "GeneratedProgram",
    "generate_program",
    "OracleReport",
    "OracleViolation",
    "check_program",
    "reduce_program",
    "write_crash_bundle",
    "FailureRecord",
    "FuzzReport",
    "run_fuzz",
]

_LAZY = {
    "GenConfig": "repro.qa.generator",
    "GeneratedProgram": "repro.qa.generator",
    "generate_program": "repro.qa.generator",
    "OracleReport": "repro.qa.oracles",
    "OracleViolation": "repro.qa.oracles",
    "check_program": "repro.qa.oracles",
    "reduce_program": "repro.qa.reduce",
    "write_crash_bundle": "repro.qa.reduce",
    "FailureRecord": "repro.qa.runner",
    "FuzzReport": "repro.qa.runner",
    "run_fuzz": "repro.qa.runner",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name))
    import importlib

    return getattr(importlib.import_module(module_name), name)
