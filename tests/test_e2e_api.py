"""The ``repro`` API that the end-to-end benchmark imports.

``benchmarks/e2e`` sits outside the tier-1 test paths, so a refactor
could break the benchmark with no failing test.  This test reads the
benchmark's sources, collects every ``repro`` import, and asserts that
each imported name still resolves.
"""

import ast
import importlib
from pathlib import Path

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _repro_imports():
    """``(file, module, name)`` per imported name; name None for ``import``."""
    for path in sorted(E2E.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and _is_repro(node.module or ""):
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_repro(alias.name):
                        yield path.name, alias.name, None


def _resolves(module: str, name) -> bool:
    target = importlib.import_module(module)
    if name is None:
        return True
    try:  # ``from package import submodule`` must give the submodule
        submodule = importlib.import_module("{}.{}".format(module, name))
    except ImportError:
        return hasattr(target, name)
    # A package that rebinds a submodule's name (``from repro.obs import
    # core as obs`` in ``repro/__init__.py``) would hand out the wrong module.
    return getattr(target, name, None) is submodule


def test_e2e_benchmark_repro_imports_resolve():
    imports = sorted(set(_repro_imports()))
    names = {"{}.{}".format(module, name) for _, module, name in imports}
    # The scan must see what the benchmark is known to import.
    assert {"repro.obs.top.parse_prom", "repro.bench.suite.BenchmarkSuite",
            "repro.obs.core.trace_scope"} <= names
    assert sum(module == "repro.qa.corpus" for _, module, _ in imports) == 6
    unresolved = [entry for entry in imports if not _resolves(*entry[1:])]
    assert unresolved == []
