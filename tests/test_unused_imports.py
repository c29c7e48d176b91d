"""No module under ``src/repro`` imports a name it never uses.

Each module is parsed with :mod:`ast`.  An imported name counts as used
when it appears as a name anywhere in the module, string annotations
included.  Package ``__init__.py`` files re-export what they import, and
a name listed in a module's ``__all__`` is exported, so both are exempt.
"""

import ast
from pathlib import Path
from typing import Dict, List, Set

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported(tree: ast.Module) -> Dict[str, int]:
    """Bound name -> line of every import in *tree*."""
    names: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def _annotation_names(node: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                out |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                continue
        elif isinstance(sub, ast.Name):
            out.add(sub.id)
    return out


def _used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in getattr(node.value, "elts", [])
                     if isinstance(elt, ast.Constant)}
    return used


def unused_imports(path: Path) -> List[str]:
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    return ["{}:{}: {}".format(path.relative_to(SRC.parent), line, name)
            for name, line in sorted(_imported(tree).items(),
                                     key=lambda item: item[1])
            if name not in used]


def test_no_unused_imports_in_src():
    found = [problem for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py"
             for problem in unused_imports(path)]
    assert found == []


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nimport json as j\nimport os.path as osp\n"
                     "from typing import Dict, List\n"
                     "__all__ = ['osp']\n"
                     "x: 'List[int]' = j.dumps([])\n")
    assert sorted(set(_imported(tree)) - _used(tree)) == ["Dict", "os"]
