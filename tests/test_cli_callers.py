"""The ``repro`` command lines that callers outside the package run.

The Makefile recipes and the end-to-end benchmark start ``repro``
commands that no tier-1 test runs, so a deleted flag, subcommand or
``-m`` module would first fail in ``make test`` or in the benchmark.
This test parses every such command with the CLI's own parser instead:
each ``-m repro`` command line must parse, and each ``-m repro.<module>``
must name a module with a ``main``.
"""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"

#: Shell operators that separate one command from the next.
OPERATORS = {"|", "||", "&", "&&", ";"}


def _make_variables(text: str) -> dict:
    variables = {"PYTHON": "python"}
    for match in re.finditer(r"^([A-Z_]+)\s*\??=\s*(.*)$", text, re.M):
        variables.setdefault(match.group(1), match.group(2).strip())
    return variables


def _substitutions(line: str):
    """Split ``$$(...)`` command substitutions out of a recipe line:
    ``(line with each replaced by a placeholder, [inner commands])``."""
    inner = []
    while "$$(" in line:
        start = line.index("$$(")
        depth, quote, end = 0, None, None
        for i in range(start + 2, len(line)):
            char = line[i]
            if quote:
                quote = None if char == quote else quote
            elif char == "'":
                quote = char
            elif char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        assert end is not None, "unbalanced $$( in {!r}".format(line)
        inner.append(line[start + 3:end])
        line = line[:start] + "PLACEHOLDER" + line[end + 1:]
    return line, inner


def _commands(line: str):
    """The words of each simple command on one shell line."""
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    command = []
    for token in lexer:
        if token in OPERATORS:
            yield command
            command = []
        else:
            command.append(token)
    yield command


def _module_invocations(words):
    """``(module, argv)`` for a ``python -m module argv...`` command."""
    if "-m" in words:
        at = words.index("-m")
        yield words[at + 1], words[at + 2:]


def makefile_invocations():
    text = (ROOT / "Makefile").read_text()
    variables = _make_variables(text)
    joined = re.sub(r"\\\n\s*", " ", text)
    lines = [line.strip() for line in joined.splitlines()
             if line.startswith("\t")]
    pending = []
    for line in lines:
        line = re.sub(r"\$\(([A-Z_]+)\)",
                      lambda m: variables.get(m.group(1), m.group(0)), line)
        line, inner = _substitutions(line)
        pending.extend(inner)
        pending.append(line)
    for line in pending:
        for words in _commands(line):
            yield from _module_invocations(words)


def e2e_invocations():
    """Every ``[..., "-m", "repro", ...]`` list literal the benchmark
    builds, with non-literal arguments as placeholders."""
    for path in sorted(E2E.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.List):
                continue
            words = [elt.value if isinstance(elt, ast.Constant)
                     and isinstance(elt.value, str) else "PLACEHOLDER"
                     for elt in node.elts]
            for module, argv in _module_invocations(words):
                if module.startswith("repro"):
                    yield module, argv


MAKE = sorted({(m, tuple(a)) for m, a in makefile_invocations()
               if m == "repro" or m.startswith("repro.")})
E2E_COMMANDS = sorted({(m, tuple(a)) for m, a in e2e_invocations()})


def test_the_scans_find_the_known_commands():
    assert ("repro", ("-q", "client", "--obs-smoke")) in MAKE
    assert any(module == "repro.obs.jsonl" for module, _ in MAKE)
    assert any(argv[:2] == ("-q", "trace") and "export" in argv
               for _, argv in MAKE)  # the one inside $$(...)
    assert [argv[1] for _, argv in E2E_COMMANDS] == ["serve"]


@pytest.mark.parametrize("module,argv", MAKE + E2E_COMMANDS,
                         ids=lambda value: " ".join(value)
                         if isinstance(value, tuple) else value)
def test_external_repro_command_parses(module, argv):
    if module in ("repro", "repro.cli"):
        try:
            build_parser().parse_args(list(argv))
        except SystemExit as exit_:
            pytest.fail("repro {} does not parse (exit {})".format(
                shlex.join(argv), exit_.code))
    else:
        assert callable(getattr(importlib.import_module(module), "main",
                                None)), module
