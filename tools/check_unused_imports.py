"""Report module-level imports that nothing in their module uses.

Usage::

    python tools/check_unused_imports.py src tests benchmarks tools examples

Walks every ``.py`` file under the given paths with the standard
library's :mod:`ast` only.  An import at module level (including inside
module-level ``if``/``try`` blocks) is *used* when its bound name

* is referenced anywhere in the module (a name, the root of an
  attribute chain, or inside a quoted annotation),
* is a parameter name (a pytest fixture imported into a test module),
* or is listed in the module's ``__all__``.

A deliberate re-export that is none of these is marked
``# noqa: F401`` on its import statement.  ``__future__`` imports are
ignored.  Exits 1 and prints ``path:line: name`` for each unused
import, 0 when there are none.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterator, List, Set, Tuple

NOQA = "noqa: F401"


def module_imports(tree: ast.Module) -> Iterator[Tuple[ast.stmt, str]]:
    """(statement, bound name) for every module-level import."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias.asname or alias.name
        elif isinstance(node, ast.If):
            pending += node.body + node.orelse
        elif isinstance(node, ast.Try):
            pending += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                pending += handler.body


def _annotation_names(node: ast.AST) -> Set[str]:
    """Names referenced inside quoted annotations under ``node``."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed)
                      if isinstance(n, ast.Name)}
    return names


def used_names(tree: ast.Module) -> Set[str]:
    """Every name the module references, declares as a parameter, or
    exports through ``__all__``."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
            if node.annotation is not None:
                used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                used |= {c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant)
                         and isinstance(c.value, str)}
    return used


def unused_imports(path: str) -> List[Tuple[int, str]]:
    """(line, name) of each unused module-level import in ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    used = used_names(tree)
    found = []
    for stmt, name in module_imports(tree):
        if name in used:
            continue
        text = lines[stmt.lineno - 1:stmt.end_lineno]
        if any(NOQA in line for line in text):
            continue
        found.append((stmt.lineno, name))
    return found


def python_files(paths: List[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths``, in sorted order."""
    for root in paths:
        if os.path.isfile(root):
            yield root
            continue
        for folder, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if not d.startswith("."))
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    problems = 0
    for path in python_files(argv):
        for line, name in unused_imports(path):
            print(f"{path}:{line}: unused import {name!r}")
            problems += 1
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
