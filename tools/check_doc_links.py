#!/usr/bin/env python
"""Check that docs and docstrings cite files that exist.

Usage: ``python tools/check_doc_links.py README.md docs/*.md src``

Markdown files: scans ``[text](target)`` links; external schemes
(http/https/mailto) and pure in-page anchors are skipped, everything
else must resolve — relative to the linking file — to an existing file
or directory.

Python files (or directories, searched for ``*.py``): scans module,
class and function docstrings for cited paths — a path with a
directory part and an extension (``benchmarks/test_bench_fig8.py``,
``perfbench/workloads.py::window_violations``) or a bare markdown
document (``ROADMAP.md``).  A citation must resolve relative to the
repository root, the citing file's top-level package
(``core/mba.py`` inside ``src/repro``) or the citing file's directory.

Exits non-zero listing every broken link.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import Iterator, List, Tuple

#: [text](target) with no nested brackets; good enough for our docs.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

#: A path cited in a docstring: directories plus an extension, or a
#: bare markdown document.  Never starts or ends inside a longer token
#: (URLs and dotted module names do not match).
CITE_RE = re.compile(
    r"(?<![\w./-])((?:[\w.-]+/)+[\w.-]+\.[A-Za-z]+|[\w.-]+\.md)(?![\w/])")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def broken_links(path: str) -> List[Tuple[int, str]]:
    """Return (line_number, target) for every dangling link in ``path``."""
    base = os.path.dirname(os.path.abspath(path))
    broken = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            for match in LINK_RE.finditer(line):
                target = match.group(1)
                if target.startswith(SKIP_PREFIXES):
                    continue
                local = target.split("#", 1)[0]
                if not local:
                    continue
                if not os.path.exists(os.path.join(base, local)):
                    broken.append((number, target))
    return broken


def _docstrings(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """(first line, raw text) of every docstring in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            text = ast.get_docstring(node, clean=False)
            if text is not None:
                yield node.body[0].lineno, text


def _package_root(path: str) -> str:
    """The top-level package directory containing ``path``."""
    root = os.path.dirname(os.path.abspath(path))
    while os.path.exists(os.path.join(os.path.dirname(root),
                                      "__init__.py")):
        root = os.path.dirname(root)
    return root


def broken_citations(path: str) -> List[Tuple[int, str]]:
    """Return (line_number, target) for every dangling path cited in
    a docstring of the Python file ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    bases = (ROOT, _package_root(path),
             os.path.dirname(os.path.abspath(path)))
    broken = []
    for first, text in _docstrings(tree):
        for match in CITE_RE.finditer(text):
            target = match.group(1)
            if not any(os.path.exists(os.path.join(base, target))
                       for base in bases):
                number = first + text.count("\n", 0, match.start())
                broken.append((number, target))
    return sorted(broken)


def _expand(paths: List[str]) -> Iterator[str]:
    """The argument files, with directories expanded to their ``*.py``."""
    for path in paths:
        if not os.path.isdir(path):
            yield path
            continue
        for folder, _, names in sorted(os.walk(path)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def main(argv: List[str]) -> int:
    """Check every file in ``argv``; print and count broken links."""
    if not argv:
        print("usage: check_doc_links.py PATH [PATH...]", file=sys.stderr)
        return 2
    failures = 0
    for path in _expand(argv):
        check = broken_citations if path.endswith(".py") else broken_links
        for number, target in check(path):
            print(f"{path}:{number}: broken link -> {target}",
                  file=sys.stderr)
            failures += 1
    if failures:
        print(f"{failures} broken link(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
