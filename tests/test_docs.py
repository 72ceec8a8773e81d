"""Documentation health: doctests in the docs run, links resolve.

The CI ``docs`` job runs the same two checks standalone
(``python -m doctest`` + ``tools/check_doc_links.py``); keeping them in
the tier-1 suite means a doc-breaking change fails locally too.
"""

import doctest
import glob
import os
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DOC_FILES = [os.path.join(ROOT, "README.md")] + sorted(
    glob.glob(os.path.join(ROOT, "docs", "*.md")))

sys.path.insert(0, os.path.join(ROOT, "tools"))
import check_doc_links  # noqa: E402


def test_docs_exist():
    """The documented docs tree is present and linked material exists."""
    names = {os.path.basename(p) for p in DOC_FILES}
    assert {"README.md", "architecture.md", "scenarios.md"} <= names


@pytest.mark.parametrize("path", DOC_FILES,
                         ids=[os.path.basename(p) for p in DOC_FILES])
def test_doc_doctests_pass(path):
    """Every ``>>>`` example in the docs executes and matches."""
    result = doctest.testfile(path, module_relative=False, verbose=False)
    assert result.failed == 0, f"{path}: {result.failed} doctest failure(s)"


@pytest.mark.parametrize("path", DOC_FILES,
                         ids=[os.path.basename(p) for p in DOC_FILES])
def test_doc_links_resolve(path):
    """Every relative markdown link points at an existing file."""
    assert check_doc_links.broken_links(path) == []


def test_link_checker_catches_breakage(tmp_path):
    """The checker itself flags a dangling link (meta-test)."""
    bad = tmp_path / "bad.md"
    bad.write_text("see [here](missing_file.md) and "
                   "[ok](https://example.com)\n")
    broken = check_doc_links.broken_links(str(bad))
    assert broken == [(1, "missing_file.md")]


def test_src_docstring_citations_resolve():
    """Every repo path a ``src/`` docstring cites exists."""
    broken = {path: check_doc_links.broken_citations(path)
              for path in check_doc_links._expand(
                  [os.path.join(ROOT, "src")])}
    assert {path: b for path, b in broken.items() if b} == {}


def test_citation_checker_catches_breakage(tmp_path):
    """The docstring checker flags a dangling citation (meta-test)."""
    bad = tmp_path / "bad.py"
    bad.write_text('"""Module.\n\nSee ``benchmarks/nope.py`` and '
                   'GONE.md, not https://example.com/a.py."""\n\n\n'
                   'def f():\n    """Bench: ``tests/test_docs.py``."""\n')
    assert check_doc_links.broken_citations(str(bad)) == [
        (3, "GONE.md"), (3, "benchmarks/nope.py")]
