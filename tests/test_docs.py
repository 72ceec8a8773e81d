"""Documentation health: doctests in the docs run, links resolve.

The CI ``docs`` job runs the same two checks standalone
(``python -m doctest`` + ``tools/check_doc_links.py``); keeping them in
the tier-1 suite means a doc-breaking change fails locally too.
"""

import doctest
import glob
import os
import re
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


def _doc_tables(path):
    """``{spec class name: [table, ...]}`` for each `` `XSpec` `` section
    of a markdown file; a table is its rows, each a list of cells."""
    sections, tables, table = {}, None, None
    with open(path) as handle:
        for line in handle:
            if line.startswith("#"):
                match = re.search(r"`(\w+Spec)`", line)
                tables = sections.setdefault(match.group(1), []) \
                    if match else None
                table = None
            elif line.startswith("|") and tables is not None:
                if table is None:
                    table = []
                    tables.append(table)
                cells = [c.strip() for c in line.strip().strip("|")
                         .split("|")]
                if not set(cells[0]) <= set("-"):
                    table.append(cells)
            else:
                table = None
    return sections


def _first_column(table):
    """The backticked names in a table's first column (header dropped)."""
    return [row[0].strip("`") for row in table[1:]]


def test_scenarios_doc_schema_matches_spec_fields():
    """Each spec section's ``| field |`` table lists exactly the spec's
    dataclass fields, in order; the trace-kind and injection-action
    tables match their constants."""
    import dataclasses

    from repro.scenarios import spec as spec_module
    from repro.sim.chaos import CHAOS_EVENT_ACTIONS
    sections = _doc_tables(os.path.join(ROOT, "docs", "scenarios.md"))
    checked = set()
    for name, tables in sections.items():
        for table in tables:
            if table[0][0] == "field":
                fields = dataclasses.fields(getattr(spec_module, name))
                assert _first_column(table) == [f.name for f in fields], \
                    name
                checked.add(name)
    specs = {cls.__name__ for cls in spec_module._Spec.__subclasses__()}
    assert checked == specs - {"SpikeSpec", "TraceSpec"}
    kinds = next(t for t in sections["TraceSpec"] if t[0][0] == "kind")
    assert {row[0].strip("`"): tuple(re.findall(r"`(\w+)`", row[1]))
            for row in kinds[1:]} == spec_module._TRACE_KIND_FIELDS
    actions = next(t for t in sections["InjectionSpec"]
                   if t[0][0] == "action")
    assert tuple(_first_column(actions)) == CHAOS_EVENT_ACTIONS
