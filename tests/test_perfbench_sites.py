"""Every program name the benchmark's span tracer wraps still resolves.

``perfbench/tracer.py`` looks its :data:`SITES` up only when a traced
run installs its wrappers, so deleting or renaming a wrapped callable
would otherwise break nothing but ``--trace 1`` benchmark runs.  Each
entry is resolved here the way ``install`` resolves it — import the
module, walk the attribute path, check the target is callable — with
no wrapper installed.
"""

import importlib
import importlib.util
import os

import pytest


def _load_sites():
    """The tracer's site table, ``perfbench/tracer.py``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr_path)
            for _, module_name, attr_path, _ in module.SITES]


SITES = _load_sites()


@pytest.mark.parametrize("module_name,attr_path", SITES,
                         ids=[f"{m}:{p}" for m, p in SITES])
def test_wrapped_name_resolves(module_name, attr_path):
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr)), (
        f"{module_name}.{attr_path} is not callable")
