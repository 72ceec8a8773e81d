"""pydocstyle-lite: the public API surface must be documented.

Two enforcement levels:

* every ``__all__`` export of the public packages has a non-empty
  docstring (classes, functions, and the modules themselves);
* the modules named by the docs pass (``repro`` itself,
  ``repro.sim.batch``, ``repro.sim.runner``, ``repro.core.controller``,
  and the scenario subsystem) are additionally checked method-by-method:
  every public def/property of every public class defined in the module
  needs its own docstring.

Keeping this as a test (rather than a linter config) means the check
runs wherever the suite runs, with no extra tooling.
"""

import importlib
import inspect

import pytest

#: Packages whose ``__all__`` exports must each carry a docstring.
ALL_EXPORT_MODULES = (
    "repro",
    "repro.sim",
    "repro.metrics",
    "repro.workloads",
    "repro.baselines",
    "repro.experiments",
    "repro.scenarios",
    "repro.fleet",
    "repro.sched",
    "repro.hardware",
    "repro.oslayer",
    "repro.analysis",
    "repro.perf",
    "repro.core",
    "repro.cluster",
    "repro.obs",
)

#: Modules checked member-by-member (every public class/function defined
#: in the module, and every public method/property of those classes).
DEEP_MODULES = (
    "repro",
    "repro.sim.batch",
    "repro.sim.runner",
    "repro.sim.engine",
    "repro.metrics.columns",
    "repro.metrics.windows",
    "repro.metrics.history",
    "repro.core.controller",
    "repro.scenarios.spec",
    "repro.scenarios.loader",
    "repro.scenarios.registry",
    "repro.scenarios.compiler",
    "repro.fleet.shard",
    "repro.fleet.aggregate",
    "repro.fleet.simulator",
    "repro.sched.jobs",
    "repro.sched.policies",
    "repro.sched.scheduler",
    "repro.sched.report",
)


def _missing_doc(obj) -> bool:
    """True when the object lacks a (non-empty) docstring of its own."""
    doc = inspect.getdoc(obj)
    return not (doc and doc.strip())


def _class_offenders(cls, where: str) -> list:
    """Public methods/properties of ``cls`` (own namespace) without docs."""
    offenders = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            target = member.fget
        elif isinstance(member, (staticmethod, classmethod)):
            target = member.__func__
        elif inspect.isfunction(member):
            target = member
        else:
            continue
        if target is not None and _missing_doc(target):
            offenders.append(f"{where}.{cls.__name__}.{name}")
    return offenders


@pytest.mark.parametrize("module_name", ALL_EXPORT_MODULES)
def test_all_exports_documented(module_name):
    """Every ``__all__`` export carries a docstring."""
    module = importlib.import_module(module_name)
    assert not _missing_doc(module), f"{module_name}: module docstring"
    offenders = []
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if not (inspect.isclass(obj) or callable(obj)
                or inspect.ismodule(obj)):
            continue  # plain constants (e.g. __version__, tuples)
        if _missing_doc(obj):
            offenders.append(f"{module_name}.{name}")
    assert not offenders, f"undocumented __all__ exports: {offenders}"


@pytest.mark.parametrize("module_name", DEEP_MODULES)
def test_public_members_documented(module_name):
    """Every public class/function — and their public methods — has docs."""
    module = importlib.import_module(module_name)
    offenders = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            if _missing_doc(obj):
                offenders.append(f"{module_name}.{name}")
            offenders.extend(_class_offenders(obj, module_name))
        elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
            if _missing_doc(obj):
                offenders.append(f"{module_name}.{name}")
    assert not offenders, f"undocumented public members: {offenders}"
