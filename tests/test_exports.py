"""Export hygiene: every name a repro package lists in ``__all__`` exists.

The package ``__init__`` export lists are the documented import paths
(``from repro.sim import simulate``).  A name left in a list after its
definition is deleted breaks ``from <package> import *`` and misleads
readers of the list; this test keeps every list resolvable.
"""

import importlib
import pkgutil

import pytest

import repro


def _package_names():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", _package_names())
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [entry for entry in exported if not hasattr(package, entry)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported), (
        f"{name}.__all__ lists a name twice"
    )
