"""Every module of the package imports, and every exported name resolves.

A deletion that leaves a dangling import, or an ``__all__`` entry
naming something gone, fails here at once rather than in whichever
test or entry point happens to reach it.
"""

import importlib
import pkgutil

import repro


def test_every_module_imports_and_every_export_resolves():
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"]      # runs the CLI on import
    unresolved = []
    for name in names:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            try:
                getattr(module, export)
            except AttributeError:
                try:        # a subpackage listed by name, as repro's own
                    importlib.import_module(f"{name}.{export}")
                except ImportError:
                    unresolved.append(f"{name}.{export}")
    assert len(names) > 60
    assert unresolved == []
