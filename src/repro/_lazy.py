"""Package exports that import their defining module on first use.

Every ``repro`` package ``__init__`` names each of its exports once, in
a table from defining module to names, and imports nothing::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.viz.tables": ("format_table", "percent"),
        "repro.viz.grid_view": ("axis_table", "grid_table"),
    })

``import repro.viz`` then loads no submodule.  The first
``repro.viz.format_table`` (or ``from repro.viz import format_table``)
imports ``repro.viz.tables`` through the module ``__getattr__`` hook of
PEP 562 and stores the value in the package namespace, so every later
read is a plain attribute lookup.  A name the package defines itself is
listed under the package's own name.
"""

import importlib
import sys


def lazy_exports(package, table):
    """``(__all__, __getattr__, __dir__)`` for ``package``'s export table.

    ``table`` maps a module name to the names it defines that
    ``package`` exports; ``__all__`` is every such name, sorted.
    """
    owner = {name: module for module, names in table.items()
             for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | owner.keys())

    return sorted(owner), __getattr__, __dir__
