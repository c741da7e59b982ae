"""Public API surface checks."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro


def _packages():
    """``repro`` and every one of its subpackages."""
    return [repro] + [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    ]


def _export_table(package):
    """The ``{module: names}`` table a package hands ``lazy_exports``."""
    tree = ast.parse(Path(package.__file__).read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package.__name__} has no export table")


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_all_sorted(self):
        assert list(repro.__all__) == sorted(repro.__all__)

    def test_subpackage_alls_resolve(self):
        # Every export is the object its defining module holds, also
        # once every submodule is loaded: a submodule named like an
        # export would replace the package attribute on import.
        for package in _packages():
            table = _export_table(package)
            assert package.__all__ == sorted(
                name for names in table.values() for name in names
            ), package.__name__
            for info in pkgutil.walk_packages(package.__path__,
                                              package.__name__ + "."):
                importlib.import_module(info.name)
            for module, names in table.items():
                owner = importlib.import_module(module)
                for name in names:
                    assert getattr(package, name) is getattr(owner, name), (
                        f"{package.__name__}.{name} is not {module}.{name}"
                    )

    def test_dir_lists_every_export(self):
        for package in _packages():
            missing = set(package.__all__) - set(dir(package))
            assert not missing, (package.__name__, sorted(missing))

    def test_unknown_name_is_an_attribute_error_naming_the_package(self):
        for package in _packages():
            with pytest.raises(AttributeError,
                               match=re.escape(repr(package.__name__))):
                getattr(package, "no_such_export")

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        for name in repro.__all__:
            assert namespace[name] is getattr(repro, name)

    def test_quickstart_from_docstring(self):
        # The module docstring's quickstart must actually run.
        report = repro.run_intra_report(repro.build_intra_context(scale=0.05))
        assert sum(report.root_causes.distribution().values()) > 0.99
        assert report.switches.mtbi(2017, repro.DeviceType.RSW) > 0

    def test_core_functions_take_no_store_or_monitor(self):
        # repro.core holds result types and the pure math the runtime's
        # analyses run, not a second way to compute their artifacts:
        # only the helpers for questions no analysis asks (SEVs per
        # employee, Figure 14) read a SEV store or a backbone monitor.
        import importlib
        import inspect
        import pkgutil

        import repro.core

        readers = set()
        for info in pkgutil.iter_modules(repro.core.__path__):
            module = importlib.import_module(f"repro.core.{info.name}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    params = inspect.signature(obj).parameters
                    if {"store", "monitor"} & set(params):
                        readers.add(name)
        assert readers <= {
            "irt_fleet_correlation", "irt_vs_fleet_size", "sevs_per_employee",
        }, sorted(readers)

    def test_analyses_never_import_paperdata(self):
        # The reproduction contract: repro.core recovers the numbers
        # from data; it must not read the published constants.
        import pathlib

        core_dir = pathlib.Path(repro.__file__).parent / "core"
        for path in core_dir.glob("*.py"):
            for line in path.read_text().splitlines():
                assert not (
                    line.strip().startswith(("import", "from"))
                    and "paperdata" in line
                ), f"{path.name} imports the published constants"
