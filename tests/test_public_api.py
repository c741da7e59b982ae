"""Public API surface checks."""

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_all_sorted(self):
        assert list(repro.__all__) == sorted(repro.__all__)

    def test_subpackage_alls_resolve(self):
        import repro.backbone
        import repro.config
        import repro.core
        import repro.drtest
        import repro.fleet
        import repro.incidents
        import repro.io
        import repro.remediation
        import repro.runtime
        import repro.scenarios
        import repro.services
        import repro.simulation
        import repro.stats
        import repro.topology
        import repro.viz

        for module in (repro.backbone, repro.config, repro.core,
                       repro.drtest, repro.fleet, repro.incidents,
                       repro.io, repro.remediation, repro.runtime,
                       repro.scenarios, repro.services, repro.simulation,
                       repro.stats, repro.topology, repro.viz):
            for name in module.__all__:
                assert hasattr(module, name), (
                    f"{module.__name__} missing {name}"
                )

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
