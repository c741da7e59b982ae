"""Every layer entry point perfbench wraps is defined where it names.

``perfbench/launch.py`` wraps each ``ENTRY_POINTS`` name by reading
``owner.__dict__[attr]``, so a traced benchmark run dies on a name that
was renamed, deleted or moved to a base class.  This test catches that
in the tier-1 suite instead of in the separate benchmark gate.  It
loads ``launch.py`` by path and changes nothing under ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    return launch.ENTRY_POINTS


ENTRY_POINTS = _entry_points()


def test_entry_points_are_listed():
    assert len(ENTRY_POINTS) >= 28


@pytest.mark.parametrize(
    "module_name,path",
    sorted({(module, path) for _, module, path, _ in ENTRY_POINTS}),
)
def test_entry_point_is_defined_on_its_own_owner(module_name, path):
    owner = importlib.import_module(module_name)
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head)
    assert attr in vars(owner), (
        f"{module_name}.{path} is not defined on {owner!r} itself"
    )
