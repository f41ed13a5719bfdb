"""The demos that call the scalar locators run to completion.

Each demo asserts that its locators agree and prints a report; demo 04 is
a timing run and stays out of the suite.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_polygon_queries", "02_angular_slabs",
                                  "03_polyhedron_queries"])
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out.strip()
