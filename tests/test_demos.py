"""Every demo runs to completion.

Each demo asserts that its locators agree and prints a report.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out.strip()
