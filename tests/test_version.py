"""The package's version against the distribution's manifest."""

from pathlib import Path

import pytest

import mvgc

ROOT = Path(__file__).resolve().parent.parent


def test_package_version_is_the_pyproject_version():
    # tomllib is standard from Python 3.11 on
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as handle:
        project = tomllib.load(handle)["project"]
    assert mvgc.__version__ == project["version"]
