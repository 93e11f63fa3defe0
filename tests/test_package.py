"""Package surface: ``bellepr.__all__`` lists exactly the names that
``bellepr/__init__.py`` imports, the configuration schema ships as package
data, and the package version is written once."""

import importlib.resources
import types
import warnings
from pathlib import Path

import pytest

import bellepr


def test_all_lists_every_imported_name():
    imported = {
        name
        for name, value in vars(bellepr).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(bellepr.__all__) == len(set(bellepr.__all__))
    assert set(bellepr.__all__) == imported | {"__version__"}
    for name in bellepr.__all__:
        assert getattr(bellepr, name) is not None


def test_config_schema_is_package_data():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    package_data = pyproject["tool"]["setuptools"]["package-data"]
    assert "config-schema.json" in package_data["bellepr"]
    packaged = importlib.resources.files("bellepr").joinpath("config-schema.json")
    assert packaged.is_file()
    # the published document is a link to the packaged file, not a second copy
    docs = root / "docs" / "config-schema.json"
    assert docs.is_symlink()
    assert docs.resolve() == Path(str(packaged)).resolve()


def test_version_is_written_once():
    # pyproject.toml reads the version from bellepr.__version__
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = Path(__file__).resolve().parents[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] support is marked beta
        config = pyprojecttoml.read_configuration(root / "pyproject.toml")
    assert "version" in config["project"]["dynamic"]
    assert config["project"]["version"] == bellepr.__version__
