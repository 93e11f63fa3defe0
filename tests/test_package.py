"""Package surface: ``bellepr.__all__`` lists exactly the names that
``bellepr/__init__.py`` imports, every name a module's ``__all__`` lists
exists on that module, no module imports a name it neither uses
nor exports, each module imports from inside the package only the modules
its layer allows, the configuration schema ships as package data, the package
version is written once, and every function the benchmark tracer wraps by
name exists once ``bellepr.cli`` is imported,
and the benchmark's first-cycle sweeps reproduce its reference values;
the README's Python example runs and prints what it promises, and its
config sketch is a valid config that ``correlate`` runs."""

import ast
import contextlib
import importlib.resources
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import bellepr


MODULES = sorted(
    f"bellepr.{path.stem}"
    for path in Path(bellepr.__file__).resolve().parent.glob("*.py")
    if path.stem != "__init__"
)


@pytest.mark.parametrize("module", ["bellepr", *MODULES])
def test_all_lists_every_imported_name(module):
    # a module's __all__ names only what it has: a stale export of a deleted
    # name fails here; the package lists exactly what it imports
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(mod, name)] == []
    if mod is bellepr:
        imported = {
            name
            for name, value in vars(bellepr).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert set(bellepr.__all__) == imported | {"__version__"}


def test_no_module_imports_a_name_it_neither_uses_nor_exports():
    # an import left behind when its last use goes
    unused = {}
    for path in sorted(Path(bellepr.__file__).resolve().parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
        left = imported - used - exported
        if left:
            unused[path.name] = sorted(left)
    assert unused == {}


#: Each module's imports from inside the package, by file stem (``__init__``
#: for the package itself).  The amplitude layer, states, knows no vacuum:
#: vacuum is the one module that knows the vacuum families.  A new
#: cross-layer import has to be added here on purpose.
LAYERS = {
    "errors": set(),
    "spinor_tetrad": {"errors"},
    "measure": {"errors", "spinor_tetrad"},
    "vacuum": {"errors", "measure", "spinor_tetrad"},
    "states": {"errors", "measure", "spinor_tetrad"},
    "correlators": {"errors", "measure", "spinor_tetrad", "states", "vacuum"},
    "fock_oracle": {"errors", "spinor_tetrad", "states"},
    "cli": {
        "__init__", "correlators", "errors", "fock_oracle", "measure", "spinor_tetrad",
        "states", "vacuum",
    },
    "__init__": {"correlators", "errors", "measure", "spinor_tetrad", "states", "vacuum"},
}


def package_imports(path):
    """The stems of the package modules that the source file ``path`` imports
    from, at module level or inside a function, by relative or absolute name."""
    stems = {p.stem for p in path.parent.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imports = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"bellepr.{module}".rstrip(".")
            imports = [(module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in imports:
            parts = module.split(".")
            if parts[0] != "bellepr":
                continue
            if len(parts) > 1:
                found.add(parts[1])
            else:  # `from . import name`: a submodule or a name of the package
                found.add(name if name in stems else "__init__")
    return found


def test_each_module_imports_only_what_its_layer_allows():
    package = Path(bellepr.__file__).resolve().parent
    graph = {path.stem: package_imports(path) for path in sorted(package.glob("*.py"))}
    assert graph == LAYERS


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


def test_benchmark_tracer_names_exist_after_importing_the_cli():
    # perfbench/tracing.py wraps its SPANS and COUNTERS by (module, function)
    # name, read from sys.modules right after `import bellepr.cli`; a renamed,
    # deleted or lazily imported one breaks every traced benchmark run
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", root / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [[mod, fn] for mod, fn, _, _ in tracing.SPANS + tracing.COUNTERS]
    assert len(names) == 18
    child = (
        "import json, sys\n"
        "import bellepr.cli\n"
        "missing = [[m, f] for m, f in json.loads(sys.argv[1])\n"
        "           if m not in sys.modules or not callable(getattr(sys.modules[m], f, None))]\n"
        "print(json.dumps(missing))\n"
    )
    src = str(Path(bellepr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", child, json.dumps(names)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def perfbench_module(name, monkeypatch):
    """``perfbench/<name>.py``, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # where its dataclasses look
    spec.loader.exec_module(module)
    return module


def test_benchmark_first_cycles_match_the_benchmark_reference(tmp_path, monkeypatch):
    # the benchmark checks every correlate CSV against perfbench/reference.json
    # and counts a changed value as a failed operation
    from bellepr.cli import main

    workloads, checks = (perfbench_module(name, monkeypatch) for name in ("workloads", "checks"))
    reference = checks.load_reference()
    jobs = [
        job
        for workload in workloads.WORKLOADS
        for job in workloads.jobs(workload, 0, cycles=1)
        if job.command == "correlate"
    ]
    assert len(jobs) == 16
    cfg, out = tmp_path / "job.yaml", tmp_path / "job.csv"
    for job in jobs:
        assert job.sha in reference, job.label
        cfg.write_text(job.text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["correlate", str(cfg), "--out", str(out), "--threads", "1"]) == 0
        text = out.read_text(encoding="utf-8")
        assert checks.check_correlate(text, job.rows, reference[job.sha]) == [], job.label


def test_readme_python_example_prints_about_minus_one():
    # the example names public functions; run it so a renamed one fails here
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_example"})
    value = float(out.getvalue().split()[0])
    assert value == pytest.approx(-1.0, abs=0.01)  # "about -1.0 at the matched setting"


def test_readme_config_sketch_is_a_valid_config_that_runs(tmp_path):
    # the sketch shows the schema's shape; validate and run it so it cannot go stale
    import jsonschema
    import yaml

    from bellepr.cli import CONFIG_SCHEMA, EXIT_OK, main

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    jsonschema.validate(yaml.safe_load(blocks[0]), CONFIG_SCHEMA)
    cfg, out = tmp_path / "sketch.yaml", tmp_path / "sketch.csv"
    cfg.write_text(blocks[0], encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["correlate", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    rows = [line for line in lines if not line.startswith(("#", "sweep_value"))]
    assert len(rows) == 13
