"""Public-API surface checks.

A downstream user sees the library through ``repro`` and its
subpackages; these tests pin that surface: everything advertised in
``__all__`` must be importable, and every public module/class/function
must carry a docstring — the documentation deliverable, enforced.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

_SUBPACKAGES = (
    "repro",
    "repro.core",
    "repro.data",
    "repro.mobile",
    "repro.fab",
    "repro.datacenter",
    "repro.analysis",
    "repro.report",
    "repro.experiments",
    "repro.scenarios",
    "repro.traces",
    "repro.uncertainty",
    "repro.exec",
    "repro.obs",
    "repro.portfolio",
    "repro.serve",
)


def _all_modules() -> list[str]:
    names = []
    for package_name in _SUBPACKAGES:
        package = importlib.import_module(package_name)
        names.append(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                names.append(f"{package_name}.{info.name}")
    return sorted(set(names))


@pytest.mark.parametrize("module_name", _all_modules())
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("package_name", _SUBPACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert hasattr(package, name), f"{package_name}.__all__ lists {name!r}"


def test_top_level_all_is_complete_for_key_types():
    for name in (
        "Carbon", "Energy", "Power", "CarbonIntensity", "Table",
        "GHGInventory", "ProductLCA", "EmbodiedModel", "MobilePhone",
        "pixel3", "FabModel", "VendorModel", "run_experiment", "run_all",
    ):
        assert name in repro.__all__


@pytest.mark.parametrize("module_name", _all_modules())
def test_public_callables_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module_name:
            continue  # re-exports documented at their definition site
        if inspect.isclass(member) or inspect.isfunction(member):
            assert member.__doc__, f"{module_name}.{name} lacks a docstring"


#: Packages whose runners take the execution settings as ``**options``.
_EXEC_PACKAGES = (
    "repro.scenarios",
    "repro.uncertainty",
    "repro.portfolio",
    "repro.traces",
    "repro.exec",
    "repro.experiments",
)


@pytest.mark.parametrize(
    "module_name",
    [
        name
        for name in _all_modules()
        if name.startswith(_EXEC_PACKAGES)
    ],
)
def test_execution_settings_declared_only_by_exec_options(module_name):
    # One options value, not per-runner copies: a public function that
    # declares its own retries/timeout/on_error/checkpoint parameter is
    # the plumbing growing back one signature at a time.
    from repro.exec import ExecOptions

    settings = {"retries", "timeout", "on_error", "checkpoint"}
    module = importlib.import_module(module_name)
    for name, member in vars(module).items():
        if name.startswith("_") or member is ExecOptions:
            continue
        if getattr(member, "__module__", None) != module_name:
            continue
        target = member.__init__ if inspect.isclass(member) else member
        if inspect.isfunction(target):
            declared = settings & set(inspect.signature(target).parameters)
            assert not declared, (
                f"{module_name}.{name} declares {sorted(declared)}; take "
                "them as **options and build one ExecOptions"
            )


def test_version_is_exposed():
    assert repro.__version__ == "1.1.0"


def test_version_has_one_source():
    # repro.__version__, the CLI --version flag, and setup.py must all
    # read the same value from repro/_version.py.
    import re
    from pathlib import Path

    from repro import _version

    assert repro.__version__ == _version.__version__
    setup_text = Path(repro.__file__).parents[2].joinpath("setup.py").read_text(
        encoding="utf-8"
    )
    assert "_version.py" in setup_text
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
