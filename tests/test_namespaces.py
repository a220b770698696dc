"""Package namespaces are lazy (PEP 562), and that laziness is exact.

Every ``repro`` package ``__init__`` maps its public names to their
defining modules and imports a module only when one of its names is
first looked up (``repro/_namespace.py``).  These tests hold the
public surface to what the eager ``__init__`` files exported — the
same names, the very same objects — and hold each package to
importing cleanly on its own, which an eager package can hide: its
import order may break a cycle that a lone import then meets.
"""

import ast
import functools
import importlib
import os
import subprocess
import sys
import types

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
ROOT = os.path.join(SRC, "repro")

PACKAGES = ["repro"] + sorted(
    f"repro.{entry}" for entry in os.listdir(ROOT)
    if os.path.isfile(os.path.join(ROOT, entry, "__init__.py")))


def _module_files(package):
    """``(module name, path)`` for every module under *package*."""
    base = os.path.join(SRC, *package.split("."))
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py") and filename != "__init__.py":
                path = os.path.join(dirpath, filename)
                name = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
                yield name, path


@functools.lru_cache(maxsize=None)
def _top_level_names(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name):
            names.add(node.target.id)
    return names


def _defining_modules(package, name):
    """Modules under *package* whose source binds *name* at top level,
    found by reading the source, not by asking the namespace."""
    return [module for module, path in _module_files(package)
            if name in _top_level_names(path)]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_is_the_defining_modules_object(package):
    namespace = importlib.import_module(package)
    listing = dir(namespace)
    assert namespace.__all__ and len(set(namespace.__all__)) == len(
        namespace.__all__)
    for name in namespace.__all__:
        value = getattr(namespace, name)
        assert name in listing
        if name == "__version__":
            continue
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"{package}.{name}")
            continue
        owners = _defining_modules(package, name)
        assert any(value is getattr(importlib.import_module(owner), name)
                   for owner in owners), (name, owners)
        # The first lookup is stored: later ones are plain dict hits.
        assert vars(namespace)[name] is value


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_all(package):
    bound = {}
    exec(f"from {package} import *", bound)
    namespace = importlib.import_module(package)
    assert set(namespace.__all__) <= set(bound)
    for name in namespace.__all__:
        assert bound[name] is getattr(namespace, name)


def test_unknown_names_raise_attribute_error():
    import repro
    import repro.core
    import repro.sim
    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.core.Nope
    with pytest.raises(AttributeError, match="'repro' has no attribute"):
        repro.Nope
    assert not hasattr(repro.sim, "Nope")
    with pytest.raises(ImportError):
        exec("from repro.core import Nope", {})


@pytest.mark.parametrize("module", PACKAGES)
def test_imports_alone_in_a_fresh_interpreter(module):
    """An eager root package hid a cycle (firewall -> admin -> services
    -> agent -> firewall) behind its own import order; each package
    must import first and alone.  (``repro.cli`` alone is
    ``test_suites.test_importing_the_cli_imports_no_command``.)"""
    script = (f"import sys, {module}\n"
              "print(' '.join(sorted(m for m in sys.modules\n"
              "                      if m.split('.')[0] == 'repro')))\n")
    result = subprocess.run(
        [sys.executable, "-c", script], timeout=60, capture_output=True,
        text=True, cwd=os.path.dirname(SRC),
        env=dict(os.environ, PYTHONPATH=SRC))
    assert result.returncode == 0, result.stderr
    # A package costs one module (plus the namespace helper) until a
    # name is looked up.
    assert set(result.stdout.split()) == {
        "repro", "repro._namespace", module}
