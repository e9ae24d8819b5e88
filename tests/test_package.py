"""Every module of the package is reachable from the command line, every
function the benchmark traces exists, no module imports a name it never
uses, and none imports another module's private name."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys

import eqattn


def test_every_module_is_imported_by_the_cli():
    """A fresh `import eqattn.cli` loads every module of the package and
    leaves the process pool, which only --jobs above 1 uses, unloaded."""
    src = os.path.dirname(os.path.dirname(eqattn.__file__))
    probe = ("import sys, eqattn.cli; print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('eqattn.')))); "
             "print(' '.join(m for m in ('multiprocessing', "
             "'concurrent.futures') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    ours, pool = subprocess.run([sys.executable, "-c", probe], env=env,
                                check=True, capture_output=True,
                                text=True).stdout.split("\n")[:2]
    modules = [f"eqattn.{info.name}"
               for info in pkgutil.iter_modules(eqattn.__path__)]
    assert sorted(modules) == ours.split()
    assert pool == ""


def test_every_traced_function_exists():
    """perfbench/tracer.py wraps each function its LAYERS names ("Class.
    method" for a method), and the traced benchmark run fails on one that
    is gone."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(root, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, names in tracer.LAYERS.items():
        for name in names:
            obj = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not inspect.isfunction(obj):
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_no_module_imports_an_unused_name():
    """Each name a module under src/eqattn/ or tests/ imports is referenced
    in that module; `from __future__` imports are exempt."""
    dirs = [os.path.dirname(eqattn.__file__), os.path.dirname(__file__)]
    unused = []
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if not name.endswith(".py"):
                continue
            path = os.path.join(d, name)
            with open(path) as f:
                tree = ast.parse(f.read(), path)
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and \
                        node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    unused += [f"{path}:{node.lineno} {bound}"
                               for alias in node.names
                               if (bound := alias.asname
                                   or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_no_module_imports_a_private_name_of_another():
    """Each module owns its underscore names: no module under src/eqattn/
    imports one from another eqattn module."""
    d = os.path.dirname(eqattn.__file__)
    borrowed = []
    for name in sorted(os.listdir(d)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(d, name)
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("eqattn")):
                borrowed += [f"{name}:{node.lineno} {alias.name}"
                             for alias in node.names
                             if alias.name.startswith("_")]
    assert borrowed == []
