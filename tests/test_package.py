"""Every module of the package is reachable from the command line, every
function the benchmark traces exists, no module imports a name it never
uses, none imports another module's private name, no memo keys on object
identity, and every name the package defines is read by the package or the
benchmark."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys

import eqattn
from eqattn import attn
from eqattn.bitnum import FxFormat


def test_every_module_is_imported_by_the_cli():
    """A fresh `import eqattn.cli` loads every module of the package and
    none that only some commands need, or none does, since every command
    pays for the import: the process pool (no command starts one), json
    (only the weights files) and dataclasses with the inspect it imports
    (no record)."""
    src = os.path.dirname(os.path.dirname(eqattn.__file__))
    probe = ("import sys, eqattn.cli; print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('eqattn.')))); "
             "print(' '.join(m for m in ('multiprocessing', "
             "'concurrent.futures', 'dataclasses', 'inspect', 'json') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    ours, unused = subprocess.run([sys.executable, "-c", probe], env=env,
                                  check=True, capture_output=True,
                                  text=True).stdout.split("\n")[:2]
    modules = [f"eqattn.{info.name}"
               for info in pkgutil.iter_modules(eqattn.__path__)]
    assert sorted(modules) == ours.split()
    assert unused == ""


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


def test_memo_tables_key_on_values_not_identity():
    """No module under src/eqattn/ calls id(): every memo table keys on
    values (attn._rep), which stay equal for equal values whatever table
    held them, so no table keeps canonical objects alive to make an id
    safe.  The fold's step table is that one table: no intern table, no
    intern or end_run."""
    d = os.path.dirname(eqattn.__file__)
    calls = []
    for name in sorted(os.listdir(d)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(d, name)
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        calls += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert calls == []
    table = attn._Steps(FxFormat(4))
    assert sorted(vars(table)) == ["add", "fmt", "steps"]
    assert not any(hasattr(table, name) for name in ("intern", "end_run"))


def _fields(node):
    """The fields a class declares: the names its body annotates.  In the
    package only records annotate names, and every record is a NamedTuple,
    whose fields a subclass may extend with methods (FxFormat's are
    _FxFields')."""
    return [n.target.id for n in node.body if isinstance(n, ast.AnnAssign)]


def test_every_package_name_is_read_outside_the_tests():
    """Each top-level function, class and constant defined in src/eqattn/
    is named somewhere in src/eqattn/ or perfbench/ besides its
    definition: an attribute, a name read, or a string that is one dotted
    identifier, as perfbench/tracer.py names what it wraps
    ("PromiseSet.check").  Words of prose strings do not count.  Each
    method, property or class constant (a name a class body assigns, as in
    name = classmethod(...)) is read there as an attribute, x.name, or
    named by such a string: a local variable of the same name does not
    count.
    Each field of a record (a name a class body annotates) is read there
    as an attribute, x.field.  A name only the tests read belongs in the
    tests.  Dunder names are called by Python itself, and _make by
    NamedTuple's _replace; table_outline feeds the checked-in outline
    check.  Cell is exempt: attn.fold reads its fields by index, through
    _FOLDS."""
    pkg = os.path.dirname(eqattn.__file__)
    bench = os.path.join(os.path.dirname(os.path.dirname(pkg)), "perfbench")
    named, read, dotted, defined, members, fields = \
        set(), set(), set(), [], [], []
    for d in (pkg, bench):
        for name in sorted(os.listdir(d)):
            if not name.endswith(".py"):
                continue
            path = os.path.join(d, name)
            with open(path) as f:
                tree = ast.parse(f.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and \
                        not isinstance(node.ctx, ast.Store):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
                elif isinstance(node, ast.Constant) and \
                        isinstance(node.value, str) and \
                        all(part.isidentifier()
                            for part in node.value.split(".")):
                    dotted.update(node.value.split("."))
            if d != pkg:
                continue
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    members += [(name, f"{node.name}.{n.name}", n.name)
                                for n in node.body
                                if isinstance(n, ast.FunctionDef)]
                    members += [(name, f"{node.name}.{t.id}", t.id)
                                for n in node.body
                                if isinstance(n, ast.Assign)
                                for t in n.targets
                                if isinstance(t, ast.Name)]
                if isinstance(node, ast.ClassDef) and node.name != "Cell":
                    fields += [(name, f"{node.name}.{field}", field)
                               for field in _fields(node)]
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((name, node.name, node.name))
                targets = (node.targets if isinstance(node, ast.Assign) else
                           [node.target] if isinstance(node, ast.AnnAssign)
                           else [])
                defined += [(name, t.id, t.id) for t in targets
                            if isinstance(t, ast.Name)]

    def unread_of(names, seen):
        return [f"{module}:{qual}" for module, qual, bare in names
                if bare not in seen
                and bare not in ("table_outline", "__version__", "_make")
                and not (bare.startswith("__") and bare.endswith("__"))]

    unread = unread_of(defined, named | dotted) + \
        unread_of(members, read | dotted)
    unread += [f"{module}:{qual}" for module, qual, field in fields
               if field not in read]
    assert unread == []
