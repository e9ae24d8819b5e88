"""Every module of the package is reachable from the command line."""

import os
import pkgutil
import subprocess
import sys

import eqattn


def test_every_module_is_imported_by_the_cli():
    src = os.path.dirname(os.path.dirname(eqattn.__file__))
    probe = ("import sys, eqattn.cli; print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('eqattn.'))))")
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                            check=True, capture_output=True,
                            text=True).stdout.split()
    modules = [f"eqattn.{info.name}"
               for info in pkgutil.iter_modules(eqattn.__path__)]
    assert sorted(modules) == loaded
