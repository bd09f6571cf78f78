"""Compiled scipy extension modules, loaded without the package around them.

gpnav calls two compiled scipy modules: LAPACK's dpotrf/dpotrs from the f2py
module scipy.linalg._flapack, and linear_sum_assignment from
scipy.optimize._lsap. Their packages cost far more than they do: importing
scipy.linalg loads numpy.f2py, numpy.testing, numpy.ma and unittest, about
0.1 s and 17 MB per interpreter, and scipy.optimize about 0.14 s, none of
which the controller uses. The public functions are these modules' own
(scipy.linalg.lapack.dpotrf is _flapack.dpotrf, and
scipy.optimize.linear_sum_assignment is _lsap.linear_sum_assignment), so the
functions called, and every bit they return, are the same either way.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import scipy


def extension(name: str):
    """The compiled module scipy.<pkg>.<mod>, without importing scipy.<pkg>.

    Reuses the module when it is already loaded. Otherwise executes the
    extension file from its scipy folder under its own name and registers it
    in sys.modules, so a later import of the package finds the same module
    and the same functions. When no such file exists (another scipy layout),
    falls back to importing it the usual way: slower, the same functions.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    _, *packages, leaf = name.split(".")
    folder = os.path.join(scipy.__path__[0], *packages)
    paths = [os.path.join(folder, leaf + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        return importlib.import_module(name)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[name] = module
    return module
