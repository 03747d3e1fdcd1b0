"""The six LAPACK and BLAS routines the library calls, without the
``scipy.linalg`` package.

``dpotrf``, ``dpotrs``, ``dtrtri``, ``dgeqrf`` and ``dgeqrf_lwork`` live in
the extension module ``scipy.linalg._flapack``, and ``dtrmm`` in
``scipy.linalg._fblas``; ``scipy.linalg.lapack`` and ``scipy.linalg.blas``
re-export these same objects. Importing ``scipy.linalg`` runs its package
``__init__``, which loads the whole linear-algebra namespace and, through
SciPy's array-API layer, ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``:
about 0.2 s and 18 MB in every process. The two extension files load in a
few milliseconds. Each is registered in ``sys.modules`` under its own name,
so a later ``import scipy.linalg`` reuses the same module objects, and the
routines are the same objects whichever is imported first.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys

__all__ = ["dgeqrf", "dgeqrf_lwork", "dpotrf", "dpotrs", "dtrmm", "dtrtri"]


def _extension(name: str):
    """``scipy.linalg.<name>``: the imported module if there is one, else the
    module loaded from its extension file in the ``scipy.linalg`` folder, else
    (no such file) the module imported through the package."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    # finding the package's folder imports the top-level scipy only
    for folder in importlib.util.find_spec("scipy.linalg").submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, name + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(full, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[full] = module
                try:
                    spec.loader.exec_module(module)
                except BaseException:
                    del sys.modules[full]
                    raise
                return module
    return importlib.import_module(full)


_flapack = _extension("_flapack")
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dtrtri = _flapack.dtrtri
dgeqrf = _flapack.dgeqrf
dgeqrf_lwork = _flapack.dgeqrf_lwork
dtrmm = _extension("_fblas").dtrmm
