"""The library's one LAPACK and BLAS boundary: the six routines it calls,
loaded without the ``scipy.linalg`` package, and the one copy of each input
check and factorization error around them. ``require_finite`` is scipy's
non-finite check, which the raw routines skip; ``cholesky`` (dpotrf) and
``qr_r`` (dgeqrf) are the checked factorizations, and ``tril_inverse``
inverts a lower-triangular factor by halves, with dtrtri on blocks below
``TRTRI_BLOCK_ROWS`` rows and dtrmm joining them.

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

import numpy as np

from .exceptions import NumericalError

__all__ = ["cholesky", "dgeqrf", "dgeqrf_lwork", "dpotrf", "dpotrs", "dtrmm", "dtrtri",
           "qr_r", "require_finite", "tril_inverse"]

# tril_inverse splits a factor of at least this many rows; below it one
# dtrtri call is faster (OpenBLAS, one thread, 2-CPU x86-64 VM)
TRTRI_BLOCK_ROWS = 64


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


def require_finite(*arrays):
    """Raise scipy's ValueError if any array holds an inf or a NaN: the check
    scipy.linalg makes and the raw routines above do not."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def cholesky(a, overwrite=False):
    """``cho_factor(a, lower=True)[0]`` without its checks, in place for a
    Fortran-ordered a with ``overwrite``; a failed factorization raises
    NumericalError. a is not checked to be finite, so that a Newton fit
    checks its K once, not at every iteration."""
    c, info = dpotrf(a, lower=1, overwrite_a=overwrite, clean=0)
    if info:
        raise NumericalError(
            "Cholesky factorization failed: "
            f"{info}-th leading minor of the array is not positive definite"
        )
    return c


def qr_r(A):
    """R of a QR of the N x n matrix A, from dgeqrf with its optimal
    workspace: upper triangular, min(N, n) x n, and in C order, so that R^T
    is the Fortran-ordered operand dtrmm takes without a copy. A non-finite
    A raises ValueError."""
    require_finite(A)
    rows, cols = A.shape
    # a Householder QR has no failure mode; info reports only bad arguments
    qr = dgeqrf(A, lwork=int(dgeqrf_lwork(rows, cols)[0]))[0]
    return np.ascontiguousarray(np.triu(qr[: min(rows, cols)]))


def tril_inverse(L):
    """The inverse of the lower triangle of the n x n factor L, as a new
    Fortran-ordered array; L is not written. Below ``TRTRI_BLOCK_ROWS`` rows
    it is one dtrtri call. Above, L is halved, [[A, 0], [C, D]]^-1 =
    [[A^-1, 0], [-D^-1 C A^-1, D^-1]] (the recursive block method of Higham
    2002, sec. 14.2): the diagonal blocks are inverted the same way and two
    dtrmm calls form -D^-1 (C A^-1), each block written once into one zeroed
    array. The flop count is dtrtri's n^3/3, but dtrmm runs at
    matrix-multiply speed where OpenBLAS's dtrtri does not: at n = 150 this
    takes about 90 us against 170 us (one thread, 2-CPU x86-64 VM). Only
    the lower triangle is the inverse: the strict upper triangle is zero
    except inside the blocks dtrtri inverted, where it keeps L's entries.
    L is not checked for infs, NaNs or a zero diagonal."""
    n = L.shape[0]
    if n < TRTRI_BLOCK_ROWS:
        return dtrtri(L, lower=1)[0]
    out = np.zeros((n, n), order="F")
    _tril_inverse_into(L, out)
    return out


def _tril_inverse_into(L, out):
    """Write the inverse of L's lower triangle into out, a view of
    ``tril_inverse``'s array, and return it for the caller's dtrmm: below
    ``TRTRI_BLOCK_ROWS`` rows as dtrtri's own contiguous result, which
    dtrmm reads without a copy, else as out."""
    n = L.shape[0]
    if n < TRTRI_BLOCK_ROWS:
        out[...] = inverse = dtrtri(L, lower=1)[0]
        return inverse
    h = n // 2
    A = _tril_inverse_into(L[:h, :h], out[:h, :h])
    D = _tril_inverse_into(L[h:, h:], out[h:, h:])
    CA = dtrmm(1.0, A, L[h:, :h], side=1, lower=1)
    out[h:, :h] = dtrmm(-1.0, D, CA, lower=1, overwrite_b=1)
    return out
