"""The library's LAPACK and BLAS routines are SciPy's own objects whichever
of the library and ``scipy.linalg`` is imported first, and when the
extension files cannot be found. Each case runs in a fresh interpreter,
because this process imported ``scipy.linalg`` before the library. The
checked calls built on those routines, ``require_finite``, ``cholesky`` and
``qr_r``, raise scipy.linalg's messages, and ``tril_inverse`` agrees with
one dtrtri call."""

import numpy as np
import pytest
import scipy.linalg
from conftest import LAPACK_INSTANCE, run_python

from lgcp_design import _lapack
from lgcp_design.exceptions import NumericalError

ROUTINES = "('dpotrf', 'dpotrs', 'dtrtri', 'dgeqrf', 'dgeqrf_lwork', 'dtrmm')"
SAME_OBJECTS = (
    "import scipy.linalg.lapack, scipy.linalg.blas\n"
    "from lgcp_design import _lapack\n"
    f"print(all(getattr(_lapack, n) is getattr(scipy.linalg.lapack if n != 'dtrmm' else"
    f" scipy.linalg.blas, n) for n in {ROUTINES}))\n"
)


def test_library_first_then_scipy_linalg():
    out = run_python(
        "import sys, numpy as np, lgcp_design\n"
        "print('scipy.linalg' in sys.modules)\n"
        "import scipy.linalg\n"
        + SAME_OBJECTS
        + "print(sys.modules['scipy.linalg._flapack'] is scipy.linalg.lapack._flapack)\n"
        "c, lower = scipy.linalg.cho_factor(np.array([[4.0, 2.0], [2.0, 3.0]]), lower=True)\n"
        "print(lower and c[0, 0] == 2.0 and c[1, 0] == 1.0)\n",
        "-W", "error",
    )
    assert out.split() == ["False", "True", "True", "True"]


def test_instance_bytes_do_not_depend_on_import_order():
    # the library alone, as the CLI runs it, then either import order
    orders = ("import lgcp_design", "import lgcp_design, scipy.linalg",
              "import scipy.linalg, lgcp_design")
    digests = {run_python(f"{order}\n{LAPACK_INSTANCE}\nprint(digest)").strip()
               for order in orders}
    assert len(digests) == 1
    assert len(digests.pop()) == 64


def test_fallback_when_extension_files_are_not_found():
    out = run_python(
        "import importlib.machinery, sys\n"
        "importlib.machinery.EXTENSION_SUFFIXES.clear()\n"
        "import lgcp_design\n"
        "print('scipy.linalg' in sys.modules)\n"
        + SAME_OBJECTS,
        "-W", "error",
    )
    assert out.split() == ["True", "True"]


# ----------------------------------------------------------------------
# the checked calls: scipy.linalg's messages for what the raw routines skip

def _scipy_error(call, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    return str(info.value)


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_require_finite_raises_scipys_message(position, bad):
    arrays = [np.ones((2, 2)), np.arange(3.0), np.eye(3)]
    _lapack.require_finite(*arrays)
    arrays[position][-1] = bad
    message = _scipy_error(scipy.linalg.cho_factor, np.array([[bad]]))
    with pytest.raises(ValueError) as info:
        _lapack.require_finite(*arrays)
    assert str(info.value) == message == "array must not contain infs or NaNs"


def test_cholesky_failure_names_the_leading_minor():
    a = np.diag([1.0, 2.0, -1.0, 3.0])
    with pytest.raises(NumericalError) as info:
        _lapack.cholesky(a)
    scipy_text = _scipy_error(scipy.linalg.cho_factor, a, lower=True)
    assert str(info.value) == f"Cholesky factorization failed: {scipy_text}"
    assert str(info.value) == (
        "Cholesky factorization failed: 3-th leading minor of the array is not positive definite")


def test_cholesky_in_place_matches_a_copy():
    rng = np.random.default_rng(0)
    G = rng.normal(size=(30, 30))
    a = G @ G.T + 30.0 * np.eye(30)
    kept = a.copy()
    expected = _lapack.cholesky(a)
    assert np.array_equal(a, kept) and not np.shares_memory(expected, a)
    F = np.asfortranarray(a)
    c = _lapack.cholesky(F, overwrite=True)
    assert np.shares_memory(c, F)
    assert c.tobytes("F") == expected.tobytes("F")
    assert expected.tobytes("F") == scipy.linalg.cho_factor(kept, lower=True)[0].tobytes("F")


@pytest.mark.parametrize("shape", [(40, 7), (5, 9), (6, 6), (1, 4)])
def test_qr_r_is_the_r_of_a_qr(shape):
    rng = np.random.default_rng(sum(shape))
    A = rng.normal(size=shape)
    R = _lapack.qr_r(A)
    assert R.shape == (min(shape), shape[1])
    assert R.flags.c_contiguous
    assert np.array_equal(R, np.triu(R))
    gram = A.T @ A
    assert np.allclose(R.T @ R, gram, rtol=0.0, atol=1e-13 * np.abs(gram).max())


def test_qr_r_rejects_non_finite_input():
    A = np.ones((4, 3))
    A[2, 1] = np.nan
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        _lapack.qr_r(A)


# ----------------------------------------------------------------------
# tril_inverse: one dtrtri call below TRTRI_BLOCK_ROWS rows, by halves above

def _b_factor(n):
    """The lower Cholesky factor of B = I + G G^T / n as dpotrf leaves it:
    Fortran-ordered, with B's entries in the strict upper triangle."""
    G = np.random.default_rng(n).normal(size=(n, n))
    return _lapack.cholesky(np.eye(n) + G @ G.T / n)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 150, 301])
def test_tril_inverse_matches_dtrtri(n):
    L = _b_factor(n)
    kept = L.copy(order="F")
    inverse = _lapack.tril_inverse(L)
    reference = np.tril(_lapack.dtrtri(L, lower=1)[0])
    assert np.array_equal(L, kept)
    assert inverse.shape == (n, n) and inverse.flags.f_contiguous
    lower = np.tril(inverse)
    assert np.linalg.norm(lower - reference) <= 1e-14 * np.linalg.norm(reference)
    assert np.abs(lower @ np.tril(L) - np.eye(n)).max() <= 1e-14 * n
    if n < _lapack.TRTRI_BLOCK_ROWS:
        assert np.array_equal(inverse, _lapack.dtrtri(L, lower=1)[0])
    else:
        # the block above the first split is zero
        assert not inverse[: n // 2, n // 2:].any()


@pytest.mark.parametrize("n", [3, 64, 150])
def test_tril_inverse_of_identity_is_identity(n):
    assert np.array_equal(_lapack.tril_inverse(np.eye(n, order="F")), np.eye(n))
