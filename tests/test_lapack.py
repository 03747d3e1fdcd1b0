"""The library's LAPACK and BLAS routines are SciPy's own objects whichever
of the library and ``scipy.linalg`` is imported first, and when the
extension files cannot be found. Each case runs in a fresh interpreter,
because this process imported ``scipy.linalg`` before the library."""

from conftest import LAPACK_INSTANCE, run_python

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
