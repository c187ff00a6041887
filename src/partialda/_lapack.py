"""Three wrappers over four LAPACK routines numpy does not expose, from the OpenBLAS it ships.

numpy's wheels bundle one OpenBLAS, ``numpy.libs/libscipy_openblas64_*``,
built with 64-bit integers and exporting every LAPACK routine under a
``scipy_`` prefix and ``_64_`` suffix.  The package calls four of them
through ``ctypes``, so one BLAS thread pool still serves every step:

* :func:`gesv` (``dgesv``) factors the propagation system in place, where
  ``np.linalg.solve`` would first copy it;
* :func:`inv_cholesky` (``dpotrf``, then ``dtrtri``) factors a symmetric
  positive definite matrix and inverts its Cholesky factor as a triangle,
  both in the matrix itself, where ``np.linalg.cholesky`` copies it and
  ``np.linalg.inv`` copies the factor for a pivoting LU;
* :func:`syevr_smallest` (``dsyevr``) returns only the k smallest
  eigenpairs, computed in the input matrix itself, where ``np.linalg.eigh``
  copies it and computes and back-transforms all of them.

The library is looked up on the first call, not at import.  Where it or a
routine is missing, each wrapper computes the same result with
``np.linalg``: bit for bit for :func:`gesv`, which runs the same routine on
a copy, and to rounding for the other two.  Each wrapper raises
``np.linalg.LinAlgError`` where the ``np.linalg`` calls it replaces would,
so a caller handles both paths alike.  :func:`blas_threads` reads the
library's thread count.

Every matrix here is a numpy array handed to column-major LAPACK, which
sees a C-order array as its transpose: the lower triangle of a C-order
matrix is the upper triangle LAPACK reads with ``UPLO='U'``.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

_INT = ctypes.c_int64
_INT_P = ctypes.POINTER(_INT)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_CHAR_P = ctypes.c_char_p
_LEN = ctypes.c_size_t  # the hidden length gfortran appends for each string argument

# Argument types of each routine as ILP64 LAPACK takes them, each by
# reference; ctypes passes a scalar ``_INT`` or ``c_double`` by reference
# where a pointer to it is declared
_ARGTYPES = {
    # n, nrhs, a, lda, ipiv, b, ldb, info
    "dgesv": [_INT_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P],
    # jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz,
    # isuppz, work, lwork, iwork, liwork, info, and three string lengths
    "dsyevr": [_CHAR_P, _CHAR_P, _CHAR_P, _INT_P, _DOUBLE_P, _INT_P, _DOUBLE_P, _DOUBLE_P,
               _INT_P, _INT_P, _DOUBLE_P, _INT_P, _DOUBLE_P, _DOUBLE_P, _INT_P, _INT_P,
               _DOUBLE_P, _INT_P, _INT_P, _INT_P, _INT_P, _LEN, _LEN, _LEN],
    # uplo, n, a, lda, info, and one string length
    "dpotrf": [_CHAR_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P, _LEN],
    # uplo, diag, n, a, lda, info, and two string lengths
    "dtrtri": [_CHAR_P, _CHAR_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P, _LEN, _LEN],
}


@functools.cache
def _lookup() -> dict:
    """The routines numpy's OpenBLAS exports, typed, by name; empty where numpy ships none.

    Those of ``_ARGTYPES``, and the thread count ``openblas_get_num_threads``.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        found = {}
        for name, argtypes in _ARGTYPES.items():
            routine = getattr(lib, f"scipy_{name}_64_", None)
            if routine is not None:
                routine.argtypes = argtypes
                routine.restype = None
                found[name] = routine
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if threads is not None:
            threads.argtypes, threads.restype = [], ctypes.c_int
            found["openblas_get_num_threads"] = threads
        return found
    return {}


def _ptr(a: np.ndarray, kind=_DOUBLE_P):
    return a.ctypes.data_as(kind)


def _check(name: str, info: ctypes.c_int64, failure: str) -> None:
    """Raise what numpy raises where LAPACK ``info`` reports a failure."""
    if info.value < 0:  # a wrong argument here, never a property of the data
        raise ValueError(f"{name}: illegal value in argument {-info.value}")
    if info.value > 0:
        raise np.linalg.LinAlgError(failure)


def gesv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for a Fortran-ordered square ``a``; return x in C order.

    ``a`` is overwritten with its LU factors.  ``b`` is not modified.
    """
    if a.dtype != np.float64 or not a.flags.f_contiguous:
        raise ValueError("gesv factors a Fortran-ordered float64 matrix in place")
    routine = _lookup().get("dgesv")
    if routine is None:
        return np.linalg.solve(a, b)
    x = np.asfortranarray(b, dtype=np.float64)
    n, nrhs = (_INT(v) for v in x.shape)
    info = _INT(0)
    pivots = np.empty(x.shape[0], dtype=np.int64)
    routine(n, nrhs, _ptr(a), n, _ptr(pivots, _INT_P), _ptr(x), n, info)
    _check("dgesv", info, "Singular matrix")
    # C order, as np.linalg.solve returns it, so that later reductions over
    # the solution add in the same order
    return np.ascontiguousarray(x)


def inv_cholesky(a: np.ndarray) -> np.ndarray:
    """``L^-1`` for ``a = L L.T``, C-ordered, symmetric and positive definite; destroys ``a``.

    What ``np.linalg.inv(np.linalg.cholesky(a))`` returns, to rounding, in
    ``a``'s buffer: ``dpotrf``, as ``cholesky`` calls it, and ``dtrtri`` run
    with ``UPLO='L'`` on LAPACK's view of ``a``, its transpose, so only the
    upper triangle of ``a`` is read.  The other is zeroed, and ``a.T`` is
    returned, lower triangular with exact zeros above its diagonal.  (Where
    a routine is missing, the ``np.linalg`` calls leave ``a`` as it was.)
    """
    if a.dtype != np.float64 or not a.flags.c_contiguous or not a.flags.writeable:
        raise ValueError("inv_cholesky works in a writeable, C-ordered float64 matrix")
    potrf, trtri = (_lookup().get(name) for name in ("dpotrf", "dtrtri"))
    if potrf is None or trtri is None:
        return np.linalg.inv(np.linalg.cholesky(a))
    n, info = _INT(a.shape[0]), _INT(0)
    potrf(b"L", n, _ptr(a), n, info, 1)
    _check("dpotrf", info, "Matrix is not positive definite")
    trtri(b"L", b"N", n, _ptr(a), n, info, 1, 1)
    _check("dtrtri", info, "Singular matrix")
    for i in range(1, a.shape[0]):  # a row at a time, where a mask would be a d x d array
        a[i, :i] = 0.0
    return a.T


def syevr_smallest(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenpairs of the C-ordered symmetric ``a``, eigenvalues ascending.

    Only the lower triangle of ``a`` is read, as ``np.linalg.eigh`` reads
    it, and ``a`` is destroyed: ``dsyevr`` works in it rather than in a
    copy, so its contents are undefined after the call, on success or
    failure.  (Where ``dsyevr`` is missing, ``np.linalg.eigh`` copies ``a``
    and leaves it as it was.)  Returns the (k,) eigenvalues and the (n, k)
    orthonormal eigenvectors, one column each, neither of which shares
    memory with ``a``.  LAPACK reduces ``a`` to tridiagonal form as
    ``eigh`` does, then finds the k eigenvalues by bisection and their
    vectors by inverse iteration, and back-transforms only those k vectors.
    """
    if a.dtype != np.float64 or not a.flags.c_contiguous or not a.flags.writeable:
        raise ValueError("syevr_smallest works in a writeable, C-ordered float64 matrix")
    routine = _lookup().get("dsyevr")
    if routine is None:
        w, v = np.linalg.eigh(a)
        return w[:k], v[:, :k]
    n = a.shape[0]
    w = np.empty(n)
    z = np.empty((k, n))  # the n x k eigenvectors in Fortran order
    isuppz = np.empty(2 * k, dtype=np.int64)
    size, m, info = _INT(n), _INT(0), _INT(0)
    unused, abstol = ctypes.c_double(0.0), ctypes.c_double(0.0)  # abstol 0: LAPACK's default

    def call(work: np.ndarray, iwork: np.ndarray, lwork: int, liwork: int) -> None:
        routine(b"V", b"I", b"U", size, _ptr(a), size, unused, unused, _INT(1), _INT(k),
                abstol, m, _ptr(w), _ptr(z), size, _ptr(isuppz, _INT_P),
                _ptr(work), _INT(lwork), _ptr(iwork, _INT_P), _INT(liwork), info, 1, 1, 1)
        _check("dsyevr", info, "Eigenvalues did not converge")

    query, iquery = np.empty(1), np.empty(1, dtype=np.int64)
    call(query, iquery, -1, -1)
    lwork, liwork = int(query[0]), int(iquery[0])
    call(np.empty(lwork), np.empty(liwork, dtype=np.int64), lwork, liwork)
    if m.value != k:  # as on a NaN entry, which leaves w and z unwritten
        raise np.linalg.LinAlgError(f"dsyevr found {m.value} of {k} eigenpairs")
    return w[:k], z.T


def blas_threads() -> int | None:
    """The thread count of numpy's OpenBLAS, which runs every BLAS call; None if not found."""
    getter = _lookup().get("openblas_get_num_threads")
    return None if getter is None else int(getter())
