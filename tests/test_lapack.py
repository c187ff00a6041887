"""The LAPACK routines called from numpy's OpenBLAS, and their np.linalg fallbacks.

Each wrapper is checked against the full ``np.linalg`` call it replaces,
with numpy's library and with the lookup patched to find nothing, which is
what a numpy without that library gets.  The ``dgesv`` fallback is checked
bit for bit in ``tests/test_graph.py``.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from partialda import (
    AdaptationConfig,
    NumericalError,
    SyntheticSpec,
    adapt,
    generate_synthetic,
    make_one_hot,
)
import partialda._lapack as _lapack
import partialda.subspace as subspace
from partialda._lapack import inv_cholesky, syevr_smallest
from partialda.subspace import solve_projection
from tests.test_subspace import (
    assert_matches_dense_eigh,
    factored_instance,
    solver_instance,
    with_k,
)

EPS = np.finfo(float).eps
NUMPY_OPENBLAS = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                        .glob("libscipy_openblas64_*"))
PATHS = ["numpy's OpenBLAS", "np.linalg"]


@pytest.fixture(params=PATHS)
def path(request, monkeypatch):
    if request.param == "np.linalg":
        monkeypatch.setattr(_lapack, "_lookup", dict)
    return request.param


@pytest.mark.skipif(not NUMPY_OPENBLAS, reason="numpy ships no libscipy_openblas64_")
def test_lookup_finds_every_routine():
    # a routine not found falls back silently and loses its speed, so a
    # numpy that ships the library must export all four under these names,
    # and the thread count that report.json records
    assert sorted(_lapack._lookup()) == ["dgesv", "dpotrf", "dsyevr", "dtrtri",
                                         "openblas_get_num_threads"]
    assert _lapack.blas_threads() >= 1


def symmetric_cases(rng):
    """Random, clustered and exactly repeated spectra, each with k up to the dimension."""
    for _ in range(20):
        n = int(rng.integers(1, 40))
        b = rng.standard_normal((n, n))
        yield (b + b.T) / 2, int(rng.integers(1, n + 1))
    for _ in range(20):
        n = int(rng.integers(3, 40))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        centers = rng.uniform(-5.0, 5.0, size=(n + 2) // 3)
        if rng.random() < 0.5:  # clusters of three, 1e-9 apart
            spectrum = np.concatenate([c * (1 + 1e-9 * np.arange(3)) for c in centers])[:n]
        else:  # each eigenvalue three times over
            spectrum = np.repeat(centers, 3)[:n]
        yield q @ np.diag(spectrum) @ q.T, int(rng.integers(1, n + 1))


def test_syevr_smallest_matches_full_eigh(path):
    # the k smallest eigenvalues of the full eigh to 8 n eps ||a||; vectors
    # orthonormal to 8 n eps with residuals below 8 n eps ||a||, which pins
    # them down within clusters and repeated eigenvalues, where they are not
    # unique; only the lower triangle is read or overwritten, and the
    # results share no memory with a, which the caller may reuse at once
    rng = np.random.default_rng(50)
    for a, k in symmetric_cases(rng):
        n = a.shape[0]
        scale = max(np.abs(a).max(), 1.0)
        tol = 8 * n * EPS
        noisy = np.tril(a) + np.triu(rng.standard_normal((n, n)), 1)
        before = noisy.copy()
        phi, v = syevr_smallest(noisy, k)
        assert np.array_equal(np.triu(noisy, 1), np.triu(before, 1))
        if path == "np.linalg":
            assert np.array_equal(noisy, before)
        assert not (np.shares_memory(phi, noisy) or np.shares_memory(v, noisy))
        noisy[...] = np.nan
        assert phi.shape == (k,) and v.shape == (n, k)
        assert np.all(np.diff(phi) >= 0)
        assert np.abs(phi - np.linalg.eigvalsh(a)[:k]).max() <= tol * scale
        assert np.abs(v.T @ v - np.eye(k)).max() <= tol
        assert np.abs(a @ v - v * phi).max() <= tol * scale


@pytest.mark.skipif(not NUMPY_OPENBLAS, reason="numpy ships no libscipy_openblas64_")
def test_syevr_smallest_without_eigenpairs_is_linalg_error():
    # on a NaN, dsyevr reports success but finds no eigenpair and leaves its
    # outputs unwritten; the wrapper raises what a failed eigh raises
    a = np.eye(4)
    a[2, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="^dsyevr found 0 of 2 eigenpairs$"):
        syevr_smallest(a, 2)


def test_syevr_smallest_works_in_its_input(path):
    # dsyevr destroys the matrix it is given instead of a copy: the traced
    # peak of a call stays below one n x n array, which a copy would need
    # alone; the np.linalg fallback copies, and leaves a as it was.
    # Arrays it cannot work in are refused rather than copied.
    n, k = 400, 5
    rng = np.random.default_rng(53)
    b = rng.standard_normal((n, n))
    a = (b + b.T) / 2
    before = a.copy()
    want = np.linalg.eigvalsh(a)[:k]
    tracemalloc.start()
    try:
        phi, _ = syevr_smallest(a, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(phi - want).max() <= 8 * n * EPS * np.abs(before).max()
    if path == "numpy's OpenBLAS" and NUMPY_OPENBLAS:
        assert peak < 8 * n * n
        assert not np.array_equal(a, before)
    else:
        assert np.array_equal(a, before)
    for bad in (before.T, before.astype(np.float32), np.broadcast_to(before, (n, n))):
        with pytest.raises(ValueError, match="C-ordered float64"):
            syevr_smallest(bad, k)


def test_failed_eigensolve_reports_the_pencil_it_was_given(path, monkeypatch):
    # the eigensolver overwrites the pencil, so solve_projection builds it
    # again for the condition number in its message; an eigensolver that
    # scribbles on the pencil before it fails shows that the number is that
    # of the pencil as the eigensolver received it
    data, _, _, labels = solver_instance(np.random.default_rng(54))
    data = with_k(data, 2)
    received = []

    def scribbling(valid):
        def eigensolver(a, k):
            received.append(a.copy())
            phi, v = syevr_smallest(a, k)
            a[...] = 1.0
            if valid is None:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            phi[valid:] = np.nan
            return phi, v
        return eigensolver

    monkeypatch.setattr(subspace, "syevr_smallest", scribbling(None))
    with pytest.raises(NumericalError) as failed:
        solve_projection(data, *labels)
    cond = np.linalg.cond(received[-1])
    assert str(failed.value) == (
        f"eigensolver failed (cond pencil {cond:.3e}): Eigenvalues did not converge")

    monkeypatch.setattr(subspace, "syevr_smallest", scribbling(1))
    with pytest.raises(NumericalError) as failed:
        solve_projection(data, *labels)
    cond = np.linalg.cond(received[-1])
    assert str(failed.value) == (
        f"only 1 numerically valid eigenpairs (cond pencil {cond:.3e}); use a smaller k")

    # a NaN in the pencil fails for real: dsyevr finds no eigenpair and
    # the fallback's eigh returns NaN ones; the pencil's cond cannot be computed
    monkeypatch.undo()  # this also reverts the path fixture's patch, so it is set again
    if path == "np.linalg":
        monkeypatch.setattr(_lapack, "_lookup", dict)
    data.base[0, 0] = np.nan
    with pytest.raises(NumericalError, match=r"\(cond pencil inf\)"):
        solve_projection(data, *labels)


def test_inv_cholesky_matches_inv_of_cholesky(path):
    # the fallback's np.linalg.inv(np.linalg.cholesky(a)) to 4 n eps cond(L)
    # of its largest entry, the bound of
    # test_fallbacks_agree_on_factored_instances; dpotrf and dtrtri work in
    # a and return its transpose, lower triangular with exact zeros above
    # the diagonal; the fallback leaves a as it was.  A matrix that is not
    # positive definite is refused on both paths, and arrays the routines
    # cannot work in are refused rather than copied.
    rng = np.random.default_rng(51)
    for _ in range(30):
        n = int(rng.integers(1, 60))
        c = rng.standard_normal((n, n + int(rng.integers(0, 3))))
        a = c @ c.T
        a.flat[::n + 1] += 1e-3
        want = np.linalg.inv(np.linalg.cholesky(a))
        bound = 4 * n * EPS * np.sqrt(np.linalg.cond(a))
        work = a.copy()
        got = inv_cholesky(work)
        assert np.abs(got - want).max() <= bound * np.abs(want).max()
        if path == "numpy's OpenBLAS" and NUMPY_OPENBLAS:
            assert got.base is work and got.flags.f_contiguous
            assert np.all(np.triu(got, 1) == 0.0)
        else:
            assert np.array_equal(work, a)
    for bad in (np.diag([1.0, -1.0, 2.0]), np.diag([1.0, 0.0, 2.0])):
        with pytest.raises(np.linalg.LinAlgError, match="^Matrix is not positive definite$"):
            inv_cholesky(bad)
    for bad in (a.T, a.astype(np.float32), np.broadcast_to(a, a.shape)):
        with pytest.raises(ValueError, match="C-ordered float64"):
            inv_cholesky(bad)


def test_inv_cholesky_factors_as_numpy_cholesky(path):
    # dpotrf with UPLO='L' on the buffer runs numpy's own factorization,
    # the same bits for the exactly symmetric products the constraint side
    # is built from, so the result is dtrtri's inverse of numpy's Cholesky
    # factor, bit for bit; the fallback is the np.linalg chain itself
    rng = np.random.default_rng(55)
    for n in (1, 2, 7, 64, 300):
        c = rng.standard_normal((n, n + 3))
        a = c @ c.T
        a.flat[::n + 1] += 1e-3
        l = np.linalg.cholesky(a)
        if path == "numpy's OpenBLAS" and NUMPY_OPENBLAS:
            want = np.asfortranarray(l)
            info = _lapack._INT(0)
            _lapack._lookup()["dtrtri"](b"L", b"N", _lapack._INT(n), _lapack._ptr(want),
                                        _lapack._INT(n), info, 1, 1)
            assert info.value == 0
        else:
            want = np.linalg.inv(l)
        assert inv_cholesky(a).tobytes(order="A") == want.tobytes(order="A")


def test_failed_factorization_reports_the_constraint_side_it_was_given(monkeypatch):
    # the factorization overwrites the constraint side, so gram_matrix
    # builds it again for the condition number in its message
    x = np.random.default_rng(56).standard_normal((6, 20))
    received = []

    def scribbling(a):
        received.append(a.copy())
        a[...] = 1.0
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(subspace, "inv_cholesky", scribbling)
    with pytest.raises(NumericalError) as failed:
        subspace.gram_matrix(x[:, :8], np.eye(8), x[:, 8:], AdaptationConfig(k=2))
    assert str(failed.value) == (
        f"constraint side is not positive definite (cond rhs "
        f"{np.linalg.cond(received[-1]):.3e}): Matrix is not positive definite")


@pytest.mark.parametrize("rhs_reg, full_rank", [(1e-6, True), (1e-6, False), (1e-10, False)])
def test_fallbacks_agree_on_factored_instances(monkeypatch, rhs_reg, full_rank):
    # the same instances solved with numpy's LAPACK routines and with the
    # np.linalg fallbacks: L^-1 agrees to 4 d eps cond(L) of its largest
    # entry, and both paths' eigenpairs match the dense generalized eigh to
    # the bounds of assert_matches_dense_eigh
    monkeypatch.setattr(subspace, "_RHS_REG", rhs_reg)

    def instances():
        rng = np.random.default_rng(52)
        return [factored_instance(rng, full_rank) for _ in range(40)]

    fast = instances()
    monkeypatch.setattr(_lapack, "_lookup", dict)
    slow = instances()
    for (p_fast, d_fast, _, _, (lhs, rhs)), (p_slow, d_slow, *_) in zip(fast, slow):
        bound = 4 * lhs.shape[0] * EPS * np.sqrt(np.linalg.cond(rhs))
        assert np.abs(d_fast.l_inv - d_slow.l_inv).max() <= bound * np.abs(d_slow.l_inv).max()
        for proj in (p_fast, p_slow):
            assert_matches_dense_eigh(proj.eigenvalues, proj.a, lhs, rhs,
                                      singular=not full_rank)


def test_adapt_is_the_same_on_both_paths(monkeypatch):
    # the default synthetic benchmark at seed 0: the same rounds, survivors
    # and hard labels with and without numpy's LAPACK routines
    data = generate_synthetic(SyntheticSpec(seed=0))
    y_s = make_one_hot(data.y_s, num_classes=10)
    runs = []
    for lookup in (_lapack._lookup, dict):
        monkeypatch.setattr(_lapack, "_lookup", lookup)
        runs.append(adapt(data.x_s, y_s, data.x_t, AdaptationConfig(k=5)))
    fast, slow = runs
    assert fast.iterations_run == slow.iterations_run
    assert ([r.surviving_classes for r in fast.history]
            == [r.surviving_classes for r in slow.history])
    assert np.array_equal(fast.hard_labels, slow.hard_labels)
    assert np.abs(fast.soft_labels - slow.soft_labels).max() <= 1e-10
