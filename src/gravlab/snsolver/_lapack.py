"""The five LAPACK routines of the SN solvers, bound from numpy's own OpenBLAS.

numpy's wheels ship and load ``libscipy_openblas64_``, which exports the
ILP64 LAPACK as ``scipy_<routine>_64_``.  This module calls ``dstebz`` and
``dstein`` (one eigenpair of a symmetric tridiagonal matrix), ``dgtsv`` (the
SCF's warm-started Rayleigh-quotient steps) and ``zgttrf`` and ``zgttrs`` (the
kinetic Crank-Nicolson steps of ``evolve``) there through ctypes, with 64-bit
integers and gfortran's hidden ``size_t`` lengths of character arguments.
That spares every SN command a cold ``import scipy.linalg``.

Where the library or one of its symbols is missing (conda/MKL, a system BLAS,
other wheels), the same routines come from ``scipy.linalg``, imported on
first use.  Both paths run the same LAPACK calls with the same arguments, so
they give the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

from .. import np

# where numpy's Linux/Windows and macOS wheels put their OpenBLAS
_LIBRARY_GLOBS = (("..", "numpy.libs", "libscipy_openblas64_*"),
                  (".dylibs", "libscipy_openblas64_*"))
# each routine's pointer arguments, then its character arguments' lengths (gfortran's
# hidden size_t ones)
_SIGNATURES = {"dstebz": (18, 2), "dstein": (13, 0), "dgtsv": (8, 0), "zgttrf": (7, 0),
               "zgttrs": (11, 1)}
_int = ctypes.c_int64   # LAPACK's INTEGER in this ILP64 build
_LEN1 = 1               # the length of every character argument passed here


def _library_paths() -> list[str]:
    root = os.path.dirname(np.__file__)
    return sorted(path for parts in _LIBRARY_GLOBS
                  for path in glob.glob(os.path.join(root, *parts)))


@functools.cache
def _openblas() -> dict[str, ctypes._CFuncPtr] | None:
    """The five routines from numpy's bundled OpenBLAS, or None where it lacks them."""
    for path in _library_paths():
        try:
            lib = ctypes.CDLL(path)
            routines = {name: getattr(lib, f"scipy_{name}_64_") for name in _SIGNATURES}
        except (OSError, AttributeError):
            continue
        for name, func in routines.items():
            pointers, lengths = _SIGNATURES[name]
            func.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * lengths
            func.restype = None
        return routines
    return None


def _check(info: int, routine: str) -> None:
    if info != 0:   # > 0: an exactly zero pivot or no convergence; < 0: an illegal argument
        raise np.linalg.LinAlgError(f"{routine} failed with info = {info}")


def _order(d: np.ndarray, dl: np.ndarray, du: np.ndarray, b: np.ndarray | None = None) -> int:
    """The order n >= 2 of a tridiagonal matrix, after checking that the
    off-diagonals ``dl`` and ``du`` have n - 1 entries and ``b`` has n."""
    n = d.size
    if (d.ndim != 1 or n < 2 or dl.shape != (n - 1,) or du.shape != (n - 1,)
            or (b is not None and b.shape != (n,))):
        raise ValueError(f"a tridiagonal system of order n >= 2 needs off-diagonals of n - 1 "
                         f"entries and a right-hand side of n; got diagonal {d.shape}, "
                         f"off-diagonals {dl.shape} and {du.shape}, right-hand side "
                         f"{None if b is None else b.shape}")
    return n


def _own(a: np.ndarray, dtype: type) -> np.ndarray:
    """``a`` as a contiguous, writable array of ``dtype``; a copy only where it is not one."""
    a = np.ascontiguousarray(a, dtype=dtype)
    return a if a.flags.writeable else a.copy()


def _ref(obj):
    """A pointer to a ctypes scalar or to the data of a contiguous writable array;
    it keeps the array alive for the call."""
    if isinstance(obj, np.ndarray):
        obj = ctypes.c_char.from_buffer(obj)
    return ctypes.byref(obj)


def eigenpair(diag: np.ndarray, off: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """The k-th smallest eigenvalue (k from 0) of the symmetric tridiagonal matrix
    with diagonal ``diag`` and off-diagonal ``off``, and its unit eigenvector:
    ``scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(k, k))``.

    Bisection (``dstebz``: range 'I', order 'B', abstol 0) and inverse
    iteration (``dstein``), as that call runs them.  Non-finite entries raise
    ``ValueError``; a failed routine raises ``LinAlgError``.
    """
    diag = np.asarray_chkfinite(diag, dtype=float)
    off = np.asarray_chkfinite(off, dtype=float)
    lapack = _openblas()
    if lapack is None:
        from scipy.linalg import eigh_tridiagonal

        vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(k, k))
        return float(vals[0]), vecs[:, 0]

    n = _order(diag, off, off)
    if not 0 <= k < n:
        raise ValueError(f"eigenvalue index {k} outside 0..{n - 1}")
    diag, off = _own(diag, float), _own(off, float)
    w, z = np.empty(n), np.empty(n)
    iblock, isplit, ifail = (np.empty(size, dtype=np.int64) for size in (n, n, 1))
    work, iwork = np.empty(5 * n), np.empty(3 * n, dtype=np.int64)   # enough for both routines
    m, nsplit, info, index, zero = _int(), _int(), _int(), _int(k + 1), ctypes.c_double(0.0)
    lapack["dstebz"](b"I", b"B", _ref(_int(n)), _ref(zero), _ref(zero), _ref(index),
                     _ref(index), _ref(zero), _ref(diag), _ref(off), _ref(m), _ref(nsplit),
                     _ref(w), _ref(iblock), _ref(isplit), _ref(work), _ref(iwork), _ref(info),
                     _LEN1, _LEN1)
    _check(info.value, "dstebz")
    if m.value != 1:
        raise np.linalg.LinAlgError(f"dstebz returned {m.value} eigenvalues for index {k}, not 1")
    lapack["dstein"](_ref(_int(n)), _ref(diag), _ref(off), _ref(m), _ref(w), _ref(iblock),
                     _ref(isplit), _ref(z), _ref(_int(n)), _ref(work), _ref(iwork), _ref(ifail),
                     _ref(info))
    _check(info.value, "dstein")
    return float(w[0]), z


def gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution x of the real tridiagonal system (dl, d, du) x = b (``dgtsv``).

    ``d`` and ``b`` are overwritten when they are contiguous float64 arrays;
    ``dl`` and ``du`` are left as they are.
    """
    lapack = _openblas()
    if lapack is None:
        from scipy.linalg.lapack import dgtsv

        *_, x, info = dgtsv(dl, d, du, b, overwrite_d=1, overwrite_b=1)
        _check(info, "dgtsv")
        return x

    dl, du = np.array(dl, dtype=float), np.array(du, dtype=float)   # dgtsv overwrites them
    d, b = _own(d, float), _own(b, float)
    n, info = _int(_order(d, dl, du, b)), _int()
    lapack["dgtsv"](_ref(n), _ref(_int(1)), _ref(dl), _ref(d), _ref(du), _ref(b), _ref(n),
                    _ref(info))
    _check(info.value, "dgtsv")
    return b


def gttrf(dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> tuple[np.ndarray, ...]:
    """LU factors (dl, d, du, du2, ipiv) of a complex tridiagonal matrix (``zgttrf``),
    for ``gttrs``.  The inputs are left as they are."""
    lapack = _openblas()
    if lapack is None:
        from scipy.linalg.lapack import zgttrf

        *factors, info = zgttrf(dl, d, du)
        _check(info, "zgttrf")
        return tuple(factors)

    dl, d, du = (np.array(a, dtype=complex) for a in (dl, d, du))
    n = _order(d, dl, du)
    du2, ipiv = np.empty(n - 2 or 1, dtype=complex), np.empty(n, dtype=np.int64)
    info = _int()
    lapack["zgttrf"](_ref(_int(n)), _ref(dl), _ref(d), _ref(du), _ref(du2), _ref(ipiv),
                     _ref(info))
    _check(info.value, "zgttrf")
    return dl, d, du, du2, ipiv


def gttrs(factors: tuple[np.ndarray, ...], b: np.ndarray) -> np.ndarray:
    """Solution x of A x = b from the ``gttrf`` factors of A (``zgttrs``).

    ``b`` is overwritten when it is a contiguous complex128 array.
    """
    lapack = _openblas()
    if lapack is None:
        from scipy.linalg.lapack import zgttrs

        x, info = zgttrs(*factors, b, overwrite_b=1)
        _check(info, "zgttrs")
        return x

    b = _own(b, complex)
    dl, d, du, du2, ipiv = factors
    n, info = _int(_order(d, dl, du, b)), _int()
    lapack["zgttrs"](b"N", _ref(n), _ref(_int(1)), *map(_ref, factors), _ref(b), _ref(n),
                     _ref(info), _LEN1)
    _check(info.value, "zgttrs")
    return b
