"""The process's OpenBLAS copies: LAPACK's Cholesky pair, found without
importing scipy where numpy's own copy exports it, and a scope that runs
code on one BLAS thread.

Every BLAS call inside the scope rounds as it would on one thread whatever
thread count the process uses, so its results do not depend on that count:
the solver's Newton systems run inside it.  Only OpenBLAS copies found in ``/proc/self/maps`` are
pinned; a BLAS that is not OpenBLAS (MKL, Accelerate) or a system without
``/proc`` is not.

The scope cannot stop the threads that OpenBLAS starts while it loads, which
spin idle outside it.  So when the package is the first to import numpy, and
none of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``
names a thread count, ``semistatic/__init__.py`` loads numpy's OpenBLAS at one
thread; set ``OPENBLAS_NUM_THREADS`` to choose another count.  Where numpy was
imported first, its count stays the caller's.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np


def _loaded_openblas():
    """ctypes handles of the OpenBLAS copies loaded in the process, found in
    ``/proc/self/maps`` and opened without loading anything new; empty when
    there is no ``/proc``."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY))
        except OSError:
            continue
    return libs


def _openblas_cholesky():
    """(factor, solve) through LAPACK dpotrf and dpotrs of numpy's own
    OpenBLAS, whose 64-bit-integer interface exports them as
    ``scipy_dpotrf_64_`` and ``scipy_dpotrs_64_``; None where no loaded copy
    does."""
    for lib in _loaded_openblas():
        potrf = getattr(lib, "scipy_dpotrf_64_", None)
        potrs = getattr(lib, "scipy_dpotrs_64_", None)
        if potrf is not None and potrs is not None:
            break
    else:
        return None
    # Fortran calling convention: every argument by reference, then the
    # hidden length of the character argument
    int64 = ctypes.POINTER(ctypes.c_int64)
    potrf.argtypes = [ctypes.c_char_p, int64, ctypes.c_void_p, int64, int64, ctypes.c_size_t]
    potrs.argtypes = [ctypes.c_char_p, int64, int64, ctypes.c_void_p, int64,
                      ctypes.c_void_p, int64, int64, ctypes.c_size_t]
    potrf.restype = potrs.restype = None

    def factor(a):
        # LAPACK reads one triangle of a symmetric matrix, the same numbers in
        # either memory order: the row-major copy is a^T in column-major
        # order, and a plain copy costs a third of a transposing one
        c = np.array(a, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("Cholesky factorization needs a square matrix")
        n, info = ctypes.c_int64(c.shape[0]), ctypes.c_int64(0)
        potrf(b"L", ctypes.byref(n), c.ctypes.data, ctypes.byref(n), ctypes.byref(info), 1)
        if info.value < 0:
            raise ValueError(f"dpotrf rejected argument {-info.value}")
        return c if info.value == 0 else None

    def solve(c, b):
        x = np.array(b, dtype=np.float64, order="F")
        if x.ndim not in (1, 2) or x.shape[0] != c.shape[0]:
            raise ValueError("right-hand side does not match the factor")
        n, info = ctypes.c_int64(c.shape[0]), ctypes.c_int64(0)
        nrhs = ctypes.c_int64(1 if x.ndim == 1 else x.shape[1])
        potrs(b"L", ctypes.byref(n), ctypes.byref(nrhs), c.ctypes.data, ctypes.byref(n),
              x.ctypes.data, ctypes.byref(n), ctypes.byref(info), 1)
        if info.value < 0:
            raise ValueError(f"dpotrs rejected argument {-info.value}")
        return x

    return factor, solve


def _scipy_cholesky():
    """(factor, solve) through scipy's LAPACK dpotrf and dpotrs, imported on
    first use."""
    from scipy.linalg import lapack

    def factor(a):
        c, info = lapack.dpotrf(a, lower=1, clean=0)
        if info < 0:
            raise ValueError(f"dpotrf rejected argument {-info}")
        return c if info == 0 else None

    def solve(c, b):
        x, info = lapack.dpotrs(c, b, lower=1)
        if info < 0:
            raise ValueError(f"dpotrs rejected argument {-info}")
        return x

    return factor, solve


@functools.cache
def _cholesky_routines():
    """(factor, solve), looked up once.  ``factor(a)`` is the lower Cholesky
    factor of the symmetric ``a``, or None when ``a`` is not numerically
    positive definite; ``solve(c, b)`` is a^-1 b from that factor.  The pair is
    LAPACK's dpotrf and dpotrs from numpy's own OpenBLAS, or the same two
    routines from scipy's LAPACK where numpy's copy lacks them."""
    return _openblas_cholesky() or _scipy_cholesky()


@functools.cache
def _openblas_thread_controls():
    """(getter, setter) of the thread count of every loaded OpenBLAS copy.

    The wheels bundle OpenBLAS under prefixed symbols: numpy's copy has the
    suffix ``64_`` of its 64-bit-integer interface, scipy's none.  Scipy's copy
    is loaded only where the Cholesky routines fall back to scipy's LAPACK, so
    they are resolved first, and a copy they load is pinned too.  Empty when
    there is no ``/proc`` or no OpenBLAS.
    """
    _cholesky_routines()
    controls = []
    for lib in _loaded_openblas():
        for suffix in ("64_", ""):
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if getter is None or setter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            controls.append((getter, setter))
    return tuple(controls)


class _OneBlasThread(contextlib.ContextDecorator):
    """Runs the wrapped code with every OpenBLAS copy on one thread.

    The thread count is process-wide, so concurrent solves share one scope:
    the first to enter saves the caller's counts and sets one thread, the last
    to leave restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                controls = _openblas_thread_controls()
                self._saved = tuple(getter() for getter, _ in controls)
                for _, setter in controls:
                    setter(1)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, setter), count in zip(_openblas_thread_controls(), self._saved):
                    setter(count)
        return False


# the one scope that every caller shares, so that nested and concurrent
# users save and restore the caller's counts once
one_blas_thread = _OneBlasThread()
