"""Loader of the native per-iteration kernels (``_kernels.c``).

The two O(nnz) passes of every vectorized inner iteration, the sweep's
best-move scan and the sync's internal-weight pass, have a C version in
``_kernels.c``.  This module compiles it with the system C compiler on the
first kernel call (never at import), caches the shared library, and calls
it through :mod:`ctypes`.  A ``ctypes.CDLL`` call releases the GIL, so the
thread ranks of one run scan their rows in parallel.

The numpy kernels stay the reference and the fallback: the C functions
reproduce them bit for bit (same summation order, same operand order, no
fused multiply-add), so which path runs never changes an answer.  There is
no option to choose; :func:`available` reports which path is in use.

Build and cache:

* the command is ``cc -O3 -fPIC -shared -ffp-contract=off``, with no
  ``-march=native`` and no fast-math: both would break bit-identity with
  numpy;
* the library lives in ``$XDG_CACHE_HOME/repro`` (default
  ``~/.cache/repro``), a directory of mode 0700 that must be owned by the
  current user and not writable by group or others.  Its file name carries
  a sha256 of the source text, the flags and ``platform.machine()``, so a
  changed source never loads a stale build;
* the compiler writes a temporary file in the same directory, which
  ``os.replace`` then renames onto the final name: processes that build
  at the same time (pooled rank workers) need no lock;
* if the cache directory is unusable, the build goes to a private
  ``tempfile.mkdtemp()`` directory instead.  If the build fails at all,
  the numpy kernels run and the reason is logged once.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
from importlib import resources

import numpy as np

__all__ = ["available", "best_moves", "internal_weight"]

_COMPILER = "cc"
_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_SOURCE = "_kernels.c"

# selection-rule codes of best_moves (the enum in _kernels.c)
_HEURISTIC_CODES = {"greedy": 0, "minlabel": 1, "enhanced": 2}

_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_tried = False


def _source_text() -> str:
    return resources.files("repro.core").joinpath(_SOURCE).read_text()


def _library_name(source: str) -> str:
    """Cache file name: a digest of everything that shapes the binary."""
    digest = hashlib.sha256(
        "\0".join([source, _COMPILER, *_FLAGS, platform.machine()]).encode()
    ).hexdigest()
    return f"kernels-{digest[:32]}.so"


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro")


def _usable_dir(path: str) -> bool:
    """Create ``path`` (mode 0700) if needed; True if it is a directory
    owned by this user that neither group nor others can write."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
    except OSError:
        return False
    return (
        stat.S_ISDIR(st.st_mode)
        and st.st_uid == os.getuid()
        and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
        and os.access(path, os.W_OK | os.X_OK)
    )


def _compile(source: str, directory: str) -> str:
    """Build the library into ``directory``; return its path.  Raises
    ``OSError`` or ``subprocess.CalledProcessError`` on failure."""
    target = os.path.join(directory, _library_name(source))
    if os.path.exists(target):
        return target
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [_COMPILER, *_FLAGS, "-x", "c", "-", "-o", tmp],
            input=source.encode(),
            capture_output=True,
            check=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Exact dtype and contiguity for every array argument."""
    # imported here, with logging below, to keep them off import time
    from numpy.ctypeslib import ndpointer

    def arr(dtype, out=False):
        flags = "C_CONTIGUOUS,WRITEABLE" if out else "C_CONTIGUOUS"
        return ndpointer(dtype=dtype, ndim=1, flags=flags)

    i64, f64, flag = arr(np.int64), arr(np.float64), arr(np.bool_)
    out_i64, out_f64 = arr(np.int64, True), arr(np.float64, True)
    n, real = ctypes.c_int64, ctypes.c_double
    lib.best_moves.restype = None
    lib.best_moves.argtypes = [
        n, i64, i64, f64,  # n_rows, indptr, indices, weights
        i64, i64, f64,  # cidx, comm_of, row_wdeg
        n, i64, f64, flag, i64, flag,  # k, labels, st, st_known, sz, loc
        real, real, real, n,  # two_m, resolution, theta, heuristic
        out_i64, out_f64, out_i64,  # scratch: mark, acc, touched
        out_i64, out_f64, out_f64,  # chosen, chosen_gain, stay_gain
    ]
    lib.internal_weight.restype = None
    lib.internal_weight.argtypes = [
        n, i64, i64, f64, i64,  # n_rows, indptr, indices, weights, cidx
        out_f64, arr(np.uint8, True),  # s_in, has_in
    ]
    return lib


def _load(cache_dir: str | None = None) -> ctypes.CDLL | None:
    """Build (or find) and open the library; None, with one log line, if
    that fails.  ``cache_dir`` replaces the default cache directory (for
    tests)."""
    import logging

    log = logging.getLogger(__name__)
    try:
        source = _source_text()
        directory = cache_dir if cache_dir is not None else _cache_dir()
        if _usable_dir(directory):
            return _declare(ctypes.CDLL(_compile(source, directory)))
        log.info("cache directory %s refused; building privately", directory)
        private = tempfile.mkdtemp(prefix="repro-kernels-")
        try:
            # the mapping outlives the file, so the directory can go
            return _declare(ctypes.CDLL(_compile(source, private)))
        finally:
            shutil.rmtree(private, ignore_errors=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None)
        reason = detail.decode(errors="replace").strip() if detail else str(exc)
        log.warning("native kernels unavailable, using numpy: %s", reason)
        return None


def _library() -> ctypes.CDLL | None:
    global _lib, _tried
    if not _tried:
        with _lock:
            if not _tried:
                _lib = _load()
                _tried = True
    return _lib


def available() -> bool:
    """True if the C kernels are in use (builds them on the first call)."""
    return _library() is not None


def best_moves(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    cidx: np.ndarray,
    comm_of: np.ndarray,
    row_wdeg: np.ndarray,
    labels_all: np.ndarray,
    lookup: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    *,
    n_rows: int,
    two_m: float,
    resolution: float,
    theta: float,
    heuristic_name: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C version of ``sweep_kernel._best_moves_numpy``: one linear scan of
    each row.  ``lookup`` holds the ``(sigma_tot, known, size, is_local)``
    columns of the ``labels_all`` entries."""
    lib = _library()
    st, st_known, sz, loc = lookup
    k = int(labels_all.size)
    _check_csr(indptr, indices, weights, n_rows)
    if cidx.size != comm_of.size or comm_of.size < n_rows or row_wdeg.size < n_rows:
        raise ValueError("cidx, comm_of and row_wdeg must cover every row")
    if any(a.size != k for a in lookup):
        raise ValueError("the table lookup must hold one entry per label")
    chosen = np.empty(n_rows, dtype=np.int64)
    chosen_gain = np.empty(n_rows)
    stay_gain = np.empty(n_rows)
    lib.best_moves(
        n_rows, _i64(indptr), _i64(indices), _f64(weights), _i64(cidx),
        _i64(comm_of), _f64(row_wdeg), k, _i64(labels_all), _f64(st),
        np.ascontiguousarray(st_known, dtype=np.bool_), _i64(sz),
        np.ascontiguousarray(loc, dtype=np.bool_), float(two_m),
        float(resolution), float(theta), _HEURISTIC_CODES[heuristic_name],
        np.full(k, -1, dtype=np.int64), np.empty(k), np.empty(k, dtype=np.int64),
        chosen, chosen_gain, stay_gain,
    )
    return chosen, chosen_gain, stay_gain


def internal_weight(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    cidx: np.ndarray,
    n_labels: int,
) -> tuple[np.ndarray, np.ndarray]:
    """C version of the internal-weight pass: ``(s_in, has_in)`` per
    compact id, ``s_in`` summed in CSR entry order with self entries
    doubled, ``has_in`` marking the ids with an internal entry."""
    lib = _library()
    _check_csr(indptr, indices, weights, indptr.size - 1)
    s_in = np.zeros(n_labels)
    has_in = np.zeros(n_labels, dtype=np.uint8)
    lib.internal_weight(
        indptr.size - 1, _i64(indptr), _i64(indices), _f64(weights), _i64(cidx),
        s_in, has_in,
    )
    return s_in, has_in.view(np.bool_)


def _check_csr(
    indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray, n_rows: int
) -> None:
    """Shape checks that keep the C loops inside the arrays.  Values are
    trusted: column ids index ``cidx`` and compact ids index the label
    arrays, which holds for every LocalGraph and ``np.unique`` index."""
    if indptr.size != n_rows + 1 or indptr[0] != 0 or indptr[-1] != indices.size:
        raise ValueError("indptr does not describe the entry arrays")
    if weights.size != indices.size:
        raise ValueError("weights must match indices")


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)
