"""Loader of the native kernels (``_kernels.c``).

The vectorized inner iteration runs in C (``_kernels.c``), one call per
phase between two collectives, bound once per level by
:class:`LevelKernels`:

* ``sync_send`` — the sync's compact label index (``label_index``: a
  counting table over the labels' span, or the label hash plus a radix
  sort of the distinct labels), the fused CSR scan (``neighbour_scan``:
  internal weights and every row's neighbour-community sums), the member
  sums, and the owner bucketing of the contributions and the requests;
* ``sync_owner`` — the owner table of the received contributions in the
  label hash, its partial Q and the answers to the incoming requests;
* ``sync_place`` — the reply check, the replies on the compact index and
  the local-member census;
* ``sync_sweep`` — the gain pass over those sums (``decide``, as
  ``pair_gains``), the two Jacobi dampers, the owned moves and the hub
  proposals.

``label_index``, ``neighbour_scan`` and ``pair_gains`` stay callable on
their own (:meth:`LevelKernels.index`, :meth:`~LevelKernels.scan`,
:meth:`~LevelKernels.gains`, used by the shared-memory baseline and by
``modularity``), and ``label_ids``/``label_find`` serve
:class:`LabelTable`.  Graph construction runs in C too: a stable counting
sort by ``(a, b)`` with the ``indptr`` of ``a`` (:func:`pair_sort`), the
merge of equal pairs (:func:`run_sums`) and the symmetric layout of
deduplicated edges (:func:`symmetric_csr`), which ``build_symmetric_csr``,
``build_local_graphs`` and ``merge_level`` use in place of comparison
sorts, and ``np.unique(..., return_inverse=True)`` from ``label_index``
(:func:`unique_inverse`).  This module compiles the source with the system
C compiler on the first kernel call (never at import), caches the shared
library, and calls it through :mod:`ctypes`.  A ``ctypes.CDLL`` call
releases the GIL, so the thread ranks of one run compute in parallel.

The kernels are bound once per level: the level's arrays and the scratch
(one int64 and one float64 block) are checked and addressed when the level
starts, into one ``level_state`` struct, and each call passes that struct
and raw addresses, so the fixed cost of a call stays a few microseconds.
A sync ships one array per peer: the contributions and the replies are
packed into one int64 buffer of 8-byte words each, the bytes of their
columns one after the other (see :meth:`LevelKernels.send` and
:meth:`LevelKernels.owner`).  Every array a call ships or returns is
freshly allocated: the thread backend hands payloads to peers by
reference.

The C kernels are the only implementation, and a C compiler is required.
They reproduce numpy's summation and operand order (no fused
multiply-add), and the tests pin them bit for bit against numpy
references kept as oracles (``tests/core/numpy_kernels.py``).

Build and cache:

* the command is ``cc -O3 -fPIC -shared -ffp-contract=off``, with no
  ``-march=native`` and no fast-math: both would break bit-identity with
  the numpy references;
* the library lives in ``$XDG_CACHE_HOME/repro`` (default
  ``~/.cache/repro``), a directory of mode 0700 that must be owned by the
  current user and not writable by group or others.  Its file name carries
  a sha256 of the source text, the flags and ``platform.machine()``, so a
  changed source never loads a stale build;
* the compiler writes a temporary file in the same directory, which
  ``os.replace`` then renames onto the final name: processes that build
  at the same time (pooled rank workers) need no lock;
* if the cache directory is unusable, the build goes to a private
  ``tempfile.mkdtemp()`` directory instead;
* the build runs once per process.  If it fails, the first kernel call
  raises a :class:`RuntimeError` that names the compiler command and its
  output, and every later kernel call raises the same error without
  building again.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import logging
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
from importlib import resources
from typing import NamedTuple

import numpy as np

__all__ = [
    "LabelTable",
    "LevelKernels",
    "SyncSpec",
    "VECTOR_HEURISTICS",
    "heuristic_code",
    "pair_sort",
    "run_sums",
    "symmetric_csr",
    "unique_inverse",
]

_COMPILER = "cc"
_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_SOURCE = "_kernels.c"

# selection-rule codes of pair_gains (the enum in _kernels.c)
_HEURISTIC_CODES = {"greedy": 0, "minlabel": 1, "enhanced": 2}
# heuristics with a vectorized selection rule (all registered ones today)
VECTOR_HEURISTICS = frozenset(_HEURISTIC_CODES)

_log = logging.getLogger(__name__)
_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_error: RuntimeError | None = None
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
    """Argument types of every kernel.  Arrays travel as raw addresses:
    the wrappers below check each array's dtype and contiguity before
    taking its address (see :func:`_addr`)."""
    ptr, n, real = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.label_ids.restype = n
    lib.label_ids.argtypes = [n, ptr, n, ptr, ptr, ptr]  # n, keys, cap, slots, ids, uniq
    lib.label_find.restype = n
    lib.label_find.argtypes = [n, ptr, n, ptr, ptr]  # n, queries, cap, slots, pos
    lib.label_index.restype = n
    lib.label_index.argtypes = [
        n, ptr, n, ptr,  # n, keys, cap, slots
        ptr, ptr, ptr,  # scratch: ids, tmp, count
        ptr, ptr,  # labels, cidx (may be ids)
    ]
    lib.neighbour_scan.restype = n
    lib.neighbour_scan.argtypes = [
        n, ptr, ptr, ptr, ptr, n,  # n_rows, indptr, indices, weights, cidx, k
        ptr, ptr, ptr,  # s_in, has_in; scratch: marks
        ptr, ptr, ptr,  # pair_ptr, pair_id, pair_w
    ]
    lib.pair_gains.restype = n
    lib.pair_gains.argtypes = [
        n, ptr, ptr, ptr,  # n_rows, pair_ptr, pair_id, pair_w
        ptr, ptr, ptr,  # cidx, comm_of, row_wdeg
        n, ptr, ptr, ptr, ptr,  # k, labels, st, sz, loc
        real, real, real, n,  # two_m, resolution, theta, heuristic
        n, ptr,  # scratch: gain_cap, gain
        ptr, ptr, ptr, ptr,  # chosen, chosen_id, chosen_gain, stay_gain
    ]
    state = ctypes.POINTER(_LevelState)
    lib.sync_send.restype = n
    lib.sync_send.argtypes = [
        state, ptr,  # level, comm_of
        ptr, ptr, ptr, ptr, ptr,  # labels, cidx, pair_ptr, pair_id, pair_w
        ptr, ptr, ptr,  # con, r_lab, bounds
    ]
    lib.sync_owner.restype = n
    lib.sync_owner.argtypes = [
        state, ptr,  # level, io (counts and addresses)
        n, ptr, ptr,  # cap; scratch: slots, acc
        ptr, ptr,  # rep, q
    ]
    lib.sync_place.restype = n
    lib.sync_place.argtypes = [
        state, n, ptr, ptr, ptr,  # level, k, r_lab, cidx, io
        ptr, ptr, ptr,  # sigma_tot, size, local
    ]
    lib.sync_sweep.restype = n
    lib.sync_sweep.argtypes = [
        state, n, ptr, ptr, ptr, ptr,  # level, k, labels, cidx, st, sz
        ptr, ptr, ptr,  # pair_ptr, pair_id, pair_w
        n, ptr, ptr, ptr,  # down_only, comm_of, hub_gain, hub_target
    ]
    lib.pair_sort.restype = n
    lib.pair_sort.argtypes = [
        n, ptr, ptr, n, n,  # n, a, b, na, nb
        ptr, ptr, ptr, ptr,  # scratch: count, tmp; order, indptr
    ]
    lib.run_sums.restype = n
    lib.run_sums.argtypes = [n, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.symmetric_fill.restype = n
    lib.symmetric_fill.argtypes = [
        n, ptr, ptr, ptr, n,  # m, lo, hi, w, n
        ptr, ptr, ptr,  # indptr; scratch: cursor, slots
        ptr, ptr,  # indices, weights
    ]
    return lib


def _load(cache_dir: str | None = None) -> ctypes.CDLL:
    """Build (or find) and open the library.  ``cache_dir`` replaces the
    default cache directory (for tests).  Raises :class:`RuntimeError`,
    naming the compiler command and its output, if that fails."""
    try:
        source = _source_text()
        directory = cache_dir if cache_dir is not None else _cache_dir()
        if _usable_dir(directory):
            return _declare(ctypes.CDLL(_compile(source, directory)))
        _log.info("cache directory %s refused; building privately", directory)
        private = tempfile.mkdtemp(prefix="repro-kernels-")
        try:
            # the mapping outlives the file, so the directory can go
            return _declare(ctypes.CDLL(_compile(source, private)))
        finally:
            shutil.rmtree(private, ignore_errors=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None)
        reason = detail.decode(errors="replace").strip() if detail else str(exc)
        command = " ".join([_COMPILER, *_FLAGS, "-x", "c", "-", "-o", "<library>"])
        raise RuntimeError(
            f"the native kernels could not be built or loaded with "
            f"`{command}` (a C compiler is required): {reason}"
        ) from exc


def _library() -> ctypes.CDLL:
    """The kernel library, built on the first call of the process.  A
    failed build raises on this call and on every later one, with the
    same error and without a second attempt."""
    global _lib, _error, _tried
    if not _tried:
        with _lock:
            if not _tried:
                try:
                    _lib = _load()
                except RuntimeError as exc:
                    _error = exc
                _tried = True
    if _lib is None:
        # a fresh exception per call: thread ranks may raise at once
        raise RuntimeError(*_error.args) from _error.__cause__
    return _lib


def heuristic_code(name: str) -> int:
    """The ``pair_gains`` code of heuristic ``name``'s selection rule; both
    gain passes check their heuristic here.  Raises :class:`ValueError`
    for a heuristic outside :data:`VECTOR_HEURISTICS`."""
    try:
        return _HEURISTIC_CODES[name]
    except KeyError:
        raise ValueError(
            f"no vectorized rule for heuristic {name!r}; "
            f"supported: {sorted(VECTOR_HEURISTICS)}"
        ) from None


class LabelTable:
    """First-arrival ids of int64 keys, in the C label hash.

    ``ids[i]`` is the id of ``keys[i]``, and ``labels[id]`` the key of an
    id; ids count the distinct keys in order of first arrival, the order a
    dict assigns them.  :meth:`find` looks keys up in the same table.
    """

    __slots__ = ("ids", "labels", "_cap", "_slots")

    def __init__(self, keys: np.ndarray) -> None:
        lib = _library()
        keys = _exact(keys, _I64)
        self._cap = _capacity(keys.size)
        self._slots = np.empty(2 * self._cap, dtype=np.int64)
        self.ids = np.empty(keys.size, dtype=np.int64)
        uniq = np.empty(keys.size, dtype=np.int64)
        k = lib.label_ids(
            keys.size, _addr(keys), self._cap, _addr(self._slots),
            _addr(self.ids), _addr(uniq),
        )
        self.labels = uniq[:k]

    def find(self, queries: np.ndarray) -> np.ndarray:
        """The id of every query; :class:`KeyError` names the first query
        the table does not hold."""
        queries = _exact(queries, _I64)
        pos = np.empty(queries.size, dtype=np.int64)
        missing = _library().label_find(
            queries.size, _addr(queries), self._cap, _addr(self._slots), _addr(pos)
        )
        if missing >= 0:
            raise KeyError(int(queries[missing]))
        return pos


class SyncSpec(NamedTuple):
    """What one rank's sync and sweep need beyond its CSR.

    ``members`` are the rows whose member facts this rank reports: the
    owned rows, then the hub rows it is the designated contributor for.
    Label ``c`` is owned by rank ``c % size``.  ``two_m``, ``resolution``,
    ``theta`` and ``heuristic`` are the partial Q's and the gain pass's.
    """

    rank: int
    size: int
    n_owned: int
    members: np.ndarray
    two_m: float
    resolution: float
    theta: float
    heuristic: str


_I64_FIELDS = ("n_local", "n_rows", "n_owned", "n_members", "size", "heuristic", "cap")
_F64_FIELDS = ("two_m", "resolution", "theta")
_PTR_FIELDS = (
    "indptr", "indices", "weights", "row_wdeg", "members",
    "slots", "ids", "tmp", "count", "marks", "cnt", "order",
    "s_in", "tot", "gain", "present", "is_local",
)


class _LevelState(ctypes.Structure):
    """``level_state`` of ``_kernels.c``, field for field."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in _I64_FIELDS]
        + [(name, ctypes.c_double) for name in _F64_FIELDS]
        + [(name, ctypes.c_void_p) for name in _PTR_FIELDS]
    )


class LevelKernels:
    """The C kernels of the vectorized inner iteration, bound to one
    level's local graph.

    The level's arrays (``indptr``, ``indices``, ``weights``, ``row_wdeg``
    and the spec's member rows) and the scratch are checked, converted if
    need be, and addressed once, here, into one ``level_state``.  With a
    :class:`SyncSpec`, each phase of the inner iteration between two
    collectives is then one C call that releases the GIL:

    * :meth:`send` — the label index, the fused scan, the member sums and
      the owner bucketing of the contributions and the requests;
    * :meth:`owner` — the owner table of the received contributions, its
      partial Q and the answers to the incoming requests;
    * :meth:`place` — the replies and the local-member census on the
      compact index: the columns of a
      :class:`~repro.core.community_table.CommunitySnapshot`;
    * :meth:`sweep` — the gain pass over the last snapshot's pairs, its
      two dampers and the owned moves, written into ``comm_of``.

    :meth:`index`, :meth:`scan` and :meth:`gains` are the same steps one
    at a time, for the shared-memory baseline and the tests.

    Every address handed to C belongs to an array that this object or a
    local name of the calling method holds for the whole call.  Arrays
    that peers sent are checked for dtype and length first.  Every array
    a method returns or ships is freshly allocated: the thread backend
    hands payloads to peers by reference, and a snapshot must survive
    later syncs, so nothing returned aliases the scratch that the next
    call overwrites.

    ``n_local`` is the local vertex count: the size of ``comm_of`` and of
    every compact index, and the bound on the number of distinct labels.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        row_wdeg: np.ndarray,
        n_local: int,
        spec: SyncSpec | None = None,
    ) -> None:
        self._lib = _library()
        # references keep the addresses below valid for the level
        self._csr = (
            _exact(indptr, _I64), _exact(indices, _I64), _exact(weights, _F64)
        )
        self._row_wdeg = _exact(row_wdeg, _F64)
        self.n_rows = int(self._csr[0].size) - 1
        self.n_local = int(n_local)
        _check_csr(*self._csr, self.n_rows)
        if self.n_rows > self.n_local or self._row_wdeg.size < self.n_rows:
            raise ValueError("n_local and row_wdeg must cover every row")
        self._spec = spec
        if spec is None:
            spec = SyncSpec(0, 1, self.n_rows, _EMPTY_I64, 1.0, 1.0, 0.0, "greedy")
        members = _exact(spec.members, _I64)
        if members.size and (members.min() < 0 or members.max() >= self.n_rows):
            raise ValueError("member rows must be rows of the level")
        if not 0 <= spec.n_owned <= self.n_rows or spec.size < 1:
            raise ValueError("the sync spec does not fit the level")
        n, size = self.n_local, spec.size
        self._cap = _capacity(n)
        # a row has at most one pair per entry
        indptr = self._csr[0]
        self._gain_cap = int((indptr[1:] - indptr[:-1]).max(initial=0))
        # the scratch and the sync's small arrays: one int64 block and one
        # float64 block, each addressed once
        ints, i_off, i_at = _carve(
            _I64, slots=2 * self._cap, ids=n, tmp=n, count=max(2048, size),
            marks=n, cnt=n, order=n, flags=-(-2 * n // 8),
            bounds=2 * (size + 1) + 1, io=4 * size,
        )
        reals, f_off, f_at = _carve(_F64, s_in=n, tot=n, gain=self._gain_cap, q=1)
        self._scratch = (ints, reals)
        # present and is_local: n bytes each, in the flags words
        i_at["present"], i_at["is_local"] = i_at["flags"], i_at["flags"] + n
        self._is_local = ints[i_off["flags"] :].view(np.bool_)[n : 2 * n]
        self._bounds = ints[i_off["bounds"] : i_off["io"]]
        self._io = ints[i_off["io"] : i_off["io"] + 4 * size]
        self._q = reals[f_off["q"] :]
        self._at = {**i_at, **f_at}
        self._members = members
        csr_at = [_addr(a) for a in (*self._csr, self._row_wdeg)]
        self._state = _LevelState(
            n_local=n, n_rows=self.n_rows, n_owned=spec.n_owned,
            n_members=members.size, size=size,
            # a heuristic without a vectorized rule fails in sweep
            heuristic=_HEURISTIC_CODES.get(spec.heuristic, -1), cap=self._cap,
            two_m=spec.two_m, resolution=spec.resolution, theta=spec.theta,
            indptr=csr_at[0], indices=csr_at[1], weights=csr_at[2],
            row_wdeg=csr_at[3], members=_addr(members),
            **{name: self._at[name] for name in _PTR_FIELDS[5:]},
        )
        self._level = ctypes.pointer(self._state)
        self._csr_addr = tuple(csr_at[:3])
        self._row_wdeg_addr = csr_at[3]
        # the layout of a send: the snapshot's columns in one int64 block
        # (labels, cidx, pair_ptr, pair_id) and the two payloads in another
        # (the requests, then the packed contributions)
        self._send_cols = list(
            itertools.accumulate((0, n, n, self.n_rows + 1, self._csr[1].size))
        )
        # the owner table's scratch (slots for a hash of capacity cap, acc
        # for n contributions), grown to the largest stream seen
        self._owner_scratch: tuple = ()
        self._owner_cap = self._owner_n = -1
        # the state of the sync in progress and of the last snapshot
        self._sent: tuple | None = None
        self._sent_addr: tuple = ()
        self._placed: tuple | None = None
        self._placed_addr: tuple = ()

    def _vertex_array(self, a: np.ndarray) -> np.ndarray:
        a = _exact(a, _I64)
        if a.size != self.n_local:
            raise ValueError(f"expected one entry per local vertex ({self.n_local})")
        return a

    def _sync_spec(self) -> SyncSpec:
        if self._spec is None:
            raise RuntimeError("these kernels were bound without a sync spec")
        return self._spec

    def index(self, comm_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``np.unique(comm_of, return_inverse=True)``, from one pass of
        the label hash, a radix sort of the distinct labels only, and one
        probe per distinct label to remap the ids."""
        comm_of = self._vertex_array(comm_of)
        sc = self._state
        labels = np.empty(self.n_local, dtype=np.int64)
        cidx = np.empty(self.n_local, dtype=np.int64)
        k = self._lib.label_index(
            self.n_local, _addr(comm_of), self._cap, sc.slots, sc.ids, sc.tmp,
            sc.count, _addr(labels), _addr(cidx),
        )
        return labels[:k], cidx

    def scan(
        self, cidx: np.ndarray, n_labels: int
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """One CSR pass under the compact index ``cidx`` (ids below
        ``n_labels``): ``(s_in, has_in, (pair_ptr, pair_id, pair_w))``.
        ``s_in``/``has_in`` are ``internal_weight``'s; the pairs are each
        row's neighbour-community sums, self entries excluded, ids in order
        of first appearance in the row."""
        cidx = self._vertex_array(cidx)
        if not 0 <= n_labels <= self.n_local:
            raise ValueError("more labels than local vertices")
        indptr, indices, weights = self._csr_addr
        s_in = np.empty(n_labels)
        has_in = np.empty(n_labels, dtype=np.bool_)
        pair_ptr = np.empty(self.n_rows + 1, dtype=np.int64)
        pair_id = np.empty(self._csr[1].size, dtype=np.int64)
        pair_w = np.empty(self._csr[1].size)
        n_pairs = self._lib.neighbour_scan(
            self.n_rows, indptr, indices, weights, _addr(cidx), n_labels,
            _addr(s_in), _addr(has_in), self._state.marks,
            _addr(pair_ptr), _addr(pair_id), _addr(pair_w),
        )
        return s_in, has_in, (pair_ptr, pair_id[:n_pairs], pair_w[:n_pairs])

    def gains(
        self,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
        cidx: np.ndarray,
        comm_of: np.ndarray,
        labels: np.ndarray,
        lookup: tuple[np.ndarray, np.ndarray, np.ndarray],
        *,
        two_m: float,
        resolution: float,
        theta: float,
        heuristic_name: str,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(chosen, chosen_gain, stay_gain, chosen_id)`` of every row from
        its neighbour-community sums ``pairs`` (:meth:`scan`'s, in any order
        within a row), plus the compact id of each chosen label.
        ``lookup`` holds the ``(sigma_tot, size, is_local)`` columns of the
        compact ids, whose labels are ``labels``."""
        code = heuristic_code(heuristic_name)
        pair_ptr, pair_id, pair_w = (
            _exact(pairs[0], _I64), _exact(pairs[1], _I64), _exact(pairs[2], _F64)
        )
        if (
            pair_ptr.size != self.n_rows + 1
            or pair_ptr[0] != 0
            or pair_id.size != pair_ptr[-1]
            or pair_w.size != pair_id.size
        ):
            raise ValueError("pair_ptr does not describe the pair arrays")
        cidx, comm_of = self._vertex_array(cidx), self._vertex_array(comm_of)
        labels = _exact(labels, _I64)
        st, sz, loc = (
            _exact(lookup[0], _F64), _exact(lookup[1], _I64), _exact(lookup[2], _BOOL)
        )
        k = labels.size
        if st.size != k or sz.size != k or loc.size != k:
            raise ValueError("the table lookup must hold one entry per label")
        chosen = np.empty(self.n_rows, dtype=np.int64)
        chosen_id = np.empty(self.n_rows, dtype=np.int64)
        chosen_gain = np.empty(self.n_rows)
        stay_gain = np.empty(self.n_rows)
        long_row = self._lib.pair_gains(
            self.n_rows, _addr(pair_ptr), _addr(pair_id), _addr(pair_w),
            _addr(cidx), _addr(comm_of), self._row_wdeg_addr,
            k, _addr(labels), _addr(st), _addr(sz), _addr(loc),
            two_m, resolution, theta, code,
            self._gain_cap, self._state.gain,
            _addr(chosen), _addr(chosen_id), _addr(chosen_gain), _addr(stay_gain),
        )
        if long_row >= 0:
            raise ValueError(f"row {long_row} has more pairs than entries")
        return chosen, chosen_gain, stay_gain, chosen_id

    # ------------------------------------------------------------------
    # The phases of the inner iteration
    # ------------------------------------------------------------------
    def send(self, comm_of: np.ndarray) -> tuple[list, list]:
        """``(contributions, requests)`` of a sync of ``comm_of``, one
        payload per owner rank: the packed contributions, this rank's
        ``(labels, sigma_tot, size, sigma_in)`` facts pre-aggregated per
        label (one int64 buffer of ``4 m`` words: the labels, then the
        three sums' float64 bits, ``m`` words each), and the int64 labels
        this rank references, both in ascending label order.  Keeps the
        compact index and the scan's pairs for :meth:`place`."""
        size = self._sync_spec().size
        comm_of = self._vertex_array(comm_of)
        n, o = self.n_local, self._send_cols
        cols = np.empty(o[-1], dtype=np.int64)
        ship = np.empty(5 * n, dtype=np.int64)
        pair_w = np.empty(self._csr[1].size)
        cols_at = _addr(cols)  # never empty: pair_ptr has n_rows + 1 entries
        at = [cols_at + 8 * start for start in o[:4]]
        ship_at = _addr(ship) or 0
        w_at = _addr(pair_w)
        k = self._lib.sync_send(
            self._level, _addr(comm_of), *at, w_at, ship_at + 8 * n, ship_at,
            self._at["bounds"],
        )
        b = self._bounds.tolist()
        r_lab, con = ship[:n], ship[n:]
        contributions = [
            con[4 * lo : 4 * hi] for lo, hi in zip(b[:size], b[1 : size + 1])
        ]
        requests = [
            r_lab[lo:hi]
            for lo, hi in zip(b[size + 1 : 2 * size + 1], b[size + 2 : 2 * size + 2])
        ]
        n_pairs = b[-1]
        self._sent = (
            cols[:k], cols[o[1] : o[2]], cols[o[2] : o[3]],
            cols[o[3] : o[3] + n_pairs], pair_w[:n_pairs], r_lab,
        )
        self._sent_addr = (*at, w_at, ship_at)
        return contributions, requests

    def owner(self, received: list, incoming: list) -> tuple[float, list]:
        """``(q_part, replies)``: the partial modularity of the aggregates
        of the ``received`` packed contributions (one per peer, in rank
        order), and per peer the packed answer to its ``incoming``
        requests: one int64 buffer of ``3 m`` words, the ``m`` requested
        labels, then a ``(sigma_tot, size)`` pair of float64 per request.
        A request for a community this owner holds no aggregate for raises
        ``RuntimeError``."""
        spec = self._sync_spec()
        size = spec.size
        if len(received) != size or len(incoming) != size:
            raise ValueError(f"expected one payload from each of {size} ranks")
        counts, addrs, held = [], [], []
        for r, buf in enumerate(received):
            m, bad = divmod(buf.size, 4)
            if bad or buf.ndim != 1 or buf.dtype != _I64:
                raise ValueError(
                    f"rank {spec.rank}: malformed contributions from rank {r}"
                )
            buf = _exact(buf, _I64)
            counts.append(m)
            addrs.append(_addr(buf) or 0)
            held.append(buf)
        n_stream = sum(counts)
        n_req = []
        for r, req in enumerate(incoming):
            req = _exact(req, _I64)
            if req.ndim != 1:
                raise ValueError(f"rank {spec.rank}: malformed requests from rank {r}")
            n_req.append(req.size)
            addrs.append(_addr(req) or 0)
            held.append(req)
        self._io[:] = counts + n_req + addrs
        cap = _capacity(n_stream)
        if cap > self._owner_cap or n_stream > self._owner_n:
            self._owner_cap = max(cap, self._owner_cap)
            self._owner_n = max(n_stream, self._owner_n)
            slots = np.empty(2 * self._owner_cap, dtype=np.int64)
            acc = np.empty(3 * self._owner_n + 1)
            self._owner_scratch = (slots, acc, _addr(slots), _addr(acc))
        rep = np.empty(3 * sum(n_req), dtype=np.int64)
        missing = self._lib.sync_owner(
            self._level, self._at["io"], cap, *self._owner_scratch[2:],
            _addr(rep), self._at["q"],
        )
        if missing >= 0:
            label = np.concatenate(held[size:])[missing]
            raise RuntimeError(
                f"rank {spec.rank}: no aggregate for community {int(label)}"
            )
        replies, lo = [], 0
        for m in n_req:
            replies.append(rep[3 * lo : 3 * (lo + m)])
            lo += m
        return float(self._q[0]), replies

    def place(self, answered: list) -> tuple:
        """The columns of the sync's
        :class:`~repro.core.community_table.CommunitySnapshot`: the packed
        replies to :meth:`send`'s requests (one per owner, in rank order,
        as :meth:`owner` ships them) on the compact index, with the
        local-member census and the scan's pairs.  Replies that do not
        repeat the requests raise ``RuntimeError``."""
        spec = self._sync_spec()
        if self._sent is None:
            raise RuntimeError("place needs a send first")
        labels, cidx, pair_ptr, pair_id, pair_w = self._sent[:5]
        k = labels.size
        if len(answered) != spec.size:
            raise ValueError(f"expected one reply from each of {spec.size} ranks")
        counts, addrs, held = [], [], []
        for buf in answered:
            m, bad = divmod(buf.size, 3)
            if bad or buf.ndim != 1 or buf.dtype != _I64:
                raise RuntimeError("the pull's replies do not match its requests")
            buf = _exact(buf, _I64)
            counts.append(m)
            addrs.append(_addr(buf) or 0)
            held.append(buf)
        if sum(counts) != k:
            raise RuntimeError("the pull's replies do not match its requests")
        self._io[: 2 * spec.size] = counts + addrs
        sigma_tot = np.empty(k)
        ints = np.empty(2 * k, dtype=np.int64)
        csize, local = ints[:k], ints[k:]
        st_at, ints_at = _addr(sigma_tot) or 0, _addr(ints) or 0
        labels_at, cidx_at, ptr_at, pid_at, w_at, r_lab_at = self._sent_addr
        bad = self._lib.sync_place(
            self._level, k, r_lab_at, cidx_at, self._at["io"],
            st_at, ints_at, ints_at + 8 * k,
        )
        if bad >= 0:
            raise RuntimeError("the pull's replies do not match its requests")
        self._sent = None
        self._placed = (
            labels, cidx, sigma_tot, csize, local, pair_ptr, pair_id, pair_w
        )
        self._placed_addr = (
            labels_at, cidx_at, st_at, ints_at, ints_at + 8 * k, ptr_at, pid_at, w_at
        )
        return self._placed

    def sweep(
        self, snap: tuple, comm_of: np.ndarray, down_only: bool
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """One Jacobi sweep over the snapshot of the last :meth:`place`:
        the gain pass, Lu et al.'s singleton swap gate and the direction
        gate (``down_only``: label-increasing moves are counted but
        deferred), with the owned moves written into ``comm_of`` in place.
        Returns ``(moves, hub_gain, hub_target)``: the owned movers
        counted, and each hub row's proposal."""
        heuristic_code(self._sync_spec().heuristic)
        if not (
            comm_of.dtype == _I64
            and comm_of.flags.c_contiguous
            and comm_of.flags.writeable
            and comm_of.size == self.n_local
        ):
            raise ValueError("comm_of must be a writable int64 array of the level")
        placed = self._placed
        if placed is not None and all(a is b for a, b in zip(snap, placed)):
            # the last place's own arrays: checked and addressed there
            held, addr = placed, self._placed_addr
        else:
            held = self._checked_snapshot(snap)
            addr = tuple(_addr(a) for a in held)
        labels, cidx, st, sz, _local, pair_ptr, pair_id, pair_w = addr
        n_hubs = self.n_rows - self._state.n_owned
        hub_gain = np.empty(n_hubs)
        hub_target = np.empty(n_hubs)
        moves = self._lib.sync_sweep(
            self._level, held[0].size, labels, cidx, st, sz,
            pair_ptr, pair_id, pair_w, int(down_only), _addr(comm_of),
            _addr(hub_gain), _addr(hub_target),
        )
        return moves, hub_gain, hub_target

    def _checked_snapshot(self, snap: tuple) -> tuple:
        """A snapshot that no :meth:`place` of this object built (a test
        oracle's, say): its arrays converted and checked as :meth:`gains`
        checks its own, and its census marked in the scratch that
        ``sync_sweep`` reads."""
        labels, cidx, st, sz, local, pair_ptr, pair_id, pair_w = snap
        cols = (
            _exact(labels, _I64), self._vertex_array(cidx), _exact(st, _F64),
            _exact(sz, _I64), _exact(local, _I64), _exact(pair_ptr, _I64),
            _exact(pair_id, _I64), _exact(pair_w, _F64),
        )
        k = cols[0].size
        if any(a.size != k for a in cols[2:5]):
            raise ValueError("the snapshot must hold one entry per label")
        pair_ptr = cols[5]
        if (
            pair_ptr.size != self.n_rows + 1
            or pair_ptr[0] != 0
            or cols[6].size != pair_ptr[-1]
            or cols[7].size != cols[6].size
            or np.diff(pair_ptr).max(initial=0) > self._gain_cap
        ):
            raise ValueError("pair_ptr does not describe the pair arrays")
        np.greater(cols[4], 0, out=self._is_local[:k])
        return cols


def unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` of int64 ``keys``, from
    ``label_index`` (as :meth:`LevelKernels.index`).  The first-arrival
    ids become the inverse in place, so the call holds four key-sized
    arrays and the hash slots, no more."""
    lib = _library()
    keys = _exact(keys, _I64)
    n = keys.size
    cap = _capacity(n)
    slots = np.empty(2 * cap, dtype=np.int64)
    inverse, tmp, labels = (np.empty(n, dtype=np.int64) for _ in range(3))
    count = np.empty(2048, dtype=np.int64)
    k = lib.label_index(
        n, _addr(keys), cap, _addr(slots), _addr(inverse), _addr(tmp),
        _addr(count), _addr(labels), _addr(inverse),
    )
    return labels[:k], inverse


def pair_sort(
    a: np.ndarray, b: np.ndarray, na: int, nb: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, indptr)`` of the pairs ``(a[i], b[i])``, ``a`` in
    ``[0, na)`` and ``b`` in ``[0, nb)``: ``order`` is the stable argsort
    by ``(a, b)``, equal to ``np.argsort(a * nb + b, kind="stable")``, and
    ``indptr`` (``na + 1`` entries) the start of each ``a`` value's run in
    it, from two counting passes that form no key, so no ``na * nb`` can
    overflow.  Raises :class:`ValueError` for an id out of range."""
    a, b = _exact(a, _I64), _exact(b, _I64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be 1-D arrays of equal length")
    na, nb, n = int(na), int(nb), a.size
    if na < 0 or nb < 0:
        raise ValueError("na and nb must be non-negative")
    count = np.empty(max(na, nb), dtype=np.int64)
    tmp = np.empty(2 * n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    indptr = np.empty(na + 1, dtype=np.int64)
    bad = _library().pair_sort(
        n, _addr(a), _addr(b), na, nb, _addr(count), _addr(tmp), _addr(order),
        _addr(indptr),
    )
    if bad >= 0:
        _out_of_range(a, b, na, nb, bad)
    return order, indptr


def _out_of_range(a: np.ndarray, b: np.ndarray, na: int, nb: int, i: int) -> None:
    raise ValueError(
        f"pair {i} ({int(a[i])}, {int(b[i])}) is outside [0, {na}) x [0, {nb})"
    )


def run_sums(
    order: np.ndarray, a: np.ndarray, b: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of equal ``(a, b)`` along ``order`` (:func:`pair_sort`'s,
    or any order that groups equal pairs): each run's ``a``, ``b`` and its
    ``w`` summed from 0.0 in ``order``, the additions ``np.add.at`` over
    run ids makes.  The values of ``a`` and ``b`` are only compared."""
    order = _exact(order, _I64)
    a, b, w = _exact(a, _I64), _exact(b, _I64), _exact(w, _F64)
    n = order.size
    if a.size != n or b.size != n or w.size != n:
        raise ValueError("order, a, b and w must have equal length")
    run_a = np.empty(n, dtype=np.int64)
    run_b = np.empty(n, dtype=np.int64)
    run_w = np.empty(n)
    r = _library().run_sums(
        n, _addr(order), _addr(a), _addr(b), _addr(w),
        _addr(run_a), _addr(run_b), _addr(run_w),
    )
    return run_a[:r], run_b[:r], run_w[:r]


def symmetric_csr(
    n: int, lo: np.ndarray, hi: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, weights)`` of the symmetric CSR over ``n``
    vertices of the undirected edges ``(lo[i], hi[i], w[i])``, ``lo <=
    hi``: equal edges merge, their weights summed in input order from
    0.0, each edge fills both rows (a self-loop one), and every row lists
    its neighbours in ascending order."""
    lib = _library()
    order, _ = pair_sort(lo, hi, n, n)
    ulo, uhi, uw = run_sums(order, lo, hi, w)
    m = ulo.size
    indptr = np.empty(n + 1, dtype=np.int64)
    cursor = np.empty(n, dtype=np.int64)
    slots = np.empty(4 * m, dtype=np.int64)  # (neighbour, weight) couples
    indices = np.empty(2 * m, dtype=np.int64)
    weights = np.empty(2 * m)
    nnz = lib.symmetric_fill(
        m, _addr(ulo), _addr(uhi), _addr(uw), n, _addr(indptr), _addr(cursor),
        _addr(slots), _addr(indices), _addr(weights),
    )
    return indptr, indices[:nnz], weights[:nnz]


def _capacity(n: int) -> int:
    """Slot count of a label hash for ``n`` keys: a power of two of at
    least ``2 n``, so the load stays at most one half."""
    return 1 << max(1, (2 * n - 1).bit_length())


def _check_csr(
    indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray, n_rows: int
) -> None:
    """Shape checks that keep the C loops inside the arrays.  Values are
    trusted: column ids index ``cidx`` and compact ids index the label
    arrays, which holds for every LocalGraph and label index."""
    if indptr.size != n_rows + 1 or indptr[0] != 0 or indptr[-1] != indices.size:
        raise ValueError("indptr does not describe the entry arrays")
    if weights.size != indices.size:
        raise ValueError("weights must match indices")


_I64, _F64, _BOOL = np.dtype(np.int64), np.dtype(np.float64), np.dtype(np.bool_)
_EMPTY_I64 = np.zeros(0, dtype=np.int64)


def _exact(a: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``a`` itself if it is a C-contiguous ``dtype`` array, else a
    converted copy (which the caller must hold through the C call)."""
    if a.dtype == dtype and a.flags.c_contiguous:
        return a
    return np.ascontiguousarray(a, dtype=dtype)


def _carve(dtype: np.dtype, **lengths: int) -> tuple[np.ndarray, dict, dict]:
    """One array of ``dtype`` cut into consecutive fields of the given
    lengths: ``(block, offsets, addresses)``, by field name.  The block
    has one spare element, so that it is never empty, and is addressed
    once."""
    block = np.empty(sum(lengths.values()) + 1, dtype=dtype)
    base, step = _addr(block), block.itemsize
    offsets, addresses, at = {}, {}, 0
    for name, length in lengths.items():
        offsets[name], addresses[name] = at, base + step * at
        at += length
    return block, offsets, addresses


def _addr(a: np.ndarray) -> int | None:
    """Address of the first element of a C-contiguous array; None (NULL)
    for an empty one, which no kernel reads.  The array must stay
    referenced while C uses the address: never pass a temporary."""
    if a.size == 0:
        return None
    if a.flags.writeable:
        # about 3x cheaper than a.ctypes.data
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data
