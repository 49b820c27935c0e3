"""Shared-memory arenas for zero-copy ndarray transfer between processes.

The process backend (:mod:`repro.runtime.process_backend`) ships each rank's
program — typically closing over CSR graph segments tens of megabytes large —
to a spawned child interpreter.  Pickling those arrays through a pipe would
copy them twice per rank; instead the parent packs every large ndarray into
one :class:`multiprocessing.shared_memory.SharedMemory` block (the *arena*)
and the pickle stream carries only ``(arena slot index)`` stubs.  Children
map the block once and reconstruct read-only ``np.ndarray`` views at the
recorded offsets — zero copies, regardless of rank count.

Three layers:

* :class:`SharedArena` / :class:`ArenaDescriptor` — create a block from a
  list of arrays, attach to it by name in another process, view slots as
  read-only arrays, and close/unlink it;
* :func:`shm_dumps` / :func:`shm_loads` — pickle an arbitrary object graph
  while externalizing every large ndarray into a fresh arena (via the
  ``persistent_id`` protocol), and the inverse;
* :func:`active_segments` — registry of arenas created by this process that
  have not been unlinked, used by the test-suite leak fixture.

Lifetime rules (see ``docs/BACKENDS.md``): the *creating* process owns the
segment and must ``unlink`` it exactly once; every *attaching* process only
``close``\\ s its mapping, as soon as it is done with it (a pooled rank
worker does so after every job, since it outlives the segment).  Children
deliberately unregister their attachment from
:mod:`multiprocessing.resource_tracker` — the parent owns cleanup, and
letting each child's tracker also unlink the name would race (and spam
``KeyError`` warnings at interpreter exit on Python < 3.13, which lacks the
``track=False`` parameter).
"""

from __future__ import annotations

import io
import os
import pickle
import secrets
import sys
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Sequence

import numpy as np

__all__ = [
    "ArenaDescriptor",
    "SharedArena",
    "active_segments",
    "shm_dumps",
    "shm_loads",
    "SHM_PREFIX",
]

# Segment names are namespaced so the leak fixture can scan /dev/shm for
# stragglers without false-positiving on unrelated segments.
SHM_PREFIX = "repro-shm-"

_ALIGN = 64  # cache-line alignment for every slot

# Arenas created (not attached) by this process and not yet unlinked.
_created: dict[str, "SharedArena"] = {}


def active_segments() -> list[str]:
    """Names of arenas this process created but has not unlinked yet."""
    return sorted(_created)


def leaked_segment_files(shm_dir: str = "/dev/shm") -> list[str]:
    """Leftover ``repro-shm-*`` files visible in the OS shm directory.

    Cross-process view (a crashed parent leaks here even after the Python
    registry is gone); returns ``[]`` on platforms without a scannable shm
    filesystem.
    """
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return []
    return sorted(n for n in names if n.startswith(SHM_PREFIX))


@dataclass(frozen=True)
class ArenaDescriptor:
    """Picklable handle for attaching to a :class:`SharedArena`.

    ``slots[i]`` is ``(offset, dtype_str, shape)`` for the ``i``-th packed
    array; ``dtype_str`` is ``np.dtype.str`` (endianness-qualified).
    """

    name: str
    size: int
    slots: tuple[tuple[int, str, tuple[int, ...]], ...]


class SharedArena:
    """One shared-memory block holding a sequence of packed ndarrays."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        descriptor: ArenaDescriptor,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.descriptor = descriptor
        self._owner = owner
        self._closed = False
        self._unpinned = self._pins()  # no ndarray over the block yet

    # -- construction ----------------------------------------------------
    @classmethod
    def create(cls, arrays: Sequence[np.ndarray]) -> "SharedArena":
        """Pack ``arrays`` into a fresh shared-memory block (the caller —
        and only the caller — must eventually :meth:`unlink` it)."""
        slots: list[tuple[int, str, tuple[int, ...]]] = []
        offset = 0
        prepared: list[np.ndarray] = []
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            if arr.dtype.hasobject:
                raise TypeError("object-dtype arrays cannot live in shared memory")
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            slots.append((offset, arr.dtype.str, arr.shape))
            prepared.append(arr)
            offset += arr.nbytes
        name = SHM_PREFIX + f"{os.getpid():x}-" + secrets.token_hex(6)
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(offset, 1))
        for arr, (off, _dt, _shape) in zip(prepared, slots):
            # no view may outlive the copy: __init__ counts the references
            # left to the block as its unpinned baseline (see close)
            np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off
            )[...] = arr
        desc = ArenaDescriptor(name=shm.name, size=shm.size, slots=tuple(slots))
        arena = cls(shm, desc, owner=True)
        _created[shm.name] = arena
        return arena

    @classmethod
    def attach(cls, descriptor: ArenaDescriptor) -> "SharedArena":
        """Map an existing arena by descriptor (in a child process).

        The attach must NOT register with the resource tracker: spawn
        children share the parent's tracker process, so a child
        register/unregister pair would delete the creator's registration
        (and unregister-after-attach makes later unregisters ``KeyError``
        in the tracker).  Python 3.13 has ``track=False`` for this; on
        older interpreters the registration call is suppressed instead.
        """
        register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            shm = shared_memory.SharedMemory(name=descriptor.name)
        finally:
            resource_tracker.register = register
        return cls(shm, descriptor, owner=False)

    # -- access ----------------------------------------------------------
    def view(self, index: int) -> np.ndarray:
        """Read-only zero-copy ndarray over slot ``index``."""
        off, dtype_str, shape = self.descriptor.slots[index]
        arr = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=self._shm.buf, offset=off)
        arr.setflags(write=False)
        return arr

    def views(self) -> list[np.ndarray]:
        return [self.view(i) for i in range(len(self.descriptor.slots))]

    # -- lifetime --------------------------------------------------------
    def _pins(self) -> int:
        """References to the mapped block and to its memoryview."""
        return sys.getrefcount(self._shm._mmap) + sys.getrefcount(self._shm.buf)

    def close(self) -> bool:
        """Drop this process's mapping (safe to call more than once).

        Returns False, and keeps the mapping, while any ndarray over the
        block is alive; call again once they are gone.
        """
        if self._closed:
            return True
        # An ndarray over the block keeps the mmap (or, on older numpy, the
        # memoryview) alive as its base but holds no buffer export, so
        # SharedMemory.close() would unmap memory the array still points to
        # and a later read would crash the process.  Count references
        # instead.  Unlink (below) is independent of close, so a kept
        # mapping never leaks the segment's name; its memory stays mapped
        # until the arrays die and close succeeds, or the process exits.
        # A pooled rank worker never exits between jobs: it drops every job
        # reference first and retires if the close still fails (see
        # process_backend._child_main).
        if self._pins() > self._unpinned:
            return False
        try:
            self._shm.close()
        except BufferError:
            return False  # a memoryview export is still alive
        self._closed = True
        return True

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent)."""
        if not self._owner:
            return
        if _created.pop(self.descriptor.name, None) is None:
            return  # already unlinked
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# persistent_id pickling: externalize large ndarrays into an arena
# ----------------------------------------------------------------------

# Arrays below this size are cheaper to pickle inline than to slot (one
# syscall-backed mapping + alignment padding each).
DEFAULT_MIN_BYTES = 8192

_PID_TAG = "repro.shm"


class _ShmPickler(pickle.Pickler):
    def __init__(self, file, min_bytes: int) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._min_bytes = min_bytes
        self.arrays: list[np.ndarray] = []
        # persistent_id bypasses the pickle memo, so dedupe shared arrays
        # by identity ourselves (CSR segments are referenced from several
        # dataclass fields in a Partition)
        self._index_by_id: dict[int, int] = {}

    def persistent_id(self, obj: Any):
        if (
            isinstance(obj, np.ndarray)
            and not obj.dtype.hasobject
            and obj.nbytes >= self._min_bytes
        ):
            idx = self._index_by_id.get(id(obj))
            if idx is None:
                idx = len(self.arrays)
                self._index_by_id[id(obj)] = idx
                self.arrays.append(obj)
            return (_PID_TAG, idx)
        return None


class _ShmUnpickler(pickle.Unpickler):
    def __init__(self, file, arena: SharedArena | None) -> None:
        super().__init__(file)
        self._arena = arena

    def persistent_load(self, pid):
        tag, idx = pid
        if tag != _PID_TAG or self._arena is None:
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        return self._arena.view(idx)


def shm_dumps(
    obj: Any, min_bytes: int = DEFAULT_MIN_BYTES
) -> tuple[bytes, SharedArena | None]:
    """Pickle ``obj``, externalizing large ndarrays into a shared arena.

    Returns ``(payload, arena)`` where ``arena`` is ``None`` when no array
    crossed the ``min_bytes`` threshold.  The caller owns the arena and must
    ``unlink`` it after every consumer has attached (or on abort).
    """
    buf = io.BytesIO()
    pickler = _ShmPickler(buf, min_bytes)
    pickler.dump(obj)
    arena = SharedArena.create(pickler.arrays) if pickler.arrays else None
    return buf.getvalue(), arena


def shm_loads(payload: bytes, arena: SharedArena | None) -> Any:
    """Inverse of :func:`shm_dumps`; slot references become read-only
    zero-copy views over ``arena``."""
    return _ShmUnpickler(io.BytesIO(payload), arena).load()
