"""Process-based SPMD backend: one OS process per rank.

Drop-in alternative to the thread engine (select it with
``run_spmd(..., backend="process")``, ``DistributedConfig(backend=...)`` or
``REPRO_DEFAULT_BACKEND=process``): every rank runs in its own spawned
interpreter, so the non-NumPy portions of a superstep execute in true
parallel instead of time-slicing one GIL.

Architecture (full protocol notes in ``docs/BACKENDS.md``):

* Rank interpreters are pooled.  The first run spawns its workers; later
  runs reuse idle ones and spawn only the shortfall, so interpreter start
  and the numpy/``repro`` imports are paid once per worker, not once per
  run.  Nothing is spawned at import, and :func:`shutdown_rank_pool`
  (registered with :mod:`atexit`) stops the idle workers.
* The SPMD program and its arguments are pickled once, with every large
  ndarray externalized into a :class:`~repro.graph.shm.SharedArena` — the
  CSR graph segments are mapped zero-copy by every child instead of being
  copied ``p`` times through pipes.  A run sends each worker one
  ``("job", spec)`` frame; the worker unmaps the arena before it replies.
* Collectives go peer to peer.  For a run with ``p >= 2`` the parent
  creates one socket pair per rank pair and, right after each job frame,
  passes the worker its ``p - 1`` ends over the worker's pipe
  (``SCM_RIGHTS``).  A collective writes one length-prefixed
  ``(gen, op, payload)`` frame to each peer and reads one from each, in a
  single-threaded selector loop; the own slot never leaves the rank.  The
  links live for one job: a worker closes them before its final frame, so
  a peer still blocked on it sees EOF.
* Each child also holds one pickle-framed duplex pipe to the parent, which
  only supervises, single-threaded, in the calling thread: it sends the
  jobs, reads each rank's final ``("done", ...)``/``("err", ...)`` frame
  and fans out ``("abort",)`` frames.  The pipe carries no rank-to-rank
  data and nothing per collective.
* :class:`ProcComm` subclasses :class:`~repro.runtime.commbase.CommBase`,
  so byte/message accounting, op-tag mismatch checking, fault injection
  and superstep flush semantics are literally the thread backend's code —
  the conformance suite pins this.
* **Faults fire inside the rank.**  The job carries the fault plan and the
  indices of the one-shot faults that already fired; the worker runs a
  rank-local :class:`~repro.runtime.faults.FaultInjector`, and its final
  frame returns what it fired and logged, which the parent merges into the
  caller's live injector.  A recovery supervisor that reuses one injector
  across attempts therefore keeps its one-shot state exactly as with
  threads.  A worker that dies hard loses only its straggler log lines: a
  rank that fires a crash raises :class:`InjectedCrash` and reports it.
* A child that dies without a final frame (hard crash, ``os._exit``)
  surfaces as :class:`ChildCrashError` on its rank — which
  ``run_with_recovery`` treats like any other failed rank.
* After a run in which any rank errored, died or was aborted, all of that
  run's workers are stopped instead of pooled; the next run spawns fresh
  ones.  Only a fully successful run returns its workers.

Failure semantics mirror the thread world's abort protocol: when any rank
errors, the parent broadcasts ``abort``, and a rank blocked in a
collective whose frames have not all arrived raises the same "never
completed" :class:`DeadlockError` on that abort, on EOF from a finished or
failed peer, or at its timeout.
A collective whose every frame already arrived is still delivered,
matching the thread backend's drain rule.
"""

from __future__ import annotations

import atexit
import functools
import gc
import math
import multiprocessing
import os
import pickle
import selectors
import socket
import struct
import sys
import threading
import time
from multiprocessing import reduction
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable

import numpy as np

from repro.graph.shm import SharedArena, shm_dumps, shm_loads
from repro.runtime.commbase import CommBase, CommError, DeadlockError
from repro.runtime.faults import FaultInjector
from repro.runtime.stats import RankStats, RunStats

__all__ = [
    "run_spmd_process",
    "shutdown_rank_pool",
    "ProcComm",
    "ChildCrashError",
    "ProgramNotPicklableError",
]


class ChildCrashError(RuntimeError):
    """A rank's child process died without reporting a result."""


class ProgramNotPicklableError(TypeError):
    """The SPMD program (or its arguments) cannot be shipped to a spawned
    interpreter.  Use a module-level function, or the thread backend."""


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------


_FRAME_LEN = struct.Struct("<Q")
# Linux caps one SCM_RIGHTS message at 253 descriptors (SCM_MAX_FD)
_FDS_PER_MESSAGE = 200

# A raw frame: the length prefix, then a body of _RAW_HEAD (the kind, the
# array count, the op tag's length and the generation), the op tag, one
# entry per array (its dtype code, the dtype.str in at most 4 bytes, its
# rank as a uint32, then its int64 dimensions), zero padding to 8 bytes,
# then each array's bytes, each padded to 8 bytes.  The kind byte tells a
# raw body from a pickle, whose first byte is the PROTO opcode (0x80).
_RAW_ONE, _RAW_TUPLE = 1, 2
_PROTO = pickle.PROTO[0]
_RAW_HEAD = struct.Struct("<BxHIq")
_RAW_NDIM = struct.Struct("<I")  # an entry's rank, 4 bytes into it
_RAW_KINDS = frozenset("biufc")
_PAD = bytes(8)


@functools.lru_cache(maxsize=256)
def _raw_head(n_tag: int, ndims: tuple) -> struct.Struct:
    """The packer of a raw frame's length prefix and padded header, for an
    op tag of ``n_tag`` bytes and arrays of ranks ``ndims``."""
    fmt = f"<Q{_RAW_HEAD.format[1:]}{n_tag}s" + "".join(f"4sI{d}q" for d in ndims)
    return struct.Struct(fmt + f"{-(struct.calcsize(fmt) - _FRAME_LEN.size) % 8}x")


@functools.lru_cache(maxsize=None)
def _entry(ndim: int) -> struct.Struct:
    """The header entry of an array of rank ``ndim``."""
    return struct.Struct(f"<4sI{ndim}q")


@functools.lru_cache(maxsize=None)
def _code(dtype: np.dtype) -> bytes:
    """``dtype``'s code in a header entry: its ``dtype.str``."""
    return dtype.str.encode()


@functools.lru_cache(maxsize=None)
def _dtype(code: bytes) -> np.dtype:
    """The dtype of a header entry's code."""
    return np.dtype(code.rstrip(b"\0").decode())


def _raw(a: Any) -> bool:
    """True for a payload array whose own buffer can go on the wire: a
    C-contiguous, native-endian numeric or bool ``ndarray`` (not a
    subclass)."""
    return (
        type(a) is np.ndarray
        and a.dtype.kind in _RAW_KINDS
        and a.dtype.isnative
        and a.flags.c_contiguous
    )


def _encode(gen: int, op: str, payload: Any) -> tuple[list, bool]:
    """The buffers of one frame, length prefix first, for one ``sendmsg``,
    and whether the frame is raw.

    An array that :func:`_raw` accepts, or a non-empty tuple of them, goes
    raw: a header, then the arrays' own buffers (not copied; they must not
    change until the frame is out).  Any other payload is pickled with its
    generation and op tag.  The payload's type alone decides.
    """
    if type(payload) is np.ndarray:
        arrays = (payload,) if _raw(payload) else None
        kind = _RAW_ONE
    elif type(payload) is tuple and 0 < len(payload) < 1 << 16:
        arrays = payload if all(_raw(a) for a in payload) else None
        kind = _RAW_TUPLE
    else:
        arrays = None
    if arrays is None:
        data = pickle.dumps((gen, op, payload), protocol=pickle.HIGHEST_PROTOCOL)
        return [_FRAME_LEN.pack(len(data)), data], False
    tag = op.encode()
    fields = [kind, len(arrays), len(tag), gen, tag]
    ndims = []
    out = [b""]
    size = 0
    for a in arrays:
        fields += (_code(a.dtype), a.ndim, *a.shape)
        ndims.append(a.ndim)
        n = a.nbytes
        if n:
            out.append(memoryview(a).cast("B"))
            size += n
            if n % 8:
                out.append(_PAD[n % 8 :])
                size += 8 - n % 8
    head = _raw_head(len(tag), tuple(ndims))
    out[0] = head.pack(head.size - _FRAME_LEN.size + size, *fields)
    return out, True


def _decode(body: np.ndarray) -> tuple:
    """``(gen, op, payload)`` of one frame body (the uint8 array it was
    read into).  A raw frame's arrays are views of ``body``: aligned,
    since each starts at a multiple of 8 bytes into a numpy allocation,
    and writable."""
    view = memoryview(body)
    if view[0] == _PROTO:
        return pickle.loads(view)
    kind, count, n_tag, gen = _RAW_HEAD.unpack_from(view)
    at = _RAW_HEAD.size + n_tag
    op = str(view[_RAW_HEAD.size : at], "utf-8")
    specs = []
    for _ in range(count):
        entry = _entry(_RAW_NDIM.unpack_from(view, at + 4)[0])
        code, ndim, *shape = entry.unpack_from(view, at)
        at += entry.size
        specs.append((_dtype(code), ndim, shape))
    at += -at % 8
    arrays = []
    for dtype, ndim, shape in specs:
        n = math.prod(shape)
        a = np.frombuffer(body, dtype, n, at)
        arrays.append(a if ndim == 1 else a.reshape(shape))
        at += -(-n * dtype.itemsize // 8) * 8
    if at != body.size:  # pragma: no cover - protocol bug
        raise CommError(f"raw frame of {body.size} bytes describes {at}")
    return gen, op, arrays[0] if kind == _RAW_ONE else tuple(arrays)


class _Link:
    """This rank's end of one peer link: a non-blocking stream socket that
    carries length-prefixed ``(gen, op, payload)`` frames, raw or pickled
    (:func:`_encode`).

    Each collective puts exactly one frame each way, and a frame is read
    exactly (header, then body), never past its end, so the next frame on
    the link is always the peer's frame for the next generation.
    """

    __slots__ = ("peer", "sock", "events", "_out", "_head", "_body", "_got")

    def __init__(self, peer: int, sock: socket.socket) -> None:
        sock.setblocking(False)
        self.peer = peer
        self.sock = sock
        self.events = 0  # the selector interest registered for this link
        self._out: list = []  # unwritten part of our frame (byte buffers)
        self._head = bytearray(_FRAME_LEN.size)
        self._body: np.ndarray | None = None
        self._got = 0

    def put(self, frame: tuple) -> bool:
        """Queue the ``(gen, op, payload)`` frame; True if it goes raw."""
        self._out, raw = _encode(*frame)
        return raw

    def flush(self) -> bool:
        """Write what the socket takes; True once the frame is out, or once
        the peer has closed its end (then it never will be)."""
        out = self._out
        while out:
            try:
                n = self.sock.sendmsg(out)
            except BlockingIOError:
                return False
            except (BrokenPipeError, ConnectionResetError):
                out.clear()
                return True
            while out and n >= len(out[0]):
                n -= len(out.pop(0))
            if n:
                out[0] = memoryview(out[0])[n:]
        return True

    def pull(self) -> tuple | None:
        """Read what has arrived: the peer's next frame once it is complete,
        else None.  Raises ``EOFError`` when the peer closed its end."""
        while True:
            buf = self._head if self._body is None else self._body
            try:
                n = self.sock.recv_into(memoryview(buf)[self._got :])
            except BlockingIOError:
                return None
            except ConnectionResetError:
                raise EOFError from None
            if n == 0:
                raise EOFError
            self._got += n
            if self._got < len(buf):
                continue
            self._got = 0
            if self._body is None:
                # a numpy allocation: raw arrays decoded over it are aligned
                self._body = np.empty(_FRAME_LEN.unpack(self._head)[0], np.uint8)
            else:
                self._body = None
                return _decode(buf)


class ProcComm(CommBase):
    """Per-rank communicator of the process backend (child side).

    Single-threaded.  Collectives run over the peer links; the only frame
    the parent sends during a job is ``("abort",)``, which a blocked
    collective reads off the parent pipe.
    """

    def __init__(
        self,
        conn,
        rank: int,
        size: int,
        stats: RankStats,
        tracer=None,
        timeout: float = 120.0,
        injector: FaultInjector | None = None,
        links: dict[int, socket.socket] | None = None,
    ) -> None:
        super().__init__(rank, size, stats, tracer=tracer, injector=injector)
        self._timeout = timeout
        self._conn = conn
        self._aborted = False
        self._links = {
            peer: _Link(peer, sock) for peer, sock in (links or {}).items()
        }
        # frames this rank sent, and how many of them went raw
        self.frames = 0
        self.raw_frames = 0
        self._sel = None
        if self._links:
            self._sel = selectors.DefaultSelector()
            self._sel.register(conn, selectors.EVENT_READ, None)

    def close(self) -> None:
        """Release the selector (the job is over; the caller closes the
        link sockets it passed in)."""
        if self._sel is not None:
            self._sel.close()

    def _drain(self) -> None:
        """Read the parent frames that have arrived."""
        try:
            while self._conn.poll(0):
                kind = self._conn.recv()[0]
                if kind != "abort":  # pragma: no cover - protocol bug
                    raise CommError(
                        f"rank {self.rank}: unknown parent frame {kind!r}"
                    )
                self._aborted = True
        except (EOFError, BrokenPipeError, OSError):
            # the parent is gone; nothing can ever be delivered again
            self._aborted = True
            raise DeadlockError(
                f"rank {self.rank}: world aborted while receiving"
            ) from None

    # -- transport primitives -------------------------------------------
    def _watch(self, link: _Link, events: int) -> None:
        if events == link.events:
            return
        if not link.events:
            self._sel.register(link.sock, events, link)
        elif not events:
            self._sel.unregister(link.sock)
        else:
            self._sel.modify(link.sock, events, link)
        link.events = events

    def _take(self, link: _Link, gen: int, op: str, out: list) -> bool:
        """Read ``link``'s frame for generation ``gen`` into ``out`` if it
        has arrived; True once it has."""
        try:
            frame = link.pull()
        except EOFError:
            # a finished or failed peer closed its links
            raise self._never_completed(gen, op) from None
        if frame is None:
            return False
        frame_gen, tag, payload = frame
        if frame_gen != gen:  # pragma: no cover - protocol bug
            raise CommError(
                f"rank {self.rank}: generation {frame_gen} frame from "
                f"rank {link.peer} during generation {gen}"
            )
        out[link.peer] = (tag, payload)
        return True

    def _exchange(
        self, gen: int, row: list[Any], op: str
    ) -> list[tuple[str | None, Any]]:
        out: list[Any] = [None] * self.size
        links = self._links
        sending = set()
        for peer, link in links.items():
            self.raw_frames += link.put((gen, op, row[peer]))
            if not link.flush():
                sending.add(peer)
        self.frames += len(links)
        # frames that already arrived need no trip through the selector
        waiting = {
            peer for peer, link in links.items()
            if not self._take(link, gen, op, out)
        }
        if waiting or sending:
            self._wait(gen, op, out, waiting, sending)
        return out

    def _wait(
        self, gen: int, op: str, out: list, waiting: set, sending: set
    ) -> None:
        """Finish the exchange in the selector: write the frames still in
        ``sending`` and read those still in ``waiting``, until the world
        aborts or the deadline passes."""
        links = self._links
        read, write = selectors.EVENT_READ, selectors.EVENT_WRITE
        deadline = time.monotonic() + self._timeout
        while waiting or sending:
            if self._aborted:
                # drain rule: frames already in our buffers still count
                for peer in list(waiting):
                    if self._take(links[peer], gen, op, out):
                        waiting.discard(peer)
                if waiting:
                    raise self._never_completed(gen, op)
                return
            for peer, link in links.items():
                want = (read if peer in waiting else 0) | (
                    write if peer in sending else 0
                )
                if want & ~link.events:
                    self._watch(link, link.events | want)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise self._never_completed(gen, op)
            for key, mask in self._sel.select(remaining):
                link = key.data
                if link is None:
                    self._drain()
                    continue
                peer = link.peer
                if mask & write and link.flush():
                    sending.discard(peer)
                    self._watch(link, link.events & ~write)
                if mask & read:
                    if peer in waiting:
                        if self._take(link, gen, op, out):
                            waiting.discard(peer)
                    else:
                        # the peer's next frame: leave it for the next
                        # collective, stop waking up for it
                        self._watch(link, link.events & ~read)


def _receive_links(conn, rank: int, size: int) -> dict[int, socket.socket]:
    """This worker's ends of the job's peer links, keyed by peer rank: the
    descriptors the parent passes right after the job frame."""
    peers = [d for d in range(size) if d != rank]
    fds: list[int] = []
    if peers:
        with socket.fromfd(conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as s:
            while len(fds) < len(peers):
                batch = min(_FDS_PER_MESSAGE, len(peers) - len(fds))
                fds += reduction.recvfds(s, batch)
    return {d: socket.socket(fileno=fd) for d, fd in zip(peers, fds)}


def _run_job(
    conn, spec: dict, links: dict[int, socket.socket]
) -> tuple[Any, SharedArena | None]:
    """Run one job in a pooled worker; returns ``(reply, arena)``.

    ``reply`` is the pickled final frame.  The program, its arguments, its
    result, the communicator, the tracer and any error are local to this
    call, so none of them outlives it: once it returns, nothing in the
    worker refers to the job's arena and the caller can unmap it.  The
    peer links are closed before it returns, on success and on failure.
    With a fault plan, the frame ends with the rank-local injector's fired
    indices and log lines, else with ``None``.
    """
    rank = spec["rank"]
    arena = None
    comm = None
    stats = RankStats(rank=rank)
    tracer = None
    if spec["trace"]:
        from repro.runtime.tracing import RankTracer

        # perf_counter (CLOCK_MONOTONIC) is system-wide on every supported
        # platform, so the parent's epoch lines child spans up on the same
        # timeline as thread-backend runs
        tracer = RankTracer(rank, spec["epoch"])
    injector = None
    if spec["faults"] is not None:
        plan, fired = spec["faults"]
        injector = FaultInjector(plan)
        injector.merge(fired, ())
    error: BaseException | None = None
    result: Any = None
    try:
        # what a fresh spawn would inherit: a worker spawned earlier must
        # import the program from wherever the parent imports it now
        sys.path[:] = spec["sys_path"]
        os.chdir(spec["cwd"])
        if spec["arena"] is not None:
            arena = SharedArena.attach(spec["arena"])
        fn, args, kwargs = shm_loads(spec["payload"], arena)
        comm = ProcComm(
            conn,
            rank,
            spec["size"],
            stats,
            tracer=tracer,
            timeout=spec["timeout"],
            injector=injector,
            links=links,
        )
        result = fn(comm, *args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - must report, not leak
        error = exc
    finally:
        # no collective frame outlives the job, and a peer still blocked
        # on this rank sees EOF
        if comm is not None:
            comm.close()
        for sock in links.values():
            sock.close()
        # same contract as the thread engine: flush trailing activity so
        # the superstep log agrees with the per-phase totals, also on
        # failure (post-mortem traces)
        stats.flush()
    events = tracer.events if tracer is not None else []
    faults = (injector.fired, injector.log) if injector is not None else None
    if error is None:
        frame = ("done", result, stats, events, faults)
    else:
        frame = ("err", error, repr(error), stats, events, faults)
    try:
        return ForkingPickler.dumps(frame), arena
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        detail = (
            frame[2] if error is not None else f"unpicklable rank result: {exc!r}"
        )
    frame = ("err", None, detail, stats, events, faults)
    return ForkingPickler.dumps(frame), arena


def _unmap(arena: SharedArena) -> bool:
    """Close this worker's mapping of a finished job's arena."""
    if arena.close():
        return True
    # views kept alive only by reference cycles (a failed job's traceback
    # holds its frames) go with a collection
    gc.collect()
    return arena.close()


def _child_main(conn) -> None:
    """Entry point of a pooled rank worker: run jobs until told to exit.

    Between jobs the worker waits for a ``("job", spec)`` frame and exits on
    ``("exit",)`` or when the parent's end of the pipe closes.  Any other
    frame makes it exit too.  The only other frame the parent sends between
    jobs is an ``("abort",)`` that lands after this worker's job finished;
    that run failed, so its workers are being stopped anyway.  Anything
    else is a protocol error, and the pool drops a worker that exited the
    next time it hands workers out.

    The job's arena is unmapped before the reply is sent, so a worker the
    parent returns to the pool maps no segment.  If a view outlives the job
    (the program kept one in module state), the mapping cannot be dropped:
    the worker then announces ``("exit",)`` ahead of its reply, and leaves.

    A worker announces ``("ready",)`` once, when it enters this loop: a
    worker that dies without having said so died while its interpreter
    started, before it could run a job.
    """
    try:
        conn.send(("ready",))
    except OSError:
        return  # the parent is gone
    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            return  # the parent is gone
        if frame[0] != "job":
            return  # ("exit",), a late ("abort",) or a protocol error
        spec = frame[1]
        try:
            links = _receive_links(conn, spec["rank"], spec["size"])
        except (EOFError, OSError, RuntimeError):
            return  # the parent is gone
        reply, arena = _run_job(conn, spec, links)
        retire = arena is not None and not _unmap(arena)
        try:
            if retire:
                conn.send(("exit",))
            conn.send_bytes(reply)
        except OSError:
            return  # the parent is gone
        if retire:
            return


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def _send(conn, frame: tuple) -> None:
    try:
        conn.send(frame)
    except OSError:
        pass  # a dead worker; _supervise reports it at pipe EOF


def _died(rank: int, worker: "_Worker") -> ChildCrashError:
    """The error of a rank whose worker closed its pipe without a final
    frame, with the worker's exit code."""
    worker.proc.join(timeout=5.0)
    code = worker.proc.exitcode
    detail = f"exit code {code}" if code is not None else "still running"
    if worker.ready:
        return ChildCrashError(
            f"rank {rank}: child process died without reporting a result "
            f"({detail})"
        )
    return ChildCrashError(
        f"rank {rank}: child process died without reporting a result "
        f"({detail}) before it could start a job.  A spawned interpreter "
        "first re-imports the parent's __main__ module, so the likely cause "
        "is a script that starts a process-backend run at import time: put "
        "the call under `if __name__ == \"__main__\":`"
    )


def _supervise(workers: list["_Worker"], injector: FaultInjector | None) -> tuple:
    """Read every rank's final frame, single-threaded, in the calling
    thread; returns ``(results, errors, stats, events, retiring)``.

    The first failure — an ``err`` frame, or a pipe at EOF before its
    final frame (reported as :class:`ChildCrashError`, with the worker's
    exit code) — sends ``("abort",)`` to every rank.  Fired fault state in
    the final frames is merged into ``injector``.  ``retiring`` is True
    when some worker announced that it exits after this job (see
    :func:`_child_main`).
    """
    conns = [w.conn for w in workers]
    n = len(conns)
    results: list[Any] = [None] * n
    errors: list[BaseException | None] = [None] * n
    stats: list[RankStats | None] = [None] * n
    events: list[list] = [[] for _ in range(n)]
    retiring = aborted = False
    pending = {conn: rank for rank, conn in enumerate(conns)}
    while pending:
        for conn in wait(list(pending)):
            rank = pending[conn]
            try:
                kind, *body = conn.recv()
            except (EOFError, OSError):
                kind, body = "died", None
            if kind == "ready":
                workers[rank].ready = True
                continue
            if kind == "exit":
                retiring = True
                continue
            del pending[conn]
            faults = None
            if kind == "done":
                results[rank], stats[rank], events[rank], faults = body
            elif kind == "err":
                exc, detail, stats[rank], events[rank], faults = body
                if exc is None:
                    exc = ChildCrashError(f"rank {rank} failed: {detail}")
                errors[rank] = exc
            else:
                errors[rank] = _died(rank, workers[rank])
            if faults is not None:
                injector.merge(*faults)
            if errors[rank] is not None and not aborted:
                aborted = True
                for c in conns:
                    _send(c, ("abort",))
    return results, errors, stats, events, retiring


def _make_links(n: int) -> list[list[socket.socket]]:
    """One socket pair per rank pair: ``links[r]`` holds rank ``r``'s ends,
    ordered by peer rank."""
    ends: list[list[socket.socket]] = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            sa, sb = socket.socketpair()
            ends[a].append(sa)
            ends[b].append(sb)
    return ends


def _ship_links(conn, socks: list[socket.socket]) -> None:
    """Pass ``socks`` to the worker at the other end of ``conn``
    (``SCM_RIGHTS``), then close the parent's copies."""
    try:
        if socks:
            with socket.fromfd(
                conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM
            ) as s:
                for i in range(0, len(socks), _FDS_PER_MESSAGE):
                    batch = socks[i : i + _FDS_PER_MESSAGE]
                    reduction.sendfds(s, [x.fileno() for x in batch])
    except (OSError, RuntimeError):
        pass  # a dead worker; _supervise reports it at pipe EOF
    finally:
        for sock in socks:
            sock.close()


class _Worker:
    """One pooled rank interpreter and the parent's end of its pipe;
    ``ready`` once the parent has read its ``("ready",)`` frame."""

    def __init__(self) -> None:
        self.ready = False
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_end = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_child_main, args=(child_end,), name="procrank", daemon=True
        )
        self.proc.start()
        child_end.close()  # the child holds its end now


def _stop(workers: list[_Worker]) -> None:
    """Tell ``workers`` to exit, then reap them (terminating stragglers)."""
    for w in workers:
        try:
            w.conn.send(("exit",))
        except OSError:
            pass  # already dead
        w.conn.close()
    deadline = time.monotonic() + 10.0
    for w in workers:
        w.proc.join(timeout=max(0.1, deadline - time.monotonic()))
    for w in workers:
        if w.proc.is_alive():
            w.proc.terminate()
            w.proc.join(timeout=5.0)
        w.proc.close()


class _RankPool:
    """Idle rank workers, shared by every process-backend run.

    A run takes the workers it needs under the lock, so concurrent runs
    get disjoint workers; it spawns only the shortfall, outside the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []

    def take(self, n: int) -> list[_Worker]:
        """Up to ``n`` live idle workers (the caller spawns the rest)."""
        with self._lock:
            cut = max(len(self._idle) - n, 0)
            taken = self._idle[cut:]
            del self._idle[cut:]
        dead = [w for w in taken if not w.proc.is_alive()]
        _stop(dead)
        return [w for w in taken if w not in dead]

    def give_back(self, workers: list[_Worker]) -> None:
        with self._lock:
            self._idle.extend(workers)

    def idle_pids(self) -> list[int]:
        with self._lock:
            return [w.proc.pid for w in self._idle]

    def shutdown(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        _stop(idle)


_POOL = _RankPool()
# runs before multiprocessing's own exit handler (registered when
# repro.graph.shm imported the resource tracker), so idle workers leave
# their loop instead of being terminated
atexit.register(_POOL.shutdown)


def shutdown_rank_pool() -> None:
    """Stop every idle rank worker of the process backend.

    Workers in use by a running job are not affected; they return to the
    (then empty) pool when their job ends, and the next run spawns what
    it lacks.  Also runs at interpreter exit (:mod:`atexit`), so callers
    need not call it before exiting.
    """
    _POOL.shutdown()


def run_spmd_process(
    n_ranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = 120.0,
    injector: FaultInjector | None = None,
    tracer: Any = None,
    **kwargs: Any,
):
    """Process-backend implementation behind ``run_spmd(backend="process")``.

    Same semantics and return type as the thread engine; see
    :func:`repro.runtime.engine.run_spmd` for the parameter contract, which
    validates the arguments and binds ``injector`` before calling this.

    Rank ``r`` runs on the ``r``-th of ``n_ranks`` pooled workers: idle
    ones are reused and only the shortfall is spawned.  The workers go back
    to the pool only if every rank finished cleanly; after any error, death
    or abort all of the run's workers are stopped, and the next run spawns
    fresh ones.
    """
    from repro.runtime.engine import SPMDResult, _raise_first_failure

    try:
        payload, arena = shm_dumps((fn, args, kwargs))
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise ProgramNotPicklableError(
            f"SPMD program cannot be shipped to spawned processes "
            f"(use a module-level function, or backend='thread'): {exc}"
        ) from exc

    workers = _POOL.take(n_ranks)
    reusable = False
    try:
        while len(workers) < n_ranks:
            workers.append(_Worker())
        spec = {
            "size": n_ranks,
            "timeout": timeout,
            "faults": (
                (injector.plan, injector.fired) if injector is not None else None
            ),
            "trace": tracer is not None,
            "epoch": tracer.epoch if tracer is not None else 0.0,
            "payload": payload,
            "arena": arena.descriptor if arena is not None else None,
            "sys_path": list(sys.path),
            "cwd": os.getcwd(),
        }
        links = _make_links(n_ranks)
        try:
            for r in range(n_ranks):
                # a worker that died while idle fails these sends silently;
                # _supervise then reports the rank as crashed, and its
                # peers see EOF on their links to it
                _send(workers[r].conn, ("job", dict(spec, rank=r)))
                _ship_links(workers[r].conn, links[r])
        finally:
            for ends in links:
                for sock in ends:
                    sock.close()
        results, errors, stats, events, retiring = _supervise(workers, injector)
        reusable = not any(errors) and not retiring
    finally:
        if reusable:
            _POOL.give_back(workers)
        else:
            _stop(workers)
        if arena is not None:
            arena.close()
            arena.unlink()  # also on abort: no leaked /dev/shm segment

    rank_stats = [
        s if s is not None else RankStats(rank=r) for r, s in enumerate(stats)
    ]
    if tracer is not None:
        # merge BEFORE error handling so post-mortem traces survive
        for r, rank_events in enumerate(events):
            if rank_events:
                tracer.rank(r).events.extend(rank_events)

    _raise_first_failure(errors)
    run_stats = RunStats(ranks=rank_stats)
    if tracer is not None:
        run_stats.spans = tracer.span_records()
    return SPMDResult(results=results, stats=run_stats)
