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
  only supervises: it carries no rank-to-rank data.  Children send
  ``("hook", gen)`` and ``("event", name)`` (fault-hook round trips, only
  with faults active) and a final ``("done", ...)``/``("err", ...)``
  frame; the parent answers with ``("ok",)``, ``("crash", msg)`` and
  ``("abort",)`` frames.
* :class:`ProcComm` subclasses :class:`~repro.runtime.commbase.CommBase`,
  so byte/message accounting, op-tag mismatch formatting and superstep
  flush semantics are literally the thread backend's code — the
  conformance suite pins this.
* **Fault injection runs in the parent router**, against the same live
  :class:`~repro.runtime.faults.FaultInjector` a recovery supervisor reuses
  across attempts, so one-shot fault state survives child restarts exactly
  as it survives thread-world restarts.  An injected crash is reported to
  the target child, which raises :class:`InjectedCrash` at the same point
  in its program the thread backend would.
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
import gc
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
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable

from repro.graph.shm import SharedArena, shm_dumps, shm_loads
from repro.runtime.commbase import (
    CollectiveMismatchError,
    CommBase,
    CommError,
    DeadlockError,
)
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


def _never_completed(rank: int, gen: int, op: str) -> DeadlockError:
    # identical wording to the thread backend's _World.exchange
    return DeadlockError(
        f"rank {rank}: collective {op or '?'} (generation {gen}) "
        "never completed (a peer failed or diverged from the SPMD "
        "collective order)"
    )


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------


_FRAME_LEN = struct.Struct("<Q")
# Linux caps one SCM_RIGHTS message at 253 descriptors (SCM_MAX_FD)
_FDS_PER_MESSAGE = 200


class _Link:
    """This rank's end of one peer link: a non-blocking stream socket that
    carries length-prefixed pickled ``(gen, op, payload)`` frames.

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
        self._out: list[memoryview] = []  # unwritten part of our frame
        self._head = bytearray(_FRAME_LEN.size)
        self._body: bytearray | None = None
        self._got = 0

    def put(self, frame: tuple) -> None:
        data = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        self._out = [memoryview(_FRAME_LEN.pack(len(data))), memoryview(data)]

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
            while out and n >= out[0].nbytes:
                n -= out.pop(0).nbytes
            if n:
                out[0] = out[0][n:]
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
                self._body = bytearray(_FRAME_LEN.unpack(self._head)[0])
            else:
                self._body = None
                return pickle.loads(buf)


class ProcComm(CommBase):
    """Per-rank communicator of the process backend (child side).

    Single-threaded.  Collectives run over the peer links; fault-hook
    replies and aborts arrive on the one parent pipe and are pumped,
    strictly in order, from whichever blocking operation is waiting (a
    collective pumps the pipe too, so an abort reaches it).
    """

    def __init__(
        self,
        conn,
        rank: int,
        size: int,
        stats: RankStats,
        tracer=None,
        timeout: float = 120.0,
        has_faults: bool = False,
        links: dict[int, socket.socket] | None = None,
    ) -> None:
        super().__init__(rank, size, stats, tracer=tracer)
        self._timeout = timeout
        self._conn = conn
        self._has_faults = has_faults
        self._aborted = False
        self._event_acks = 0
        self._links = {
            peer: _Link(peer, sock) for peer, sock in (links or {}).items()
        }
        self._sel = None
        if self._links:
            self._sel = selectors.DefaultSelector()
            self._sel.register(conn, selectors.EVENT_READ, None)

    def close(self) -> None:
        """Release the selector (the job is over; the caller closes the
        link sockets it passed in)."""
        if self._sel is not None:
            self._sel.close()

    # -- frame pump ------------------------------------------------------
    def _handle(self, frame: tuple) -> None:
        kind = frame[0]
        if kind == "crash":
            from repro.runtime.faults import InjectedCrash

            raise InjectedCrash(frame[1])
        elif kind == "ok":
            self._event_acks += 1
        elif kind == "abort":
            self._aborted = True
        else:  # pragma: no cover - protocol bug
            raise CommError(f"rank {self.rank}: unknown parent frame {kind!r}")

    def _pump(self, timeout: float) -> bool:
        """Process at least one parent frame; False if none within timeout."""
        try:
            if not self._conn.poll(timeout):
                return False
            self._handle(self._conn.recv())
            while self._conn.poll(0):
                self._handle(self._conn.recv())
        except (EOFError, BrokenPipeError, OSError):
            # the parent is gone; nothing can ever be delivered again
            self._aborted = True
            raise DeadlockError(
                f"rank {self.rank}: world aborted while receiving"
            ) from None
        return True

    def _drain(self) -> None:
        self._pump(0)

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

    def _exchange(self, gen: int, row: list[Any], op: str) -> list[Any]:
        out: list[Any] = [None] * self.size
        ops: list[str | None] = [None] * self.size
        ops[self.rank] = op
        links = self._links
        for peer, link in links.items():
            link.put((gen, op, row[peer]))
        sending = {peer for peer, link in links.items() if not link.flush()}
        waiting = set(links)

        def take(peer: int) -> None:
            try:
                frame = links[peer].pull()
            except EOFError:
                # a finished or failed peer closed its links
                raise _never_completed(self.rank, gen, op) from None
            if frame is not None:
                frame_gen, ops[peer], out[peer] = frame
                if frame_gen != gen:  # pragma: no cover - protocol bug
                    raise CommError(
                        f"rank {self.rank}: generation {frame_gen} frame from "
                        f"rank {peer} during generation {gen}"
                    )
                waiting.discard(peer)

        read, write = selectors.EVENT_READ, selectors.EVENT_WRITE
        deadline = time.monotonic() + self._timeout
        while waiting or sending:
            if self._aborted:
                # drain rule: frames already in our buffers still count
                for peer in list(waiting):
                    take(peer)
                if waiting:
                    raise _never_completed(self.rank, gen, op)
                break
            for peer, link in links.items():
                want = (read if peer in waiting else 0) | (
                    write if peer in sending else 0
                )
                if want & ~link.events:
                    self._watch(link, link.events | want)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _never_completed(self.rank, gen, op)
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
                        take(peer)
                    else:
                        # the peer's next frame: leave it for the next
                        # collective, stop waking up for it
                        self._watch(link, link.events & ~read)
        if any(t != op for t in ops):
            detail = ", ".join(f"rank {r}: {t or '?'}" for r, t in enumerate(ops))
            raise CollectiveMismatchError(
                f"rank {self.rank}: SPMD collective order diverged "
                f"at generation {gen} ({detail})"
            )
        return out

    def _fault_round_trip(self, frame: tuple, what: str) -> None:
        """Run a fault hook in the parent and wait for its verdict: ``ok``,
        or ``crash`` (raised here as :class:`InjectedCrash`)."""
        self._conn.send(frame)
        acks = self._event_acks
        deadline = time.monotonic() + self._timeout
        while self._event_acks == acks:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._pump(remaining):
                raise DeadlockError(f"rank {self.rank}: {what} never acknowledged")

    def _collective_hook(self, gen: int) -> None:
        if self._has_faults:
            self._fault_round_trip(
                ("hook", gen), f"collective hook (generation {gen})"
            )

    def fault_event(self, name: str) -> None:
        if self._has_faults:
            self._fault_round_trip(("event", name), f"fault event {name!r}")


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
            has_faults=spec["has_faults"],
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
    if error is None:
        try:
            return ForkingPickler.dumps(("done", result, stats, events)), arena
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            detail = f"unpicklable rank result: {exc!r}"
    else:
        detail = repr(error)
        try:
            return ForkingPickler.dumps(("err", error, detail, stats, events)), arena
        except (pickle.PicklingError, TypeError, AttributeError):
            pass
    return ForkingPickler.dumps(("err", None, detail, stats, events)), arena


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
    """
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


class _Router:
    """Parent-side supervisor: one reader thread per child pipe.

    The fault injector's hooks run here, in the parent, keeping its one-shot
    state alive across child generations; the first failure fans out an
    abort, and each rank's final frame delivers its result.  No rank-to-rank
    data passes through here: ranks exchange collectives over their peer
    links.
    """

    def __init__(self, conns, injector) -> None:
        self.size = len(conns)
        self.conns = conns
        self.injector = injector
        self._send_locks = [threading.Lock() for _ in conns]
        self._abort_lock = threading.Lock()
        self.aborted = False
        self.results: list[Any] = [None] * self.size
        self.errors: list[BaseException | None] = [None] * self.size
        self.stats: list[RankStats | None] = [None] * self.size
        self.events: list[list] = [[] for _ in conns]
        # ranks whose worker exits after this job (see _child_main)
        self.retiring: list[bool] = [False] * self.size

    def _send(self, rank: int, frame: tuple) -> None:
        try:
            with self._send_locks[rank]:
                self.conns[rank].send(frame)
        except (BrokenPipeError, OSError):
            pass  # dead child; its reader thread reports the crash

    def abort_all(self) -> None:
        """Release every blocked rank after a failure (idempotent)."""
        with self._abort_lock:
            if self.aborted:
                return
            self.aborted = True
        for r in range(self.size):
            self._send(r, ("abort",))

    # -- frame handlers (run on reader threads) --------------------------
    def _on_fault_hook(self, rank: int, hook: Callable, arg: Any) -> None:
        """Run one injector hook for ``rank`` and send it the verdict.

        Stragglers sleep here, on this child's reader thread, holding the
        child back exactly like a slow thread-rank."""
        from repro.runtime.faults import InjectedCrash

        try:
            hook(rank, arg)
        except InjectedCrash as exc:
            self._send(rank, ("crash", str(exc)))
            return
        self._send(rank, ("ok",))

    # -- reader loop -----------------------------------------------------
    def _reader(self, rank: int) -> None:
        conn = self.conns[rank]
        finished = False
        try:
            while True:
                frame = conn.recv()
                kind = frame[0]
                if kind == "hook":
                    self._on_fault_hook(rank, self.injector.on_collective, frame[1])
                elif kind == "event":
                    self._on_fault_hook(rank, self.injector.on_event, frame[1])
                elif kind == "exit":
                    self.retiring[rank] = True
                elif kind == "done":
                    self.results[rank] = frame[1]
                    self.stats[rank] = frame[2]
                    self.events[rank] = frame[3]
                    finished = True
                    return
                elif kind == "err":
                    exc = frame[1]
                    if exc is None:
                        exc = ChildCrashError(f"rank {rank} failed: {frame[2]}")
                    self.errors[rank] = exc
                    self.stats[rank] = frame[3]
                    self.events[rank] = frame[4]
                    finished = True
                    self.abort_all()
                    return
                else:  # pragma: no cover - protocol bug
                    raise CommError(f"unknown child frame {kind!r}")
        except (EOFError, OSError):
            pass
        finally:
            if not finished and self.errors[rank] is None:
                self.errors[rank] = ChildCrashError(
                    f"rank {rank}: child process died without reporting "
                    "a result"
                )
                self.abort_all()

    def run(self) -> None:
        readers = [
            threading.Thread(
                target=self._reader, args=(r,), name=f"procrouter-{r}", daemon=True
            )
            for r in range(self.size)
        ]
        for t in readers:
            t.start()
        for t in readers:
            t.join()


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
        pass  # dead worker; its reader thread reports the crash
    finally:
        for sock in socks:
            sock.close()


class _Worker:
    """One pooled rank interpreter and the parent's end of its pipe."""

    def __init__(self) -> None:
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
    faults: Any = None,
    tracer: Any = None,
    **kwargs: Any,
):
    """Process-backend implementation behind ``run_spmd(backend="process")``.

    Same signature, semantics and return type as the thread engine; see
    :func:`repro.runtime.engine.run_spmd` for the parameter contract.

    Rank ``r`` runs on the ``r``-th of ``n_ranks`` pooled workers: idle
    ones are reused and only the shortfall is spawned.  The workers go back
    to the pool only if every rank finished cleanly; after any error, death
    or abort all of the run's workers are stopped, and the next run spawns
    fresh ones.
    """
    from repro.runtime.engine import SPMDError, SPMDResult, _is_secondary_abort

    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    injector = None
    if faults is not None:
        from repro.runtime.faults import FaultInjector

        injector = (
            faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
        )
        injector.bind(n_ranks)

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
        router = _Router([w.conn for w in workers], injector)
        spec = {
            "size": n_ranks,
            "timeout": timeout,
            "has_faults": injector is not None,
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
                # its reader thread then reports the rank as crashed, and
                # its peers see EOF on their links to it
                router._send(r, ("job", dict(spec, rank=r)))
                _ship_links(workers[r].conn, links[r])
        finally:
            for ends in links:
                for sock in ends:
                    sock.close()
        router.run()
        reusable = not any(router.errors) and not any(router.retiring)
    finally:
        if reusable:
            _POOL.give_back(workers)
        else:
            _stop(workers)
        if arena is not None:
            arena.close()
            arena.unlink()  # also on abort: no leaked /dev/shm segment

    rank_stats = [
        s if s is not None else RankStats(rank=r)
        for r, s in enumerate(router.stats)
    ]
    if tracer is not None:
        # merge BEFORE error handling so post-mortem traces survive
        for r, events in enumerate(router.events):
            if events:
                tracer.rank(r).events.extend(events)

    for rank, exc in enumerate(router.errors):
        if exc is not None and not _is_secondary_abort(exc):
            raise SPMDError(rank, exc) from exc
    for rank, exc in enumerate(router.errors):
        if exc is not None:
            raise SPMDError(rank, exc) from exc

    stats = RunStats(ranks=rank_stats)
    if tracer is not None:
        stats.spans = tracer.span_records()
    return SPMDResult(results=router.results, stats=stats)
