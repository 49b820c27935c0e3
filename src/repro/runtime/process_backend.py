"""Process-based SPMD backend: one OS process per rank.

Drop-in alternative to the thread engine (select it with
``run_spmd(..., backend="process")``, ``DistributedConfig(backend=...)`` or
``REPRO_DEFAULT_BACKEND=process``): every rank runs in its own spawned
interpreter, so the non-NumPy portions of a superstep execute in true
parallel instead of time-slicing one GIL.

Architecture (full protocol notes in ``docs/BACKENDS.md``):

* The SPMD program and its arguments are pickled once, with every large
  ndarray externalized into a :class:`~repro.graph.shm.SharedArena` — the
  CSR graph segments are mapped zero-copy by every child instead of being
  copied ``p`` times through pipes.
* Each child holds one pickle-framed duplex pipe to the parent.  Children
  send ``("coll", gen, op, row)``, ``("p2p", dst, tag, payload)``,
  ``("event", name)`` and a final ``("done", ...)``/``("err", ...)`` frame;
  the parent routes p2p frames to their destination, assembles collectives
  by generation, and answers with ``("coll_ok"|"coll_err"|"coll_abort")``,
  ``("crash")``, ``("ok")`` and ``("abort")`` frames.  A collective row
  carries one slot per destination (the sender's own slot is ``None``), and
  each ``coll_ok`` carries only the receiver's column.
* :class:`ProcComm` subclasses :class:`~repro.runtime.commbase.CommBase`,
  so byte/message accounting, op-tag mismatch formatting, checksum
  envelopes and superstep flush semantics are literally the thread
  backend's code — the conformance suite pins this.
* **Fault injection runs in the parent router**, against the same live
  :class:`~repro.runtime.faults.FaultInjector` a recovery supervisor reuses
  across attempts, so one-shot fault state survives child restarts exactly
  as it survives thread-world restarts.  An injected crash is reported to
  the target child, which raises :class:`InjectedCrash` at the same point
  in its program the thread backend would.
* A child that dies without a final frame (hard crash, ``os._exit``)
  surfaces as :class:`ChildCrashError` on its rank — which
  ``run_with_recovery`` treats like any other failed rank.

Failure semantics mirror the thread world's abort protocol: when any rank
errors, the parent replies ``coll_abort`` to every rank blocked in an
incomplete collective (→ the same "never completed" :class:`DeadlockError`)
and broadcasts ``abort`` (→ "world aborted while receiving" in blocked
receives); a collective whose every deposit already arrived is still
delivered, matching the thread backend's drain rule.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
import threading
import time
from typing import Any, Callable

from repro.graph.shm import SharedArena, shm_dumps, shm_loads
from repro.runtime.commbase import (
    CollectiveMismatchError,
    CommBase,
    CommError,
    DeadlockError,
    _Envelope,
)
from repro.runtime.stats import RankStats, RunStats, payload_checksum

__all__ = [
    "run_spmd_process",
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


class ProcComm(CommBase):
    """Per-rank communicator of the process backend (child side).

    Single-threaded: all parent frames arrive on one pipe and are pumped,
    strictly in order, from whichever blocking operation is waiting.  Frame
    order on the pipe therefore decides races exactly once — e.g. a
    ``coll_ok`` that was sent before the abort still delivers.
    """

    def __init__(
        self,
        conn,
        rank: int,
        size: int,
        stats: RankStats,
        tracer=None,
        timeout: float = 120.0,
        checksums: bool = False,
        has_faults: bool = False,
    ) -> None:
        super().__init__(rank, size, stats, tracer=tracer, timeout=timeout)
        self._conn = conn
        self._checksums = checksums
        self._has_faults = has_faults
        self._aborted = False
        # (src, tag) -> FIFO of delivered payloads
        self._mail: dict[tuple[int, int], list[Any]] = {}
        # gen -> ("ok", column) | ("err", detail) | ("abort", None)
        self._coll_replies: dict[int, tuple[str, Any]] = {}
        self._event_acks = 0

    # -- frame pump ------------------------------------------------------
    def _handle(self, frame: tuple) -> None:
        kind = frame[0]
        if kind == "p2p":
            _, src, tag, payload = frame
            self._mail.setdefault((src, tag), []).append(payload)
        elif kind == "coll_ok":
            self._coll_replies[frame[1]] = ("ok", frame[2])
        elif kind == "coll_err":
            self._coll_replies[frame[1]] = ("err", frame[2])
        elif kind == "coll_abort":
            self._coll_replies[frame[1]] = ("abort", None)
        elif kind == "crash":
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
    def _exchange(self, gen: int, row: list[Any], op: str) -> list[Any]:
        self._conn.send(("coll", gen, op, row))
        deadline = time.monotonic() + self._timeout
        while True:
            reply = self._coll_replies.pop(gen, None)
            if reply is not None:
                status, data = reply
                if status == "ok":
                    return data
                if status == "err":
                    raise CollectiveMismatchError(
                        f"rank {self.rank}: SPMD collective order diverged "
                        f"at generation {gen} ({data})"
                    )
                raise _never_completed(self.rank, gen, op)
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._pump(remaining):
                raise _never_completed(self.rank, gen, op)

    def _transport_send(self, dest: int, tag: int, obj: Any) -> None:
        if dest == self.rank and not self._has_faults:
            # local delivery; with faults active even self-sends must pass
            # through the parent so the injector's per-pair message
            # counters advance identically to the thread backend
            if self._checksums:
                obj = _Envelope(obj, payload_checksum(obj))
            self._mail.setdefault((dest, tag), []).append(obj)
            return
        self._conn.send(("p2p", dest, tag, obj))

    def _transport_recv(self, source: int, tag: int, timeout: float) -> Any:
        key = (source, tag)
        deadline = time.monotonic() + timeout
        while True:
            self._drain()
            # abort wins over a pending delivery, like _World.take
            if self._aborted:
                raise DeadlockError(
                    f"rank {self.rank}: world aborted while receiving"
                )
            box = self._mail.get(key)
            if box:
                payload = box.pop(0)
                if not box:
                    del self._mail[key]
                return payload
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._pump(remaining):
                raise DeadlockError(
                    f"rank {self.rank}: recv(source={source}, tag={tag}) "
                    f"timed out after {timeout}s"
                )

    def _transport_try_recv(self, source: int, tag: int) -> tuple[bool, Any]:
        self._drain()
        if self._aborted:
            raise DeadlockError(
                f"rank {self.rank}: world aborted while receiving"
            )
        key = (source, tag)
        box = self._mail.get(key)
        if not box:
            return False, None
        payload = box.pop(0)
        if not box:
            del self._mail[key]
        return True, payload

    def fault_event(self, name: str) -> None:
        if not self._has_faults:
            return
        self._conn.send(("event", name))
        acks = self._event_acks
        deadline = time.monotonic() + self._timeout
        while self._event_acks == acks:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._pump(remaining):
                raise DeadlockError(
                    f"rank {self.rank}: fault event {name!r} never "
                    "acknowledged"
                )


def _child_main(conn, spec: dict) -> None:
    """Entry point of a spawned rank process."""
    rank = spec["rank"]
    arena = None
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
            checksums=spec["checksums"],
            has_faults=spec["has_faults"],
        )
        result = fn(comm, *args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - must report, not leak
        error = exc
    finally:
        # same contract as the thread engine: flush trailing activity so
        # the superstep log agrees with the per-phase totals, also on
        # failure (post-mortem traces)
        stats.flush()
    events = tracer.events if tracer is not None else []
    try:
        if error is None:
            try:
                conn.send(("done", result, stats, events))
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                conn.send(
                    ("err", None, f"unpicklable rank result: {exc!r}", stats, events)
                )
                error = exc
        else:
            try:
                conn.send(("err", error, repr(error), stats, events))
            except (pickle.PicklingError, TypeError, AttributeError):
                conn.send(("err", None, repr(error), stats, events))
        conn.close()
    except (BrokenPipeError, OSError):
        pass  # parent already gone; exit code still reports the failure
    if arena is not None:
        arena.close()
    sys.exit(0 if error is None else 1)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _Router:
    """Parent-side message router: one reader thread per child pipe.

    Collectives are assembled by generation (the SPMD order makes the
    generation a global id); p2p frames are forwarded to the destination
    child; the fault injector's hooks run here, in the parent, keeping its
    one-shot state alive across child generations.
    """

    def __init__(self, conns, injector, checksums: bool) -> None:
        self.size = len(conns)
        self.conns = conns
        self.injector = injector
        self.checksums = checksums
        self._send_locks = [threading.Lock() for _ in conns]
        self._coll_lock = threading.Lock()
        # gen -> {"rows": [...], "ops": [...], "n": deposits so far}
        self._coll: dict[int, dict] = {}
        self.aborted = False
        self.results: list[Any] = [None] * self.size
        self.errors: list[BaseException | None] = [None] * self.size
        self.stats: list[RankStats | None] = [None] * self.size
        self.events: list[list] = [[] for _ in conns]

    def _send(self, rank: int, frame: tuple) -> None:
        try:
            with self._send_locks[rank]:
                self.conns[rank].send(frame)
        except (BrokenPipeError, OSError):
            pass  # dead child; its reader thread reports the crash

    def abort_all(self) -> None:
        """Release every blocked rank after a failure (idempotent)."""
        with self._coll_lock:
            if self.aborted:
                return
            self.aborted = True
            pending = list(self._coll.items())
            self._coll.clear()
        for gen, entry in pending:
            for r, tag in enumerate(entry["ops"]):
                if tag is not None:
                    self._send(r, ("coll_abort", gen))
        for r in range(self.size):
            self._send(r, ("abort",))

    # -- frame handlers (run on reader threads) --------------------------
    def _on_coll(self, rank: int, gen: int, op: str, row: list[Any]) -> None:
        if self.injector is not None:
            from repro.runtime.faults import InjectedCrash

            try:
                # stragglers sleep here, on this child's reader thread,
                # delaying the deposit exactly like a slow thread-rank
                self.injector.on_collective(rank, gen)
            except InjectedCrash as exc:
                self._send(rank, ("crash", str(exc)))
                return
        entry = None
        with self._coll_lock:
            aborted = self.aborted
            if not aborted:
                entry = self._coll.setdefault(
                    gen,
                    {
                        "rows": [None] * self.size,
                        "ops": [None] * self.size,
                        "n": 0,
                    },
                )
                entry["rows"][rank] = row
                entry["ops"][rank] = op
                entry["n"] += 1
                if entry["n"] == self.size:
                    self._coll.pop(gen)
                else:
                    # incomplete: either the remaining deposits complete it
                    # later, or abort_all answers every depositor
                    entry = None
        if aborted:
            # thread equivalent: broken barrier + incomplete ops
            self._send(rank, ("coll_abort", gen))
            return
        if entry is None:
            return
        ops = entry["ops"]
        if any(t != ops[0] for t in ops):
            detail = ", ".join(f"rank {r}: {t or '?'}" for r, t in enumerate(ops))
            for dst in range(self.size):
                self._send(dst, ("coll_err", gen, detail))
        else:
            rows = entry["rows"]
            for dst in range(self.size):
                self._send(dst, ("coll_ok", gen, [r[dst] for r in rows]))

    def _on_p2p(self, src: int, dst: int, tag: int, payload: Any) -> None:
        deliveries = [payload]
        delay = 0.0
        if self.injector is not None:
            deliveries, delay = self.injector.on_send(src, dst, tag, payload)
        if self.checksums:
            # checksum the ORIGINAL payload, same as the thread backend:
            # injected corruption must not update it
            crc = payload_checksum(payload)
            deliveries = [_Envelope(d, crc) for d in deliveries]
        if delay > 0:
            time.sleep(delay)
        for d in deliveries:
            self._send(dst, ("p2p", src, tag, d))

    def _on_event(self, rank: int, name: str) -> None:
        if self.injector is not None:
            from repro.runtime.faults import InjectedCrash

            try:
                self.injector.on_event(rank, name)
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
                if kind == "coll":
                    self._on_coll(rank, frame[1], frame[2], frame[3])
                elif kind == "p2p":
                    self._on_p2p(rank, frame[1], frame[2], frame[3])
                elif kind == "event":
                    self._on_event(rank, frame[1])
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


def run_spmd_process(
    n_ranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = 120.0,
    faults: Any = None,
    checksums: bool = False,
    tracer: Any = None,
    **kwargs: Any,
):
    """Process-backend implementation behind ``run_spmd(backend="process")``.

    Same signature, semantics and return type as the thread engine; see
    :func:`repro.runtime.engine.run_spmd` for the parameter contract.
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

    ctx = multiprocessing.get_context("spawn")
    parent_conns = []
    procs = []
    try:
        for r in range(n_ranks):
            parent_end, child_end = ctx.Pipe(duplex=True)
            spec = {
                "rank": r,
                "size": n_ranks,
                "timeout": timeout,
                "checksums": checksums,
                "has_faults": injector is not None,
                "trace": tracer is not None,
                "epoch": tracer.epoch if tracer is not None else 0.0,
                "payload": payload,
                "arena": arena.descriptor if arena is not None else None,
            }
            proc = ctx.Process(
                target=_child_main,
                args=(child_end, spec),
                name=f"procrank-{r}",
                daemon=True,
            )
            proc.start()
            child_end.close()  # the child holds its end now
            parent_conns.append(parent_end)
            procs.append(proc)

        router = _Router(parent_conns, injector, checksums)
        router.run()
    finally:
        for conn in parent_conns:
            try:
                conn.close()
            except OSError:
                pass
        deadline = time.monotonic() + 10.0
        for proc in procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            proc.close()
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
