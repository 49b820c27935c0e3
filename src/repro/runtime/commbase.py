"""Backend-independent communicator core.

:class:`CommBase` is the single implementation of the mpi4py-flavoured API
that SPMD programs run against — phase tagging, compute/traffic accounting,
tracer hooks, fault injection, collective-order checking and every
collective's byte/message model live here, shared verbatim by all three
transports.  Ranks communicate through collectives only; there is no
point-to-point messaging.  The transports:

* :class:`repro.runtime.comm.SimComm` — thread backend, transport is the
  in-process :class:`~repro.runtime.comm._World`;
* :class:`repro.runtime.process_backend.ProcComm` — process backend,
  collectives go directly between the rank processes over per-pair socket
  links;
* :class:`repro.runtime.mpi_adapter.MPIAdapter` — a real (or duck-typed)
  mpi4py communicator.

Because the accounting code is literally shared, every transport produces
identical per-rank per-phase byte, message, collective and superstep
counters for the same SPMD program — the invariant the cross-backend
conformance suite (``tests/runtime/test_backend_equivalence.py``) pins.

Subclasses implement one transport primitive:

``_exchange(gen, row, op)``
    The collective primitive, a personalized exchange: ``row[d]`` goes to
    rank ``d`` with the op tag ``op``, and the call returns, for every
    source rank ``s``, the ``(op tag, payload)`` that ``s`` sent the
    caller.  The caller's own slot is ``None`` on the way in and ignored
    on the way out — every collective goes through
    :meth:`CommBase._collective`, which keeps the diagonal on the rank and
    raises :class:`CollectiveMismatchError` when the op tags differ.
    Raises :meth:`CommBase._never_completed` when it cannot complete.

Faults fire here, inside the rank, on every transport: an attached
:class:`~repro.runtime.faults.FaultInjector` runs before each collective
and at each :meth:`CommBase.fault_event`.  The MPI transport attaches none.

Byte accounting (see :mod:`repro.runtime.stats`):

* ``alltoall`` / ``allgather`` / ``gather`` / ``scatter``: pairwise volumes
  (a rank sends its payload to each of the ``p - 1`` peers that actually
  receive it);
* ``allreduce`` / ``bcast`` / ``reduce``: counted as ``ceil(log2 p)``
  payload transfers per rank, the volume of the tree/recursive-doubling
  algorithms every real MPI uses.

Two invariants hold everywhere: a rank's own slot contributes nothing
(self-deliveries never touch the wire), and a *message* is counted per
peer transfer only when the payload is non-empty — the alltoall rule,
applied uniformly to every collective.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Sequence

from repro.runtime import reducers
from repro.runtime.stats import RankStats, payload_nbytes

__all__ = [
    "CommBase",
    "CommError",
    "DeadlockError",
    "CollectiveMismatchError",
]


class CommError(RuntimeError):
    """Misuse of the communicator (bad rank, mismatched collective...)."""


class DeadlockError(RuntimeError):
    """A collective could not complete: a peer failed, left, or did not
    arrive before the timeout."""


class CollectiveMismatchError(CommError):
    """Ranks diverged from the SPMD collective order: the same exchange
    generation was entered with different operations (or roots)."""


class _TraceSpan:
    """Context manager behind ``trace_span``: yields a mutable args dict the
    caller may fill while the span is open; emits one complete event at exit
    (no-op with no tracer, so algorithm code never branches on tracing)."""

    __slots__ = ("_tracer", "_name", "_cat", "args", "_t0")

    def __init__(self, tracer, name: str, cat: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self.args = args
        self._t0 = 0.0

    def __enter__(self) -> dict:
        if self._tracer is not None:
            self._t0 = time.perf_counter()
        return self.args

    def __exit__(self, *exc) -> bool:
        if self._tracer is not None:
            self._tracer.complete(
                self._name, self._t0, cat=self._cat, args=self.args or None
            )
        return False


class CommBase:
    """Per-rank communicator handle; see the module docstring.

    Algorithm code receives one of these as its first argument (exactly like
    an ``MPI.Comm``) and must only ever use its own instance.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        stats: RankStats,
        tracer=None,
        injector=None,
    ) -> None:
        self.rank = rank
        self.size = size
        self.stats = stats
        self._gen = 0
        # FaultInjector | None: fires this rank's scheduled faults
        self._injector = injector
        self._phase = "other"
        # RankTracer | None; None is the near-zero-overhead default — every
        # hot path pays exactly one attribute check
        self._tracer = tracer
        # comm-matrix attribution for the tree collectives (bcast /
        # allreduce): the log2(p) recursive-doubling partners of this rank.
        # XOR gives the textbook partner; the additive fallback covers
        # non-power-of-two worlds (never self: 0 < 2^k < p).
        if size > 1:
            partners = []
            for k in range(max(1, math.ceil(math.log2(size)))):
                partner = rank ^ (1 << k)
                if partner >= size:
                    partner = (rank + (1 << k)) % size
                partners.append(partner)
            self._tree_partners: list[int] = partners
        else:
            self._tree_partners = []

    # ------------------------------------------------------------------
    # Transport primitives (subclass responsibility)
    # ------------------------------------------------------------------
    def _exchange(
        self, gen: int, row: list[Any], op: str
    ) -> list[tuple[str | None, Any]]:
        raise NotImplementedError

    def _never_completed(self, gen: int, op: str) -> DeadlockError:
        """The error of a collective that cannot complete, on every
        transport: a peer failed or left, the world was aborted, or the
        deadline passed."""
        return DeadlockError(
            f"rank {self.rank}: collective {op or '?'} (generation {gen}) "
            "never completed (a peer failed or diverged from the SPMD "
            "collective order)"
        )

    def fault_event(self, name: str) -> None:
        """Named synchronisation point for fault triggers (no-op unless a
        fault plan is active).  Algorithm code emits these at natural
        recovery boundaries — e.g. ``"level:3"`` after Louvain level 3."""
        if self._injector is not None:
            self._injector.on_event(self.rank, name)

    # ------------------------------------------------------------------
    # Phase tagging (drives the Fig. 8(b) execution-time breakdown)
    # ------------------------------------------------------------------
    def set_phase(self, name: str) -> None:
        if self._tracer is not None and name != self._phase:
            self._tracer.instant(
                "set_phase", cat="phase", args={"from": self._phase, "to": name}
            )
        self._phase = name

    class _PhaseCtx:
        def __init__(self, comm: "CommBase", name: str) -> None:
            self._comm = comm
            self._name = name
            self._prev = comm._phase
            self._t0 = 0.0

        def __enter__(self):
            self._prev = self._comm._phase
            self._comm._phase = self._name
            if self._comm._tracer is not None:
                self._t0 = time.perf_counter()
            return self._comm

        def __exit__(self, *exc):
            self._comm._phase = self._prev
            if self._comm._tracer is not None:
                self._comm._tracer.complete(self._name, self._t0, cat="phase")
            return False

    def phase(self, name: str) -> "CommBase._PhaseCtx":
        """Context manager attributing compute/comm to a named phase."""
        return CommBase._PhaseCtx(self, name)

    def add_compute(self, units: float) -> None:
        """Record abstract compute work (units == scanned edge endpoints)."""
        self.stats.add_compute(units, self._phase)

    # ------------------------------------------------------------------
    # Tracing hooks (no-ops unless a tracer is attached, see
    # :mod:`repro.runtime.tracing`)
    # ------------------------------------------------------------------
    @property
    def tracing(self) -> bool:
        """True when a tracer is attached; algorithm code gates *extra*
        telemetry computation (e.g. ghost-churn counting) on this."""
        return self._tracer is not None

    def trace_span(self, name: str, cat: str = "", **args) -> _TraceSpan:
        """Open an algorithm-level span; yields a mutable args dict whose
        final contents become the span's payload (e.g. per-level
        convergence telemetry)."""
        return _TraceSpan(self._tracer, name, cat, args)

    def trace_instant(self, name: str, cat: str = "", **args) -> None:
        """Emit a point event (e.g. per-iteration modularity)."""
        if self._tracer is not None:
            self._tracer.instant(name, cat=cat, args=args or None)

    def _trace_coll(self, t0: float, name: str, sent: float, recv: float) -> None:
        if self._tracer is not None:
            self._tracer.complete(
                name,
                t0,
                cat="collective",
                args={
                    "phase": self._phase,
                    "bytes_sent": sent,
                    "bytes_recv": recv,
                },
            )

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def _next_gen(self) -> int:
        # the generation counter doubles as the rank's superstep index,
        # which is what crash/straggler faults are scheduled against
        if self._injector is not None:
            self._injector.on_collective(self.rank, self._gen)
        g = self._gen
        self._gen += 1
        return g

    def _collective(self, row: list[Any], op: str) -> list[Any]:
        """Personalized exchange of ``row`` (``row[d]`` goes to rank ``d``);
        returns what every rank sent us.  The own slot never reaches the
        transport: it is blanked before the exchange and put back after.
        Raises :class:`CollectiveMismatchError` on every rank of a
        collective whose ranks passed different op tags."""
        gen = self._next_gen()
        mine = row[self.rank]
        row[self.rank] = None
        got = self._exchange(gen, row, op)
        got[self.rank] = (op, mine)
        out = []
        for tag, payload in got:
            if tag != op:
                detail = ", ".join(
                    f"rank {r}: {tag or '?'}" for r, (tag, _) in enumerate(got)
                )
                raise CollectiveMismatchError(
                    f"rank {self.rank}: SPMD collective order diverged at "
                    f"generation {gen} ({detail})"
                )
            out.append(payload)
        return out

    def barrier(self) -> None:
        t0 = time.perf_counter() if self._tracer is not None else 0.0
        self._collective([None] * self.size, op="barrier")
        self.stats.close_superstep(self._phase)
        self._trace_coll(t0, "barrier", 0.0, 0.0)

    def allgather(self, value: Any) -> list[Any]:
        t0 = time.perf_counter() if self._tracer is not None else 0.0
        nbytes = payload_nbytes(value)
        out = self._collective([value] * self.size, op="allgather")
        # alltoall rule: zero-byte payloads put no messages on the wire
        n_msgs = self.size - 1 if nbytes > 0 else 0
        self.stats.add_sent(nbytes * (self.size - 1), self._phase, n_msgs)
        if nbytes > 0:
            for peer in range(self.size):
                if peer != self.rank:
                    self.stats.add_edge(peer, nbytes, self._phase)
        recv = sum(
            payload_nbytes(v) for i, v in enumerate(out) if i != self.rank
        )
        self.stats.add_recv(recv, self._phase)
        self.stats.close_superstep(self._phase)
        self._trace_coll(t0, "allgather", nbytes * (self.size - 1), recv)
        return out

    def alltoall(self, values: Sequence[Any]) -> list[Any]:
        """``values[i]`` goes to rank ``i``; returns what each rank sent us."""
        if len(values) != self.size:
            raise CommError(
                f"alltoall: expected {self.size} payloads, got {len(values)}"
            )
        t0 = time.perf_counter() if self._tracer is not None else 0.0
        rank, phase = self.rank, self._phase
        # the own slot never reaches the wire: no bytes, no message
        edges = [
            (i, b)
            for i, b in enumerate(map(payload_nbytes, values))
            if i != rank and b > 0
        ]
        sent = sum(b for _, b in edges)
        self.stats.add_sent(sent, phase, len(edges))
        for i, b in edges:
            self.stats.add_edge(i, b, phase)
        out = self._collective(list(values), op="alltoall")
        recv = sum(payload_nbytes(v) for i, v in enumerate(out) if i != rank)
        self.stats.add_recv(recv, self._phase)
        self.stats.close_superstep(self._phase)
        self._trace_coll(t0, "alltoall", sent, recv)
        return out

    def bcast(self, value: Any, root: int = 0) -> Any:
        if not 0 <= root < self.size:
            raise CommError(f"bcast: bad root {root}")
        t0 = time.perf_counter() if self._tracer is not None else 0.0
        out = self._collective(
            [value if self.rank == root else None] * self.size,
            op=f"bcast(root={root})",
        )
        result = out[root]
        log_p = max(1, math.ceil(math.log2(self.size))) if self.size > 1 else 0
        nbytes = payload_nbytes(result)
        sent = 0.0
        recv = 0.0
        if self.size > 1:
            # binomial-tree volume: every rank forwards at most log2(p) copies
            sent = nbytes * log_p
            recv = nbytes
            self.stats.add_sent(sent, self._phase, log_p if nbytes > 0 else 0)
            if nbytes > 0:
                for peer in self._tree_partners:
                    self.stats.add_edge(peer, nbytes, self._phase)
            self.stats.add_recv(recv, self._phase)
        self.stats.close_superstep(self._phase)
        self._trace_coll(t0, "bcast", sent, recv)
        return result

    def allreduce(self, value: Any, op: Callable = reducers.SUM) -> Any:
        t0 = time.perf_counter() if self._tracer is not None else 0.0
        out = self._collective([value] * self.size, op="allreduce")
        result = reducers.reduce_values(out, op)
        sent = 0.0
        recv = 0.0
        if self.size > 1:
            log_p = max(1, math.ceil(math.log2(self.size)))
            nbytes = payload_nbytes(value)
            # recursive-doubling volume
            sent = nbytes * log_p
            recv = nbytes * log_p
            self.stats.add_sent(sent, self._phase, log_p if nbytes > 0 else 0)
            if nbytes > 0:
                for peer in self._tree_partners:
                    self.stats.add_edge(peer, nbytes, self._phase)
            self.stats.add_recv(recv, self._phase)
        self.stats.close_superstep(self._phase)
        self._trace_coll(t0, "allreduce", sent, recv)
        return result

    def reduce(self, value: Any, op: Callable = reducers.SUM, root: int = 0) -> Any:
        if not 0 <= root < self.size:
            raise CommError(f"reduce: bad root {root}")
        t0 = time.perf_counter() if self._tracer is not None else 0.0
        row = [None] * self.size
        row[root] = value
        out = self._collective(row, op=f"reduce(root={root})")
        sent = 0.0
        recv = 0.0
        if self.size > 1:
            log_p = max(1, math.ceil(math.log2(self.size)))
            nbytes = payload_nbytes(value)
            # reduce tree: every non-root rank sends (at least) its own
            # payload towards the root; the root only receives
            if self.rank != root:
                sent = nbytes
                self.stats.add_sent(nbytes, self._phase, 1 if nbytes > 0 else 0)
                if nbytes > 0:
                    self.stats.add_edge(root, nbytes, self._phase)
            else:
                recv = nbytes * log_p
                self.stats.add_recv(recv, self._phase)
        self.stats.close_superstep(self._phase)
        self._trace_coll(t0, "reduce", sent, recv)
        if self.rank == root:
            return reducers.reduce_values(out, op)
        return None

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        if not 0 <= root < self.size:
            raise CommError(f"gather: bad root {root}")
        t0 = time.perf_counter() if self._tracer is not None else 0.0
        row = [None] * self.size
        row[root] = value
        out = self._collective(row, op=f"gather(root={root})")
        sent = 0.0
        recv = 0.0
        if self.rank != root:
            nbytes = payload_nbytes(value)
            sent = nbytes
            self.stats.add_sent(nbytes, self._phase, 1 if nbytes > 0 else 0)
            if nbytes > 0:
                self.stats.add_edge(root, nbytes, self._phase)
        else:
            recv = sum(
                payload_nbytes(v) for i, v in enumerate(out) if i != root
            )
            self.stats.add_recv(recv, self._phase)
        self.stats.close_superstep(self._phase)
        self._trace_coll(t0, "gather", sent, recv)
        return out if self.rank == root else None

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        if not 0 <= root < self.size:
            raise CommError(f"scatter: bad root {root}")
        t0 = time.perf_counter() if self._tracer is not None else 0.0
        sent = 0.0
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise CommError(
                    f"scatter: root must supply exactly {self.size} payloads"
                )
            row = list(values)
            per_peer = [
                (i, payload_nbytes(v)) for i, v in enumerate(values) if i != root
            ]
            sent = float(sum(s for _, s in per_peer))
            self.stats.add_sent(
                sent, self._phase, sum(1 for _, s in per_peer if s > 0)
            )
            for i, s in per_peer:
                if s > 0:
                    self.stats.add_edge(i, s, self._phase)
        else:
            row = [None] * self.size
        mine = self._collective(row, op=f"scatter(root={root})")[root]
        recv = 0.0
        if self.rank != root:
            recv = payload_nbytes(mine)
            self.stats.add_recv(recv, self._phase)
        self.stats.close_superstep(self._phase)
        self._trace_coll(t0, "scatter", sent, recv)
        return mine
