"""Per-rank traffic / compute accounting for the simulated runtime.

Every quantity the paper measures about communication (Figs. 6 and 8) is a
function of these counters, so they are the ground truth of the whole
benchmark harness.  Compute is counted in abstract *work units* (one unit ==
one scanned edge endpoint, by convention of the algorithms in
:mod:`repro.core`); bytes are measured from the actual payloads.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "payload_nbytes",
    "RankStats",
    "RunStats",
    "Superstep",
    "SpanRecord",
]


def payload_nbytes(obj) -> int:
    """Stable byte-size estimate of a message payload.

    NumPy arrays and raw byte strings are measured exactly; everything else
    is measured as its pickle length, which is what an mpi4py lowercase-API
    send would actually put on the wire.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if obj is None:
        return 0
    if isinstance(obj, (int, np.integer)):
        return 8
    if isinstance(obj, (float, np.floating)):
        return 8
    if isinstance(obj, tuple):
        # a tuple of arrays and numbers: the sum of its parts, else pickled
        total = 0
        for x in obj:
            if isinstance(x, np.ndarray):
                total += x.nbytes
            elif isinstance(x, (int, float, np.integer, np.floating)):
                total += 8
            else:
                break
        else:
            return total
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64  # unpicklable sentinel objects (tests only)


@dataclass
class Superstep:
    """Work accumulated by one rank between two global synchronisation
    points (collectives)."""

    compute: float = 0.0
    bytes_sent: float = 0.0
    bytes_recv: float = 0.0
    messages: int = 0
    phase: str = ""

    @property
    def is_empty(self) -> bool:
        return (
            self.compute == 0.0
            and self.bytes_sent == 0.0
            and self.bytes_recv == 0.0
            and self.messages == 0
        )


@dataclass
class SpanRecord:
    """One completed tracer span (see :mod:`repro.runtime.tracing`).

    Timestamps are microseconds relative to the run's trace epoch, matching
    the Chrome trace-event convention, so a record maps 1:1 onto a
    ``ph == "X"`` event.  ``args`` must stay JSON-serialisable: that is what
    lets level-telemetry spans (modularity trajectory, moves per sweep, ...)
    survive the v2 trace-file round trip.
    """

    name: str
    rank: int
    ts_us: float
    dur_us: float
    cat: str = ""
    args: dict = field(default_factory=dict)


@dataclass
class RankStats:
    """Counters for a single simulated rank."""

    rank: int = 0
    compute_by_phase: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    bytes_sent_by_phase: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    bytes_recv_by_phase: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    messages_sent_by_phase: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    collectives_by_phase: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    # rank-to-rank communication matrix row: phase -> destination rank ->
    # [bytes, messages].  Every wire transfer recorded by add_sent is also
    # attributed to a concrete peer here (the pairwise / tree-partner
    # models of repro.runtime.commbase), so for every phase the
    # row sums reproduce bytes_sent_by_phase / messages_sent_by_phase
    # exactly and RunStats.comm_matrix() can assemble the full p x p view.
    sent_to_by_phase: dict[str, dict[int, list[float]]] = field(
        default_factory=dict
    )
    supersteps: list[Superstep] = field(default_factory=list)
    _open: Superstep = field(default_factory=Superstep)

    # -- recording -----------------------------------------------------
    def add_compute(self, units: float, phase: str) -> None:
        self.compute_by_phase[phase] += units
        self._open.compute += units
        if not self._open.phase:  # first activity tags the superstep
            self._open.phase = phase

    def add_sent(self, nbytes: float, phase: str, messages: int = 1) -> None:
        self.bytes_sent_by_phase[phase] += nbytes
        self.messages_sent_by_phase[phase] += messages
        self._open.bytes_sent += nbytes
        self._open.messages += messages
        if not self._open.phase:
            self._open.phase = phase

    def add_recv(self, nbytes: float, phase: str) -> None:
        self.bytes_recv_by_phase[phase] += nbytes
        self._open.bytes_recv += nbytes
        if not self._open.phase:  # a receive-only superstep still has a phase
            self._open.phase = phase

    def add_edge(
        self, dst: int, nbytes: float, phase: str, messages: int = 1
    ) -> None:
        """Attribute an already-counted send to a concrete peer (comm
        matrix).  Totals are NOT touched — callers pair this with
        :meth:`add_sent`."""
        row = self.sent_to_by_phase.setdefault(phase, {})
        cell = row.get(dst)
        if cell is None:
            row[dst] = [nbytes, float(messages)]
        else:
            cell[0] += nbytes
            cell[1] += messages

    def close_superstep(self, phase: str) -> None:
        """Called by every collective: ends the current BSP superstep."""
        self.collectives_by_phase[phase] += 1
        if not self._open.phase:
            self._open.phase = phase
        self.supersteps.append(self._open)
        self._open = Superstep()

    def flush(self) -> None:
        """Close the trailing superstep at the end of an SPMD program.

        Work recorded after a rank's last collective would otherwise stay
        in ``_open`` forever, making the superstep log disagree with the
        per-phase totals.  Called by the engine when a worker exits (even
        on failure); empty tails do not append a superstep, so programs
        ending on a collective keep their exact superstep count.
        """
        if not self._open.is_empty:
            self.supersteps.append(self._open)
            self._open = Superstep()

    # -- summaries -----------------------------------------------------
    @property
    def total_compute(self) -> float:
        return sum(self.compute_by_phase.values())

    @property
    def total_bytes_sent(self) -> float:
        return sum(self.bytes_sent_by_phase.values())

    @property
    def total_bytes_recv(self) -> float:
        return sum(self.bytes_recv_by_phase.values())

    @property
    def total_messages_sent(self) -> int:
        return sum(self.messages_sent_by_phase.values())

    @property
    def total_collectives(self) -> int:
        return sum(self.collectives_by_phase.values())


@dataclass
class RunStats:
    """Counters for a whole SPMD run (one :func:`repro.runtime.run_spmd`)."""

    ranks: list[RankStats]
    # completed tracer spans (empty unless the run had a tracer attached);
    # carried here so trace files serialise counters and spans together
    spans: list[SpanRecord] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def compute_per_rank(self) -> np.ndarray:
        return np.asarray([r.total_compute for r in self.ranks])

    def bytes_sent_per_rank(self) -> np.ndarray:
        return np.asarray([r.total_bytes_sent for r in self.ranks])

    def phases(self) -> list[str]:
        """All phase tags seen anywhere in the run, sorted.

        Per-rank dict insertion order differs across ranks (and therefore
        across runs), so the union is returned in lexicographic order to
        keep ``summarize()`` / trace output deterministic run-to-run.
        """
        seen: set[str] = set()
        for r in self.ranks:
            seen.update(r.compute_by_phase)
            seen.update(r.bytes_sent_by_phase)
            seen.update(r.bytes_recv_by_phase)
            seen.update(r.collectives_by_phase)
        return sorted(seen)

    def comm_matrix(self, phase: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The p x p communication matrix ``(bytes, messages)``.

        ``bytes[i, j]`` is the wire volume rank ``i`` sent to rank ``j``
        (restricted to ``phase`` when given).  Point-to-point sends and the
        pairwise collectives attribute exactly; ``bcast``/``allreduce`` use
        the tree-partner model of :mod:`repro.runtime.comm`, so row sums
        always equal the per-phase ``bytes_sent`` totals.
        """
        p = self.size
        bytes_m = np.zeros((p, p))
        msgs_m = np.zeros((p, p))
        for r in self.ranks:
            for ph, row in r.sent_to_by_phase.items():
                if phase is not None and ph != phase:
                    continue
                for dst, (b, m) in row.items():
                    bytes_m[r.rank, dst] += b
                    msgs_m[r.rank, dst] += m
        return bytes_m, msgs_m

    def phase_compute(self, phase: str) -> np.ndarray:
        return np.asarray([r.compute_by_phase.get(phase, 0.0) for r in self.ranks])

    def phase_bytes_sent(self, phase: str) -> np.ndarray:
        return np.asarray(
            [r.bytes_sent_by_phase.get(phase, 0.0) for r in self.ranks]
        )

    def phase_collectives(self, phase: str) -> np.ndarray:
        return np.asarray(
            [r.collectives_by_phase.get(phase, 0) for r in self.ranks], dtype=np.int64
        )

    def n_supersteps(self) -> int:
        return max((len(r.supersteps) for r in self.ranks), default=0)
