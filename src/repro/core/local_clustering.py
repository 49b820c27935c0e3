"""Parallel local clustering (paper Algorithm 2).

Runs on one rank against a :class:`~repro.partition.distgraph.LocalGraph`.
Each *inner iteration* is one BSP round:

1. ``find_best``          — sweep the rank's row vertices (owned low-degree
   vertices, then hub delegates), moving owned vertices greedily/heuristic-
   gated with immediate local updates, and *recording proposals* for hubs;
2. ``bcast_delegates``    — elementwise (gain, label) max-reduction over all
   ranks' hub proposals, applying the winning move everywhere (Alg. 1 l. 4);
3. ``swap_ghost``         — exchange owned-vertex community labels with the
   ranks holding them as ghosts (Alg. 1 l. 5);
4. ``other``              — owner-aggregated resynchronisation of
   ``sigma_tot`` / ``sigma_in`` / community sizes, partial-modularity
   computation, and the global Allreduce of Q and the move count
   (Alg. 1 l. 6, Alg. 2 l. 16-25).

The iteration repeats until no vertex changes community anywhere.

Community-state protocol: community label ``c`` is *owned* by rank
``c % p``.  Member facts are contributed by the rank that decides them — a
low-degree vertex's owner, or rank ``h % p`` for hub ``h`` — and edge facts
by whichever rank stores the directed entry; owners therefore see each
member and each directed entry exactly once, making their per-community
aggregates exact.  Subscriber ranks then pull ``(sigma_tot, size)`` for
every community they reference.  Every synchronisation is one full
exchange, as in Algorithm 2: ranks report their complete contributions,
owners rebuild their aggregates from scratch, and subscribers rebuild their
community state; no aggregate state outlives the call.  The sync is the
only writer of that state: a sweep reads it, and moves only write
``comm_of``, which drops it until the next sync.  Between synchronisation
points remote aggregates go stale — that staleness is precisely what the
paper's enhanced heuristic defends against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.community_table import CommunitySnapshot
from repro.core.heuristics import Candidate, MoveHeuristic
from repro.core.native import SyncSpec
from repro.core.sweep_kernel import VECTOR_HEURISTICS, level_kernels
from repro.partition.distgraph import LocalGraph
from repro.runtime.comm import SimComm

__all__ = ["LocalClustering", "LevelOutcome"]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)


@dataclass
class LevelOutcome:
    """Result of one clustering level on one rank."""

    comm_of: np.ndarray  # final community label per local vertex
    q_history: list[float]  # global Q after each inner iteration
    moves_history: list[int] = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = True
    q_final: float = 0.0  # Q of the state in comm_of (best iteration)
    # convergence telemetry (rank-local): ghost labels that actually changed
    # in each swap_ghost round — only counted while a tracer is attached —
    # and this rank's wire volume spent on delegate consensus
    ghost_churn: list[int] = field(default_factory=list)
    delegate_bytes: float = 0.0


class LocalClustering:
    """One level of Algorithm 2 on one rank."""

    def __init__(
        self,
        comm: SimComm,
        lg: LocalGraph,
        heuristic: MoveHeuristic,
        theta: float = 1e-12,
        max_inner: int = 100,
        phase_prefix: str = "",
        stall_patience: int = 3,
        resolution: float = 1.0,
        ghost_mode: str = "full",
        sweep_mode: str = "gauss-seidel",
    ) -> None:
        if ghost_mode not in ("full", "delta"):
            raise ValueError("ghost_mode must be 'full' or 'delta'")
        if sweep_mode not in ("gauss-seidel", "vectorized"):
            raise ValueError("sweep_mode must be 'gauss-seidel' or 'vectorized'")
        # the bulk kernel encodes the selection rule of each registered
        # heuristic; running the scalar loop instead would change both the
        # speed and the trajectory the caller asked for
        if sweep_mode == "vectorized" and heuristic.name not in VECTOR_HEURISTICS:
            raise ValueError(
                f"sweep_mode 'vectorized' has no rule for heuristic "
                f"{heuristic.name!r}; supported: {sorted(VECTOR_HEURISTICS)} "
                "(use sweep_mode='gauss-seidel')"
            )
        self.comm = comm
        self.lg = lg
        self.heuristic = heuristic
        self.theta = theta
        self.max_inner = max_inner
        self.pfx = phase_prefix
        self.stall_patience = stall_patience
        self.resolution = resolution
        self.ghost_mode = ghost_mode
        self.sweep_mode = sweep_mode
        # delta-ghost state: labels last sent to each subscriber peer
        self._prev_ghost_sent: dict[int, np.ndarray] = {}
        # telemetry accumulators (see LevelOutcome)
        self._ghost_churn: list[int] = []
        self._delegate_bytes = 0.0
        # vectorized-sweep iteration parity (drives the oscillation damper)
        self._vec_iter = 0
        self.two_m = 2.0 * lg.m_global if lg.m_global > 0 else 1.0

        self.comm_of = lg.global_ids.astype(np.int64).copy()
        # hub bookkeeping: rank h % p is the designated contributor for hub h
        self._hub_designated = (
            lg.hub_global_ids % comm.size == comm.rank
            if lg.n_hubs
            else np.zeros(0, dtype=bool)
        )
        # the rows whose member facts this rank reports: owned low
        # vertices, then designated hubs
        members = np.concatenate([
            np.arange(lg.n_owned, dtype=np.int64),
            lg.n_owned + np.flatnonzero(self._hub_designated),
        ])
        # the phases of the sync and the vectorized sweep, bound to this
        # level once: C when it could be built, else numpy
        self._kernels = level_kernels(
            lg.indptr, lg.indices, lg.weights, lg.row_weighted_degree, lg.n_local,
            SyncSpec(
                comm.rank, comm.size, lg.n_owned, members, self.two_m,
                resolution, theta, heuristic.name,
            ),
        )
        # the community state the last sync built for the current comm_of;
        # the sweeps read it, and every write to comm_of clears it
        self.snapshot: CommunitySnapshot | None = None

        # precompute ghost-exchange index arrays
        owned = lg.global_ids[: lg.n_owned]
        ghosts = lg.global_ids[lg.n_rows :]
        self._send_idx = {
            peer: np.searchsorted(owned, ids) for peer, ids in lg.send_to.items()
        }
        self._recv_idx = {
            peer: lg.n_rows + np.searchsorted(ghosts, ids)
            for peer, ids in lg.recv_from.items()
        }
        # plain-list views of the immutable CSR: scalar indexing of numpy
        # arrays dominates the scalar sweep cost otherwise (~3x slower)
        if self.sweep_mode == "gauss-seidel":
            self._idx_list: list[int] = lg.indices.tolist()
            self._w_list: list[float] = lg.weights.tolist()
            self._indptr_list: list[int] = lg.indptr.tolist()
            self._wdeg_list: list[float] = lg.row_weighted_degree.tolist()

    # ------------------------------------------------------------------
    # Phase 4: aggregate synchronisation + modularity
    # ------------------------------------------------------------------
    def sync_aggregates(self) -> float:
        """Synchronise exact community aggregates and compute global Q.

        Every rank ships its complete per-community contributions to the
        owners, owners rebuild their aggregates from scratch, and every
        rank pulls ``(sigma_tot, size)`` for each community it references
        (Algorithm 2, lines 16-25).

        Between two collectives the work is one call of the level kernels
        (``send``, ``owner``, ``place``).  One compact label index, rebuilt
        on every call because ``comm_of`` changes between calls, and one
        CSR scan under it yield the contributions, the request set of the
        pull, the owned-vertex census and every row's neighbour-community
        sums.  Owners accumulate contributions in rank-arrival order, so
        every per-community sum is bit-identical to a dict accumulator fed
        the same stream.  The pulled state and the sums land on the index
        as ``snapshot``, which the next sweep reads.
        """
        comm = self.comm
        kernels = self._kernels
        contributions, requests = kernels.send(self.comm_of)
        received = comm.alltoall(contributions)
        incoming = comm.alltoall(requests)
        q_part, replies = kernels.owner(received, incoming)
        self.snapshot = CommunitySnapshot(*kernels.place(comm.alltoall(replies)))
        return float(comm.allreduce(q_part))

    # ------------------------------------------------------------------
    # Phase 1: the local sweep
    # ------------------------------------------------------------------
    def _evaluate_vertex(
        self, u: int
    ) -> tuple[int, float, float]:
        """Heuristic-gated best move for row vertex ``u``.

        Returns ``(chosen_label, chosen_gain, stay_gain)`` where gains are in
        the scaled units of Eq. 4 (relative ordering only).  Caches are NOT
        mutated.
        """
        s = self._indptr_list[u]
        e = self._indptr_list[u + 1]
        self.comm.add_compute(e - s)
        cof = self._cof_list
        cu = cof[u]
        wu = self._wdeg_list[u]
        links: dict[int, float] = {}
        idx = self._idx_list
        wts = self._w_list
        links_get = links.get
        for k in range(s, e):
            v = idx[k]
            if v == u:
                continue
            c = cof[v]
            links[c] = links_get(c, 0.0) + wts[k]

        st_cu = self.sigma_tot.get(cu, wu) - wu  # sigma_tot(cu) without u
        stay_gain = links.get(cu, 0.0) - self.resolution * st_cu * wu / self.two_m
        cu_size = self.csize.get(cu, 1)
        candidates = []
        for c, w_uc in links.items():
            if c == cu:
                continue
            gain = (
                w_uc
                - self.resolution * self.sigma_tot.get(c, 0.0) * wu / self.two_m
            )
            candidates.append(
                Candidate(
                    label=c,
                    gain=gain,
                    is_local=self.local_members.get(c, 0) > 0,
                    size=self.csize.get(c, 1),
                )
            )
        chosen = self.heuristic.select(
            cu, cu_size, stay_gain, candidates, self.theta
        )
        if chosen == cu:
            return cu, stay_gain, stay_gain
        for c in candidates:
            if c.label == chosen:
                return chosen, c.gain, stay_gain
        raise AssertionError("heuristic chose a non-candidate community")

    def _synced(self) -> CommunitySnapshot:
        """The last sync's community state; a sweep without one would read
        labels and aggregates of different moments, so it fails hard."""
        if self.snapshot is None:
            raise RuntimeError(
                f"rank {self.comm.rank}: comm_of changed since the last "
                "sync_aggregates; a sweep must follow a sync"
            )
        return self.snapshot

    def _load_pass_views(self) -> None:
        """Fill the Gauss-Seidel pass's list and dict views from ``comm_of``
        and the last sync's snapshot.  ``local_members`` keeps positive
        counts only, the key set of a fresh census."""
        snap = self._synced()
        self._cof_list = self.comm_of.tolist()
        labels = snap.labels.tolist()
        self.sigma_tot = dict(zip(labels, snap.sigma_tot.tolist()))
        self.csize = dict(zip(labels, snap.size.tolist()))
        live = snap.local > 0
        self.local_members = dict(
            zip(snap.labels[live].tolist(), snap.local[live].tolist())
        )

    def _apply_move(self, u: int, new_label: int) -> None:
        """Move owned vertex ``u`` within a Gauss-Seidel pass, updating the
        pass's dict views so later vertices see the move."""
        cu = int(self.comm_of[u])
        wu = float(self.lg.row_weighted_degree[u])
        self.comm_of[u] = new_label
        self.snapshot = None
        self._cof_list[u] = new_label
        self.sigma_tot[cu] = self.sigma_tot.get(cu, wu) - wu
        self.csize[cu] = self.csize.get(cu, 1) - 1
        self.sigma_tot[new_label] = self.sigma_tot.get(new_label, 0.0) + wu
        self.csize[new_label] = self.csize.get(new_label, 0) + 1
        self.local_members[cu] = self.local_members.get(cu, 1) - 1
        self.local_members[new_label] = self.local_members.get(new_label, 0) + 1

    def _apply_moves_bulk(self, rows: np.ndarray, targets: np.ndarray) -> None:
        """Move ``rows`` to ``targets``; the next sync rebuilds the
        community state."""
        self.comm_of[rows] = targets
        self.snapshot = None

    def find_best_pass(self) -> tuple[int, np.ndarray, np.ndarray]:
        """Sweep all row vertices.  Under ``gauss-seidel`` owned vertices
        move immediately (later vertices see earlier moves); under
        ``vectorized`` every row is evaluated against a frozen snapshot in
        one bulk kernel call and owned moves apply afterwards (Jacobi).
        Hub moves become proposals either way.

        Returns ``(n_owned_moves, hub_gains, hub_targets)``.
        """
        if self.sweep_mode == "vectorized":
            return self._find_best_pass_vectorized()
        lg = self.lg
        hub_gain = np.zeros(lg.n_hubs)
        hub_target = (
            self.comm_of[lg.n_owned : lg.n_rows].astype(np.float64)
            if lg.n_hubs
            else _EMPTY_F64
        )
        self._load_pass_views()
        cof = self._cof_list
        n_moved = 0
        for u in range(lg.n_owned):
            chosen, _g, _s = self._evaluate_vertex(u)
            if chosen != cof[u]:
                self._apply_move(u, chosen)
                n_moved += 1
        for j in range(lg.n_hubs):
            u = lg.n_owned + j
            if self._indptr_list[u] == self._indptr_list[u + 1]:
                continue  # no local edges of this hub: no basis to propose
            chosen, gain, stay = self._evaluate_vertex(u)
            if chosen != self._cof_list[u]:
                hub_gain[j] = gain - stay
                hub_target[j] = float(chosen)
        return n_moved, hub_gain, hub_target

    def _find_best_pass_vectorized(self) -> tuple[int, np.ndarray, np.ndarray]:
        """Bulk Jacobi sweep: one call of the level kernels' ``sweep``,
        which decides every row against the snapshot, applies the owned
        moves through the two dampers (see
        :meth:`repro.core.sweep_kernel.NumpyLevelKernels.sweep`) and
        returns the hub proposals.  Even iterations apply label-decreasing
        moves only."""
        # identical work accounting to the scalar sweep: one unit per
        # scanned directed entry (empty rows contribute zero either way)
        self.comm.add_compute(float(self.lg.indices.size))
        snap = self._synced()
        down_only = self._vec_iter % 2 == 0
        self._vec_iter += 1
        moved = self._kernels.sweep(snap, self.comm_of, down_only)
        self.snapshot = None
        return moved

    # ------------------------------------------------------------------
    # Phase 2: delegate consensus
    # ------------------------------------------------------------------
    def broadcast_delegates(
        self, hub_gain: np.ndarray, hub_target: np.ndarray
    ) -> int:
        """Allreduce per-hub (gain, target): the proposal with the highest
        modularity gain wins; ties go to the smaller target label.  Applies
        winning moves on every rank; returns this rank's share of the global
        move count (counted once, by the designated rank)."""
        lg = self.lg
        if lg.n_hubs == 0:
            return 0

        def hub_op(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            ga, gb = a[0], b[0]
            la, lb = a[1], b[1]
            pick_a = (ga > gb) | ((ga == gb) & (la <= lb))
            return np.where(pick_a, a, b)

        stacked = np.stack([hub_gain, hub_target])
        winner = self.comm.allreduce(stacked, op=hub_op)
        win_gain = winner[0]
        win_target = winner[1].astype(np.int64)

        hub_cu = self.comm_of[lg.n_owned : lg.n_rows]
        apply = (win_gain > self.theta) & (win_target != hub_cu)
        rows = lg.n_owned + np.flatnonzero(apply)
        self._apply_moves_bulk(rows, win_target[apply])
        return int(np.count_nonzero(apply & self._hub_designated))

    # ------------------------------------------------------------------
    # Phase 3: ghost swap
    # ------------------------------------------------------------------
    def swap_ghosts(self) -> None:
        if self.ghost_mode == "delta":
            self._swap_ghosts_delta()
        else:
            self._swap_ghosts_full()

    def _swap_ghosts_full(self) -> None:
        comm = self.comm
        count_churn = comm.tracing  # churn telemetry only when traced
        churn = 0
        payloads: list[np.ndarray] = []
        for r in range(comm.size):
            idx = self._send_idx.get(r)
            payloads.append(self.comm_of[idx] if idx is not None else _EMPTY_I64)
        received = comm.alltoall(payloads)
        for r, values in enumerate(received):
            idx = self._recv_idx.get(r)
            if idx is not None and len(values):
                if count_churn:
                    churn += int(np.count_nonzero(self.comm_of[idx] != values))
                self.comm_of[idx] = values
                self.snapshot = None
        if count_churn:
            self._ghost_churn.append(churn)

    def _swap_ghosts_delta(self) -> None:
        """Send only owned-vertex labels that changed since the last swap.

        Ghost exchange dominates the wire volume (Fig. 6(b) is exactly
        about it), and unlike community aggregates the per-vertex labels
        quiesce quickly — late iterations move a handful of vertices, so
        the deltas shrink to near nothing (see ``bench_ablation_sync.py``).
        The first swap of a level sends everything.
        """
        comm = self.comm
        payloads: list[tuple[np.ndarray, np.ndarray]] = []
        for r in range(comm.size):
            idx = self._send_idx.get(r)
            if idx is None:
                payloads.append((_EMPTY_I64, _EMPTY_I64))
                continue
            labels = self.comm_of[idx]
            prev = self._prev_ghost_sent.get(r)
            if prev is None:
                positions = np.arange(idx.size, dtype=np.int64)
                send_labels = labels.copy()
            else:
                changed = np.flatnonzero(labels != prev)
                positions = changed.astype(np.int64)
                send_labels = labels[changed]
            self._prev_ghost_sent[r] = labels.copy()
            payloads.append((positions, send_labels))
        count_churn = comm.tracing
        churn = 0
        received = comm.alltoall(payloads)
        for r, (positions, values) in enumerate(received):
            idx = self._recv_idx.get(r)
            if idx is not None and len(values):
                if count_churn:
                    churn += int(
                        np.count_nonzero(self.comm_of[idx[positions]] != values)
                    )
                self.comm_of[idx[positions]] = values
                self.snapshot = None
        if count_churn:
            self._ghost_churn.append(churn)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> LevelOutcome:
        comm = self.comm
        with comm.phase(self.pfx + "other"):
            self.sync_aggregates()

        q_history: list[float] = []
        moves_history: list[int] = []
        converged = False
        best_q = -np.inf
        best_comm: np.ndarray | None = None
        stall = 0
        bcast_key = self.pfx + "bcast_delegates"
        for _it in range(self.max_inner):
            with comm.phase(self.pfx + "find_best"):
                moved, hub_gain, hub_target = self.find_best_pass()
            bytes_before = comm.stats.bytes_sent_by_phase.get(bcast_key, 0.0)
            with comm.phase(bcast_key):
                moved += self.broadcast_delegates(hub_gain, hub_target)
            self._delegate_bytes += (
                comm.stats.bytes_sent_by_phase.get(bcast_key, 0.0) - bytes_before
            )
            with comm.phase(self.pfx + "swap_ghost"):
                self.swap_ghosts()
            with comm.phase(self.pfx + "other"):
                q = self.sync_aggregates()
                total_moves = int(comm.allreduce(moved))
            q_history.append(q)
            moves_history.append(total_moves)
            comm.trace_instant(
                "iteration",
                cat="louvain",
                q=q,
                moves=total_moves,
                ghost_churn=self._ghost_churn[-1] if self._ghost_churn else None,
            )
            # q is allreduced, so every rank snapshots/stalls identically
            if q > best_q + self.theta:
                best_q = q
                best_comm = self.comm_of.copy()
                stall = 0
            else:
                stall += 1
            if total_moves == 0:
                converged = True
                break
            # Alg. 2 line 27: the inner loop also ends when modularity stops
            # improving — the safety valve against cross-rank oscillation
            # that label gating cannot reach (multi-community cycles).
            # `stall_patience` misses are tolerated because Jacobi-style
            # cross-rank updates legitimately dip before recovering.
            if stall >= self.stall_patience:
                converged = True
                break
        # hand back the best state seen, not wherever the oscillation
        # happened to stop (identical on all ranks — see above)
        if best_comm is not None:
            self.comm_of = best_comm
            self.snapshot = None
        return LevelOutcome(
            comm_of=self.comm_of,
            q_history=q_history,
            moves_history=moves_history,
            n_iterations=len(moves_history),
            converged=converged,
            q_final=float(best_q) if best_comm is not None else 0.0,
            ghost_churn=self._ghost_churn,
            delegate_bytes=self._delegate_bytes,
        )
