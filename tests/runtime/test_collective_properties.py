"""Hypothesis fuzzer for the collectives, differential across backends.

Randomized payload shapes/dtypes and op sequences are driven through
``bcast`` / ``allreduce`` / ``alltoall`` / ``allgather`` on both execution
backends and on the MPI transport (over the fake in ``fake_mpi.py``); every
run must agree with a single-process oracle computed directly from the
generated payload table.  A second property pins failure detection: whenever
the generated programs diverge in collective order, the run must raise
:class:`CollectiveMismatchError` — never deliver mismatched payloads.

Op specs are plain data (dicts of ints/strings/shapes) so the SPMD program
stays a module-level function the process backend can ship to spawned
interpreters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import CollectiveMismatchError, SPMDError, reducers, run_spmd
from tests.runtime.fake_mpi import run_fake_mpi

DTYPES = ["int64", "float64", "int32", "uint8"]


def _make(spec):
    """Materialize one payload from its (dtype, shape, fill) spec."""
    dtype, length, fill = spec
    return (np.arange(length, dtype=dtype) + np.asarray(fill, dtype=dtype)).astype(
        dtype
    )


def _norm(value):
    """Comparable form (ndarrays -> (dtype, list))."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.tolist())
    return value


def _run_ops(comm, ops):
    """The fuzzed SPMD program: replay ``ops`` in order on every rank."""
    out = []
    for op in ops:
        kind = op["kind"]
        if kind == "bcast":
            mine = _make(op["payloads"][comm.rank])
            out.append(
                _norm(
                    comm.bcast(
                        mine if comm.rank == op["root"] else None, root=op["root"]
                    )
                )
            )
        elif kind == "allreduce":
            out.append(_norm(comm.allreduce(_make(op["payloads"][comm.rank]))))
        elif kind == "allgather":
            out.append(
                [_norm(v) for v in comm.allgather(_make(op["payloads"][comm.rank]))]
            )
        elif kind == "alltoall":
            row = [_make(s) for s in op["payloads"][comm.rank]]
            out.append([_norm(v) for v in comm.alltoall(row)])
        else:  # pragma: no cover - generator bug
            raise AssertionError(kind)
    return out


def _oracle(ops, p):
    """What every rank must observe, computed without any communicator."""
    expected = []
    for r in range(p):
        row = []
        for op in ops:
            kind = op["kind"]
            if kind == "bcast":
                row.append(_norm(_make(op["payloads"][op["root"]])))
            elif kind == "allreduce":
                values = [_make(s) for s in op["payloads"]]
                row.append(_norm(reducers.reduce_values(values, reducers.SUM)))
            elif kind == "allgather":
                row.append([_norm(_make(s)) for s in op["payloads"]])
            elif kind == "alltoall":
                row.append([_norm(_make(op["payloads"][src][r])) for src in range(p)])
        expected.append(row)
    return expected


def _payload_spec(draw, forced_len=None):
    dtype = draw(st.sampled_from(DTYPES))
    length = forced_len if forced_len is not None else draw(st.integers(0, 8))
    fill = draw(st.integers(0, 100))
    return (dtype, length, fill)


@st.composite
def op_sequences(draw, p):
    n_ops = draw(st.integers(1, 4))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["bcast", "allreduce", "allgather", "alltoall"]))
        if kind == "alltoall":
            payloads = [
                [_payload_spec(draw) for _ in range(p)] for _ in range(p)
            ]
            op = {"kind": kind, "payloads": payloads}
        elif kind == "allreduce":
            # elementwise SUM requires one shared shape across ranks
            length = draw(st.integers(0, 8))
            payloads = [_payload_spec(draw, forced_len=length) for _ in range(p)]
            op = {"kind": kind, "payloads": payloads}
        else:
            op = {"kind": kind, "payloads": [_payload_spec(draw) for _ in range(p)]}
            if kind == "bcast":
                op["root"] = draw(st.integers(0, p - 1))
        ops.append(op)
    return ops


class TestAgainstOracle:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_thread_backend_matches_oracle(self, data):
        p = data.draw(st.integers(1, 4), label="p")
        ops = data.draw(op_sequences(p), label="ops")
        res = run_spmd(p, _run_ops, ops, timeout=20.0, backend="thread")
        assert res.results == _oracle(ops, p)

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_process_backend_matches_oracle(self, data):
        p = data.draw(st.integers(1, 2), label="p")
        ops = data.draw(op_sequences(p), label="ops")
        res = run_spmd(p, _run_ops, ops, timeout=30.0, backend="process")
        assert res.results == _oracle(ops, p)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mpi_transport_matches_oracle(self, data):
        p = data.draw(st.integers(1, 4), label="p")
        ops = data.draw(op_sequences(p), label="ops")
        assert run_fake_mpi(p, _run_ops, ops).results == _oracle(ops, p)

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_backends_agree_including_accounting(self, data):
        p = 2
        ops = data.draw(op_sequences(p), label="ops")
        runs = {
            b: run_spmd(p, _run_ops, ops, timeout=30.0, backend=b)
            for b in ("thread", "process")
        }
        assert runs["thread"].results == runs["process"].results
        for rt, rp in zip(runs["thread"].stats.ranks, runs["process"].stats.ranks):
            assert dict(rt.bytes_sent_by_phase) == dict(rp.bytes_sent_by_phase)
            assert dict(rt.bytes_recv_by_phase) == dict(rp.bytes_recv_by_phase)
            assert dict(rt.messages_sent_by_phase) == dict(rp.messages_sent_by_phase)
            assert dict(rt.collectives_by_phase) == dict(rp.collectives_by_phase)


# ---------------------------------------------------------------------------
# Divergence detection
# ---------------------------------------------------------------------------

_OP_KINDS = ["bcast", "allreduce", "allgather", "alltoall", "barrier"]


def _divergent_program(comm, per_rank_ops):
    """Each rank follows its own op list — a broken SPMD program."""
    for kind in per_rank_ops[comm.rank]:
        if kind == "bcast":
            comm.bcast(comm.rank, root=0)
        elif kind == "allreduce":
            comm.allreduce(1)
        elif kind == "allgather":
            comm.allgather(comm.rank)
        elif kind == "alltoall":
            comm.alltoall(list(range(comm.size)))
        elif kind == "barrier":
            comm.barrier()


@st.composite
def divergent_op_lists(draw, p):
    """Same-length op lists that differ at exactly one position."""
    n_ops = draw(st.integers(1, 3))
    base = [draw(st.sampled_from(_OP_KINDS)) for _ in range(n_ops)]
    where = draw(st.integers(0, n_ops - 1))
    which = draw(st.integers(1, p - 1))  # rank 0 keeps the base order
    other = draw(st.sampled_from([k for k in _OP_KINDS if k != base[where]]))
    lists = [list(base) for _ in range(p)]
    lists[which][where] = other
    return lists


class TestDivergenceDetection:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_thread_backend_raises_mismatch(self, data):
        p = data.draw(st.integers(2, 4), label="p")
        lists = data.draw(divergent_op_lists(p), label="ops")
        with pytest.raises(SPMDError) as exc_info:
            run_spmd(p, _divergent_program, lists, timeout=20.0, backend="thread")
        assert isinstance(exc_info.value.original, CollectiveMismatchError)

    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_process_backend_raises_mismatch(self, data):
        p = 2
        lists = data.draw(divergent_op_lists(p), label="ops")
        with pytest.raises(SPMDError) as exc_info:
            run_spmd(p, _divergent_program, lists, timeout=30.0, backend="process")
        assert isinstance(exc_info.value.original, CollectiveMismatchError)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_mpi_transport_raises_mismatch(self, data):
        p = data.draw(st.integers(2, 4), label="p")
        lists = data.draw(divergent_op_lists(p), label="ops")
        with pytest.raises(CollectiveMismatchError):
            run_fake_mpi(p, _divergent_program, lists)

    def test_mismatch_error_names_every_rank(self):
        lists = [["allreduce"], ["allgather"], ["allreduce"]]
        for backend in ("thread", "process"):
            with pytest.raises(SPMDError) as exc_info:
                run_spmd(
                    3, _divergent_program, lists, timeout=20.0, backend=backend
                )
            msg = str(exc_info.value.original)
            assert "rank 0: allreduce" in msg
            assert "rank 1: allgather" in msg
            assert "rank 2: allreduce" in msg
