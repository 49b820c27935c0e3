"""Simulated MPI / BSP runtime.

The paper runs MPI + C++ on up to 32,768 Titan cores.  Here distributed
execution runs on one of two interchangeable backends behind
:func:`run_spmd`:

* **thread** (default) — every logical rank runs the real algorithm in its
  own thread against a :class:`~repro.runtime.comm.SimComm`, whose API
  mirrors mpi4py (``send``/``recv``, ``bcast``, ``allreduce``,
  ``alltoall``, ``allgather``, ``barrier``); under the GIL the ranks
  interleave exactly like a BSP machine.
* **process** — every rank runs in its own spawned interpreter
  (:mod:`repro.runtime.process_backend`), sharing the read-only CSR graph
  through :mod:`multiprocessing.shared_memory`, exchanging collectives
  directly over per-pair socket links and routing point-to-point messages
  through the parent over pipes, for true multi-core execution on the
  non-NumPy portions of a superstep.

Both backends meter every message with byte accuracy and log BSP
supersteps — the accounting code is shared in
:class:`~repro.runtime.commbase.CommBase`, and the conformance suite pins
identical results and counters — so the cost model in
:mod:`repro.runtime.costmodel` can convert any run into a simulated
distributed-memory makespan (see DESIGN.md, "Substitutions").
"""

from repro.runtime.comm import (
    SimComm,
    CommError,
    DeadlockError,
    CollectiveMismatchError,
    CorruptionError,
    Request,
)
from repro.runtime.commbase import CommBase
from repro.runtime.engine import run_spmd, resolve_backend, SPMDError
from repro.runtime.process_backend import (
    ChildCrashError,
    ProcComm,
    ProgramNotPicklableError,
)
from repro.runtime.stats import (
    RankStats,
    RunStats,
    SpanRecord,
    payload_nbytes,
    payload_checksum,
)
from repro.runtime.costmodel import MachineModel, SimulatedTime, simulate_time
from repro.runtime.tracing import TraceRecorder, save_trace
from repro.runtime.faults import (
    FaultPlan,
    FaultInjector,
    InjectedFault,
    InjectedCrash,
    CrashFault,
    Straggler,
    MessageDrop,
    MessageDuplicate,
    MessageDelay,
    MessageCorruption,
)
from repro.runtime import reducers

__all__ = [
    "SimComm",
    "CommBase",
    "ProcComm",
    "CommError",
    "DeadlockError",
    "CollectiveMismatchError",
    "CorruptionError",
    "ChildCrashError",
    "ProgramNotPicklableError",
    "Request",
    "run_spmd",
    "resolve_backend",
    "SPMDError",
    "RankStats",
    "RunStats",
    "SpanRecord",
    "payload_nbytes",
    "payload_checksum",
    "TraceRecorder",
    "save_trace",
    "MachineModel",
    "SimulatedTime",
    "simulate_time",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedCrash",
    "CrashFault",
    "Straggler",
    "MessageDrop",
    "MessageDuplicate",
    "MessageDelay",
    "MessageCorruption",
    "reducers",
]
