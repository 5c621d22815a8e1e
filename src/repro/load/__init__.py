"""Load generation and queueing for the IPC primitives (PR 4).

The paper's figures measure *unloaded* round-trip cost; the ROADMAP
north star is a server under heavy traffic. This package closes that
gap: it drives each IPC primitive (pipe, UNIX socket, local RPC, L4,
dIPC) with open-loop (Poisson/deterministic arrivals) or closed-loop
(N clients, think time) traffic against a multi-worker server pool on
the simulated kernel, through a bounded admission gate with *shed* or
*block* backpressure, and captures per-request latency in
:class:`repro.trace.histogram.LatencyHistogram`.

* :mod:`repro.load.arrivals` — seeded per-client arrival processes;
* :mod:`repro.load.queueing` — the admission gate and request deadline;
* :mod:`repro.load.transports` — one ``Channel`` class per registered
  primitive, and the single-hop transport that owns one channel;
* :mod:`repro.load.harness` — :func:`run_load_point`, the measurement
  loop that ``fig09_load`` decomposes into parallel-runner points.
"""

from repro.load.arrivals import OpenLoopArrivals, derive_client_seed
from repro.load.harness import LoadParams, LoadResult, run_load_point
from repro.load.queueing import (LOAD_SURVIVABLE, AdmissionGate,
                                 RequestQueue, RequestTimeout,
                                 with_deadline)
from repro.load.transports import PRIMITIVES, make_transport

__all__ = [
    "AdmissionGate",
    "LOAD_SURVIVABLE",
    "LoadParams",
    "LoadResult",
    "OpenLoopArrivals",
    "PRIMITIVES",
    "RequestQueue",
    "RequestTimeout",
    "derive_client_seed",
    "make_transport",
    "run_load_point",
    "with_deadline",
]
