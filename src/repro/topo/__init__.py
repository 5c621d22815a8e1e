"""Topology-scale scenario generation (the ``repro.topo`` subsystem).

The paper's OLTP case study (Figure 8) shows dIPC's per-hop win on one
fixed 3-tier chain. This package generalizes that fixed chain into a
*scenario engine* for service graphs of arbitrary size, so the fig10
driver can ask the topology-scale question: at what graph depth/width
does dIPC's per-hop advantage compound into order-of-magnitude
end-to-end wins?

Three layers:

* :mod:`repro.topo.spec` — :class:`TopoSpec`, a declarative service
  graph (nodes with a work model, directed call edges, seq/par child
  visit order) with canonical JSON serialization and a stable content
  hash that feeds the runner cache;
* :mod:`repro.topo.generate` — :func:`generate`, a seeded deterministic
  generator for the six muBench-style service-graph patterns
  (sequential fanout, parallel fanout, chain-with-branching,
  hierarchical tree, probabilistic tree, complex mesh);
* :mod:`repro.topo.instantiate` — :class:`TopoTransport`, which
  materializes a spec onto a kernel as one domain per service with
  one channel per edge over a chosen primitive (dIPC vs
  pipe/socket/rpc/l4), behind the load transport ``build()``/``call()``
  API so the whole fig9 load harness (open/closed loops, shedding,
  supervision, breakers, chaos) drives topologies unchanged.

:mod:`repro.topo.stats` adds the repetition-aware statistics (mean and
Student-t confidence intervals across seeded reps) the fig10 report
uses, following the run-table + repetitions shape of the muBench
topology-scale replication.
"""

from repro.topo.generate import PATTERNS, generate
from repro.topo.spec import Edge, ServiceNode, TopoSpec
from repro.topo.stats import mean_ci

__all__ = [
    "Edge",
    "PATTERNS",
    "ServiceNode",
    "TopoSpec",
    "generate",
    "mean_ci",
]
