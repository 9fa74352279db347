"""Deterministic chaos: seeded fault injection for the simulated stack.

The subsystem has three moving parts:

- :class:`FaultPlan` — a declarative, seeded description of one chaos
  run: per-frame fault rates (drop / duplicate / reorder / corrupt) and
  partition windows. One ``random.Random(seed)``
  drives every probabilistic decision, so a failing run replays exactly.
- :class:`ChaosNetwork` — a :class:`~repro.net.network.SimulatedNetwork`
  that consults the plan for every frame it puts on a wire (including
  retransmissions and acks). Injected faults are counted in the
  ``chaos.injected`` metric family and logged to the flight recorder.
- :mod:`repro.util.failpoints` (re-exported here) — named crash points
  inside the durability and replication paths (``journal.append``,
  ``cluster.replicate``, ``cluster.ack``) that simulate torn writes and
  mid-replication process crashes.

The counterpart — what makes chaos survivable — is the reliable
transport in :mod:`repro.net.reliable` and the convergence harness in
:mod:`repro.chaos.convergence`, which asserts that a conference run
under N chaos seeds ends byte-identical to its fault-free control.
"""

from repro.chaos.network import CORRUPTED_PAYLOAD, ChaosNetwork
from repro.chaos.plan import (
    CORRUPT,
    DROP,
    DUPLICATE,
    FaultPlan,
    PARTITION_DROP,
    PartitionWindow,
    REORDER,
)
from repro.util.failpoints import (
    Failpoints,
    get_failpoints,
    set_failpoints,
    use_failpoints,
)

__all__ = [
    "CORRUPT",
    "CORRUPTED_PAYLOAD",
    "ChaosNetwork",
    "DROP",
    "DUPLICATE",
    "FaultPlan",
    "Failpoints",
    "PARTITION_DROP",
    "PartitionWindow",
    "REORDER",
    "get_failpoints",
    "set_failpoints",
    "use_failpoints",
]
