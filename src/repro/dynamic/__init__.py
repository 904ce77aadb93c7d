"""Online re-placement: keep a placement current under changing traffic.

The top layer of the stack (``core → algorithms → runner → service →
dynamic``): where the lower layers solve one static snapshot, this
package maintains a **standing placement** as the snapshot drifts —
client demand changes, hosts crash, capacity is resized — re-solving
only the *dirty subtrees* an event touched instead of the whole tree.

Entry points:

* :class:`DynamicPlacement` — the engine: wraps an instance + standing
  placement, folds :data:`ChangeEvent` batches via :meth:`apply`, and
  exposes :meth:`resolve_full` for repair-vs-resolve comparisons.
* :func:`random_event_trace` — seeded randomized event traces for
  experiments and property tests.
* :func:`repair_placement` / :func:`failure_study` — greedy rerouting
  of demand off failed replicas (the engine's repair fallback).
* :class:`IncrementalNodDP` / :class:`IncrementalSingleNod` — the
  memoized bottom-up solvers, reusable directly.

Dirty tracking is a column diff: a backend compares the demand column
and the failed set with those of its last fold and re-folds the changed
nodes and their root paths (everything when ``W``, the topology or the
deltas changed), so incremental results are byte-identical to a cold
solve.  See ``docs/simulation.md`` for the event model and
``docs/architecture.md`` for where this layer sits.
"""

from .engine import (
    MODE_FULL_RESOLVE,
    MODE_INCREMENTAL,
    MODE_INCREMENTAL_REPAIR,
    DynamicPlacement,
    DynamicStats,
    RepairOutcome,
)
from .events import (
    CapacityEvent,
    ChangeEvent,
    DemandEvent,
    FailureEvent,
    apply_event,
    apply_events_batch,
    describe_events,
    event_from_wire,
    event_to_wire,
    random_event_trace,
)
from .incremental import (
    IncrementalNodDP,
    IncrementalSingleNod,
    IncrementalStats,
    IncrementalUnsupported,
)
from .repair import RepairResult, failure_study, repair_placement

__all__ = [
    "DynamicPlacement",
    "RepairOutcome",
    "DynamicStats",
    "MODE_INCREMENTAL",
    "MODE_INCREMENTAL_REPAIR",
    "MODE_FULL_RESOLVE",
    "DemandEvent",
    "FailureEvent",
    "CapacityEvent",
    "ChangeEvent",
    "apply_event",
    "apply_events_batch",
    "random_event_trace",
    "describe_events",
    "event_to_wire",
    "event_from_wire",
    "IncrementalNodDP",
    "IncrementalSingleNod",
    "IncrementalStats",
    "IncrementalUnsupported",
    "RepairResult",
    "repair_placement",
    "failure_study",
]
