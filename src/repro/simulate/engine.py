"""Request-serving simulation engine.

Replays a request trace against a placement: each arriving request is
routed to one of the client's assigned servers (round-robin weighted by
the static assignment amounts, so the long-run split matches the
placement exactly), travels the tree path, and is counted against the
server's current unit window.

Outputs per-server load time-series, request latencies (path distance —
the quantity ``dmax`` bounds), and overload accounting: with a
deterministic trace a checker-valid placement must show **zero**
overloaded windows (this is asserted in the integration tests); with a
Poisson trace the overflow probability quantifies the static model's
safety margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

from ..core.errors import InvalidPlacementError
from ..core.instance import ProblemInstance
from ..core.placement import Placement
from .workload import Request

__all__ = ["SimulationResult", "simulate"]


@dataclass
class SimulationResult:
    """Aggregated outcome of a simulation run."""

    horizon: int
    served: int = 0
    latencies: List[float] = field(default_factory=list)
    #: server -> per-unit load vector
    unit_loads: Dict[int, List[int]] = field(default_factory=dict)
    #: (server, unit) pairs whose load exceeded W
    overloads: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def max_latency(self) -> float:
        return max(self.latencies) if self.latencies else 0.0

    @property
    def mean_latency(self) -> float:
        return (
            sum(self.latencies) / len(self.latencies) if self.latencies else 0.0
        )

    def peak_load(self, server: int) -> int:
        loads = self.unit_loads.get(server, [])
        return max(loads) if loads else 0

    @property
    def overload_fraction(self) -> float:
        """Fraction of (server, unit) windows that exceeded capacity."""
        windows = sum(len(v) for v in self.unit_loads.values())
        return len(self.overloads) / windows if windows else 0.0

    def summary(self) -> str:
        return (
            f"served {self.served} requests over {self.horizon} units; "
            f"latency mean {self.mean_latency:.2f} max {self.max_latency:.2f}; "
            f"{len(self.overloads)} overloaded windows "
            f"({self.overload_fraction * 100:.2f}%)"
        )


class _WeightedRoundRobin:
    """Deterministic weighted request router for one client.

    Implements smooth weighted round-robin: over any ``Σ w`` consecutive
    requests, server ``s`` receives exactly ``w_s`` of them — so the
    simulated per-unit load of a deterministic trace reproduces the
    static assignment.
    """

    __slots__ = ("targets", "weights", "current")

    def __init__(self, targets: Sequence[int], weights: Sequence[int]) -> None:
        self.targets = list(targets)
        self.weights = list(weights)
        self.current = [0] * len(targets)

    def next(self) -> int:
        total = sum(self.weights)
        best = 0
        for k in range(len(self.targets)):
            self.current[k] += self.weights[k]
            if self.current[k] > self.current[best]:
                best = k
        self.current[best] -= total
        return self.targets[best]


def _routers(
    instance: ProblemInstance, placement: Placement
) -> Dict[int, _WeightedRoundRobin]:
    """One router per served client, its servers ascending and weighted
    by their amounts.

    Raises
    ------
    InvalidPlacementError
        If a client with demand has no assigned server.
    """
    tree = instance.tree
    by_client = placement.by_client()
    routers: Dict[int, _WeightedRoundRobin] = {}
    for c in tree.clients:
        pairs = by_client.get(c)
        if tree.requests(c) > 0 and not pairs:
            raise InvalidPlacementError(
                f"client {c} has demand but no assigned server"
            )
        if pairs:
            routers[c] = _WeightedRoundRobin(
                [s for s, _a in pairs], [a for _s, a in pairs]
            )
    return routers


def simulate(
    instance: ProblemInstance,
    placement: Placement,
    trace: Sequence[Request],
    horizon: int,
) -> SimulationResult:
    """Replay ``trace`` against ``placement`` and collect metrics."""
    tree = instance.tree
    W = instance.capacity
    routers = _routers(instance, placement)

    dist_cache: Dict[Tuple[int, int], float] = {}

    def distance(c: int, s: int) -> float:
        key = (c, s)
        if key not in dist_cache:
            dist_cache[key] = tree.distance_to_ancestor(c, s)
        return dist_cache[key]

    result = SimulationResult(horizon=horizon)
    loads: Dict[int, List[int]] = {
        s: [0] * horizon for s in placement.replicas
    }

    # A stable sort: requests at the same time are served in trace order.
    ordered = sorted(trace, key=attrgetter("time"))
    if ordered and ordered[0].time < 0:
        raise ValueError(
            f"request time must be non-negative, got {ordered[0].time}"
        )
    for req in ordered:
        unit = min(int(req.time), horizon - 1)
        server = routers[req.client].next()
        loads[server][unit] += 1
        result.latencies.append(distance(req.client, server))
        result.served += 1

    result.unit_loads = loads
    for s, vec in loads.items():
        for unit, load in enumerate(vec):
            if load > W:
                result.overloads.append((s, unit))
    return result
