"""Multi-server VOD cluster layer: topology, routing, admission, faults.

The paper measures one protocol on one unlimited server; this package
simulates the deployment picture the ROADMAP aims at — a fleet of
bandwidth-capped servers over a shared slotted timeline, a sharded or
replicated catalog, policy-driven request routing with admission control,
and deterministic fault injection with DHB-powered degraded-mode failover.
See ``docs/CLUSTER.md`` for the model and the ``cluster.*`` metric catalog.
"""

from .admission import CappedServer, SlotReport
from .faults import (
    NO_FAULTS,
    ChannelLoss,
    CrashWindow,
    FailoverEvent,
    FailoverReport,
    FaultSchedule,
    LostInstance,
    fail_over,
    lost_instances,
    reschedule_instance,
    supports_rescheduling,
)
from .routing import (
    ROUTER_NAMES,
    AffinityRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    Router,
    make_router,
)
from .scenario import (
    ClusterResult,
    ClusterScenario,
    ServerSummary,
    preset_scenarios,
    run_scenario,
    run_scenarios,
)
from .topology import (
    PLACEMENT_NAMES,
    CatalogPlacement,
    ClusterTopology,
    ServerSpec,
    build_placement,
    popularity_placement,
    replicated_placement,
    sharded_placement,
    uniform_topology,
)

__all__ = [
    "AffinityRouter",
    "CappedServer",
    "CatalogPlacement",
    "ChannelLoss",
    "ClusterResult",
    "ClusterScenario",
    "ClusterTopology",
    "CrashWindow",
    "FailoverEvent",
    "FailoverReport",
    "FaultSchedule",
    "LeastLoadedRouter",
    "LostInstance",
    "NO_FAULTS",
    "PLACEMENT_NAMES",
    "ROUTER_NAMES",
    "RoundRobinRouter",
    "Router",
    "ServerSpec",
    "ServerSummary",
    "SlotReport",
    "build_placement",
    "fail_over",
    "lost_instances",
    "make_router",
    "popularity_placement",
    "preset_scenarios",
    "replicated_placement",
    "reschedule_instance",
    "run_scenario",
    "run_scenarios",
    "sharded_placement",
    "supports_rescheduling",
    "uniform_topology",
]
