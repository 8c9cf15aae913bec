"""Core substrates: task graphs, platforms, schedules, ranks, validation."""

from .bounds import (
    critical_path_lower_bound,
    makespan_lower_bound,
    work_lower_bound,
)
from .exceptions import (
    ConfigurationError,
    GraphError,
    PlatformError,
    ReproError,
    SchedulingError,
    TimelineError,
    ValidationError,
)
from .loadbalance import (
    ChunkLoadTracker,
    b_candidates,
    distribution_makespan,
    optimal_distribution,
    perfect_balance_count,
    share_limits,
    weight_shares,
)
from .platform import Platform
from .ranking import (
    bottom_levels,
    critical_path,
    critical_path_length,
    priority_order,
    top_levels,
)
from .schedule import CommEvent, Schedule, TaskPlacement
from .serialization import (
    canonical_json,
    graph_from_dict,
    graph_to_dict,
    load_schedule,
    platform_from_dict,
    platform_to_dict,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    stable_digest,
)
from .taskgraph import TaskGraph
from .tolerance import TIME_EPS, time_tol
from .validation import MACRO_DATAFLOW, ONE_PORT, is_valid, validate_schedule

__all__ = [
    "ChunkLoadTracker",
    "CommEvent",
    "ConfigurationError",
    "GraphError",
    "MACRO_DATAFLOW",
    "ONE_PORT",
    "Platform",
    "PlatformError",
    "ReproError",
    "Schedule",
    "SchedulingError",
    "TIME_EPS",
    "TaskGraph",
    "TaskPlacement",
    "TimelineError",
    "ValidationError",
    "b_candidates",
    "bottom_levels",
    "critical_path",
    "critical_path_length",
    "critical_path_lower_bound",
    "makespan_lower_bound",
    "work_lower_bound",
    "distribution_makespan",
    "canonical_json",
    "graph_from_dict",
    "graph_to_dict",
    "is_valid",
    "load_schedule",
    "platform_from_dict",
    "platform_to_dict",
    "save_schedule",
    "schedule_from_dict",
    "schedule_to_dict",
    "stable_digest",
    "time_tol",
    "optimal_distribution",
    "perfect_balance_count",
    "priority_order",
    "share_limits",
    "top_levels",
    "validate_schedule",
    "weight_shares",
]
