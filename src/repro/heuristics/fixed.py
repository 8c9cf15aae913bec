"""Scheduling with a *fixed* task-to-processor allocation.

Given an allocation ``alloc(v)``, only the timing remains: order the
computations on each processor and the messages on each port.  The
paper's Appendix (Theorem 2, COMM-SCHED) proves that even this timing
problem is NP-complete under the one-port model, which motivates the
greedy pass implemented here: tasks are visited by descending bottom
level (ties: insertion index, or a caller-supplied order) and their
incoming messages booked as early as possible.

Uses of this scheduler in the reproduction:

* re-timing the macro-dataflow allocation of the Figure 1 example under
  one-port rules (the paper's "the same allocation of tasks to
  processors would lead to a makespan at least 6");
* the greedy third step of the ILHA ``reschedule`` variant;
* building COMM-SCHED instances' schedules from candidate partitions.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

from ..core.exceptions import SchedulingError
from ..core.platform import Platform
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from ..models.base import CommunicationModel
from .base import ReadyQueue, Scheduler, SchedulerState, make_model, register_scheduler

TaskId = Hashable


@register_scheduler
class FixedAllocation(Scheduler):
    """Greedy timing of a given allocation under the chosen model.

    Parameters
    ----------
    alloc:
        Mapping from every task to its processor.
    order:
        Optional explicit scheduling order (must be topological); by
        default tasks go by descending bottom level.
    insertion:
        Insertion-based compute slots.
    """

    name = "fixed"

    def __init__(
        self,
        alloc: Mapping[TaskId, int],
        order: Sequence[TaskId] | None = None,
        insertion: bool = True,
    ):
        self.alloc = dict(alloc)
        self.order = list(order) if order is not None else None
        self.insertion = insertion

    def run(
        self,
        graph: TaskGraph,
        platform: Platform,
        model: str | CommunicationModel = "one-port",
    ) -> Schedule:
        model = make_model(platform, model)
        state = SchedulerState(
            graph, platform, model, heuristic=self.name, insertion=self.insertion
        )
        missing = [v for v in graph.tasks() if v not in self.alloc]
        if missing:
            raise SchedulingError(f"allocation missing task(s) {missing[:5]!r}")

        key = None  # bottom levels
        if self.order is not None:
            rank = {v: i for i, v in enumerate(self.order)}
            if len(rank) != graph.num_tasks:
                raise SchedulingError("explicit order must cover every task once")
            key = lambda v: (rank[v],)  # noqa: E731

        queue = ReadyQueue(graph, rank=state.priority_rank(key))
        while queue:
            task = queue.pop()
            state.schedule_on(task, self.alloc[task])
            queue.complete(task)
        return state.schedule
