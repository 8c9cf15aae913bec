"""Rescheduling policies: how a job stream is placed and reacted to.

A :class:`Policy` is the decision-making half of the online simulator
(the engine owns time and resources).  Policies are registered by name,
mirroring the heuristics registry, and are constructed from compact
specs (``"periodic:period=500"``) by :func:`make_policy`.

Built-in policies
-----------------
``static``
    Schedule each job at arrival with a registered heuristic, then
    execute the plan open loop — drift is absorbed, never corrected.
``periodic``
    Static planning plus a clairvoyance-free repair loop: every
    ``period`` time units, every in-flight job's not-yet-started tasks
    are re-planned with the same heuristic from the current state.
``reactive``
    Static planning plus drift-triggered repair: after each activity
    whose observed finish deviates from the plan, the job's completion
    is re-predicted through the flat kernel with observed durations
    (``propagate_kahn(dur=...)``), and the job is re-planned when the
    prediction drifts more than ``threshold`` (relative to the planned
    makespan).
``ready-dispatch``
    No plan at all: each task is dispatched when its last parent
    finishes, to the processor minimizing its estimated finish time
    under one-port-aware port/compute availability estimates — the
    non-clairvoyant online baseline.

Replanning never moves work the platform is already committed to: a
task is *pinned* once it has started or any of its input transfers has
started (shipped data is never re-shipped); everything else may move.
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.exceptions import ConfigurationError
from ..core.taskgraph import TaskGraph
from ..heuristics import get_scheduler
from ..kernel import TimedKernel, compile_statics
from ..kernel.backends import current_backend
from ..models import available_models
from .engine import (
    BLOCKED,
    CANCELLED,
    COMM,
    DONE,
    RELEASED,
    RUNNING,
    TASK,
    JobState,
    OnlineEngine,
)
from .workload import resolve_spec


class Policy:
    """Base policy: engine callbacks plus content identity."""

    name: str = ""

    def __init__(self) -> None:
        self.engine: OnlineEngine | None = None

    def bind(self, engine: OnlineEngine) -> None:
        """Attach to one engine run and reset per-run state."""
        self.engine = engine

    def on_arrival(self, jstate: JobState) -> None:
        raise NotImplementedError

    def on_activity_finish(self, jstate: JobState, act) -> None:
        pass

    def on_tick(self) -> None:
        pass

    def payload(self) -> dict:
        """JSON-able content identity (hashed into campaign cell keys)."""
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class PlanningPolicy(Policy):
    """Shared base of the plan-carrying policies: heuristic + model.

    Planning and re-planning run the heuristic through the flat builder
    ``SchedulerState`` (every registered heuristic does), so policy
    wake-ups pay the flat construction cost.
    """

    def __init__(
        self,
        heuristic: str = "heft",
        heuristic_kwargs: dict | None = None,
        model="one-port",
    ) -> None:
        super().__init__()
        self.heuristic = heuristic
        self.heuristic_kwargs = dict(heuristic_kwargs or {})
        self.model = model
        # fail on a bad heuristic or model name here, not mid-simulation
        self.scheduler = get_scheduler(heuristic, **self.heuristic_kwargs)
        if isinstance(model, str) and model not in available_models():
            raise ConfigurationError(
                f"unknown communication model {model!r}; "
                f"available: {available_models()}"
            )
        self._plan_cache: dict[int, tuple] = {}

    def bind(self, engine: OnlineEngine) -> None:
        super().bind(engine)
        self._plan_cache = {}

    def plan(self, graph):
        """The heuristic's schedule for ``graph``, memoized per graph.

        Workloads typically release many instances of one graph object;
        the plan is a pure function of (graph, platform, model), so one
        heuristic run serves the whole stream.  The cache entry pins the
        graph so an ``id()`` can never be recycled mid-run.
        """
        hit = self._plan_cache.get(id(graph))
        if hit is None:
            schedule = self.scheduler.run(graph, self.engine.platform, self.model)
            self._plan_cache[id(graph)] = (graph, schedule)
            return schedule
        return hit[1]

    def on_arrival(self, jstate: JobState) -> None:
        self.engine.install_plan(jstate, self.plan(jstate.job.graph))

    def payload(self) -> dict:
        model = self.model if isinstance(self.model, str) else type(self.model).__name__
        return {
            "name": self.name,
            "heuristic": {"name": self.heuristic, "kwargs": self.heuristic_kwargs},
            "model": model,
        }


class StaticPolicy(PlanningPolicy):
    """Plan at arrival, execute open loop."""

    name = "static"


# ----------------------------------------------------------------------
# replanning machinery (shared by periodic and reactive)
# ----------------------------------------------------------------------
def movable_tasks(jstate: JobState) -> list:
    """Tasks whose placement may still change, in topological order.

    A task is movable when (a) it has not started, (b) none of its
    input transfers has started or finished (shipped or in-flight data
    pins a task to its destination), and (c) every graph parent is
    either *finished* or itself movable.  Condition (c) closes
    movability transitively: a precedence path between two movable
    tasks then lies wholly inside the movable set, so the remaining
    subgraph the heuristic re-plans contains every precedence
    constraint among them — without it, the sub-plan's processor/port
    orders could contradict a dependency routed through a pinned
    in-flight task and deadlock the execution.
    """
    statics = jstate.statics
    task_acts = jstate.task_acts
    in_comms = jstate.in_comms
    esrc = statics.esrc
    movable: set[int] = set()
    out = []
    for ti in statics.topo_ix:
        task = statics.tasks[ti]
        act = task_acts[task]
        if act.state not in (BLOCKED, RELEASED):
            continue
        if any(c.state in (RUNNING, DONE) for c in in_comms.get(task, ())):
            continue
        if any(
            e_src not in movable and task_acts[statics.tasks[e_src]].state != DONE
            for e_src in (esrc[e] for e in statics.pred_rows[ti])
        ):
            continue
        movable.add(ti)
        out.append(task)
    return out


def replan_job(engine: OnlineEngine, jstate: JobState, scheduler, model) -> bool:
    """Re-plan a job's movable tasks with ``scheduler`` from current state.

    Cancels every not-yet-started activity of the movable set (task
    executions, their input transfers, and transfers they source), runs
    the heuristic on the *remaining subgraph*, and installs the new
    sub-plan: new activities wired with the sub-plan's order edges plus
    boundary dependencies from pinned parents (a transfer activity when
    the data must cross processors, a plain precedence edge otherwise).
    Returns False when nothing can move.
    """
    movable = set(movable_tasks(jstate))
    if not movable:
        return False
    graph = jstate.job.graph
    statics = jstate.statics
    now = engine.now

    # -- cancel the movable closure ------------------------------------
    cancelled = []
    for task in movable:
        act = jstate.task_acts[task]
        act.state = CANCELLED
        cancelled.append(act)
        for c in jstate.in_comms.get(task, ()):
            if c.state in (BLOCKED, RELEASED):
                c.state = CANCELLED
                cancelled.append(c)
    # transfers sourced by a movable task feed pinned consumers; they
    # cannot have started (their source has not finished) and their
    # endpoints are stale once the source moves
    for task, comms in jstate.in_comms.items():
        if task in movable:
            continue
        for c in comms:
            if c.state in (BLOCKED, RELEASED):
                e = c.node - statics.num_tasks
                if statics.tasks[statics.esrc[e]] in movable:
                    c.state = CANCELLED
                    cancelled.append(c)
    # surviving blocked activities that waited on a cancelled one lose
    # that predecessor (the new plan re-adds boundary edges explicitly)
    released_now = []
    for act in cancelled:
        for succ in act.succs:
            if succ.state == BLOCKED:
                succ.npred -= 1
                if not succ.npred:
                    released_now.append(succ)

    # -- re-plan the remaining subgraph --------------------------------
    sub = TaskGraph(name=f"{graph.name}@t{now:g}")
    order = [v for v in statics.tasks if v in movable]
    for v in order:
        sub.add_task(v, graph.weight(v))
    for u, v in graph.edges():
        if u in movable and v in movable:
            sub.add_dependency(u, v, graph.data(u, v))
    schedule = scheduler.run(sub, engine.platform, model)

    from ..simulate import extract_decisions

    sub_statics = compile_statics(sub, engine.platform)
    kern = TimedKernel.from_decisions(sub_statics, extract_decisions(schedule))
    current_backend().propagate(kern)
    jstate.kernel = kern
    jstate.plan_offset = now
    jstate.planned_ms = kern.makespan
    jstate.reschedules += 1
    acts = engine.build_plan_activities(jstate, kern)

    # -- boundary dependencies from pinned parents ---------------------
    platform = engine.platform
    for v in order:
        v_act = jstate.task_acts[v]
        ti = sub_statics.tindex[v]
        for u in graph.predecessors(v):
            if u in movable:
                continue  # handled by the sub-plan
            u_act = jstate.task_acts[u]
            p_u = u_act.procs[0]
            p_v = kern.alloc[ti]
            if p_u == p_v:
                if u_act.state != DONE:
                    u_act.succs.append(v_act)
                    v_act.npred += 1
                continue
            data = graph.data(u, v)
            c = engine.new_activity(
                jstate,
                COMM,
                statics.num_tasks + statics.eindex[(u, v)],
                f"{u}->{v}",
                platform.comm_time(data, p_u, p_v),
                (engine.send_rid(p_u), engine.recv_rid(p_v)),
            )
            c.procs = (p_u, p_v)
            c.data = data
            c.succs = [v_act]
            v_act.npred += 1
            jstate.in_comms[v].append(c)
            if u_act.state == DONE:
                engine.activate(c)
            else:
                u_act.succs.append(c)
                c.npred = 1

    # -- boundary dependencies toward pinned consumers -----------------
    # a movable task may feed a task that is pinned (e.g. its other
    # input transfer already started); the cancelled transfer between
    # them must be re-established from the source's new placement
    for u in order:
        u_act = jstate.task_acts[u]
        p_u = u_act.procs[0]
        for v in graph.successors(u):
            if v in movable:
                continue
            v_act = jstate.task_acts[v]
            p_v = v_act.procs[0]
            if p_u == p_v:
                u_act.succs.append(v_act)
                v_act.npred += 1
                continue
            data = graph.data(u, v)
            c = engine.new_activity(
                jstate,
                COMM,
                statics.num_tasks + statics.eindex[(u, v)],
                f"{u}->{v}",
                platform.comm_time(data, p_u, p_v),
                (engine.send_rid(p_u), engine.recv_rid(p_v)),
            )
            c.procs = (p_u, p_v)
            c.data = data
            c.npred = 1
            c.succs = [v_act]
            v_act.npred += 1
            u_act.succs.append(c)
            jstate.in_comms[v].append(c)

    for act in acts.values():
        engine.activate(act)
    for act in released_now:
        if act.state == BLOCKED and not act.npred:
            engine.activate(act)
    return True


class PeriodicPolicy(PlanningPolicy):
    """Re-plan every in-flight job every ``period`` time units."""

    name = "periodic"

    def __init__(self, period: float = 500.0, **kwargs) -> None:
        super().__init__(**kwargs)
        if period <= 0:
            raise ConfigurationError(f"periodic policy needs period > 0, got {period}")
        self.period = period
        self._armed = False

    def bind(self, engine: OnlineEngine) -> None:
        super().bind(engine)
        self._armed = False

    def on_arrival(self, jstate: JobState) -> None:
        super().on_arrival(jstate)
        if not self._armed:
            self._armed = True
            self.engine.push_tick(self.period)

    def on_tick(self) -> None:
        if not self.engine.active_jobs:
            self._armed = False
            return
        for jstate in self.engine.jobs:
            if jstate.arrived and not jstate.complete:
                replan_job(self.engine, jstate, self.scheduler, self.model)
        self.engine.push_tick(self.period)

    def payload(self) -> dict:
        return {**super().payload(), "period": self.period}


class ReactivePolicy(PlanningPolicy):
    """Re-plan a job when its re-predicted completion drifts too far.

    After each finished activity whose observed duration deviates from
    the estimate, the job's completion is re-predicted by one flat
    kernel pass with observed durations substituted for the finished
    nodes (the ``propagate_kahn(dur=...)`` hook); a relative drift
    beyond ``threshold`` triggers a re-plan of the movable tasks.
    """

    name = "reactive"

    def __init__(self, threshold: float = 0.1, **kwargs) -> None:
        super().__init__(**kwargs)
        if threshold <= 0:
            raise ConfigurationError(
                f"reactive policy needs threshold > 0, got {threshold}"
            )
        self.threshold = threshold

    def on_arrival(self, jstate: JobState) -> None:
        super().on_arrival(jstate)
        jstate.data["observed"] = dict()

    def on_activity_finish(self, jstate: JobState, act) -> None:
        if jstate.complete or act.planned is None:
            return
        kern = jstate.kernel
        observed = jstate.data.setdefault("observed", {})
        # node ids are graph-stable; map into the *current* plan kernel
        observed[act.node] = act.dur
        if act.dur == act.est:
            return
        n_full = jstate.statics.num_tasks
        statics = kern.statics
        dur = list(kern.dur)
        if statics is jstate.statics:
            for node, d in observed.items():
                dur[node] = d
        else:
            # sub-plan kernel: translate full-graph node ids
            n_sub = statics.num_tasks
            tindex, eindex = statics.tindex, statics.eindex
            full = jstate.statics
            for node, d in observed.items():
                if node < n_full:
                    i = tindex.get(full.tasks[node])
                    if i is not None:
                        dur[i] = d
                else:
                    e = eindex.get(full.edges[node - n_full])
                    if e is not None:
                        dur[n_sub + e] = d
        size = len(dur)
        predicted = current_backend().propagate(
            kern, dur=dur, out_start=[0.0] * size, out_finish=[0.0] * size
        )
        drift = abs(predicted - jstate.planned_ms)
        if drift > self.threshold * max(jstate.planned_ms, 1.0):
            replan_job(self.engine, jstate, self.scheduler, self.model)

    def payload(self) -> dict:
        return {**super().payload(), "threshold": self.threshold}


class ReadyDispatchPolicy(Policy):
    """Online min-EFT over ready tasks: no plan, no clairvoyance.

    Each task is dispatched the moment its last parent finishes, to the
    processor minimizing its estimated finish time given the policy's
    running availability estimates of every compute resource and port
    (one transfer at a time per port — one-port aware).  Transfers for
    remote parents are booked first-finished-first, mirroring the
    offline EFT engine's greedy message order.
    """

    name = "ready-dispatch"

    def __init__(self) -> None:
        super().__init__()
        self._proc_est: list[float] = []
        self._send_est: list[float] = []
        self._recv_est: list[float] = []

    def bind(self, engine: OnlineEngine) -> None:
        super().bind(engine)
        num = engine.platform.num_processors
        self._proc_est = [0.0] * num
        self._send_est = [0.0] * num
        self._recv_est = [0.0] * num

    def on_arrival(self, jstate: JobState) -> None:
        graph = jstate.job.graph
        jstate.data["indeg"] = {v: graph.in_degree(v) for v in graph.tasks()}
        jstate.in_comms = {}
        for v in graph.tasks():
            if not jstate.data["indeg"][v]:
                self._dispatch(jstate, v)

    def on_activity_finish(self, jstate: JobState, act) -> None:
        if act.kind != TASK:
            return
        indeg = jstate.data["indeg"]
        for child in jstate.job.graph.successors(act.label):
            indeg[child] -= 1
            if not indeg[child]:
                self._dispatch(jstate, child)

    def _dispatch(self, jstate: JobState, task) -> None:
        engine = self.engine
        statics = jstate.statics
        now = engine.now
        ti = statics.tindex[task]
        exec_row = statics.exec_[ti]
        link_rows = statics.link_rows
        # parents are all DONE (that is what made the task ready)
        parents = []
        for e in statics.pred_rows[ti]:
            p_act = jstate.task_acts[statics.tasks[statics.esrc[e]]]
            parents.append((p_act.finish, e, p_act))
        parents.sort(key=lambda it: (it[0], it[1]))

        best = None
        for p in range(engine.platform.num_processors):
            send = self._send_est
            recv_p = max(self._recv_est[p], now)
            arrival = now
            booked = []
            send_over: dict[int, float] = {}
            for pfinish, e, p_act in parents:
                pp = p_act.procs[0]
                if pp == p:
                    arr = pfinish
                else:
                    s = max(send_over.get(pp, send[pp]), recv_p, pfinish, now)
                    f = s + statics.edata[e] * link_rows[pp][p]
                    send_over[pp] = f
                    recv_p = f
                    booked.append((e, p_act, s, f))
                    arr = f
                if arr > arrival:
                    arrival = arr
            start = max(self._proc_est[p], arrival)
            finish = start + exec_row[p]
            key = (finish, start, p)
            if best is None or key < best[0]:
                best = (key, p, booked, send_over, recv_p)

        key, p, booked, send_over, recv_est = best
        act = engine.new_activity(jstate, TASK, ti, task, exec_row[p], (p,))
        act.procs = (p,)
        jstate.task_acts[task] = act
        comms = jstate.in_comms.setdefault(task, [])
        for e, p_act, _s, _f in booked:
            pp = p_act.procs[0]
            c = engine.new_activity(
                jstate,
                COMM,
                statics.num_tasks + e,
                f"{p_act.label}->{task}",
                statics.edata[e] * link_rows[pp][p],
                (engine.send_rid(pp), engine.recv_rid(p)),
            )
            c.procs = (pp, p)
            c.data = statics.edata[e]
            c.succs = [act]
            act.npred += 1
            comms.append(c)
            engine.activate(c)
        # commit the availability estimates of the winning candidate
        for pp, f in send_over.items():
            self._send_est[pp] = f
        self._recv_est[p] = max(self._recv_est[p], recv_est)
        self._proc_est[p] = key[1] + exec_row[p]
        act.planned = None
        engine.activate(act)


_POLICIES: dict[str, Callable[..., Policy]] = {
    "static": StaticPolicy,
    "periodic": PeriodicPolicy,
    "reactive": ReactivePolicy,
    "ready-dispatch": ReadyDispatchPolicy,
}

#: Primary parameter bound by the ``name:value`` positional shorthand.
_POLICY_PRIMARY = {"periodic": "period", "reactive": "threshold"}


def available_policies() -> list[str]:
    return sorted(_POLICIES)


def make_policy(spec: str | dict | Policy, **overrides) -> Policy:
    """Build a policy from ``"periodic:period=500"`` / dict / instance.

    ``overrides`` (e.g. the campaign's heuristic axis) take precedence
    over same-named parameters in the spec.
    """
    if isinstance(spec, Policy):
        if overrides:
            raise ConfigurationError(
                "cannot apply overrides to an already-built policy instance"
            )
        return spec
    name, params = resolve_spec(
        spec,
        key="name",
        primaries=_POLICY_PRIMARY,
        available=available_policies(),
        what="policy",
    )
    params.update(overrides)
    try:
        return _POLICIES[name](**params)
    except TypeError as exc:
        raise ConfigurationError(f"bad policy spec {spec!r}: {exc}") from None
