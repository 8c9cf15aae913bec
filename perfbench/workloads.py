"""The benchmark workloads: seeded inputs, operations, output checks.

A workload turns ``(seed, i)`` into the ``i``-th *item* of an unbounded
input stream (generated outside the timed window, fresh objects on
every call so no cache of the package survives from an earlier item)
and names the *operations* run on an item.  Each operation is one
closed-loop call into the package's public API; its output is checked
after every operation of the item has run, outside the timed window.

``BENCHMARK.json`` lists two workloads, ``construct`` and ``dynamic``;
``dynamic`` runs one item of each of ``online``, ``search`` and
``routed`` per operation.  Why these parts (each stresses layers the
others bypass):

* ``construct`` — distinct ~1000-task DAGs, each scheduled by four list
  heuristics under the one-port model: validate, statics, rank,
  construct and materialize do nearly all the work; statics are cold
  per graph and shared by its four schedules, as in a campaign cell.
* ``online`` — seeded Poisson streams of ``lu``-12 jobs at a rate the
  platform sustains, simulated under periodic and reactive re-planning
  with lognormal noise: many small cold constructions (``replan_job``)
  plus a kernel propagation per finished activity.
* ``search`` — ``ils(heft)`` at a fixed move budget on irregular-300
  graphs: incremental-evaluator previews and commits do the work.
* ``routed`` — HEFT under the routed one-port model on a ring with
  ``inf`` links: the only workload on the object state and routing.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

#: ``Schedule.state_impl`` of a construction on the compiled engine.
CEXT = "flat-cext"


@dataclass
class Item:
    """One input of a workload and the values its checks derive from it."""

    index: int
    inputs: dict
    cache: dict = field(default_factory=dict)


class Workload:
    """Base class; subclasses set the class attributes and the hooks."""

    name = ""
    #: Operations always run, whatever ``--seconds`` says (so p90 has
    #: ten samples beyond it and ``quality_ratio`` its full prefix).
    min_ops = 120
    #: Leading operations whose quality is averaged into quality_ratio.
    quality_ops = 40

    def __init__(self, seed: int) -> None:
        from repro.experiments import paper_platform

        self.seed = seed
        self.platform = paper_platform()

    def item_seed(self, i: int) -> int:
        return self.seed * 1_000_003 + i

    # hooks -----------------------------------------------------------------
    def make_item(self, i: int) -> Item:
        raise NotImplementedError

    def ops(self, item: Item) -> list[tuple[str, object]]:
        """``(label, zero-argument callable)`` pairs, run in order."""
        raise NotImplementedError

    def work(self, label: str, out) -> int:
        return 1

    def quality(self, item: Item, label: str, out) -> float:
        raise NotImplementedError

    def check(self, item: Item, label: str, out) -> list[str]:
        """Names of the failed checks of one operation's output."""
        raise NotImplementedError

    def fingerprint(self, out):
        """A value equal for equal outputs (traced vs untraced run)."""
        return out.makespan()

    def digest(self, items: int = 3) -> str:
        """SHA-256 over the first ``items`` inputs (the seed's identity)."""
        h = hashlib.sha256()
        for i in range(items):
            for key, value in sorted(self.make_item(i).inputs.items()):
                h.update(key.encode())
                h.update(_describe(value).encode())
        return h.hexdigest()

    # shared checks ---------------------------------------------------------
    def _lower_bound(self, item: Item, graph, platform) -> float:
        from repro.core.bounds import makespan_lower_bound

        key = ("lb", id(graph))
        if key not in item.cache:
            item.cache[key] = makespan_lower_bound(graph, platform)
        return item.cache[key]

    @staticmethod
    def _validate(schedule) -> list[str]:
        from repro.core.validation import validate_schedule

        try:
            validate_schedule(schedule)
        except Exception as exc:  # any checker complaint is a failed output
            return [f"validate_schedule:{type(exc).__name__}: {exc}"]
        return []


def _describe(value) -> str:
    """Canonical text of an input (graphs, workloads, platforms, scalars)."""
    from repro.core.taskgraph import TaskGraph
    from repro.online import Workload as JobStream

    if isinstance(value, Item):
        return "{" + ";".join(f"{k}={_describe(v)}" for k, v in sorted(value.inputs.items())) + "}"
    if isinstance(value, TaskGraph):
        tasks = ",".join(f"{t!r}:{value.weight(t)!r}" for t in value.tasks())
        edges = ",".join(f"{u!r}>{v!r}:{value.data(u, v)!r}" for u, v in value.edges())
        return f"graph[{tasks}|{edges}]"
    if isinstance(value, JobStream):
        return "jobs[" + ";".join(
            f"{j.arrival!r}@{j.weight!r}:{_describe(j.graph)}" for j in value
        ) + "]"
    return repr(value)


class Construct(Workload):
    name = "construct"
    heuristics = (("heft", {}), ("ilha", {}), ("ilha", {"b": 8}), ("pct", {}))
    min_ops = 120
    quality_ops = 96  # the first 24 graphs, all four heuristics

    def __init__(self, seed: int, tasks: int = 1000) -> None:
        super().__init__(seed)
        from repro.heuristics import get_scheduler

        self.tasks = tasks
        self.schedulers = [
            (name + "".join(f":{k}={v}" for k, v in kw.items()), name, kw, get_scheduler(name, **kw))
            for name, kw in self.heuristics
        ]
        #: Graphs whose schedules are re-run on the python-flat reference.
        self._reference_rng = random.Random(seed ^ 0x5EED)
        self._reference: dict[int, bool] = {}

    def make_item(self, i: int) -> Item:
        from repro.graphs import make_testbed

        s = self.item_seed(i)
        if i % 2 == 0:
            graph = make_testbed("irregular", self.tasks, seed=s)
        else:  # the layered generator averages ~4.5 tasks per layer
            graph = make_testbed("layered", max(2, self.tasks * 2 // 9), seed=s)
        return Item(i, {"graph": graph})

    def ops(self, item):
        graph, platform = item.inputs["graph"], self.platform
        return [
            (label, lambda s=sched: s.run(graph, platform, "one-port"))
            for label, _, _, sched in self.schedulers
        ]

    def quality(self, item, label, out):
        return out.makespan() / self._lower_bound(item, item.inputs["graph"], self.platform)

    def _sampled(self, i: int) -> bool:
        """Seeded 1-in-8 sample of graphs (the first graph always)."""
        while len(self._reference) <= i:
            n = len(self._reference)
            self._reference[n] = n == 0 or self._reference_rng.random() < 0.125
        return self._reference[i]

    def check(self, item, label, out):
        from repro.heuristics import get_scheduler
        from repro.kernel import use_backend

        errs = []
        if out.state_impl != CEXT:
            errs.append(f"engine:{out.state_impl}")
        errs += self._validate(out)
        if self._sampled(item.index):
            name, kw = next((n, k) for lab, n, k, _ in self.schedulers if lab == label)
            with use_backend("python"):
                ref = get_scheduler(name, **kw).run(item.inputs["graph"], self.platform, "one-port")
            if ref.state_impl != "flat-python" or ref.makespan() != out.makespan():
                errs.append(f"reference:{ref.state_impl}:{ref.makespan()!r}!={out.makespan()!r}")
        return errs


class Online(Workload):
    """One operation simulates a job stream under each policy in turn.

    Both policies run inside one operation so every latency sample has
    the same mix (a 50/50 mix of two latency modes would put the median
    between them).
    """

    name = "online"
    policies = ("periodic:period=500", "reactive:threshold=0.1")
    noise = "lognormal:sigma=0.3"
    rate = 0.0002
    min_ops = 120
    quality_ops = 100

    def __init__(self, seed: int, jobs: int = 5, size: int = 12) -> None:
        super().__init__(seed)
        self.jobs = jobs
        self.size = size

    def make_item(self, i):
        from repro.online import make_workload

        s = self.item_seed(i)
        stream = make_workload("lu", self.size, self.jobs, arrival=f"poisson:rate={self.rate}", seed=s)
        return Item(i, {"stream": stream, "seed": s})

    def ops(self, item):
        from repro.online import simulate_online

        stream, s = item.inputs["stream"], item.inputs["seed"]

        def both():
            return [
                simulate_online(stream, self.platform, policy=p, noise=self.noise, seed=s,
                                log_events=False)
                for p in self.policies
            ]

        return [("periodic+reactive", both)]

    def work(self, label, out):
        return sum(r.events for r in out)

    def quality(self, item, label, out):
        return sum(r.aggregate()["mean_stretch"] for r in out) / len(out)

    def fingerprint(self, out):
        return [(r.events, r.aggregate()["mean_flow"], r.aggregate()["reschedules"]) for r in out]

    def check(self, item, label, out):
        from repro.heuristics import get_scheduler
        from repro.online import check_execution

        errs = []
        for policy, result in zip(self.policies, out):
            try:
                check_execution(result)
            except Exception as exc:  # any checker complaint is a failed output
                errs.append(f"check_execution[{policy}]:{type(exc).__name__}: {exc}")
            if len(result.jobs) != self.jobs:
                errs.append(f"online[{policy}]:jobs:{len(result.jobs)}")
        job = next(iter(item.inputs["stream"]))
        engine = get_scheduler("heft").run(job.graph, self.platform).state_impl
        if engine != CEXT:
            errs.append(f"engine:{engine}")
        return errs


class Search(Workload):
    name = "search"
    min_ops = 120
    quality_ops = 60

    def __init__(self, seed: int, tasks: int = 300, budget: int = 64) -> None:
        super().__init__(seed)
        self.tasks = tasks
        self.budget = budget

    def make_item(self, i):
        from repro.graphs import make_testbed

        s = self.item_seed(i)
        return Item(i, {"graph": make_testbed("irregular", self.tasks, seed=s), "seed": s})

    def ops(self, item):
        from repro.search import IteratedLocalSearch

        ils = IteratedLocalSearch(base="heft", budget=self.budget, seed=item.inputs["seed"])
        graph = item.inputs["graph"]
        return [("ils(heft)", lambda: ils.run(graph, self.platform, "one-port"))]

    def work(self, label, out):
        return out.search_stats["evals"]

    def quality(self, item, label, out):
        return out.makespan() / self._lower_bound(item, item.inputs["graph"], self.platform)

    def check(self, item, label, out):
        from repro.heuristics import get_scheduler
        from repro.simulate import extract_decisions, replay

        graph = item.inputs["graph"]
        errs = self._validate(out)
        again = replay(graph, self.platform, extract_decisions(out)).makespan()
        if again != out.makespan():
            errs.append(f"replay:{again!r}!={out.makespan()!r}")
        if out.search_stats["evals"] != self.budget:
            errs.append(f"budget:{out.search_stats['evals']}")
        base = get_scheduler("heft").run(graph, self.platform).state_impl
        if base != CEXT:
            errs.append(f"engine:{base}")
        return errs


def ring_platform():
    """The paper's ten processors on a bidirectional ring (``inf`` elsewhere)."""
    from repro.core.platform import Platform
    from repro.experiments import paper_platform

    base = paper_platform()
    p = base.num_processors
    inf = float("inf")
    links = [
        [0.0 if q == r else (1.0 if (q - r) % p in (1, p - 1) else inf) for r in range(p)]
        for q in range(p)
    ]
    return Platform(base.cycle_times, links)


class Routed(Workload):
    name = "routed"
    min_ops = 150
    quality_ops = 240

    def __init__(self, seed: int, tasks: int = 100) -> None:
        super().__init__(seed)
        from repro.heuristics import get_scheduler

        self.tasks = tasks
        self.platform = ring_platform()
        self.heft = get_scheduler("heft")

    def make_item(self, i):
        from repro.graphs import make_testbed

        # one size for every item: the latency median then moves with the
        # program and the machine, not with the sizes a seed happens to draw
        s = self.item_seed(i)
        return Item(i, {"graph": make_testbed("irregular", self.tasks, seed=s)})

    def ops(self, item):
        graph = item.inputs["graph"]
        return [("heft", lambda: self.heft.run(graph, self.platform, "routed"))]

    def quality(self, item, label, out):
        return out.makespan() / self._lower_bound(item, item.inputs["graph"], self.platform)

    def check(self, item, label, out):
        # the object state is the only multi-hop implementation today; a
        # flat-python / numpy engine would mean cext was bypassed
        errs = []
        if out.state_impl not in (CEXT, "object"):
            errs.append(f"engine:{out.state_impl}")
        return errs + self._validate(out)


class Dynamic(Workload):
    """One operation runs an item of ``online``, ``search`` and ``routed``.

    The three share one workload so that the benchmark lists only two:
    on a shared 2-vCPU host the speed swings for tens of seconds at a
    time, and the total time the benchmark's runs may take allows 45 s
    runs for two workloads but only about 20 s for four.  The parts stay
    runnable on their own (``--workload online``) for a focused look at
    one of them.  All three run inside one operation so that every
    latency sample has the same mix.
    """

    name = "dynamic"
    min_ops = 110
    quality_ops = 100

    def __init__(self, seed: int, parts: list[Workload] | None = None) -> None:
        super().__init__(seed)
        self.parts = parts or [Online(seed), Search(seed), Routed(seed)]

    def make_item(self, i):
        return Item(i, {p.name: p.make_item(i) for p in self.parts})

    def ops(self, item):
        # each part has exactly one operation
        calls = [p.ops(item.inputs[p.name])[0] for p in self.parts]
        return [(" + ".join(label for label, _ in calls), lambda: [call() for _, call in calls])]

    def quality(self, item, label, out):
        """Mean of the parts' quality ratios."""
        return sum(
            p.quality(item.inputs[p.name], label, o) for p, o in zip(self.parts, out)
        ) / len(self.parts)

    def check(self, item, label, out):
        return [
            f"{p.name}:{err}"
            for p, o in zip(self.parts, out)
            for err in p.check(item.inputs[p.name], label, o)
        ]

    def fingerprint(self, out):
        return [p.fingerprint(o) for p, o in zip(self.parts, out)]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Construct, Dynamic, Online, Search, Routed)
}
