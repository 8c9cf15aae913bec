"""Communication-model interface shared by all scheduling heuristics.

A :class:`CommunicationModel` encapsulates *how communications consume
resources*: the macro-dataflow model consumes none (any number of
messages flow simultaneously), the one-port model serializes messages on
per-processor send/receive ports, and the routed model additionally
forwards messages hop by hop over a sparse topology.

Heuristics never manipulate ports directly.  Two protocols exist:

**Flat bookers (the construction hot path).**  A model that sets
``supports_flat`` provides :meth:`CommunicationModel.flat_booker`: a
stateless-per-candidate booker bound to rows of a
:class:`~repro.kernel.builder.FlatBuilder`.  ``trial_est`` books a
candidate's incoming messages tentatively (generation-stamped, O(1) to
reject) and ``commit_est`` re-derives and commits them; both take the
task's parents as interned ``(parent_finish, parent_ix, edge_ix,
parent_proc)`` rows.  :class:`~repro.heuristics.base.SchedulerState`
routes every registered heuristic through this path.

**Object trials (the reference path).**  The original per-candidate
mechanism, retained as the cross-check reference and for models without
a flat booker (multi-hop routing):

1. ``state = model.new_state()`` — fresh resource state for one run;
2. ``trial = state.trial()`` — tentative view for evaluating *one*
   candidate placement;
3. ``trial.edge_arrival(...)`` per incoming edge — books tentative
   resources, returns when the data reaches the candidate processor;
4. either drop the trial (candidate rejected) or
   ``trial.commit(schedule)`` — replay the tentative bookings onto the
   state and append the corresponding :class:`~repro.core.schedule.CommEvent`
   records to the schedule.

This mirrors the paper's Section 4.3: "since we have access to current
communication schedules for all processors, we can assign the new
communications as early as possible, in a greedy fashion" — the *trial*
is how a candidate's communications are placed without disturbing the
committed schedules of the other candidates.

The registry
------------
Models register under their spec name with :func:`register_model`;
:func:`make_model` is the single resolution path shared by the
heuristics, the CLI, the campaign engine, and the online policies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable

from ..core.exceptions import ConfigurationError
from ..core.platform import Platform
from ..core.schedule import Schedule

TaskId = Hashable

_INF = float("inf")


class CommTrial(ABC):
    """Tentative communication bookings for one candidate placement."""

    @abstractmethod
    def edge_arrival(
        self,
        src_task: TaskId,
        dst_task: TaskId,
        src_proc: int,
        dst_proc: int,
        ready: float,
        data: float,
    ) -> float:
        """Book the transfer of ``data`` items for edge ``src->dst``.

        ``ready`` is the earliest the message may leave (the source
        task's finish time).  Returns the arrival time at ``dst_proc``
        (``ready`` itself when both tasks share a processor).  The
        booking is tentative until :meth:`commit`.
        """

    @abstractmethod
    def commit(self, schedule: Schedule) -> None:
        """Make every tentative booking permanent and record its events."""


class CommState(ABC):
    """Committed communication-resource state for one scheduling run."""

    @abstractmethod
    def trial(self) -> CommTrial:
        """A fresh tentative view over this state."""

    def copy(self) -> "CommState":
        """Deep copy (used by chunk-rescheduling heuristic variants)."""
        raise NotImplementedError


class FlatBooker(ABC):
    """Flat-path message booking for one model over builder rows.

    ``parents`` rows are ``(parent_finish, parent_ix, edge_ix,
    parent_proc)`` tuples sorted by ``(parent_finish, parent_ix)`` —
    the greedy first-finished-first message order of the EFT engine.
    Local parents (``parent_proc == proc``) contribute their finish
    time directly and book nothing.
    """

    __slots__ = ()

    @abstractmethod
    def trial_est(self, parents, proc: int, cutoff: float = _INF, duration: float = 0.0) -> float:
        """Earliest data-ready time of a candidate on ``proc``.

        Books every remote parent's message *tentatively* into the
        builder's current trial generation; the caller starts the trial
        (``builder.begin_trial()``) and discards it for free.

        ``cutoff``/``duration`` enable exact early abort: the running
        ``est`` only grows, so once ``est + duration > cutoff`` the
        candidate's finish provably exceeds ``cutoff`` (float addition
        is monotone) and the booker may return the partial ``est``.
        Callers must re-test the same inequality before using the
        result as a real candidate.  Implementations may ignore the
        hint — it only skips work, never changes a kept candidate.
        """

    @abstractmethod
    def commit_est(self, parents, proc: int, out: list) -> float:
        """Commit the same greedy bookings against the committed rows.

        Appends one ``(edge_ix, src_proc, start, duration)`` record per
        remote parent to ``out`` (in booking order) for the caller to
        turn into schedule events.  Valid only when the committed rows
        are unchanged since the candidate was evaluated — the invariant
        every list heuristic satisfies.
        """

    @abstractmethod
    def rebind(self, builder) -> "FlatBooker":
        """The same booker (same row indices) over a copied builder."""


class CommunicationModel(ABC):
    """Factory for per-run communication states; carries the model name."""

    #: Model identifier, matching :mod:`repro.core.validation` constants.
    name: str = ""
    #: Registry spec name (set by :func:`register_model`).
    registry_name: str = ""
    #: Whether :meth:`flat_booker` is available (flat construction path).
    supports_flat: bool = False

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    @abstractmethod
    def new_state(self) -> CommState:
        """Fresh, empty communication state for a scheduling run."""

    def flat_booker(self, builder, statics) -> FlatBooker:
        """A :class:`FlatBooker` over ``builder`` rows (flat-path models)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no flat booker; use the object path"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(p={self.platform.num_processors})"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[CommunicationModel]] = {}


def register_model(name: str):
    """Class decorator adding a model to the registry under ``name``."""

    def decorate(cls: type[CommunicationModel]) -> type[CommunicationModel]:
        if name in _REGISTRY:
            raise ConfigurationError(f"duplicate model name {name!r}")
        cls.registry_name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def available_models() -> list[str]:
    """Registered model spec names."""
    return sorted(_REGISTRY)


def make_model(platform: Platform, model: str | CommunicationModel) -> CommunicationModel:
    """Resolve a registered model name (or pass an instance through).

    The single resolution path shared by heuristics, the CLI, the
    campaign engine, and the online policies.
    """
    if isinstance(model, CommunicationModel):
        return model
    try:
        cls = _REGISTRY[model]
    except KeyError:
        raise ConfigurationError(
            f"unknown communication model {model!r}; "
            f"available: {available_models()}"
        ) from None
    return cls(platform)
