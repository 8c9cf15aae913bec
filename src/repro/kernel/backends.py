"""Kernel backend registry: the pure-Python reference vs the compiled engine.

The flat kernel has two interchangeable implementations of its booking
loop — the pure-Python reference ``python`` (:mod:`repro.kernel.builder`,
``SchedulerState``'s scalar sweeps) and the compiled ``cext`` engine
(:mod:`repro.kernel.cext_backend`, ``CextSchedulerState``).  Both
produce **bit-identical** schedules; they differ only in constant
factors.  ``cext`` falls back to ``python`` when the extension is not
built.

Selection follows the models-registry pattern
(:func:`repro.models.base.register_model`):

* :func:`register_backend` adds a :class:`KernelBackend` under a name;
* :func:`available_backends` lists them;
* the active backend is, in order of precedence, the one set with
  :func:`set_backend` / :func:`use_backend`, the ``REPRO_BACKEND``
  environment variable, or the default ``"python"``.

The environment variable is the cross-process channel: the CLI's
``--backend`` flag exports it so campaign worker processes inherit the
choice.
"""

from __future__ import annotations

import os

from ..core.exceptions import ConfigurationError

#: Environment variable naming the default backend for this process
#: (and, because it is inherited, its campaign workers).
BACKEND_ENV = "REPRO_BACKEND"

_DEFAULT = "python"


class KernelBackend:
    """One implementation of the kernel's hot primitives.

    ``state_class(model)`` returns the ``SchedulerState`` subclass that
    runs ``model`` (``None`` means the pure-Python base class), and ``propagate(tk, ...)`` runs one
    earliest-start propagation over a :class:`~repro.kernel.timed.TimedKernel`.
    Classes are resolved lazily so registering a backend never imports
    the heuristics layer at module-load time.
    """

    name = ""

    def state_class(self, model):
        return None

    def propagate(self, tk, dur=None, out_start=None, out_finish=None) -> float:
        return tk.propagate_kahn(dur=dur, out_start=out_start, out_finish=out_finish)


_REGISTRY: dict[str, KernelBackend] = {}
_ACTIVE: str | None = None  # explicit override; None -> environment/default


def register_backend(name: str):
    """Class decorator adding a backend to the registry under ``name``."""

    def decorate(cls: type[KernelBackend]) -> type[KernelBackend]:
        if name in _REGISTRY:
            raise ConfigurationError(f"duplicate backend name {name!r}")
        cls.name = name
        _REGISTRY[name] = cls()
        return cls

    return decorate


def available_backends() -> list[str]:
    """Registered backend names."""
    return sorted(_REGISTRY)


def current_backend_name() -> str:
    """The active backend's name (override, else environment, else default)."""
    if _ACTIVE is not None:
        return _ACTIVE
    name = os.environ.get(BACKEND_ENV, _DEFAULT)
    return name if name in _REGISTRY else _DEFAULT


def current_backend() -> KernelBackend:
    """The active :class:`KernelBackend` instance."""
    return _REGISTRY[current_backend_name()]


def get_backend(name: str) -> KernelBackend:
    """Resolve a backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        ) from None


def set_backend(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-wide backend override."""
    global _ACTIVE
    if name is not None:
        get_backend(name)
    _ACTIVE = name


class use_backend:
    """Context manager pinning the active backend (tests, benchmarks)."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._prev: str | None = None

    def __enter__(self) -> None:
        global _ACTIVE
        get_backend(self._name)
        self._prev = _ACTIVE
        _ACTIVE = self._name

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._prev


@register_backend("python")
class PythonBackend(KernelBackend):
    """The pure-Python reference implementation (the default)."""
