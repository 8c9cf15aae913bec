"""Shared timing and provenance plumbing for the benchmark scripts.

Every ``bench_*.py`` script used to carry its own copy of the
min-of-rounds timer and assembled its own metadata header; they now
share this module so each committed ``BENCH_*.json`` carries the same
environment stamp (host, platform, python, numpy, active kernel
backend) and the timing discipline cannot drift between scripts.

Not a pytest module (the leading underscore keeps it out of test
collection); imported by the sibling scripts, which run with the
``benchmarks/`` directory as ``sys.path[0]``.
"""

from __future__ import annotations

import json
import platform as platform_mod
import time
from datetime import datetime, timezone
from pathlib import Path


def best_of(fn, rounds: int, repeats: int) -> float:
    """Min-of-rounds mean latency of ``fn()`` in seconds.

    Runs ``rounds`` blocks of ``repeats`` calls and keeps the best
    per-call mean — robust to OS scheduler noise, the same discipline
    every benchmark in the repo uses.
    """
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter() - t0) / repeats)
    return best


def bench_env() -> dict:
    """Provenance stamp shared by every ``BENCH_*.json``."""
    import numpy

    from repro.kernel.backends import current_backend_name

    return {
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": platform_mod.node(),
        "platform": platform_mod.platform(),
        "python": platform_mod.python_version(),
        "numpy": numpy.__version__,
        "backend": current_backend_name(),
    }


def write_result(path, result: dict) -> Path:
    """Stamp ``result`` with :func:`bench_env` and write it as JSON.

    Keys the script already set (e.g. an explicit ``backends`` list)
    win over the environment stamp.
    """
    result = {**bench_env(), **result}
    path = Path(path)
    path.write_text(json.dumps(result, indent=2) + "\n")
    return path
