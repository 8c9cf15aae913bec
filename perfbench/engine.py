"""Out-of-tree build and loading of the compiled kernel engine.

The benchmark never measures an extension it did not build itself:
``src/repro/kernel/_cextmodule.c`` of the checked-out tree is compiled
with the repository's own ``setup.py build_ext`` into a build directory
of the benchmark's (never into ``src/``), and the resulting shared
object is installed as ``repro.kernel._cext`` *before* the package is
imported.  A stale in-place ``.so`` from another commit therefore
cannot be picked up, and a failed build is an error, never a silent
fallback to the pure-Python engine.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import platform as platform_mod
import subprocess
import sys
from pathlib import Path

#: Repository root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
C_SOURCE = SRC / "repro" / "kernel" / "_cextmodule.c"
#: Everything the benchmark writes goes below this (git-ignored) dir.
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
EXT_NAME = "repro.kernel._cext"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing tree, failed build, ...)."""


def check_tree() -> None:
    """Fail fast unless this is a full checkout of the repository."""
    for path in (SRC / "repro" / "__init__.py", C_SOURCE, ROOT / "setup.py"):
        if not path.is_file():
            raise BenchError(f"not a repro checkout: {path} is missing")


def build_cext(out: Path) -> Path:
    """Compile the C engine into ``out``; return the shared object path."""
    lib, tmp = out / "lib", out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, "setup.py", "-q", "build_ext",
        "--build-lib", str(lib), "--build-temp", str(tmp),
    ]
    # the compiler's scratch files stay inside the checkout too
    env = {**os.environ, "TMPDIR": str(tmp)}
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=False
    )
    found = sorted((lib / "repro" / "kernel").glob("_cext.*"))
    found = [p for p in found if p.name.endswith(tuple(importlib.machinery.EXTENSION_SUFFIXES))]
    if proc.returncode != 0 or not found:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-5:]
        raise BenchError("building the cext engine failed: " + " | ".join(tail))
    return found[0]


def load_cext(so_path: Path):
    """Install the built engine as ``repro.kernel._cext`` and select it.

    Must run before anything imports :mod:`repro.kernel`; the package's
    own ``from . import _cext`` then resolves to this module.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if "repro.kernel" in sys.modules and sys.modules.get(EXT_NAME) is None:
        raise BenchError("repro.kernel was imported before the engine was loaded")
    if EXT_NAME not in sys.modules:
        loader = importlib.machinery.ExtensionFileLoader(EXT_NAME, str(so_path))
        spec = importlib.util.spec_from_file_location(EXT_NAME, so_path, loader=loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        sys.modules[EXT_NAME] = module
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")
    from repro.kernel import set_backend
    from repro.kernel.cext_backend import cext_available

    if not cext_available():
        raise BenchError("the built cext engine did not import")
    set_backend("cext")
    return sys.modules[EXT_NAME]


#: Cold import of the package with the engine, in a fresh interpreter.
_IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from perfbench import engine; engine.load_cext(engine.Path(sys.argv[2])); "
    "import repro.heuristics, repro.online, repro.search, repro.simulate"
)


def time_cold_import(so_path: Path) -> None:
    """Import the package and engine in a child interpreter (for set-up)."""
    subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT), str(so_path)],
        cwd=ROOT, check=True, timeout=120, capture_output=True,
    )


def provenance() -> dict:
    """Engine build info, source digest, CPU count and the env stamp."""
    from repro.kernel.cext_backend import cext_build_info

    spec = importlib.util.spec_from_file_location(
        "_perfbench_harness", ROOT / "benchmarks" / "_harness.py"
    )
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return {
        "cext_build_info": cext_build_info(),
        "cext_source_sha256": hashlib.sha256(C_SOURCE.read_bytes()).hexdigest(),
        "nproc": os.cpu_count(),
        "machine": platform_mod.machine(),
        "env": harness.bench_env(),
    }
