"""Process set-up shared by the benchmark scripts.

Import this before numpy: it caps the BLAS thread pools at the number of
usable cores and puts the checkout's ``src`` directory first on
``sys.path``, so the benchmark always drives the package from source.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> None:
    """Cap BLAS threads and make ``import chaosmask`` load ``src/chaosmask``.

    Exits with code 1 when the checkout has no package source.
    """
    for var in BLAS_VARS:
        if not os.environ.get(var, "").isdigit() or int(os.environ[var]) > NPROC:
            os.environ[var] = str(NPROC)
    if not (SRC / "chaosmask" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'chaosmask'}")
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Exit with code 1 unless ``module`` was loaded from the checkout."""
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: {module.__name__} loaded from {module.__file__}, not {SRC}")


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"
