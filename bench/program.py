"""Locating the program under test and describing the machine it runs on.

BLAS is pinned to one thread before numpy is first imported, so both
sides of a comparison run with the same thread count on any machine.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(Exception):
    """The checkout holds no cpes sources to benchmark."""


def pin_blas_threads() -> None:
    """Must run before numpy is imported; child processes inherit it."""
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def load_cpes():
    """Import cpes from this checkout's src/, never from an installed copy."""
    if not (SRC / "cpes" / "__init__.py").is_file():
        raise ProgramMissing(f"no cpes sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpes

    if Path(cpes.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"cpes imported from {cpes.__file__}, not from {SRC}")
    return cpes


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.25 has no dict mode
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
    }
