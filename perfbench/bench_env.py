"""Process environment of the benchmark: pinned threads, package location.

Import this before numpy.  :func:`pin` must run before any numerical
library is imported, because BLAS and OpenMP read their thread counts
once, at load time.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: Package settings that select another code path than the default one.
CLEARED = ("SQZ_SENSOR_BACKEND", "SQZ_SENSOR_THREADS")

#: Thread pools of the numerical libraries, pinned to one thread so the
#: parent and a change run the same single-threaded path on any machine.
PINNED = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)


def pin() -> None:
    """Clear the package's backend overrides and pin library threads to 1."""
    for name in CLEARED:
        os.environ.pop(name, None)
    for name in PINNED:
        os.environ[name] = "1"


def use_checkout_source() -> None:
    """Import ``sqz_sensor`` from this checkout's ``src`` and nowhere else.

    Exits with code 2 when the source tree is missing, so the benchmark
    never measures an installed copy of the package by accident.
    """
    if not (SRC / "sqz_sensor" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC / 'sqz_sensor'}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sqz_sensor

    if Path(sqz_sensor.__file__).resolve().parent != SRC / "sqz_sensor":
        sys.stderr.write(f"perfbench: imported sqz_sensor from {sqz_sensor.__file__}\n")
        raise SystemExit(2)
