"""Process set-up shared by the benchmark's entry points.

Must run before numpy is imported: it pins the BLAS pools to one thread, so a
workload is one single-threaded process, and puts the checkout's own
``src`` first on the import path, so the benchmark measures the source tree
it sits in and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


class MissingSource(RuntimeError):
    pass


def prepare() -> None:
    """Pin BLAS threads, then make ``import thermbench`` load ``ROOT/src``."""
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap.prepare() must run before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "thermbench"
    if not (package / "__init__.py").is_file():
        raise MissingSource(f"no thermbench sources at {package}")
    sys.path.insert(0, str(SRC))
    import thermbench
    if Path(thermbench.__file__).resolve().parent != package.resolve():
        raise MissingSource(f"imported thermbench from {thermbench.__file__}, "
                            f"expected {package}")
