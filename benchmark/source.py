"""Locate the package source of the checkout the benchmark runs in.

The benchmark imports ``tfqkd`` from ``src/`` next to its own directory,
never from an installed copy, so a run always measures the code in its
checkout.  The thread pools of the numerical libraries are limited to one
thread before numpy is imported: the load runs in one process, and a BLAS
pool competing for the two cores would only add noise.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def add_source_path() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit with 2."""
    if not (SRC / "tfqkd" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no tfqkd package under {SRC}; run it from a "
                         "checkout of the repository\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
